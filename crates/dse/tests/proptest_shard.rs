//! Arbitrary-input properties for the checkpoint's on-disk state: shard
//! record lines and `manifest.json`. Both are read back from a directory
//! anything may have touched, so every mutation of a real line — a value
//! swapped for a boundary number or a value of another type, a key
//! dropped or duplicated, the line cut short — must come back as `Ok` or
//! `Err`, never a panic. A record line that parses holds only values its
//! quantities' checked constructors accept, and re-serializes to a line
//! that parses back to the same record.
//!
//! Like `proptest_spec.rs`, each property draws its cases from seeded
//! ChaCha streams (case `n` is seed `n`); a failure prints the line that
//! caused it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use noc_dse::{
    parse_record_json, run_scenarios, Checkpoint, MapperSpec, RoutingSpec, RunRecord, ScenarioSet,
    SimulateSpec, TopologySpec,
};
use noc_units::{mbps, HopMbps, Latency, Mbps};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Record-line cases per property.
const CASES: u64 = 2_048;

/// Manifest cases: each one writes a file, so they run fewer.
const MANIFEST_CASES: u64 = 512;

/// Replacement values: boundary, negative-zero and non-finite numbers,
/// an integer one past `u64::MAX`, and a value of every other JSON type
/// (`{}` is outside the flat format the readers accept).
const VALUES: &str = "-1 -0 0 1e308 1e999 -1e999 18446744073709551616 \"x\" null true {}";

/// A small simulating sweep: 2 apps × 2 topologies × 2 routings × 2
/// bandwidths = 16 scenarios. Neither app fits the 2x2 mesh, so half the
/// records are error records with null simulation columns.
fn sweep() -> ScenarioSet {
    ScenarioSet::builder()
        .root_seed(5)
        .app(noc_apps::App::Pip)
        .dsp()
        .topology(TopologySpec::FitMesh)
        .topology(TopologySpec::Mesh { dims: vec![2, 2] })
        .mapper(MapperSpec::NmapInit)
        .routing(RoutingSpec::MinPath)
        .routing(RoutingSpec::McfQuadrant)
        .simulate(SimulateSpec {
            bandwidths_mbps: vec![mbps(700.0), mbps(1_200.0)],
            warmup_cycles: 200,
            measure_cycles: 800,
            drain_cycles: 400,
            ..Default::default()
        })
        .build()
}

/// The `"key":value` fields of a flat JSON object line, split at the
/// commas outside strings.
fn fields(line: &str) -> Vec<String> {
    let body = line.strip_prefix('{').and_then(|b| b.strip_suffix('}')).expect("an object");
    let mut fields = vec![String::new()];
    let (mut in_string, mut escaped) = (false, false);
    for c in body.chars() {
        match c {
            ',' if !in_string => {
                fields.push(String::new());
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            _ => {}
        }
        escaped = in_string && c == '\\' && !escaped;
        fields.last_mut().expect("one field at least").push(c);
    }
    fields
}

/// `line` after one to three field mutations (a value replaced, a field
/// dropped or duplicated), then, one time in four, cut at a random byte.
fn mutate(rng: &mut ChaCha8Rng, line: &str) -> String {
    let mut fields = fields(line);
    for _ in 0..rng.gen_range(1..=3usize) {
        let i = rng.gen_range(0..fields.len());
        match rng.gen_range(0..4) {
            0 | 1 => {
                let key_end = fields[i].find("\":").expect("a key") + 1;
                let values: Vec<&str> = VALUES.split(' ').collect();
                let value = values[rng.gen_range(0..values.len())];
                fields[i] = format!("{}:{value}", &fields[i][..key_end]);
            }
            2 if fields.len() > 1 => {
                fields.remove(i);
            }
            _ => {
                let copy = fields[i].clone();
                fields.insert(rng.gen_range(0..=fields.len()), copy);
            }
        }
    }
    let mut text = format!("{{{}}}", fields.join(","));
    if rng.gen_bool(0.25) {
        let mut cut = rng.gen_range(0..text.len());
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        text.truncate(cut);
    }
    text
}

/// Runs `property` on `cases` mutations of `seeds`, one seeded stream
/// per case.
fn for_each_mutation(seeds: &[String], cases: u64, mut property: impl FnMut(&str)) {
    for case in 0..cases {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let seed = &seeds[rng.gen_range(0..seeds.len())];
        property(&mutate(&mut rng, seed));
    }
}

/// Asserts that every quantity of `record` passes its checked
/// constructor.
fn assert_checked(record: &RunRecord, line: &str) {
    let sim = record.sim.as_ref();
    let rates = [record.capacity, record.max_link_load, record.total_load]
        .into_iter()
        .chain(sim.into_iter().flat_map(|s| [s.delivered_mbps, s.max_link_mbps]));
    for rate in rates {
        assert!(Mbps::new(rate.to_f64()).is_ok(), "{rate} MB/s from {line:?}");
    }
    let cost = record.comm_cost.to_f64();
    assert!(HopMbps::new(cost).is_ok(), "comm_cost {cost} from {line:?}");
    let latencies =
        sim.into_iter().flat_map(|s| [s.avg_latency_cycles, s.avg_network_latency_cycles]);
    for latency in latencies {
        assert!(Latency::new(latency.to_f64()).is_ok(), "latency {latency} from {line:?}");
    }
}

#[test]
fn mutated_record_lines_parse_to_checked_records_or_fail_cleanly() {
    let records = run_scenarios(sweep().scenarios(), 2);
    assert!(records.iter().any(|r| r.sim.is_some()) && records.iter().any(|r| r.sim.is_none()));
    let seeds: Vec<String> = records.iter().map(|r| r.to_json(true)).collect();
    let mut parsed = 0u64;
    for_each_mutation(&seeds, CASES, |line| {
        let result = catch_unwind(|| parse_record_json(line))
            .unwrap_or_else(|_| panic!("parse_record_json panicked on {line:?}"));
        let Ok(record) = result else { return };
        parsed += 1;
        assert_checked(&record, line);
        let again = record.to_json(true);
        assert_eq!(parse_record_json(&again), Ok(record), "{line:?} -> {again:?}");
    });
    // Enough mutations survive parsing that the properties are not
    // vacuous.
    assert!(parsed >= CASES / 10, "only {parsed} of {CASES} lines parsed");
}

/// Hand-rolled scratch dir (no tempfile dependency): unique per test via
/// process id + a name, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("noc-dse-proptest-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn mutated_manifests_open_or_fail_cleanly() {
    let set = sweep();
    let scratch = ScratchDir::new("manifest");
    let shard_size = 4;
    Checkpoint::open(&scratch.0, set.scenarios(), shard_size).expect("a fresh directory opens");
    let path = scratch.0.join("manifest.json");
    let seeds = [std::fs::read_to_string(&path).unwrap().trim_end().to_string()];
    let mut opened = 0u64;
    for_each_mutation(&seeds, MANIFEST_CASES, |text| {
        std::fs::write(&path, text).unwrap();
        let open = AssertUnwindSafe(|| Checkpoint::open(&scratch.0, set.scenarios(), shard_size));
        let result =
            catch_unwind(open).unwrap_or_else(|_| panic!("Checkpoint::open panicked on {text:?}"));
        opened += u64::from(result.is_ok());
    });
    // Some mutations (a duplicated key) leave the manifest valid.
    assert!(opened > 0, "no mutated manifest opened");
}

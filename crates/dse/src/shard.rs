//! Sharding and checkpointed resume for sweeps: a [`ShardPlan`] splits a
//! scenario list into ordered, fixed-size shards; a [`Checkpoint`]
//! persists completed shards as JSONL files next to a manifest, so an
//! interrupted sweep restarts by replaying finished shards from disk and
//! running only the remainder.
//!
//! Resume protocol:
//! 1. `manifest.json` pins the sweep's identity — scenario count, shard
//!    size, and an FNV-1a fingerprint over every scenario's canonical
//!    descriptor. Opening a checkpoint against a different sweep (or a
//!    different sharding of the same sweep) is an error, never a silent
//!    mix of records.
//! 2. Each completed shard is `shard-NNNNN.jsonl`, written to a `.tmp`
//!    and atomically renamed — a file's existence *is* its completeness
//!    marker, so a kill mid-write leaves no half-shard behind.
//! 3. On resume, present shard files are parsed back into records
//!    ([`crate::report::parse_record_json`] round-trips byte-exactly),
//!    each checked against the scenario at its index, and the engine
//!    runs only the missing shards. Records merge in
//!    shard order = scenario order, so the resumed report is
//!    byte-identical to an uninterrupted run.

use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};

use noc_probe::{json_object, Value};

use crate::cache::route_key;
use crate::report::{parse_record_json, Fields, RunRecord};
use crate::Scenario;

/// Manifest format version; bumped when the descriptor or file layout
/// changes incompatibly.
const MANIFEST_VERSION: u64 = 1;

/// How a scenario list divides into ordered shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    scenarios: usize,
    shard_size: usize,
}

impl ShardPlan {
    /// Plans `scenarios` into shards of `shard_size` (clamped to ≥ 1).
    pub fn new(scenarios: usize, shard_size: usize) -> Self {
        Self { scenarios, shard_size: shard_size.max(1) }
    }

    /// Number of shards (0 for an empty set; the last shard may be short).
    pub fn shard_count(&self) -> usize {
        self.scenarios.div_ceil(self.shard_size)
    }

    /// The scenario-index range of `shard`.
    ///
    /// # Panics
    ///
    /// Panics when `shard >= shard_count()`.
    pub fn range(&self, shard: usize) -> Range<usize> {
        assert!(shard < self.shard_count(), "shard {shard} out of range");
        let start = shard * self.shard_size;
        start..(start + self.shard_size).min(self.scenarios)
    }

    /// The configured shard size.
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Total scenarios planned.
    pub fn scenarios(&self) -> usize {
        self.scenarios
    }
}

/// FNV-1a-64 fingerprint over every scenario's canonical descriptor.
/// Any change to the sweep — a scenario added, reordered, or any spec
/// field moved — changes the fingerprint, which invalidates a checkpoint
/// directory built for the old sweep.
pub fn set_fingerprint(scenarios: &[Scenario]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for s in scenarios {
        eat(descriptor(s).as_bytes());
        eat(&[0xff]); // separator: concatenations cannot collide
    }
    hash
}

/// Canonical one-line spelling of a scenario: the display label, the full
/// route-stage cache key (which spells out app, seed, topology, capacity,
/// mapper and routing), and the simulate parameters that shape the
/// records. The simulator loop kind is left out: every loop produces
/// bit-identical records, so a checkpoint written under one resumes
/// under the other.
fn descriptor(s: &Scenario) -> String {
    let sim = match &s.simulate {
        None => "none".to_string(),
        Some(sp) => format!(
            "w{}m{}d{}b{}i{}s{}",
            sp.warmup_cycles,
            sp.measure_cycles,
            sp.drain_cycles,
            sp.burst_packets,
            sp.burst_intensity,
            sp.seed
        ),
    };
    format!("{}|{}|{}", s.label, route_key(s, s.simulate.is_some()), sim)
}

/// An open checkpoint directory bound to one sweep (see the module docs
/// for the resume protocol).
#[derive(Debug)]
pub struct Checkpoint {
    dir: PathBuf,
    plan: ShardPlan,
}

impl Checkpoint {
    /// Opens (or initializes) `dir` for the given sweep. A fresh
    /// directory gets a manifest; an existing one must match this sweep's
    /// scenario count, shard size and fingerprint exactly.
    ///
    /// # Errors
    ///
    /// I/O failures, a malformed manifest, or a manifest recorded for a
    /// different sweep.
    pub fn open(dir: &Path, scenarios: &[Scenario], shard_size: usize) -> Result<Self, String> {
        let plan = ShardPlan::new(scenarios.len(), shard_size);
        let expected = Manifest {
            version: MANIFEST_VERSION,
            scenarios: plan.scenarios(),
            shard_size: plan.shard_size(),
            fingerprint: set_fingerprint(scenarios),
        };
        fs::create_dir_all(dir).map_err(|e| format!("checkpoint dir {}: {e}", dir.display()))?;
        let manifest_path = dir.join("manifest.json");
        match fs::read_to_string(&manifest_path) {
            Ok(text) => {
                let found = Manifest::parse(text.trim())
                    .map_err(|e| format!("manifest {}: {e}", manifest_path.display()))?;
                if found != expected {
                    return Err(format!(
                        "checkpoint dir {} belongs to a different sweep (manifest {}, this sweep \
                         {}); point --resume at a fresh directory or delete it",
                        dir.display(),
                        found.spell(),
                        expected.spell()
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                write_atomic(&manifest_path, &format!("{}\n", expected.to_json()))?;
            }
            Err(e) => return Err(format!("manifest {}: {e}", manifest_path.display())),
        }
        Ok(Self { dir: dir.to_path_buf(), plan })
    }

    /// The plan this checkpoint is bound to.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// Loads shard `shard` if it completed in a previous run: `Ok(None)`
    /// when absent (not yet run), the parsed records when present, each
    /// checked against its scenario in `scenarios` (the opened sweep).
    ///
    /// # Errors
    ///
    /// A present-but-corrupt shard file (unparsable line, wrong record
    /// count, or a record of another scenario) — completed files are
    /// atomically renamed into place, so corruption means external
    /// interference, not an interrupted run.
    pub fn load_shard(
        &self,
        shard: usize,
        scenarios: &[Scenario],
    ) -> Result<Option<Vec<RunRecord>>, String> {
        let path = self.shard_path(shard);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("shard file {}: {e}", path.display())),
        };
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            records.push(
                parse_record_json(line)
                    .map_err(|e| format!("shard file {} line {}: {e}", path.display(), i + 1))?,
            );
        }
        let expected = scenarios.get(self.plan.range(shard)).unwrap_or_default();
        if records.len() != expected.len() {
            return Err(format!(
                "shard file {} holds {} records, expected {}",
                path.display(),
                records.len(),
                expected.len()
            ));
        }
        for (i, (record, scenario)) in records.iter().zip(expected).enumerate() {
            check_identity(record, scenario)
                .map_err(|e| format!("shard file {} line {}: {e}", path.display(), i + 1))?;
        }
        Ok(Some(records))
    }

    /// Persists a completed shard: records as JSON lines (timing fields
    /// included — they are excluded from byte-compared output anyway, and
    /// keeping them makes restored profiles honest about past cost),
    /// written to a temporary file and atomically renamed.
    ///
    /// # Errors
    ///
    /// Underlying I/O failures.
    pub fn store_shard(&self, shard: usize, records: &[RunRecord]) -> Result<(), String> {
        let mut text = String::new();
        for r in records {
            text.push_str(&r.to_json(true));
            text.push('\n');
        }
        write_atomic(&self.shard_path(shard), &text)
    }

    fn shard_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard:05}.jsonl"))
    }
}

/// Checks that a restored record belongs to `scenario`: the same label,
/// mapper, routing, seed and capacity, compared in their record spelling.
fn check_identity(record: &RunRecord, scenario: &Scenario) -> Result<(), String> {
    for (key, found, expected) in [
        ("scenario", record.scenario.clone(), scenario.label.clone()),
        ("mapper", record.mapper.clone(), scenario.mapper.name()),
        ("routing", record.routing.clone(), scenario.routing.name().to_string()),
        ("seed", record.seed.to_string(), scenario.seed.to_string()),
        ("capacity", record.capacity.to_f64().to_string(), scenario.capacity.to_f64().to_string()),
    ] {
        if found != expected {
            return Err(format!("field '{key}' is `{found}`, but its scenario has `{expected}`"));
        }
    }
    Ok(())
}

/// Writes `text` to `path` via a sibling `.tmp` plus rename, so `path`
/// either holds the complete content or does not exist.
fn write_atomic(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, text).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    fs::rename(&tmp, path).map_err(|e| format!("rename {}: {e}", path.display()))
}

/// The manifest's contents (flat JSON; the fingerprint is spelled as a
/// hex string — JSON numbers cannot carry a full u64 faithfully).
#[derive(Debug, PartialEq, Eq)]
struct Manifest {
    version: u64,
    scenarios: usize,
    shard_size: usize,
    fingerprint: u64,
}

impl Manifest {
    fn to_json(&self) -> String {
        json_object([
            ("version", Value::from(self.version)),
            ("scenarios", Value::from(self.scenarios)),
            ("shard_size", Value::from(self.shard_size)),
            ("fingerprint", Value::from(format!("{:016x}", self.fingerprint))),
        ])
    }

    fn parse(text: &str) -> Result<Self, String> {
        let f = Fields::parse(text)?;
        let hex = f.str("fingerprint")?;
        Ok(Self {
            version: f.u64("version")?,
            scenarios: f.usize("scenarios")?,
            shard_size: f.usize("shard_size")?,
            fingerprint: u64::from_str_radix(&hex, 16)
                .map_err(|_| format!("bad fingerprint '{hex}'"))?,
        })
    }

    fn spell(&self) -> String {
        format!(
            "v{} {} scenarios × shard {} fp {:016x}",
            self.version, self.scenarios, self.shard_size, self.fingerprint
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{MapperSpec, RoutingSpec, ScenarioSet, SimulateSpec, TopologySpec};
    use crate::LoopKind;
    use noc_apps::App;

    fn tiny_set(root_seed: u64) -> ScenarioSet {
        ScenarioSet::builder()
            .root_seed(root_seed)
            .app(App::Pip)
            .app(App::Mwa)
            .topology(TopologySpec::FitMesh)
            .mapper(MapperSpec::NmapInit)
            .mapper(MapperSpec::Gmap)
            .routing(RoutingSpec::MinPath)
            .routing(RoutingSpec::Xy)
            .build()
    }

    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("noc-dse-shard-{}-{name}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            Self(dir)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn plan_covers_every_index_in_order() {
        let plan = ShardPlan::new(10, 4);
        assert_eq!(plan.shard_count(), 3);
        assert_eq!(plan.range(0), 0..4);
        assert_eq!(plan.range(1), 4..8);
        assert_eq!(plan.range(2), 8..10, "last shard is short");
        let flat: Vec<usize> = (0..plan.shard_count()).flat_map(|s| plan.range(s)).collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());

        assert_eq!(ShardPlan::new(0, 4).shard_count(), 0);
        assert_eq!(ShardPlan::new(4, 0).shard_size(), 1, "shard size clamps to 1");
        assert_eq!(ShardPlan::new(3, 100).shard_count(), 1);
    }

    /// A golden fingerprint: the 32 scenarios of the kill-and-resume spec
    /// in `.github/workflows/ci.yml`, copied verbatim, as the manifest of
    /// a checkpoint of that sweep spells them. Every checkpoint on disk
    /// stores its sweep's fingerprint, so a changed descriptor (the
    /// `route_key` spelling included) would reject all of them.
    #[test]
    fn fingerprint_of_the_ci_resume_spec_is_pinned() {
        let text = "\
seed 11
capacity 800
app pip
app dsp
topology fit
topology fit-torus
mapper nmap-init gmap
routing min-path xy
simulate {
  warmup 300
  measure 1500
  drain 800
  bandwidths 700 1200
}
";
        let set = crate::parse_spec(text).unwrap().scenarios();
        assert_eq!(set.len(), 32);
        assert_eq!(format!("{:016x}", set_fingerprint(set.scenarios())), "52699bfb4529291d");
    }

    #[test]
    fn fingerprint_tracks_scenario_identity() {
        let a = tiny_set(1);
        let b = tiny_set(1);
        assert_eq!(set_fingerprint(a.scenarios()), set_fingerprint(b.scenarios()));
        let other_seed = tiny_set(2);
        // Bundled apps pin no seeds through the builder RNG, but the
        // per-scenario seed still lands in the descriptor.
        assert_ne!(
            set_fingerprint(a.scenarios()),
            set_fingerprint(other_seed.scenarios()),
            "root seed must move the fingerprint"
        );
        let mut reordered: Vec<Scenario> = a.scenarios().to_vec();
        reordered.swap(0, 1);
        assert_ne!(set_fingerprint(a.scenarios()), set_fingerprint(&reordered));
        assert_ne!(
            set_fingerprint(a.scenarios()),
            set_fingerprint(&a.scenarios()[..a.len() - 1]),
            "a truncated set is a different sweep"
        );
        // The simulator loop kind changes no record byte, so a sweep
        // checkpointed under one loop resumes under the other; the
        // simulate windows do shape the records.
        let simulated = |loop_kind, drain_cycles| {
            let scenarios: Vec<Scenario> = a
                .scenarios()
                .iter()
                .cloned()
                .map(|mut s| {
                    s.simulate =
                        Some(SimulateSpec { loop_kind, drain_cycles, ..SimulateSpec::default() });
                    s
                })
                .collect();
            set_fingerprint(&scenarios)
        };
        assert_eq!(
            simulated(LoopKind::ActiveSet, 500),
            simulated(LoopKind::FullScan, 500),
            "the loop kind must not move the fingerprint"
        );
        assert_ne!(
            simulated(LoopKind::ActiveSet, 500),
            simulated(LoopKind::ActiveSet, 600),
            "the drain window must move the fingerprint"
        );
    }

    #[test]
    fn checkpoint_round_trips_shards() {
        let scratch = ScratchDir::new("roundtrip");
        let set = tiny_set(3);
        let records = crate::run_scenarios(set.scenarios(), 1);
        let cp = Checkpoint::open(&scratch.0, set.scenarios(), 3).unwrap();
        assert_eq!(cp.plan().shard_count(), 3); // 8 scenarios / 3

        assert_eq!(cp.load_shard(0, set.scenarios()).unwrap(), None, "nothing stored yet");
        for shard in 0..cp.plan().shard_count() {
            let range = cp.plan().range(shard);
            cp.store_shard(shard, &records[range]).unwrap();
        }

        // A fresh Checkpoint over the same dir restores byte-equal records.
        let reopened = Checkpoint::open(&scratch.0, set.scenarios(), 3).unwrap();
        let mut restored = Vec::new();
        for shard in 0..reopened.plan().shard_count() {
            restored.extend(reopened.load_shard(shard, set.scenarios()).unwrap().expect("stored"));
        }
        assert_eq!(restored, records, "timing included: store_shard writes timing=true");
    }

    #[test]
    fn checkpoint_rejects_mismatched_sweeps() {
        let scratch = ScratchDir::new("mismatch");
        let set = tiny_set(3);
        Checkpoint::open(&scratch.0, set.scenarios(), 4).unwrap();

        // Same sweep, same sharding: fine.
        assert!(Checkpoint::open(&scratch.0, set.scenarios(), 4).is_ok());
        // Different shard size: the done-set would mean different ranges.
        let err = Checkpoint::open(&scratch.0, set.scenarios(), 2).unwrap_err();
        assert!(err.contains("different sweep"), "err: {err}");
        // Different scenarios under the same count: fingerprint catches it.
        let other = tiny_set(9);
        assert_eq!(other.len(), set.len());
        let err = Checkpoint::open(&scratch.0, other.scenarios(), 4).unwrap_err();
        assert!(err.contains("different sweep"), "err: {err}");
    }

    #[test]
    fn corrupt_shard_files_error_instead_of_merging() {
        let scratch = ScratchDir::new("corrupt");
        let set = tiny_set(3);
        let records = crate::run_scenarios(set.scenarios(), 1);
        let cp = Checkpoint::open(&scratch.0, set.scenarios(), 4).unwrap();

        // Wrong record count.
        cp.store_shard(0, &records[0..2]).unwrap();
        let err = cp.load_shard(0, set.scenarios()).unwrap_err();
        assert!(err.contains("expected 4"), "err: {err}");

        // Unparsable line.
        fs::write(scratch.0.join("shard-00001.jsonl"), "not json\n").unwrap();
        let err = cp.load_shard(1, set.scenarios()).unwrap_err();
        assert!(err.contains("line 1"), "err: {err}");

        // A stray .tmp (killed mid-write) is invisible: the shard reads
        // as absent, not corrupt.
        fs::write(scratch.0.join("shard-00001.tmp"), "partial").unwrap();
        fs::remove_file(scratch.0.join("shard-00001.jsonl")).unwrap();
        assert_eq!(cp.load_shard(1, set.scenarios()).unwrap(), None);
    }

    #[test]
    fn restored_records_must_belong_to_their_scenarios() {
        let scratch = ScratchDir::new("identity");
        let set = tiny_set(3);
        let records = crate::run_scenarios(set.scenarios(), 1);
        let cp = Checkpoint::open(&scratch.0, set.scenarios(), 4).unwrap();
        type Edit = fn(&mut RunRecord);
        let edits: [(&str, Edit); 5] = [
            ("scenario", |r| r.scenario.push('x')),
            ("mapper", |r| r.mapper = "pbb".into()),
            ("routing", |r| r.routing = "mcf-all".into()),
            ("seed", |r| r.seed += 1),
            ("capacity", |r| r.capacity = r.capacity + r.capacity),
        ];
        for (key, edit) in edits {
            // Every edited line still parses; it names another scenario.
            let mut shard = records[0..4].to_vec();
            edit(&mut shard[1]);
            cp.store_shard(0, &shard).unwrap();
            let err = cp.load_shard(0, set.scenarios()).unwrap_err();
            assert!(err.contains(&format!("line 2: field '{key}' is `")), "{key}: {err}");
        }
        cp.store_shard(0, &records[0..4]).unwrap();
        assert_eq!(cp.load_shard(0, set.scenarios()).unwrap().as_deref(), Some(&records[0..4]));
    }

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            version: MANIFEST_VERSION,
            scenarios: 112,
            shard_size: 16,
            fingerprint: 0xdead_beef_cafe_f00d,
        };
        // The exact line every checkpoint directory holds.
        assert_eq!(
            m.to_json(),
            "{\"version\":1,\"scenarios\":112,\"shard_size\":16,\"fingerprint\":\"deadbeefcafef00d\"}"
        );
        let parsed = Manifest::parse(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
        assert!(Manifest::parse("{}").is_err());
        assert!(Manifest::parse("{\"version\":1}").is_err());
    }
}

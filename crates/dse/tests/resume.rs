//! Kill-and-resume determinism for sharded sweeps: a sweep interrupted
//! after N shards and resumed from its checkpoint must produce JSONL and
//! CSV **byte-identical** to the uninterrupted sweep — at every thread
//! count — and the resumed run must actually skip the completed shards
//! rather than redo them.

use noc_dse::{
    run_scenarios, run_sweep, MapperSpec, RoutingSpec, ScenarioSet, SimulateSpec, SweepConfig,
    SweepReport, TopologySpec,
};
use noc_probe::Probe;

/// Hand-rolled scratch dir (no tempfile dependency): unique per test via
/// process id + a name, removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("noc-dse-resume-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }

    fn path(&self) -> std::path::PathBuf {
        self.0.clone()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A sim-backed sweep wide enough to shard meaningfully: 2 apps × 2
/// topologies × 2 mappers × 2 routings × 2 bandwidths = 32 scenarios,
/// with map stages shared across the routing × bandwidth axes.
fn sweep_set() -> ScenarioSet {
    ScenarioSet::builder()
        .root_seed(515)
        .app(noc_apps::App::Pip)
        .app(noc_apps::App::Mwa)
        .topology(TopologySpec::FitMesh)
        .topology(TopologySpec::FitTorus)
        .mapper(MapperSpec::NmapInit)
        .mapper(MapperSpec::Gmap)
        .routing(RoutingSpec::MinPath)
        .routing(RoutingSpec::Xy)
        .simulate(SimulateSpec {
            bandwidths_mbps: vec![noc_units::mbps(700.0), noc_units::mbps(1_200.0)],
            warmup_cycles: 300,
            measure_cycles: 1_500,
            drain_cycles: 800,
            ..Default::default()
        })
        .build()
}

#[test]
fn interrupted_sweep_resumes_byte_identically() {
    let set = sweep_set();
    assert_eq!(set.len(), 32);
    // The ground truth: the plain in-process engine, single-threaded.
    let oracle = SweepReport::new(run_scenarios(set.scenarios(), 1));
    let jsonl = oracle.write_jsonl(false);
    let csv = oracle.write_csv(false);

    for threads in [1usize, 2, 4] {
        let scratch = ScratchDir::new(&format!("kill-{threads}"));
        let config = SweepConfig {
            threads,
            shard_size: 5, // 7 shards: 6 full + 1 ragged tail
            checkpoint_dir: Some(scratch.path()),
            shard_budget: Some(3),
        };

        // "Kill" the sweep after 3 of 7 shards.
        let partial = run_sweep(&set, &config, &Probe::disabled(), &mut |_, _| {}).unwrap();
        assert!(!partial.completed, "budget must stop the sweep early");
        assert_eq!(partial.shards_total, 7);
        assert_eq!(partial.shards_run, 3);
        assert_eq!(partial.report.records.len(), 15);

        // Resume: completed shards come back from the checkpoint, the
        // rest run, and the merged output matches the oracle exactly.
        let resumed = run_sweep(
            &set,
            &SweepConfig { shard_budget: None, ..config },
            &Probe::disabled(),
            &mut |_, _| {},
        )
        .unwrap();
        assert!(resumed.completed);
        assert_eq!(resumed.shards_restored, 3, "resume must skip finished shards");
        assert_eq!(resumed.shards_run, 4);
        assert_eq!(
            resumed.report.write_jsonl(false),
            jsonl,
            "resumed JSONL diverged at threads={threads}"
        );
        assert_eq!(
            resumed.report.write_csv(false),
            csv,
            "resumed CSV diverged at threads={threads}"
        );
    }
}

#[test]
fn straight_through_sharded_sweep_matches_plain_engine() {
    let set = sweep_set();
    let oracle = SweepReport::new(run_scenarios(set.scenarios(), 2));
    let scratch = ScratchDir::new("straight");
    let config = SweepConfig {
        threads: 2,
        shard_size: 6,
        checkpoint_dir: Some(scratch.path()),
        shard_budget: None,
    };
    let outcome = run_sweep(&set, &config, &Probe::disabled(), &mut |_, _| {}).unwrap();
    assert!(outcome.completed);
    assert_eq!(outcome.shards_run, outcome.shards_total);
    assert_eq!(outcome.report.write_jsonl(false), oracle.write_jsonl(false));
    assert_eq!(outcome.report.write_csv(false), oracle.write_csv(false));
    // The capacity-invariant mappers shared map stages across the
    // routing × bandwidth axes: 8 executions serve 32 scenarios.
    assert_eq!(outcome.cache.map_misses, 8);
    assert!(outcome.cache.map_lookups() >= 2 * outcome.cache.map_misses);

    // A second full run against the same checkpoint restores everything
    // and executes nothing.
    let rerun = run_sweep(&set, &config, &Probe::disabled(), &mut |_, _| {}).unwrap();
    assert!(rerun.completed);
    assert_eq!(rerun.shards_run, 0);
    assert_eq!(rerun.shards_restored, rerun.shards_total);
    assert_eq!(rerun.report.write_jsonl(false), oracle.write_jsonl(false));
}

#[test]
fn streaming_sink_sees_every_shard_in_order() {
    let set = sweep_set();
    let oracle = SweepReport::new(run_scenarios(set.scenarios(), 1)).write_jsonl(false);
    let scratch = ScratchDir::new("stream");
    let config = SweepConfig {
        threads: 2,
        shard_size: 5,
        checkpoint_dir: Some(scratch.path()),
        shard_budget: Some(4),
    };
    // Interrupt at 4 shards, then resume while streaming: the sink must
    // see all 7 shards (4 restored + 3 executed) in order, and the
    // concatenation of its records is the whole sweep.
    run_sweep(&set, &config, &Probe::disabled(), &mut |_, _| {}).unwrap();
    let mut shards = Vec::new();
    let mut streamed = String::new();
    let outcome = run_sweep(
        &set,
        &SweepConfig { shard_budget: None, ..config },
        &Probe::disabled(),
        &mut |shard, records| {
            shards.push(shard);
            for r in records {
                streamed.push_str(&r.to_json(false));
                streamed.push('\n');
            }
        },
    )
    .unwrap();
    assert_eq!(shards, vec![0, 1, 2, 3, 4, 5, 6]);
    assert_eq!(outcome.shards_restored, 4);
    assert_eq!(streamed, oracle, "streamed JSONL diverged from the oracle");
}

//! Probe-side acceptance for the stage cache (PR 9): the
//! `dse.cache.{hit,miss,disk_hit}` counters must agree with the cache's
//! own [`CacheStats`], prove the ≥2× map-stage sharing bar on a
//! routing × bandwidth sweep, and stay deterministic across thread
//! counts (misses = distinct computed keys, never racing workers).

use noc_dse::{
    run_scenarios_cached, run_sweep_sharded, MapperSpec, RoutingSpec, ScenarioSet, SimulateSpec,
    StageCache, SweepConfig, SweepReport,
};
use noc_probe::{Probe, Profile};

fn counter(profile: &Profile, name: &str) -> u64 {
    profile.counter(name).unwrap_or(0)
}

/// Routing × bandwidth sweep over capacity-invariant mappers: 2 apps ×
/// 2 mappers × 2 routings × 3 bandwidths = 24 scenarios sharing 4 map
/// stages.
fn shared_map_set() -> ScenarioSet {
    ScenarioSet::builder()
        .root_seed(99)
        .app(noc_apps::App::Pip)
        .dsp()
        .mapper(MapperSpec::NmapInit)
        .mapper(MapperSpec::Gmap)
        .routing(RoutingSpec::MinPath)
        .routing(RoutingSpec::Xy)
        .simulate(SimulateSpec {
            bandwidths_mbps: vec![
                noc_units::mbps(600.0),
                noc_units::mbps(1_000.0),
                noc_units::mbps(1_400.0),
            ],
            warmup_cycles: 300,
            measure_cycles: 1_500,
            drain_cycles: 800,
            ..Default::default()
        })
        .build()
}

#[test]
fn cache_counters_prove_map_stage_sharing_at_every_thread_count() {
    let set = shared_map_set();
    let mut baseline: Option<SweepReport> = None;
    for threads in [1usize, 2, 8] {
        let probe = Probe::new();
        let cache = StageCache::in_memory();
        let report =
            SweepReport::new(run_scenarios_cached(set.scenarios(), threads, &probe, &cache));
        let profile = probe.snapshot();

        // Probe counters and the cache's own stats must tell one story.
        let stats = cache.stats();
        let hits = counter(&profile, "dse.cache.hit");
        let misses = counter(&profile, "dse.cache.miss");
        assert_eq!(hits, stats.map_hits + stats.route_hits, "threads={threads}");
        assert_eq!(misses, stats.map_misses + stats.route_misses, "threads={threads}");
        assert_eq!(counter(&profile, "dse.cache.disk_hit"), 0, "no disk tier attached");

        // The acceptance bar: ≥2× fewer map-stage executions than
        // scenarios, deterministically — 4 cells serve 24 scenarios no
        // matter how many workers interleave.
        let map_misses = counter(&profile, "dse.cache.map_miss");
        let map_hits = counter(&profile, "dse.cache.map_hit");
        assert_eq!(map_misses, 4, "threads={threads}");
        assert_eq!(map_hits, 20, "threads={threads}");
        assert!(map_hits + map_misses >= 2 * map_misses, "below the 2x sharing bar");
        // Route stages are capacity-specific here, so every scenario
        // computes its own.
        assert_eq!(counter(&profile, "dse.cache.route_miss"), 24, "threads={threads}");

        // And the probe never perturbs the records.
        let jsonl = report.write_jsonl(false);
        match &baseline {
            None => baseline = Some(report),
            Some(b) => assert_eq!(jsonl, b.write_jsonl(false), "threads={threads}"),
        }
    }
}

#[test]
fn sharded_sweep_reports_shard_counters() {
    let set = shared_map_set();
    let probe = Probe::new();
    let config = SweepConfig { threads: 2, shard_size: 10, ..Default::default() };
    let outcome = run_sweep_sharded(&set, &config, &probe).unwrap();
    assert!(outcome.completed);
    let profile = probe.snapshot();
    assert_eq!(counter(&profile, "dse.shard.run"), 3, "24 scenarios / shard size 10");
    assert_eq!(counter(&profile, "dse.shard.restored"), 0);
    assert_eq!(counter(&profile, "dse.cache.map_miss"), 4);
}

//! Probe-side acceptance for the stage cache (PR 9): the
//! `dse.cache.{hit,miss}` counters must agree with the cache's
//! own [`CacheStats`], prove the ≥2× map-stage sharing bar on a
//! routing × bandwidth sweep, and stay deterministic across thread
//! counts (misses = distinct computed keys, never racing workers). Every
//! MCF route solve also reports its LP work.

use noc_dse::{
    run_scenarios, run_sweep, AppSpec, MapperSpec, RoutingSpec, RunContext, Scenario, ScenarioSet,
    SimulateSpec, StageCache, SweepConfig, SweepReport, TopologySpec,
};
use noc_probe::{Probe, Profile, Value};

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
        let ctx = RunContext { threads, probe: probe.clone(), cache: Some(&cache) };
        let report = SweepReport::new(run_scenarios(set.scenarios(), ctx));
        let profile = probe.snapshot();

        // Probe counters and the cache's own stats must tell one story.
        let stats = cache.stats();
        let hits = counter(&profile, "dse.cache.hit");
        let misses = counter(&profile, "dse.cache.miss");
        assert_eq!(hits, stats.map_hits + stats.route_hits, "threads={threads}");
        assert_eq!(misses, stats.map_misses + stats.route_misses, "threads={threads}");

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
    let outcome = run_sweep(&set, &config, &probe, &mut |_, _| {}).unwrap();
    assert!(outcome.completed);
    let profile = probe.snapshot();
    assert_eq!(counter(&profile, "dse.shard.run"), 3, "24 scenarios / shard size 10");
    assert_eq!(counter(&profile, "dse.shard.restored"), 0);
    assert_eq!(counter(&profile, "dse.cache.map_miss"), 4);
    // One summary event for the whole sweep, carrying the shard tallies
    // and the workers each shard's pool actually ran.
    let events: Vec<_> = profile.events_named("dse.sweep").collect();
    assert_eq!(events.len(), 1);
    let field = |name: &str| {
        events[0].fields.iter().find(|(key, _)| key == name).map(|(_, value)| value.clone())
    };
    assert_eq!(field("scenarios"), Some(Value::from(24usize)));
    assert_eq!(field("threads"), Some(Value::from(2usize)));
    assert_eq!(field("shards_total"), Some(Value::from(3usize)));
    assert_eq!(field("shards_run"), Some(Value::from(3usize)));
    assert_eq!(field("shards_restored"), Some(Value::from(0usize)));
    assert_eq!(field("completed"), Some(Value::from(true)));
}

#[test]
fn mcf_route_solves_record_lp_counters() {
    // 2 routing regimes × 4 capacities; the tight points overload the
    // minimum-hop start, so FlowMin runs MCF1 first and pivots.
    let mut scenarios = Vec::new();
    for routing in [RoutingSpec::McfQuadrant, RoutingSpec::McfAllPaths] {
        for cap in [1_600.0, 800.0, 400.0, 250.0] {
            scenarios.push(Scenario {
                label: format!("DSP@{cap}"),
                app: AppSpec::DspFilter,
                seed: 0,
                topology: TopologySpec::Mesh { dims: vec![3, 2] },
                capacity: noc_units::mbps(cap),
                mapper: MapperSpec::NmapInit,
                routing,
                simulate: None,
            });
        }
    }
    let names = ["lp.solves", "lp.pivots", "lp.phase1_pivots", "lp.cg.rounds", "lp.cg.columns"];
    let mut first: Option<Vec<u64>> = None;
    for threads in [1usize, 4] {
        let probe = Probe::new();
        let ctx = RunContext { threads, probe: probe.clone(), ..Default::default() };
        let records = run_scenarios(&scenarios, ctx);
        assert!(records.iter().all(|r| r.is_ok()));
        let profile = probe.snapshot();
        let values: Vec<u64> = names.iter().map(|name| counter(&profile, name)).collect();
        let [solves, pivots, phase1, rounds, columns] = values[..] else { unreachable!() };
        assert!(solves >= scenarios.len() as u64, "one MCF program per route solve: {solves}");
        assert!(rounds > 0 && pivots > 0 && phase1 > 0, "{values:?}");
        assert!(pivots >= phase1);
        assert!(columns >= solves, "every program keeps at least one path per demand");
        // The LP work of a route solve depends on its inputs alone.
        match &first {
            Some(expected) => assert_eq!(&values, expected, "threads={threads}"),
            None => first = Some(values),
        }
    }
}

//! Probe-side acceptance for the stage cache: the
//! `dse.cache.map_{hit,miss}` counters must agree with the cache's own
//! [`noc_dse::CacheStats`], prove the ≥2× map-stage sharing bar on a
//! routing × bandwidth sweep, and stay deterministic across thread
//! counts (misses = distinct computed keys, never racing workers). Every
//! MCF solve, the route stage's and the split mapper's, also reports its
//! LP work, and every map miss and every route its compute time by
//! family.

use std::collections::{BTreeMap, BTreeSet};

use nmap::{map_with_splitting, MappingProblem, PathScope, SplitOptions};
use noc_dse::{
    cache, run_scenarios, run_sweep, AppSpec, MapperSpec, RoutingSpec, RunContext, Scenario,
    ScenarioSet, SimulateSpec, SweepConfig, SweepReport, TopologySpec,
};
use noc_graph::Topology;
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
        let config = SweepConfig { threads, ..Default::default() };
        let outcome = run_sweep(&set, &config, &probe, &mut |_, _| {}).unwrap();
        let report = outcome.report;
        let profile = probe.snapshot();

        // Probe counters and the cache's own stats must tell one story.
        let map_misses = counter(&profile, "dse.cache.map_miss");
        let map_hits = counter(&profile, "dse.cache.map_hit");
        let stats = outcome.cache;
        assert_eq!((map_hits, map_misses), (stats.map_hits, stats.map_misses), "threads={threads}");

        // The acceptance bar: ≥2× fewer map-stage executions than
        // scenarios, deterministically — 4 cells serve 24 scenarios no
        // matter how many workers interleave.
        assert_eq!(map_misses, 4, "threads={threads}");
        assert_eq!(map_hits, 20, "threads={threads}");
        assert!(map_hits + map_misses >= 2 * map_misses, "below the 2x sharing bar");
        // The map pair is the only cache counter: routes are not memoized.
        for name in
            ["dse.cache.hit", "dse.cache.miss", "dse.cache.route_hit", "dse.cache.route_miss"]
        {
            assert_eq!(profile.counter(name), None, "{name} listed (threads={threads})");
        }

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
        let ctx = RunContext { threads, probe: probe.clone() };
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

/// The split mapper's own MCF solves land in the `lp.*` counters: a
/// min-path scenario routes without an LP, so every count comes from the
/// mapper, and equals the work `map_with_splitting` reports for the same
/// problem.
#[test]
fn split_mapper_records_its_lp_work() {
    for scope in [PathScope::Quadrant, PathScope::AllPaths] {
        let scenario = Scenario {
            label: "DSP".into(),
            app: AppSpec::DspFilter,
            seed: 0,
            topology: TopologySpec::Mesh { dims: vec![3, 2] },
            capacity: noc_units::mbps(800.0),
            mapper: MapperSpec::NmapSplit(SplitOptions { scope, passes: 1 }),
            routing: RoutingSpec::MinPath,
            simulate: None,
        };
        let probe = Probe::new();
        let ctx = RunContext { threads: 1, probe: probe.clone() };
        let record = run_scenarios(std::slice::from_ref(&scenario), ctx).remove(0);
        assert!(record.is_ok(), "{scope:?}: {}", record.error);
        assert_eq!(record.evaluations, 16, "{scope:?}");

        let problem =
            MappingProblem::new(noc_apps::dsp_filter(), Topology::mesh(3, 2, 800.0)).unwrap();
        let stats = map_with_splitting(&problem, &SplitOptions { scope, passes: 1 }).unwrap().stats;
        let profile = probe.snapshot();
        let expected = [
            ("lp.solves", stats.solves),
            ("lp.pivots", stats.pivots),
            ("lp.phase1_pivots", stats.phase1_pivots),
            ("lp.cg.rounds", stats.rounds),
            ("lp.cg.columns", stats.columns),
        ];
        for (name, value) in expected {
            assert_eq!(counter(&profile, name), value as u64, "{scope:?}: {name}");
        }
        assert!(stats.solves >= 16, "{scope:?}: one program per evaluation at least");
    }
}

/// Each map miss and each route records its compute time in its family's
/// histogram: `dse.stage.map.{nmap,pbb,other}_us`, the families split by
/// mapper-name prefix as `perfbench` splits its map spans, and
/// `dse.stage.route.{single,mcf}_us`. So a map histogram counts its
/// family's distinct map keys, a route histogram its family's scenarios,
/// and a live probe lists all five.
#[test]
fn stage_histograms_count_each_familys_misses() {
    let set = ScenarioSet::builder()
        .root_seed(5)
        .app(noc_apps::App::Pip)
        .dsp()
        .capacity(800.0)
        .topology(TopologySpec::FitMesh)
        .topology(TopologySpec::FitTorus)
        .mapper(MapperSpec::NmapInit)
        .mapper(MapperSpec::Nmap(nmap::SinglePathOptions::default()))
        .mapper(MapperSpec::Pbb(noc_baselines::PbbOptions::default()))
        .mapper(MapperSpec::Gmap)
        .routing(RoutingSpec::MinPath)
        .routing(RoutingSpec::Xy)
        .routing(RoutingSpec::McfQuadrant)
        .build();
    let mut map_keys: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    let mut routes: BTreeMap<&str, u64> = BTreeMap::new();
    for s in set.scenarios() {
        let name = s.mapper.name();
        let map = match &name {
            n if n.starts_with("nmap") => "dse.stage.map.nmap_us",
            n if n.starts_with("pbb") => "dse.stage.map.pbb_us",
            _ => "dse.stage.map.other_us",
        };
        map_keys.entry(map).or_default().insert(cache::map_key(s));
        let route = match s.routing {
            RoutingSpec::MinPath | RoutingSpec::Xy => "dse.stage.route.single_us",
            RoutingSpec::McfQuadrant | RoutingSpec::McfAllPaths => "dse.stage.route.mcf_us",
        };
        *routes.entry(route).or_default() += 1;
    }
    let expected: BTreeMap<&str, u64> =
        map_keys.iter().map(|(name, keys)| (*name, keys.len() as u64)).chain(routes).collect();
    assert_eq!(expected.len(), 5, "the set covers every family");

    let probe = Probe::new();
    let ctx = RunContext { threads: 2, probe: probe.clone() };
    let records = run_scenarios(set.scenarios(), ctx);
    assert!(records.iter().all(|r| r.is_ok()));
    let profile = probe.snapshot();
    let count = |name: &str| profile.histogram(name).map_or(0, |h| h.count);
    for (name, want) in &expected {
        assert_eq!(count(name), *want, "{name}");
    }
    let map_families: u64 = map_keys.keys().map(|n| count(n)).sum();
    assert_eq!(map_families, counter(&profile, "dse.cache.map_miss"));
    let route_families: u64 =
        expected.keys().filter(|n| n.contains(".route.")).map(|n| count(n)).sum();
    assert_eq!(route_families, records.len() as u64, "every scenario routes once");

    // A sweep with no PBB, other-mapper or MCF miss still lists those
    // histograms, at count 0.
    let probe = Probe::new();
    let single: Vec<Scenario> = set
        .scenarios()
        .iter()
        .filter(|s| s.mapper == MapperSpec::NmapInit && s.routing == RoutingSpec::MinPath)
        .cloned()
        .collect();
    run_scenarios(&single, RunContext { threads: 1, probe: probe.clone() });
    let profile = probe.snapshot();
    for name in expected.keys() {
        let histogram = profile.histogram(name).unwrap_or_else(|| panic!("{name} listed"));
        assert_eq!(histogram.count > 0, name.ends_with("nmap_us") || name.ends_with("single_us"));
    }
}

//! Warm-started MCF routing acceptance (PR 10): records of a warm-LP
//! sweep must be byte-identical to the cold engine at every thread count,
//! the decomposed routing tables must match cold solves on all six
//! bundled apps, and a finite cache byte budget must never change a
//! record — only recompute evicted stages.

use nmap::mcf::{solve_mcf_for, solve_mcf_warm};
use nmap::{McfKind, McfWarmState, PathScope};
use noc_apps::App;
use noc_dse::{
    run_scenarios, run_scenarios_warm, run_sweep_sharded, AppSpec, MapperSpec, RoutingSpec,
    RunRecord, Scenario, ScenarioSet, StageCache, StageTimes, SweepConfig, TopologySpec,
    WarmLpStore,
};
use noc_probe::Probe;
use noc_units::mbps;

fn strip_times(records: &[RunRecord]) -> Vec<RunRecord> {
    records
        .iter()
        .cloned()
        .map(|mut r| {
            r.times = StageTimes::default();
            r
        })
        .collect()
}

/// An MCF-routed capacity sweep: 8 points per routing regime, all sharing
/// one placement (NmapInit is capacity-invariant), so each regime forms
/// one warm lineage. Points span comfortably-feasible down to infeasible.
fn mcf_capacity_sweep() -> Vec<Scenario> {
    let caps = [1_600.0, 1_400.0, 1_200.0, 1_000.0, 800.0, 600.0, 400.0, 250.0];
    let mut scenarios = Vec::new();
    for routing in [RoutingSpec::McfQuadrant, RoutingSpec::McfAllPaths] {
        for &cap in &caps {
            scenarios.push(Scenario {
                label: format!("DSP@{cap}"),
                app: AppSpec::DspFilter,
                seed: 0,
                topology: TopologySpec::Mesh { dims: vec![3, 2] },
                capacity: mbps(cap),
                mapper: MapperSpec::NmapInit,
                routing,
                simulate: None,
            });
        }
    }
    scenarios
}

#[test]
fn warm_lp_records_match_cold_at_every_thread_count() {
    let scenarios = mcf_capacity_sweep();
    let cold = run_scenarios(&scenarios, 1);
    assert!(cold.iter().all(|r| r.is_ok()), "sweep must route cleanly");
    assert!(cold.iter().any(|r| !r.feasible), "sweep must reach binding capacities");
    for threads in [1usize, 2, 8] {
        let store = WarmLpStore::default();
        let warm = run_scenarios_warm(
            &scenarios,
            threads,
            &Probe::default(),
            &StageCache::in_memory(),
            Some(&store),
        );
        assert_eq!(strip_times(&warm), strip_times(&cold), "threads={threads}");
    }
}

#[test]
fn warm_chain_reproduces_cold_tables_on_all_six_apps() {
    // Flow decomposition is the part of the route stage the simulator
    // consumes, so the decomposed tables — not just objectives — must be
    // identical warm vs cold, on every bundled app, at every point of a
    // descending capacity sweep.
    for app in App::all() {
        let mut chain: Option<McfWarmState> = None;
        for cap in [1_600.0, 1_100.0, 800.0, 550.0, 350.0] {
            let scenario = Scenario {
                label: app.name().to_string(),
                app: AppSpec::Bundled(app),
                seed: 0,
                topology: TopologySpec::FitMesh,
                capacity: mbps(cap),
                mapper: MapperSpec::NmapInit,
                routing: RoutingSpec::McfQuadrant,
                simulate: None,
            };
            let problem = scenario.problem().expect("bundled apps fit their fitted mesh");
            let mapping = nmap::initialize(&problem);
            let commodities = problem.commodities(&mapping);
            let cold = solve_mcf_for(
                problem.topology(),
                &commodities,
                McfKind::FlowMin,
                PathScope::Quadrant,
            );
            let warm = solve_mcf_warm(
                problem.topology(),
                &commodities,
                McfKind::FlowMin,
                PathScope::Quadrant,
                chain.take(),
            );
            match (cold, warm) {
                (Ok(c), Ok((w, next, _))) => {
                    assert_eq!(c.tables, w.tables, "{app} at {cap} MB/s: tables diverged");
                    assert_eq!(c, w, "{app} at {cap} MB/s: solutions diverged");
                    chain = Some(next);
                }
                (Err(c), Err(w)) => {
                    assert_eq!(c.to_string(), w.to_string(), "{app} at {cap} MB/s");
                }
                (c, w) => panic!(
                    "{app} at {cap} MB/s: cold {:?} vs warm {:?} disagree on feasibility",
                    c.map(|s| s.kind),
                    w.map(|(s, ..)| s.kind)
                ),
            }
        }
    }
}

#[test]
fn warm_lp_counters_report_pivot_work() {
    let scenarios = mcf_capacity_sweep();
    let probe = Probe::new();
    let store = WarmLpStore::default();
    let _ = run_scenarios_warm(&scenarios, 1, &probe, &StageCache::in_memory(), Some(&store));
    let profile = probe.snapshot();
    let pivots = profile.counter("lp.pivots").unwrap_or(0);
    let phase1 = profile.counter("lp.phase1_pivots").unwrap_or(0);
    let hits = profile.counter("lp.warm_start.hits").unwrap_or(0);
    let saved = profile.counter("lp.warm_start.pivots_saved").unwrap_or(0);
    assert!(pivots > 0, "MCF solves must record simplex pivots");
    assert!(phase1 > 0, "the chains' cold solves run phase 1");
    assert!(pivots >= phase1);
    println!("lp.pivots={pivots} lp.phase1_pivots={phase1} hits={hits} saved={saved}");
    if hits == 0 {
        assert_eq!(saved, 0, "no hits means nothing saved");
    }
}

#[test]
fn cache_byte_budget_never_changes_records() {
    let set = ScenarioSet::builder()
        .root_seed(11)
        .app(App::Pip)
        .dsp()
        .mapper(MapperSpec::NmapInit)
        .mapper(MapperSpec::Gmap)
        .routing(RoutingSpec::MinPath)
        .routing(RoutingSpec::McfQuadrant)
        .build();
    let baseline = run_sweep_sharded(&set, &SweepConfig::default(), &Probe::default())
        .expect("unbounded sweep");
    let reference = baseline.report.write_jsonl(false);
    assert_eq!(baseline.cache.evictions, 0, "unbounded cache must not evict");
    for (cap, threads) in [(Some(0), 1), (Some(0), 2), (Some(600), 1), (Some(600), 8)] {
        let config = SweepConfig { threads, cache_mem_cap: cap, ..Default::default() };
        let outcome = run_sweep_sharded(&set, &config, &Probe::default()).expect("capped sweep");
        assert_eq!(outcome.report.write_jsonl(false), reference, "cap={cap:?} threads={threads}");
        if cap == Some(0) {
            assert!(outcome.cache.evictions > 0, "cap 0 must evict every entry");
        }
    }
}

#[test]
fn warm_and_capped_sweep_matches_cold_unbounded_sharded_output() {
    // The full SweepConfig surface at once: warm LP + byte budget +
    // sharding must still reproduce the plain engine byte-for-byte.
    let scenarios = mcf_capacity_sweep();
    let set = ScenarioSet::from_scenarios(scenarios.clone());
    let cold = run_scenarios(&scenarios, 1);
    for threads in [1usize, 2, 8] {
        let config = SweepConfig {
            threads,
            shard_size: 5,
            warm_lp: true,
            cache_mem_cap: Some(4_096),
            ..Default::default()
        };
        let outcome = run_sweep_sharded(&set, &config, &Probe::default()).expect("sweep");
        assert_eq!(strip_times(&outcome.report.records), strip_times(&cold), "threads={threads}");
    }
}

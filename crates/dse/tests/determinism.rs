//! The engine's central guarantee: sweep output is byte-identical no
//! matter how many worker threads produced it. Scenario seeds derive from
//! the root seed at set-build time — never from worker identity — and
//! records merge in scenario order, so the default-form (timing-free)
//! writers must produce the same bytes for `threads = 1, 2, 8`. The same
//! holds for MCF-routed capacity sweeps, and for any cache byte budget or
//! shard size.

use noc_apps::App;
use noc_dse::{
    parse_spec, run_scenarios, run_sweep, AppSpec, LoopKind, MapperSpec, RoutingSpec, RunContext,
    RunRecord, Scenario, ScenarioSet, SimulateSpec, StageCache, StageTimes, SweepConfig,
    SweepReport, TopologySpec,
};
use noc_graph::RandomGraphConfig;
use noc_probe::Probe;
use noc_units::mbps;

/// A sweep wide enough that 8 workers genuinely interleave: 14 app
/// entries × 2 topologies × 2 mappers × 2 routings = 112 scenarios.
fn wide_set() -> ScenarioSet {
    ScenarioSet::builder()
        .root_seed(2024)
        .capacity(600.0)
        .all_apps()
        .dsp()
        .random(RandomGraphConfig { cores: 10, ..Default::default() }, 4)
        .random(RandomGraphConfig { cores: 14, avg_degree: 2.5, ..Default::default() }, 3)
        .topology(TopologySpec::FitMesh)
        .topology(TopologySpec::FitTorus)
        .mapper(MapperSpec::NmapInit)
        .mapper(MapperSpec::Gmap)
        .routing(RoutingSpec::MinPath)
        .routing(RoutingSpec::Xy)
        .build()
}

#[test]
fn sweep_output_is_byte_identical_across_thread_counts() {
    let set = wide_set();
    assert_eq!(set.len(), 112);

    let baseline = SweepReport::new(run_scenarios(set.scenarios(), 1));
    let jsonl = baseline.write_jsonl(false);
    let csv = baseline.write_csv(false);
    assert_eq!(jsonl.lines().count(), set.len());

    for threads in [2usize, 8] {
        let report = SweepReport::new(run_scenarios(set.scenarios(), threads));
        assert_eq!(report.write_jsonl(false), jsonl, "JSONL diverged at threads={threads}");
        assert_eq!(report.write_csv(false), csv, "CSV diverged at threads={threads}");
    }
}

/// A sim-enabled sweep: every scenario runs the wormhole simulator after
/// map → route, with the link-bandwidth points as the innermost axis.
/// 2 apps × 2 mappers × 2 routings × 3 bandwidths = 24 sim-backed
/// scenarios — enough for 8 workers to interleave the heavier records.
fn sim_set() -> ScenarioSet {
    sim_set_with(LoopKind::default())
}

/// [`sim_set`] with an explicit simulator loop kind (the loop choice is
/// the only difference — same seeds, same windows, same bandwidths).
fn sim_set_with(loop_kind: LoopKind) -> ScenarioSet {
    ScenarioSet::builder()
        .root_seed(99)
        .app(noc_apps::App::Pip)
        .dsp()
        .mapper(MapperSpec::Nmap(Default::default()))
        .mapper(MapperSpec::NmapInit)
        .routing(RoutingSpec::MinPath)
        .routing(RoutingSpec::Xy)
        .simulate(SimulateSpec {
            bandwidths_mbps: vec![
                noc_units::mbps(600.0),
                noc_units::mbps(1_000.0),
                noc_units::mbps(1_400.0),
            ],
            warmup_cycles: 500,
            measure_cycles: 4_000,
            drain_cycles: 2_000,
            loop_kind,
            ..Default::default()
        })
        .build()
}

#[test]
fn sim_enabled_sweep_is_byte_identical_across_thread_counts() {
    let set = sim_set();
    assert_eq!(set.len(), 24);

    let baseline = SweepReport::new(run_scenarios(set.scenarios(), 1));
    let jsonl = baseline.write_jsonl(false);
    let csv = baseline.write_csv(false);
    // Every record carries real simulation numbers in the sim columns.
    for record in &baseline.records {
        let sim = record.sim.as_ref().expect("simulate stage ran");
        assert!(sim.avg_latency_cycles.to_f64() > 0.0, "{}: no packets measured", record.scenario);
    }
    assert!(jsonl.lines().all(|l| !l.contains("\"sim_avg_latency\":null")));

    for threads in [2usize, 8] {
        let report = SweepReport::new(run_scenarios(set.scenarios(), threads));
        assert_eq!(report.write_jsonl(false), jsonl, "JSONL diverged at threads={threads}");
        assert_eq!(report.write_csv(false), csv, "CSV diverged at threads={threads}");
    }

    // Repeated runs (same process, same thread count) are identical too:
    // the sim seed is a pure function of the scenario.
    let again = SweepReport::new(run_scenarios(set.scenarios(), 1));
    assert_eq!(again.write_jsonl(false), jsonl);
}

/// The default active-set loop through the whole engine pipeline, on the
/// [`sim_set`] sweep and on the idle-heavy [`IDLE_HEAVY_SPEC`]: sim-backed
/// sweeps stay byte-identical across thread counts and produce the *same
/// bytes* as the full-scan oracle — the sim crate's bit-identity
/// guarantee surviving map → route → simulate → serialize end to end.
#[test]
fn sim_sweep_is_loop_kind_invariant_at_every_thread_count() {
    for (name, set_with) in
        [("sim", sim_set_with as fn(LoopKind) -> ScenarioSet), ("idle-heavy", idle_heavy_set_with)]
    {
        let oracle = SweepReport::new(run_scenarios(set_with(LoopKind::FullScan).scenarios(), 1));
        for record in &oracle.records {
            assert!(record.is_ok() && record.sim.is_some(), "{name}: {}", record.scenario);
        }
        let jsonl = oracle.write_jsonl(false);
        let csv = oracle.write_csv(false);

        let set = set_with(LoopKind::ActiveSet);
        for threads in [1usize, 2, 8] {
            let report = SweepReport::new(run_scenarios(set.scenarios(), threads));
            assert_eq!(
                report.write_jsonl(false),
                jsonl,
                "{name}: active-set JSONL diverged from the full-scan oracle at threads={threads}"
            );
            assert_eq!(
                report.write_csv(false),
                csv,
                "{name}: active-set CSV diverged from the full-scan oracle at threads={threads}"
            );
        }
    }
}

/// Light random traffic and a long drain: the network sits empty for
/// most of the run, across many watchdog deadlines, which is where the
/// active-set loop fast-forwards.
const IDLE_HEAVY_SPEC: &str = "\
seed 5
capacity 1000
random 16 2 2 5 20
topology fit
mapper nmap-init
routing min-path
simulate {
  warmup 500
  measure 5000
  drain 50000
}
";

/// The [`IDLE_HEAVY_SPEC`] sweep under an explicit simulator loop kind.
fn idle_heavy_set_with(loop_kind: LoopKind) -> ScenarioSet {
    let mut spec = parse_spec(IDLE_HEAVY_SPEC).expect("the idle-heavy spec parses");
    spec.simulate.as_mut().expect("the spec simulates").loop_kind = loop_kind;
    spec.scenarios()
}

/// The acceptance bar for the stochastic search mappers: `sa` and `tabu`
/// scenarios, expressed as a `.dse` spec (round-tripped through Display
/// first), produce byte-identical JSONL/CSV at 1, 2 and 8 worker
/// threads — SA's random stream derives from the scenario seed, never
/// from worker identity.
#[test]
fn sa_and_tabu_sweeps_are_byte_identical_across_thread_counts() {
    let text = "\
seed 41
capacity 900
app pip
app dsp
random 10 2
topology fit
topology fit-torus
mapper sa tabu sa[m2000t0.1c0.999] tabu[i16t4]
routing min-path
";
    let spec = parse_spec(text).unwrap();
    // Round-trip through the canonical Display form before running: the
    // sweep that runs *is* the reparsed one.
    let spec = parse_spec(&spec.to_string()).unwrap();
    let set = spec.scenarios();
    assert_eq!(set.len(), 4 * 2 * 4);

    let baseline = SweepReport::new(run_scenarios(set.scenarios(), 1));
    let jsonl = baseline.write_jsonl(false);
    let csv = baseline.write_csv(false);
    for record in &baseline.records {
        assert!(record.is_ok(), "{}: {}", record.scenario, record.error);
        assert!(record.comm_cost > noc_units::HopMbps::ZERO);
    }
    // All four mapper spellings appear in the records.
    for name in ["sa", "tabu", "sa[m2000t0.1c0.999]", "tabu[i16t4]"] {
        assert!(baseline.records.iter().any(|r| r.mapper == name), "missing mapper {name}");
    }

    for threads in [2usize, 8] {
        let report = SweepReport::new(run_scenarios(set.scenarios(), threads));
        assert_eq!(report.write_jsonl(false), jsonl, "JSONL diverged at threads={threads}");
        assert_eq!(report.write_csv(false), csv, "CSV diverged at threads={threads}");
    }
}

/// The stage-cache acceptance bar: a routing × bandwidth sweep whose
/// mappers are capacity-invariant shares map stages through the
/// [`StageCache`] — at least 2× fewer map-stage executions than lookups —
/// while the default-form writers stay byte-identical to the uncached
/// engine at every thread count, cold or warm.
#[test]
fn stage_cache_shares_map_stages_without_changing_bytes() {
    // NmapInit and Gmap never read link capacity, so one mapping serves
    // every routing × bandwidth combination of its (app, topology) cell:
    // 4 map executions cover 24 scenarios.
    let set = ScenarioSet::builder()
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
            warmup_cycles: 500,
            measure_cycles: 2_000,
            drain_cycles: 1_000,
            ..Default::default()
        })
        .build();
    assert_eq!(set.len(), 24);

    let plain = SweepReport::new(run_scenarios(set.scenarios(), 1));
    let jsonl = plain.write_jsonl(false);
    let csv = plain.write_csv(false);

    for threads in [1usize, 2, 8] {
        // Cold cache: identical bytes, map stage runs once per distinct
        // (app, topology, mapper) cell regardless of worker count.
        let cache = StageCache::in_memory();
        let report = SweepReport::new(run_scenarios(
            set.scenarios(),
            RunContext { threads, cache: Some(&cache), ..Default::default() },
        ));
        assert_eq!(report.write_jsonl(false), jsonl, "cold JSONL diverged at threads={threads}");
        assert_eq!(report.write_csv(false), csv, "cold CSV diverged at threads={threads}");
        let cold = cache.stats();
        assert_eq!(cold.map_lookups(), 24, "threads={threads}");
        assert_eq!(cold.map_misses, 4, "map must run once per cell (threads={threads})");
        assert!(cold.map_lookups() >= 2 * cold.map_misses, "below the 2x sharing bar");

        // Warm re-run against the same cache: same bytes, zero new map
        // or route executions.
        let warm = SweepReport::new(run_scenarios(
            set.scenarios(),
            RunContext { threads, cache: Some(&cache), ..Default::default() },
        ));
        assert_eq!(warm.write_jsonl(false), jsonl, "warm JSONL diverged at threads={threads}");
        assert_eq!(warm.write_csv(false), csv, "warm CSV diverged at threads={threads}");
        let stats = cache.stats();
        assert_eq!(stats.map_misses, cold.map_misses, "warm run recomputed a map stage");
        assert_eq!(stats.route_misses, cold.route_misses, "warm run recomputed a route stage");
        assert_eq!(stats.map_hits, cold.map_hits + 24);
        assert_eq!(stats.route_hits, cold.route_hits + 24);
    }
}

#[test]
fn spec_driven_sweeps_are_reproducible_end_to_end() {
    // Same spec text, parsed twice, run with different thread counts:
    // derived seeds and records must line up exactly.
    let text = "\
seed 77
capacity 700
random 9 3
app pip
mapper nmap-init gmap
routing min-path xy
";
    let a = parse_spec(text).unwrap().scenarios();
    let b = parse_spec(text).unwrap().scenarios();
    assert_eq!(a, b);

    let r1 = SweepReport::new(run_scenarios(a.scenarios(), 1));
    let r8 = SweepReport::new(run_scenarios(b.scenarios(), 8));
    assert_eq!(r1.write_jsonl(false), r8.write_jsonl(false));

    // The feasibility/cost aggregates agree too (they ignore timing).
    let s1 = r1.summary();
    let s8 = r8.summary();
    assert_eq!(s1.scenarios, s8.scenarios);
    assert_eq!(s1.feasible, s8.feasible);
    assert_eq!(s1.cost_median, s8.cost_median);
}

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
/// one placement (NmapInit is capacity-invariant). Points span
/// comfortably feasible down to infeasible, so both FlowMin and its MCF1
/// fallback route records.
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
fn mcf_sweep_records_are_identical_at_every_thread_count() {
    let scenarios = mcf_capacity_sweep();
    let sequential = run_scenarios(&scenarios, 1);
    assert!(sequential.iter().all(|r| r.is_ok()), "sweep must route cleanly");
    assert!(sequential.iter().any(|r| !r.feasible), "sweep must reach binding capacities");
    for threads in [2usize, 8] {
        let pooled = run_scenarios(&scenarios, threads);
        assert_eq!(strip_times(&pooled), strip_times(&sequential), "threads={threads}");
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
    let baseline = run_sweep(&set, &SweepConfig::default(), &Probe::default(), &mut |_, _| {})
        .expect("unbounded sweep");
    let reference = baseline.report.write_jsonl(false);
    assert_eq!(baseline.cache.evictions, 0, "unbounded cache must not evict");
    for (cap, threads) in [(Some(0), 1), (Some(0), 2), (Some(600), 1), (Some(600), 8)] {
        let config = SweepConfig { threads, cache_mem_cap: cap, ..Default::default() };
        let outcome =
            run_sweep(&set, &config, &Probe::default(), &mut |_, _| {}).expect("capped sweep");
        assert_eq!(outcome.report.write_jsonl(false), reference, "cap={cap:?} threads={threads}");
        if cap == Some(0) {
            assert!(outcome.cache.evictions > 0, "cap 0 must evict every entry");
        }
    }
}

#[test]
fn capped_sharded_sweep_matches_unbounded_output() {
    // A byte budget plus sharding on an MCF sweep must still reproduce
    // the plain engine byte-for-byte.
    let scenarios = mcf_capacity_sweep();
    let set = ScenarioSet::from_scenarios(scenarios.clone());
    let reference = run_scenarios(&scenarios, 1);
    for threads in [1usize, 2, 8] {
        let config = SweepConfig {
            threads,
            shard_size: 5,
            cache_mem_cap: Some(4_096),
            ..Default::default()
        };
        let outcome = run_sweep(&set, &config, &Probe::default(), &mut |_, _| {}).expect("sweep");
        assert_eq!(
            strip_times(&outcome.report.records),
            strip_times(&reference),
            "threads={threads}"
        );
    }
}

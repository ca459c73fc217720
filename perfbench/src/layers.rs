//! The traced pipeline: composes the layers the way the engine does, with
//! a span around each call, and folds the spans and work counts into the
//! per-layer metrics.
//!
//! Layers are named after the modules the harness calls into:
//!
//! | span                     | layer   | call                                         |
//! |--------------------------|---------|----------------------------------------------|
//! | `scenario`               | `dse`   | one scenario (or Fig. 5(c) point) end to end |
//! | `build`                  | `build` | `Scenario::parts` + `MappingProblem::new`     |
//! | `map.nmap`/`.pbb`/`.other` | `map` | `MapperSpec::mapper(seed).place`             |
//! | `route.single`/`.mcf`    | `route` | `route_min_paths`/`route_xy`/`solve_mcf`     |
//! | `sim`                    | `sim`   | `flows_from_tables` + `Simulator::run`        |
//! | `design_dsp`             | —       | Fig. 5(c)'s one-off design step              |
//!
//! The map and route spans open inside `StageCache::map_stage` /
//! `route_stage`, so a cache hit records no span and the lookup itself
//! is the scenario span's self time. The LP layer is measured apart:
//! every MCF route miss is replayed through `solve_mcf_warm` after the
//! traced repetition, outside every span, for its pivot counts.

use std::collections::BTreeMap;
use std::time::Instant;

use nmap::mcf::{solve_mcf, solve_mcf_warm};
use nmap::routing::{route_min_paths, route_xy};
use nmap::{
    Commodity, EvalContext, LinkLoads, MapError, MappingProblem, McfKind, McfSolution,
    McfWarmState, PathScope, RoutingTables,
};
use noc_dse::cache::{self, Lookup};
use noc_dse::{
    flows_from_tables, pool_map, topology_label, RoutingSpec, RunRecord, Scenario, SimStats,
    StageCache, StageTimes,
};
use noc_experiments::fig5c::{design_dsp, Fig5cConfig, Fig5cPoint};
use noc_graph::{LinkId, Topology};
use noc_lp::SolveError;
use noc_sim::{SimReport, Simulator};
use noc_units::Mbps;

use crate::metrics::Measured;
use crate::stats::{self, Spread};
use crate::trace::{self, Span, Tracer};
use crate::workload::{Inputs, Output};

/// Deterministic work counts of one traced repetition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Map-stage cache lookups.
    pub map_lookups: u64,
    /// Map-stage lookups served from the cache.
    pub map_hits: u64,
    /// Route-stage cache lookups.
    pub route_lookups: u64,
    /// Route-stage lookups served from the cache.
    pub route_hits: u64,
    /// Mapper invocations.
    pub map_calls: u64,
    /// Mapper work units (evaluations, LP solves or expansions).
    pub map_evaluations: u64,
    /// Router invocations.
    pub route_calls: u64,
    /// MCF routes that fell back from FlowMin to SlackMin.
    pub slack_fallbacks: u64,
    /// Simulator runs.
    pub sim_calls: u64,
    /// Simulated cycles.
    pub sim_cycles: u64,
    /// Simulated cycles the main loop executed.
    pub sim_cycles_executed: u64,
    /// Flits moved over links in measurement windows.
    pub sim_flit_hops: u64,
    /// Packets delivered.
    pub packets_delivered: u64,
    /// Packets dropped by deadlock recovery.
    pub dropped_packets: u64,
    /// Measured packets still in flight at the end of a run.
    pub unfinished_packets: u64,
    /// Packets with a measured latency.
    pub latency_packets: u64,
    /// Sum of their latencies, in simulated cycles.
    pub latency_cycles: f64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.map_lookups += o.map_lookups;
        self.map_hits += o.map_hits;
        self.route_lookups += o.route_lookups;
        self.route_hits += o.route_hits;
        self.map_calls += o.map_calls;
        self.map_evaluations += o.map_evaluations;
        self.route_calls += o.route_calls;
        self.slack_fallbacks += o.slack_fallbacks;
        self.sim_calls += o.sim_calls;
        self.sim_cycles += o.sim_cycles;
        self.sim_cycles_executed += o.sim_cycles_executed;
        self.sim_flit_hops += o.sim_flit_hops;
        self.packets_delivered += o.packets_delivered;
        self.dropped_packets += o.dropped_packets;
        self.unfinished_packets += o.unfinished_packets;
        self.latency_packets += o.latency_packets;
        self.latency_cycles += o.latency_cycles;
    }

    fn add_sim(&mut self, sim: &Simulator, report: &SimReport) {
        self.sim_calls += 1;
        self.sim_cycles += report.cycles;
        self.sim_cycles_executed += sim.executed_cycles();
        self.sim_flit_hops += report.link_flits.iter().sum::<u64>();
        self.packets_delivered += report.delivered_packets;
        self.dropped_packets += report.dropped_packets;
        self.unfinished_packets += report.unfinished_measured_packets;
        self.latency_packets += report.latency.count();
        self.latency_cycles += report.latency.mean() * report.latency.count() as f64;
    }
}

/// One MCF route computation, kept for the LP replay: the program's
/// inputs and what each timed solve returned (`None` = infeasible).
#[derive(Debug, Clone)]
pub struct LpCase {
    /// Warm-start lineage: scenarios differing only in capacity.
    pub lineage: String,
    /// The fabric, capacities included.
    pub topology: Topology,
    /// The placed traffic.
    pub commodities: Vec<Commodity>,
    /// Path scope.
    pub scope: PathScope,
    /// FlowMin's outcome, then SlackMin's when FlowMin was infeasible.
    pub solves: Vec<(McfKind, Option<McfSolution>)>,
}

/// One traced repetition's measurements.
#[derive(Debug, Clone)]
pub struct TracedRep {
    /// Every span, ids indexing the vector.
    pub spans: Vec<Span>,
    /// Work counts.
    pub counts: Counts,
    /// MCF route misses, in scenario order.
    pub lp_cases: Vec<LpCase>,
    /// Wall time of the whole repetition.
    pub wall_ns: u64,
    /// Wall time of the worker pool alone.
    pub pool_ns: u64,
    /// Workers the pool ran.
    pub workers: usize,
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one repetition through the traced pipeline on `threads` workers,
/// returning its output (for comparison with the engine's) and its
/// measurements.
pub fn traced_rep(inputs: &Inputs, threads: usize) -> (Output, TracedRep) {
    match inputs {
        Inputs::Fig5c(config) => traced_fig5c(config, threads),
        Inputs::Sweep { set, .. } => traced_sweep(set.scenarios(), threads),
    }
}

fn traced_sweep(scenarios: &[Scenario], threads: usize) -> (Output, TracedRep) {
    let origin = Instant::now();
    let cache = StageCache::in_memory();
    let tasks = pool_map(scenarios.len(), threads, |i| {
        let mut tracer = Tracer::new(origin, Some(i));
        let mut counts = Counts::default();
        let mut lp = None;
        let record = tracer
            .span("scenario", |t| traced_scenario(&scenarios[i], &cache, t, &mut counts, &mut lp));
        (record, tracer.into_spans(), counts, lp)
    });
    let pool_ns = elapsed_ns(origin);
    let mut records = Vec::with_capacity(tasks.len());
    let mut spans = Vec::with_capacity(tasks.len());
    let mut counts = Counts::default();
    let mut lp_cases = Vec::new();
    for (record, task_spans, task_counts, lp) in tasks {
        records.push(record);
        spans.push(task_spans);
        counts.add(&task_counts);
        lp_cases.extend(lp);
    }
    let rep = TracedRep {
        spans: trace::merge(spans),
        counts,
        lp_cases,
        wall_ns: elapsed_ns(origin),
        pool_ns,
        workers: threads.clamp(1, scenarios.len().max(1)),
    };
    (Output::Records(records), rep)
}

/// One scenario composed the way `noc_dse`'s engine composes it: build,
/// memoized map, memoized route, optional simulation. Returns the record
/// the engine would (without stage times).
fn traced_scenario(
    scenario: &Scenario,
    cache: &StageCache,
    t: &mut Tracer,
    counts: &mut Counts,
    lp: &mut Option<LpCase>,
) -> RunRecord {
    let (problem, cores, topo_label) = t.span("build", |_| {
        let (graph, topology) = scenario.parts();
        let cores = graph.core_count();
        let label = topology_label(&topology);
        (MappingProblem::new(graph, topology), cores, label)
    });
    let problem = match problem {
        Ok(p) => p,
        Err(e) => return RunRecord::failed(scenario, cores, topo_label, e.to_string()),
    };

    let map_span = match scenario.mapper.name() {
        n if n.starts_with("nmap") => "map.nmap",
        n if n.starts_with("pbb") => "map.pbb",
        _ => "map.other",
    };
    let (map_result, lookup) = cache.map_stage(&cache::map_key(scenario), &problem, || {
        t.span(map_span, |_| {
            counts.map_calls += 1;
            let mut ctx = EvalContext::new(&problem);
            scenario.mapper.mapper(scenario.seed).place(&mut ctx).map_err(|e| e.to_string())
        })
    });
    counts.map_lookups += 1;
    counts.map_hits += u64::from(lookup == Lookup::Hit);
    let (mapping, evaluations) = match map_result {
        Ok(placed) => placed,
        Err(e) => return RunRecord::failed(scenario, cores, topo_label, e),
    };
    if lookup != Lookup::Hit {
        counts.map_evaluations += evaluations as u64;
    }

    let need_tables = scenario.simulate.is_some();
    let (route_result, lookup) =
        cache.route_stage(&cache::route_key(scenario, need_tables), || {
            counts.route_calls += 1;
            let scope = match scenario.routing {
                RoutingSpec::MinPath | RoutingSpec::Xy => {
                    return t
                        .span("route.single", |_| {
                            let (paths, loads) = if scenario.routing == RoutingSpec::MinPath {
                                route_min_paths(&problem, &mapping)?
                            } else {
                                route_xy(&problem, &mapping)?
                            };
                            Ok((
                                need_tables.then(|| RoutingTables::from_single_paths(&paths)),
                                loads,
                            ))
                        })
                        .map_err(|e: MapError| e.to_string());
                }
                RoutingSpec::McfQuadrant => PathScope::Quadrant,
                RoutingSpec::McfAllPaths => PathScope::AllPaths,
            };
            let solves = t
                .span("route.mcf", |_| mcf_solves(&problem, &mapping, scope))
                .map_err(|e| e.to_string())?;
            let (_, solution) = solves.last().expect("at least one solve");
            let solution = solution.as_ref().expect("the last solve found a routing");
            let routed = (Some(solution.tables.clone()), solution.link_loads.clone());
            counts.slack_fallbacks += u64::from(solves.len() > 1);
            *lp = Some(LpCase {
                lineage: cache::warm_lineage_key(scenario, need_tables),
                topology: problem.topology().clone(),
                commodities: problem.commodities(&mapping),
                scope,
                solves,
            });
            Ok(routed)
        });
    counts.route_lookups += 1;
    counts.route_hits += u64::from(lookup == Lookup::Hit);
    let (tables, loads): (Option<RoutingTables>, LinkLoads) = match route_result {
        Ok(routed) => routed,
        Err(e) => {
            let mut r = RunRecord::failed(scenario, cores, topo_label, e);
            r.evaluations = evaluations;
            return r;
        }
    };

    let sim = scenario.simulate.as_ref().map(|spec| {
        t.span("sim", |_| {
            let tables = tables.as_ref().expect("tables built when simulate is present");
            let flows = flows_from_tables(&problem, &mapping, tables);
            let config = spec.sim_config(scenario.seed);
            let packet_bytes = config.packet_bytes;
            let mut simulator = Simulator::new(problem.topology(), flows, config);
            simulator.set_loop_kind(spec.loop_kind);
            let report = simulator.run();
            counts.add_sim(&simulator, &report);
            sim_stats(&report, problem.topology().link_count(), packet_bytes)
        })
    });

    RunRecord {
        scenario: scenario.label.clone(),
        cores,
        topology: topo_label,
        capacity: scenario.capacity,
        mapper: scenario.mapper.name(),
        routing: scenario.routing.name().to_string(),
        seed: scenario.seed,
        error: String::new(),
        feasible: loads.within_capacity(problem.topology()),
        comm_cost: problem.comm_cost(&mapping),
        max_link_load: Mbps::raw(loads.max()),
        total_load: Mbps::raw(loads.total()),
        evaluations,
        sim,
        times: StageTimes::default(),
    }
}

/// The engine's MCF route solves: FlowMin under hard capacities, then
/// SlackMin when FlowMin is infeasible. Each solve's outcome is kept
/// (`None` = infeasible) for the LP replay; the last one is the routing.
fn mcf_solves(
    problem: &MappingProblem,
    mapping: &nmap::Mapping,
    scope: PathScope,
) -> nmap::Result<Vec<(McfKind, Option<McfSolution>)>> {
    match solve_mcf(problem, mapping, McfKind::FlowMin, scope) {
        Ok(s) => Ok(vec![(McfKind::FlowMin, Some(s))]),
        Err(MapError::Lp(SolveError::Infeasible)) => {
            let s = solve_mcf(problem, mapping, McfKind::SlackMin, scope)?;
            Ok(vec![(McfKind::FlowMin, None), (McfKind::SlackMin, Some(s))])
        }
        Err(e) => Err(e),
    }
}

/// The engine's record-level simulation columns for one report.
fn sim_stats(report: &SimReport, link_count: usize, packet_bytes: usize) -> SimStats {
    let delivered_mbps = if report.measure_cycles == 0 {
        Mbps::ZERO
    } else {
        Mbps::raw(
            report.latency.count() as f64 * packet_bytes as f64 / report.measure_cycles as f64
                * 1000.0,
        )
    };
    let max_link_mbps = (0..link_count)
        .map(|l| report.link_throughput_mbps(LinkId::new(l)))
        .fold(Mbps::ZERO, Mbps::max);
    SimStats {
        avg_latency_cycles: report.avg_latency_cycles(),
        avg_network_latency_cycles: report.avg_network_latency_cycles(),
        p95_latency_cycles: report.latency.quantile_upper_bound(0.95).unwrap_or(0),
        delivered_mbps,
        max_link_mbps,
        saturated: report.saturated(),
    }
}

/// Fig. 5(c) as the engine bridge runs it: one `design_dsp` span, then
/// one scenario span per simulation point.
fn traced_fig5c(config: &Fig5cConfig, threads: usize) -> (Output, TracedRep) {
    let origin = Instant::now();
    let mut design_tracer = Tracer::new(origin, None);
    let design = design_tracer.span("design_dsp", |_| design_dsp());
    let tasks = config.bandwidths_mbps.len() * 2;
    let pool_start = Instant::now();
    let runs = pool_map(tasks, threads, |i| {
        let mut t = Tracer::new(origin, Some(i));
        let mut counts = Counts::default();
        let point = t.span("scenario", |t| {
            let bandwidth = config.bandwidths_mbps[i / 2];
            let tables = if i % 2 == 0 { &design.minpath_tables } else { &design.split_tables };
            let topology = t.span("build", |_| Topology::mesh(3, 2, bandwidth));
            t.span("sim", |_| {
                let flows = flows_from_tables(&design.problem, &design.mapping, tables);
                let mut simulator = Simulator::new(&topology, flows, config.sim.clone());
                simulator.set_loop_kind(config.loop_kind);
                let report = simulator.run();
                counts.add_sim(&simulator, &report);
                (
                    report.avg_latency_cycles().to_f64(),
                    report.avg_network_latency_cycles().to_f64(),
                    report.saturated(),
                )
            })
        });
        (point, t.into_spans(), counts)
    });
    let pool_ns = elapsed_ns(pool_start);
    let mut spans = vec![design_tracer.into_spans()];
    let mut counts = Counts::default();
    let mut results = Vec::with_capacity(runs.len());
    for (result, task_spans, task_counts) in runs {
        results.push(result);
        spans.push(task_spans);
        counts.add(&task_counts);
    }
    let points = results
        .chunks_exact(2)
        .zip(&config.bandwidths_mbps)
        .map(|(pair, &bandwidth_mbps)| Fig5cPoint {
            bandwidth_mbps,
            minpath_latency: pair[0].0,
            split_latency: pair[1].0,
            minpath_network_latency: pair[0].1,
            split_network_latency: pair[1].1,
            minpath_saturated: pair[0].2,
            split_saturated: pair[1].2,
        })
        .collect();
    let rep = TracedRep {
        spans: trace::merge(spans),
        counts,
        lp_cases: Vec::new(),
        wall_ns: elapsed_ns(origin),
        pool_ns,
        workers: threads.clamp(1, tasks.max(1)),
    };
    (Output::Points(points), rep)
}

/// LP-layer counts from replaying the MCF route misses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpCounts {
    /// LP solves (an infeasible FlowMin counts as one).
    pub solves: u64,
    /// Simplex pivots of the cold replays.
    pub pivots: u64,
    /// Phase-1 pivots of the cold replays.
    pub phase1_pivots: u64,
    /// Chained solves that had a previous tableau to start from.
    pub warm_attempts: u64,
    /// Chained solves that reused it.
    pub warm_hits: u64,
    /// Replays whose solution differed from the timed solve's.
    pub mismatches: u64,
}

/// Replays every MCF solve cold through `solve_mcf_warm(.., None)` for
/// its pivot counts, and again chained along each lineage's capacity
/// axis for the warm-start hit rate. Each replay must return exactly the
/// timed solve's solution (or its infeasibility).
pub fn replay_lp(cases: &[LpCase]) -> LpCounts {
    let mut counts = LpCounts::default();
    let mut chains: BTreeMap<(String, bool), Option<McfWarmState>> = BTreeMap::new();
    for case in cases {
        for (kind, timed) in &case.solves {
            counts.solves += 1;
            let solve = |previous| {
                solve_mcf_warm(&case.topology, &case.commodities, *kind, case.scope, previous)
            };
            match (solve(None), timed) {
                (Ok((solution, _, stats)), Some(expected)) => {
                    counts.pivots += stats.pivots as u64;
                    counts.phase1_pivots += stats.phase1_pivots as u64;
                    counts.mismatches += u64::from(solution != *expected);
                }
                (Err(MapError::Lp(SolveError::Infeasible)), None) => {}
                _ => counts.mismatches += 1,
            }
            let chain =
                chains.entry((case.lineage.clone(), *kind == McfKind::FlowMin)).or_default();
            let previous = chain.take();
            counts.warm_attempts += u64::from(previous.is_some());
            match (solve(previous), timed) {
                (Ok((solution, next, stats)), Some(expected)) => {
                    counts.warm_hits += u64::from(stats.warm_hit);
                    counts.mismatches += u64::from(solution != *expected);
                    *chain = Some(next);
                }
                (Err(MapError::Lp(SolveError::Infeasible)), None) => {}
                _ => counts.mismatches += 1,
            }
        }
    }
    counts
}

/// Span time per layer over one traced repetition, in nanoseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTimes {
    /// Scenario spans, summed.
    pub scenario_ns: u64,
    /// Scenario spans' self time (cache lookups, bookkeeping), summed.
    pub dse_self_ns: u64,
    /// `build` spans.
    pub build_ns: u64,
    /// `map.*` spans.
    pub map_ns: u64,
    /// `map.nmap` spans.
    pub map_nmap_ns: u64,
    /// `map.pbb` spans.
    pub map_pbb_ns: u64,
    /// `route.*` spans.
    pub route_ns: u64,
    /// `route.single` spans.
    pub route_single_ns: u64,
    /// `route.mcf` spans.
    pub route_mcf_ns: u64,
    /// `sim` spans.
    pub sim_ns: u64,
    /// Each scenario span's duration, in milliseconds.
    pub scenario_ms: Vec<f64>,
}

/// Folds a trace into per-layer span time.
pub fn layer_times(spans: &[Span]) -> LayerTimes {
    let self_ns = trace::self_times(spans);
    let mut t = LayerTimes::default();
    for (span, own) in spans.iter().zip(self_ns) {
        let d = span.duration_ns();
        match span.name {
            "scenario" => {
                t.scenario_ns += d;
                t.dse_self_ns += own;
                t.scenario_ms.push(d as f64 / 1e6);
            }
            "build" => t.build_ns += d,
            "sim" => t.sim_ns += d,
            "route.single" => t.route_single_ns += d,
            "route.mcf" => t.route_mcf_ns += d,
            "map.nmap" => t.map_nmap_ns += d,
            "map.pbb" => t.map_pbb_ns += d,
            _ => {}
        }
        match span.layer() {
            "map" => t.map_ns += d,
            "route" => t.route_ns += d,
            _ => {}
        }
    }
    t
}

/// Everything the per-layer metrics are computed from.
#[derive(Debug, Clone)]
pub struct LayerInputs<'a> {
    /// The traced repetition whose times are reported (the median one).
    pub rep: &'a TracedRep,
    /// Scenario span durations pooled over every traced repetition, ms.
    pub scenario_ms: &'a [f64],
    /// LP replay counts.
    pub lp: LpCounts,
    /// Median untraced (engine) repetition wall time, ns.
    pub engine_wall_ns: u64,
    /// Median traced repetition wall time, ns.
    pub traced_wall_ns: u64,
    /// Host slowdown against the reference (see `run`'s calibration):
    /// absolute host times are divided by it, rates multiplied.
    pub slowdown: f64,
    /// Peak live heap of one engine call on one worker.
    pub peak_heap_bytes: usize,
    /// Communication cost of the workload's output.
    pub comm_cost: f64,
}

/// The [`crate::metrics::PER_LAYER`] values, in catalogue order.
pub fn per_layer_metrics(inputs: &LayerInputs<'_>) -> Vec<Measured> {
    let rep = inputs.rep;
    let t = layer_times(&rep.spans);
    let c = &rep.counts;
    let lp = &inputs.lp;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    // Host seconds at reference speed.
    let secs = |ns: u64| ns as f64 / 1e9 / inputs.slowdown;
    let share = |ns: u64| ratio(ns as f64, t.scenario_ns as f64);
    let tail = stats::tail(inputs.scenario_ms);
    let median_ms = stats::percentile(inputs.scenario_ms, 500);
    let values: [(&str, f64); 44] = [
        ("host.speed", 1.0 / inputs.slowdown),
        ("peak_heap_mb", inputs.peak_heap_bytes as f64 / (1024.0 * 1024.0)),
        ("dse.self_s", secs(t.dse_self_ns)),
        (
            "dse.parallel_efficiency",
            ratio(t.scenario_ns as f64, rep.pool_ns as f64 * rep.workers as f64),
        ),
        ("dse.cache.map_hit_rate", ratio(c.map_hits as f64, c.map_lookups as f64)),
        ("dse.cache.route_hit_rate", ratio(c.route_hits as f64, c.route_lookups as f64)),
        ("dse.cache.map_misses", (c.map_lookups - c.map_hits) as f64),
        ("build.busy_s", secs(t.build_ns)),
        ("map.calls", c.map_calls as f64),
        ("map.busy_s", secs(t.map_ns)),
        ("map.share", share(t.map_ns)),
        ("map.nmap.busy_s", secs(t.map_nmap_ns)),
        ("map.pbb.busy_s", secs(t.map_pbb_ns)),
        ("map.evaluations", c.map_evaluations as f64),
        ("map.evals_per_s", ratio(c.map_evaluations as f64, secs(t.map_ns))),
        ("route.calls", c.route_calls as f64),
        ("route.busy_s", secs(t.route_ns)),
        ("route.share", share(t.route_ns)),
        ("route.single.busy_s", secs(t.route_single_ns)),
        ("route.mcf.busy_s", secs(t.route_mcf_ns)),
        ("route.mcf.slack_fallbacks", c.slack_fallbacks as f64),
        ("lp.solves", lp.solves as f64),
        ("lp.pivots", lp.pivots as f64),
        ("lp.phase1_pivots", lp.phase1_pivots as f64),
        ("lp.pivots_per_s", ratio(lp.pivots as f64, secs(t.route_mcf_ns))),
        ("lp.warm_hit_rate", ratio(lp.warm_hits as f64, lp.warm_attempts as f64)),
        ("sim.calls", c.sim_calls as f64),
        ("sim.busy_s", secs(t.sim_ns)),
        ("sim.share", share(t.sim_ns)),
        ("sim.cycles", c.sim_cycles as f64),
        ("sim.cycles_executed", c.sim_cycles_executed as f64),
        ("sim.executed_frac", ratio(c.sim_cycles_executed as f64, c.sim_cycles as f64)),
        ("sim.flit_hops", c.sim_flit_hops as f64),
        ("sim.ns_per_flit_hop", ratio(secs(t.sim_ns) * 1e9, c.sim_flit_hops as f64)),
        ("sim.packets_delivered", c.packets_delivered as f64),
        ("sim.dropped_packets", c.dropped_packets as f64),
        ("sim.unfinished_packets", c.unfinished_packets as f64),
        ("sim.avg_latency_cycles", ratio(c.latency_cycles, c.latency_packets as f64)),
        ("scenario_ms.p50", median_ms / inputs.slowdown),
        ("scenario_ms.tail", tail.value / inputs.slowdown),
        ("scenario_ms.tail_pct", tail.pct),
        ("scenario_ms.n", tail.n as f64),
        (
            "trace.overhead_frac",
            ratio(inputs.traced_wall_ns as f64, inputs.engine_wall_ns as f64) - 1.0,
        ),
        ("comm_cost", inputs.comm_cost),
    ];
    values
        .iter()
        .map(|&(name, value)| Measured { name: name.to_string(), spread: Spread::exact(value) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use crate::workload::{run_engine, Workload};

    #[test]
    fn traced_pipeline_matches_the_engine_on_every_smoke_workload() {
        for w in Workload::ALL {
            let inputs = w.inputs(w.default_seed(), true);
            let engine = run_engine(&inputs, 2).without_times();
            let (output, traced) = traced_rep(&inputs, 2);
            assert_eq!(output, engine, "{}", w.name());
            let (_, again) = traced_rep(&inputs, 1);
            assert_eq!(again.counts, traced.counts, "{}: counts are thread-independent", w.name());
            let lp = replay_lp(&traced.lp_cases);
            assert_eq!(lp.mismatches, 0, "{}", w.name());
            let times = layer_times(&traced.spans);
            assert_eq!(times.scenario_ms.len(), inputs.scenario_count(), "{}", w.name());
            let metrics = per_layer_metrics(&LayerInputs {
                rep: &traced,
                scenario_ms: &times.scenario_ms,
                lp,
                engine_wall_ns: traced.wall_ns,
                traced_wall_ns: traced.wall_ns,
                slowdown: 1.0,
                peak_heap_bytes: 1 << 20,
                comm_cost: 1.0,
            });
            let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
            let listed: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, listed);
        }
    }

    #[test]
    fn mcf_sweep_exercises_the_lp_and_the_cache() {
        let inputs = Workload::McfSweep.inputs(11, true);
        let (_, traced) = traced_rep(&inputs, 2);
        let c = &traced.counts;
        // nmap-init is capacity-invariant: one map per (app, routing)
        // lineage, shared by its other capacity points.
        assert_eq!(c.map_lookups, 24);
        assert_eq!(c.map_calls, 6);
        assert_eq!(c.route_calls, 24);
        let lp = replay_lp(&traced.lp_cases);
        assert_eq!(lp.solves, 24 + c.slack_fallbacks);
        assert!(lp.pivots > 0 && lp.warm_attempts > 0);
    }
}

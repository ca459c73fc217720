//! The sweep engine: runs every [`Scenario`] of a set, optionally on a
//! deterministic `std::thread` worker pool.
//!
// lint: allow-file(wall-clock) — the engine is the repo's sanctioned
// timing seam: every `Instant::now` here feeds `StageTimes`, which the
// report writers exclude from deterministic output by default.
//!
//! Three entry points: [`run_scenarios`] runs a scenario list,
//! [`pool_map`] fans out work the scenario pipeline cannot express, and
//! [`run_sweep`] runs a whole [`ScenarioSet`] as ordered, optionally
//! checkpointed shards. The first two take a [`RunContext`] (or a bare
//! thread count); the third builds one from its [`SweepConfig`]. The
//! engine owns the [`StageCache`]: each [`run_scenarios`] call runs with
//! a fresh one, and a [`run_sweep`] spans every shard with one.
//!
//! Determinism contract: a scenario's record depends only on the scenario
//! itself (its seed is fixed at build time, never derived from worker
//! identity), workers claim scenarios from a shared atomic cursor, and
//! each record is written into the slot of its scenario index — so the
//! returned `Vec<RunRecord>` is in scenario order and its deterministic
//! fields are byte-identical for 1 or N threads. Only the wall-clock
//! [`StageTimes`] vary between runs, and the report writers exclude them
//! by default.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use nmap::{
    mcf::solve_mcf_or_slack, routing, EvalContext, LinkLoads, Mapping, MappingProblem, PathScope,
    RoutingTables,
};
use noc_probe::{Event, Probe, Value};
use noc_sim::{FlowSpec, SimReport, Simulator};
use noc_units::Mbps;

use crate::cache::{self, CacheStats, Lookup, StageCache};
use crate::report::{RunRecord, SimStats, StageTimes, SweepReport};
use crate::scenario::{
    topology_label, MapperSpec, RoutingSpec, Scenario, ScenarioSet, SimulateSpec,
};
use crate::shard::{Checkpoint, ShardPlan};
use crate::spec;

/// What an engine call runs with besides its work list: the worker
/// count and the instrumentation probe. The default runs on every core
/// with a disabled probe; a bare thread count converts into exactly that
/// with its `threads` set, so `run_scenarios(set.scenarios(), 4)` and
/// `run_scenarios(set.scenarios(), RunContext { threads: 4, ..Default::default() })`
/// are the same call.
#[derive(Debug, Clone, Default)]
pub struct RunContext {
    /// Worker threads; `0` (the default) uses the machine's available
    /// parallelism. The pool never spawns more workers than tasks.
    pub threads: usize,
    /// Instrumentation, disabled by default. A live probe collects
    /// stage-time histograms, per-worker utilization, search/simulator
    /// counters and a per-scenario run log, strictly out-of-band: records
    /// stay byte-identical (see `DESIGN.md` §16).
    pub probe: Probe,
}

impl From<usize> for RunContext {
    fn from(threads: usize) -> Self {
        Self { threads, ..Self::default() }
    }
}

/// Runs `scenarios` under `ctx` (a [`RunContext`] or a bare thread
/// count), returning records in scenario order. Scenario-level failures
/// (invalid topology, app does not fit, unroutable, LP breakdown) become
/// records with a non-empty `error` field; they never abort the call.
/// Scenarios of one call that share a map stage (the routing and
/// bandwidth axes of a capacity-invariant mapper) compute it once, and
/// each lookup lands in the `dse.cache.map_{hit,miss}` probe counters.
/// Every MCF solve's work (the split mapper's too) lands in the `lp.*`
/// counters, and each map miss's and each route's compute time in its
/// family's `dse.stage.{map,route}.*_us` histogram (all five listed,
/// count 0 without a run). A live probe also receives one `dse.scenario`
/// event per record, in scenario order whatever the thread count, so two
/// profiles of one sweep list them alike. A mapper's own events (`sa.sample`,
/// `tabu.sample`) come just before the `dse.scenario` event of the first
/// scenario, in order, that shares its map stage.
pub fn run_scenarios(scenarios: &[Scenario], ctx: impl Into<RunContext>) -> Vec<RunRecord> {
    run_cached(scenarios, &ctx.into(), &StageCache::in_memory())
}

/// [`run_scenarios`] through `cache`, which [`run_sweep`] spans over
/// every shard.
fn run_cached(scenarios: &[Scenario], ctx: &RunContext, cache: &StageCache) -> Vec<RunRecord> {
    let families = spec::mapper_catalogue().map(|(_, mapper)| map_histogram(&mapper));
    for name in families.into_iter().chain(spec::ROUTINGS.map(|(_, r)| route_histogram(r))) {
        ctx.probe.histogram(name);
    }
    let mut outputs =
        pool_map(scenarios.len(), ctx.clone(), |i| run_scenario(&scenarios[i], &ctx.probe, cache));
    if ctx.probe.is_enabled() {
        // A map stage's events belong to its key, not to whichever
        // scenario's worker happened to compute it.
        let mut pending: BTreeMap<String, Vec<Event>> = BTreeMap::new();
        for (scenario, (_, map_events)) in scenarios.iter().zip(&mut outputs) {
            if !map_events.is_empty() {
                pending.insert(cache::map_key(scenario), std::mem::take(map_events));
            }
        }
        for (scenario, (record, _)) in scenarios.iter().zip(&outputs) {
            if !pending.is_empty() {
                if let Some(map_events) = pending.remove(&cache::map_key(scenario)) {
                    ctx.probe.append_events(map_events);
                }
            }
            ctx.probe.emit(
                "dse.scenario",
                &[
                    ("scenario", Value::from(record.scenario.as_str())),
                    ("mapper", Value::from(record.mapper.as_str())),
                    ("routing", Value::from(record.routing.as_str())),
                    ("seed", Value::from(record.seed)),
                    ("ok", Value::from(record.is_ok())),
                    ("feasible", Value::from(record.feasible)),
                    ("evaluations", Value::from(record.evaluations)),
                    ("total_us", Value::from(record.times.total_us())),
                ],
            );
        }
    }
    outputs.into_iter().map(|(record, _)| record).collect()
}

/// Default scenarios per shard for a checkpointed [`run_sweep`]: small
/// enough that a kill loses little work, large enough that per-shard pool
/// and checkpoint overhead stays negligible.
pub const DEFAULT_SHARD_SIZE: usize = 64;

/// Configuration of a [`run_sweep`]: worker count, sharding and
/// checkpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepConfig {
    /// Worker threads per shard; `0` uses available parallelism.
    pub threads: usize,
    /// Scenarios per shard; `0` uses [`DEFAULT_SHARD_SIZE`] for a
    /// checkpointed sweep and one shard over every scenario otherwise.
    pub shard_size: usize,
    /// Checkpoint directory: completed shards persist here and are
    /// skipped on re-run (see [`crate::shard::Checkpoint`]). `None`
    /// disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Stop after executing this many shards (restored shards do not
    /// count) and return with `completed = false` — the seam kill-and-
    /// resume tests and bounded-work runs use. `None` runs to the end.
    pub shard_budget: Option<usize>,
}

/// What a [`run_sweep`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Records of every shard processed so far, in scenario order. For a
    /// completed sweep this is the full report, byte-identical on the
    /// default (timing-less) writers to [`run_scenarios`] over the set.
    pub report: SweepReport,
    /// False when a `shard_budget` stopped the sweep early.
    pub completed: bool,
    /// Shards the plan divides the sweep into.
    pub shards_total: usize,
    /// Shards executed by this call.
    pub shards_run: usize,
    /// Shards restored from the checkpoint instead of executed.
    pub shards_restored: usize,
    /// The stage cache's counters at the end of the call.
    pub cache: CacheStats,
}

/// Runs `set` as ordered shards with optional checkpointed resume (see
/// [`SweepConfig`]), through one in-memory [`StageCache`] that spans
/// every shard, so a map stage that several shards share computes once.
/// `sink(shard, records)` is called once per shard in shard order — with
/// restored records for checkpoint hits — so callers can emit JSONL
/// incrementally instead of buffering the whole sweep (the full report is
/// still returned). Records merge in shard order =
/// scenario order, so the deterministic output of a completed sweep is
/// byte-identical to [`run_scenarios`]'s at any thread count and any
/// shard size, straight through or killed-and-resumed.
///
/// A live `probe` also receives the `dse.shard.{run,restored}` counters
/// and one `dse.sweep` summary event.
///
/// # Errors
///
/// Checkpoint I/O failures, corrupt shard files and sweep-mismatch
/// rejections (a checkpoint directory recorded for a different sweep).
/// Scenario-level failures still become error records, never call-level
/// errors.
pub fn run_sweep(
    set: &ScenarioSet,
    config: &SweepConfig,
    probe: &Probe,
    sink: &mut dyn FnMut(usize, &[RunRecord]),
) -> Result<SweepOutcome, String> {
    let scenarios = set.scenarios();
    let shard_size = match (config.shard_size, &config.checkpoint_dir) {
        (0, Some(_)) => DEFAULT_SHARD_SIZE,
        (0, None) => scenarios.len(),
        (size, _) => size,
    };
    let plan = ShardPlan::new(scenarios.len(), shard_size);
    let cache = StageCache::in_memory();
    let checkpoint = match &config.checkpoint_dir {
        Some(dir) => Some(Checkpoint::open(dir, scenarios, shard_size)?),
        None => None,
    };
    let ctx = RunContext { threads: config.threads, probe: probe.clone() };

    let mut records: Vec<RunRecord> = Vec::with_capacity(scenarios.len());
    let mut shards_run = 0usize;
    let mut shards_restored = 0usize;
    let mut workers = 0usize;
    let mut completed = true;
    for shard in 0..plan.shard_count() {
        if let Some(cp) = &checkpoint {
            if let Some(restored) = cp.load_shard(shard, scenarios)? {
                shards_restored += 1;
                sink(shard, &restored);
                records.extend(restored);
                continue;
            }
        }
        if config.shard_budget.is_some_and(|budget| shards_run >= budget) {
            completed = false;
            break;
        }
        let range = plan.range(shard);
        workers = workers.max(effective_threads(config.threads, range.len()));
        let shard_records = run_cached(&scenarios[range], &ctx, &cache);
        if let Some(cp) = &checkpoint {
            cp.store_shard(shard, &shard_records)?;
        }
        shards_run += 1;
        sink(shard, &shard_records);
        records.extend(shard_records);
    }

    if probe.is_enabled() {
        probe.counter("dse.shard.run").add(shards_run as u64);
        probe.counter("dse.shard.restored").add(shards_restored as u64);
        let failed = records.iter().filter(|r| !r.is_ok()).count();
        let feasible = records.iter().filter(|r| r.feasible).count();
        probe.emit(
            "dse.sweep",
            &[
                ("scenarios", Value::from(records.len())),
                ("failed", Value::from(failed)),
                ("feasible", Value::from(feasible)),
                ("threads", Value::from(workers)),
                ("shards_total", Value::from(plan.shard_count())),
                ("shards_run", Value::from(shards_run)),
                ("shards_restored", Value::from(shards_restored)),
                ("completed", Value::from(completed)),
            ],
        );
    }
    Ok(SweepOutcome {
        report: SweepReport::new(records),
        completed,
        shards_total: plan.shard_count(),
        shards_run,
        shards_restored,
        cache: cache.stats(),
    })
}

/// The engine's deterministic worker pool, exposed for harnesses that fan
/// out work the scenario pipeline cannot express (e.g. the engine-backed
/// Figure 5(c) sweep): runs `task(0..count)` on `ctx.threads` workers
/// (`0` = available parallelism) and returns the results **in index
/// order**. `ctx` is a [`RunContext`] or a bare thread count.
///
/// The determinism contract is the caller's half of the engine's: `task`
/// must be a pure function of its index (no shared mutable state, no
/// worker-identity dependence). Under that contract the returned vector
/// is identical for 1 or N threads — workers claim indices from a shared
/// atomic cursor and write each result into its index's slot.
///
/// When `ctx.probe` is live, each worker's busy time (inside `task`) and
/// wait time (claim overhead plus tail idle) land in the
/// `dse.worker_busy_us` / `dse.worker_wait_us` histograms, completed
/// tasks in the `dse.tasks` counter, and one `dse.worker` event per
/// worker records its share of the pool. The accounting is entirely
/// out-of-band — results are identical to an unprobed run.
pub fn pool_map<T, F>(count: usize, ctx: impl Into<RunContext>, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let ctx = ctx.into();
    let probe = &ctx.probe;
    let workers = effective_threads(ctx.threads, count);
    let instrumented = probe.is_enabled();
    // Busy time accumulates per worker and is reported once at worker
    // exit, so the hot claim loop touches no shared probe state.
    let run_one = |i: usize, busy_us: &mut u64, tasks: &mut u64| -> T {
        if !instrumented {
            return task(i);
        }
        let start = Instant::now();
        let result = task(i);
        *busy_us = busy_us.saturating_add(StageTimes::us(start.elapsed()));
        *tasks += 1;
        result
    };
    let report_worker = |worker: usize, busy_us: u64, tasks: u64, wall_us: u64| {
        if !instrumented {
            return;
        }
        let wait_us = wall_us.saturating_sub(busy_us);
        probe.counter("dse.tasks").add(tasks);
        probe.histogram("dse.worker_busy_us").record(busy_us);
        probe.histogram("dse.worker_wait_us").record(wait_us);
        probe.emit(
            "dse.worker",
            &[
                ("worker", Value::from(worker)),
                ("tasks", Value::from(tasks)),
                ("busy_us", Value::from(busy_us)),
                ("wait_us", Value::from(wait_us)),
            ],
        );
    };

    if workers <= 1 {
        let pool_start = Instant::now();
        let mut busy_us = 0u64;
        let mut tasks = 0u64;
        let out: Vec<T> = (0..count).map(|i| run_one(i, &mut busy_us, &mut tasks)).collect();
        report_worker(0, busy_us, tasks, StageTimes::us(pool_start.elapsed()));
        return out;
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let run_one = &run_one;
        let report_worker = &report_worker;
        let cursor = &cursor;
        let slots = &slots;
        for worker in 0..workers {
            scope.spawn(move || {
                let worker_start = Instant::now();
                let mut busy_us = 0u64;
                let mut tasks = 0u64;
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let result = run_one(i, &mut busy_us, &mut tasks);
                    *slots[i].lock().expect("no poisoned slots") = Some(result);
                }
                report_worker(worker, busy_us, tasks, StageTimes::us(worker_start.elapsed()));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("no poisoned slots").expect("every slot filled"))
        .collect()
}

/// Resolves the worker count: `0` → available parallelism, clamped to the
/// scenario count and at least 1.
fn effective_threads(threads: usize, scenarios: usize) -> usize {
    let requested = if threads == 0 {
        std::thread::available_parallelism().map(usize::from).unwrap_or(1)
    } else {
        threads
    };
    requested.clamp(1, scenarios.max(1))
}

/// Runs one scenario end to end: build → map → route → measure, plus the
/// optional wormhole-simulation stage (the scenario's routing tables are
/// loaded into the simulator as source routes). The probe is threaded
/// into the mapper's [`EvalContext`] (evaluation/delta-gate counters,
/// search trajectory events) and the simulator (executed/skipped-cycle
/// counters), and the per-stage wall times land in the `dse.stage.*_us`
/// histograms (the map lookup's overhead in `dse.stage.cache_us`). The
/// record itself is byte-identical to an unprobed run. Returns the record
/// and, when this lookup computed the map stage, the events the mapper
/// emitted, which [`run_cached`] places in scenario order.
fn run_scenario(scenario: &Scenario, probe: &Probe, cache: &StageCache) -> (RunRecord, Vec<Event>) {
    let mut map_events = Vec::new();
    let record = run_scenario_inner(scenario, probe, cache, &mut map_events);
    probe.histogram("dse.stage.build_us").record(record.times.build_us);
    probe.histogram("dse.stage.map_us").record(record.times.map_us);
    probe.histogram("dse.stage.route_us").record(record.times.route_us);
    probe.histogram("dse.stage.cache_us").record(record.times.cache_us);
    if record.sim.is_some() {
        probe.histogram("dse.stage.sim_us").record(record.times.sim_us);
    }
    (record, map_events)
}

/// The histogram of a map miss's compute time: the NMAP family, PBB or
/// the rest — the split `perfbench` makes of its map spans by name prefix
/// (`nmap*`, `pbb*`), read off the variant so no name is built.
fn map_histogram(mapper: &MapperSpec) -> &'static str {
    match mapper {
        MapperSpec::NmapInit | MapperSpec::Nmap(_) | MapperSpec::NmapSplit(_) => {
            "dse.stage.map.nmap_us"
        }
        MapperSpec::Pbb(_) => "dse.stage.map.pbb_us",
        _ => "dse.stage.map.other_us",
    }
}

/// The histogram of a route's compute time: single-path routers or MCF
/// split routing.
fn route_histogram(routing: RoutingSpec) -> &'static str {
    match routing {
        RoutingSpec::MinPath | RoutingSpec::Xy => "dse.stage.route.single_us",
        RoutingSpec::McfQuadrant | RoutingSpec::McfAllPaths => "dse.stage.route.mcf_us",
    }
}

fn run_scenario_inner(
    scenario: &Scenario,
    probe: &Probe,
    cache: &StageCache,
    map_events: &mut Vec<Event>,
) -> RunRecord {
    let build_start = Instant::now();
    let (graph, topology) = scenario.try_parts();
    let cores = graph.core_count();
    // A hand-built scenario can carry a topology spec the parser and the
    // builder would reject: it fails as a record labelled with the spec.
    let topology = match topology {
        Ok(topology) => topology,
        Err(e) => {
            let error = format!("invalid topology spec: {e}");
            return RunRecord::failed(scenario, cores, scenario.topology.name(), error);
        }
    };
    let topo_label = topology_label(&topology);
    // Scenario fields are public, so a hand-built scenario can bypass the
    // builder's validation; an invalid simulate spec must become an error
    // record here, not a Simulator::new panic inside a pool worker. The
    // same goes for unresolved bandwidth points — the engine simulates at
    // the scenario's capacity, so silently ignoring them would mislabel
    // every sim column.
    if let Some(spec) = &scenario.simulate {
        let problem = if spec.bandwidths_mbps.is_empty() {
            spec.validate().err()
        } else {
            Some(
                "unresolved bandwidth sweep points (expand them through ScenarioSetBuilder)"
                    .to_string(),
            )
        };
        if let Some(message) = problem {
            return RunRecord::failed(scenario, cores, topo_label, format!("simulate: {message}"));
        }
    }
    let problem = match MappingProblem::new(graph, topology) {
        Ok(p) => p,
        Err(e) => return RunRecord::failed(scenario, cores, topo_label, e.to_string()),
    };
    let build_us = StageTimes::us(build_start.elapsed());

    // Map stage, memoized: `map_us` is the compute time (0 on a hit) and
    // the lookup's remainder — key derivation, the slot lock, the result
    // clone — is accounted to `cache_us`, so worker-utilization
    // profiles attribute cache overhead honestly.
    let map_lookup_start = Instant::now();
    let mut map_us = 0u64;
    let (map_result, map_lookup) = cache.map_stage(&cache::map_key(scenario), &problem, || {
        let compute_start = Instant::now();
        // The mapper's events go to a stream of its own: workers finish
        // in any order, and the caller places them in scenario order.
        let map_probe = probe.with_own_events();
        let mut ctx = EvalContext::new(&problem);
        ctx.set_probe(&map_probe);
        // The placement and its work measure; the route stage scores it.
        let result =
            scenario.mapper.mapper(scenario.seed).place(&mut ctx).map_err(|e| e.to_string());
        map_us = StageTimes::us(compute_start.elapsed());
        *map_events = map_probe.take_events();
        probe.histogram(map_histogram(&scenario.mapper)).record(map_us);
        result
    });
    let cache_us = StageTimes::us(map_lookup_start.elapsed()).saturating_sub(map_us);
    probe
        .counter(match map_lookup {
            Lookup::Hit => "dse.cache.map_hit",
            Lookup::Miss => "dse.cache.map_miss",
        })
        .add(1);
    let (mapping, evaluations) = match map_result {
        Ok(result) => result,
        Err(e) => {
            let mut r = RunRecord::failed(scenario, cores, topo_label, e);
            r.times.build_us = build_us;
            r.times.map_us = map_us;
            r.times.cache_us = cache_us;
            return r;
        }
    };

    let need_tables = scenario.simulate.is_some();
    let route_start = Instant::now();
    let route_result = route(&problem, &mapping, scenario.routing, need_tables, probe);
    let route_us = StageTimes::us(route_start.elapsed());
    probe.histogram(route_histogram(scenario.routing)).record(route_us);
    let (tables, loads) = match route_result {
        Ok(routed) => routed,
        Err(e) => {
            let mut r = RunRecord::failed(scenario, cores, topo_label, e.to_string());
            r.times.build_us = build_us;
            r.times.map_us = map_us;
            r.times.cache_us = cache_us;
            r.evaluations = evaluations;
            return r;
        }
    };

    let sim_start = Instant::now();
    let sim = scenario.simulate.as_ref().map(|spec| {
        let tables = tables.as_ref().expect("tables built when simulate is present");
        simulate(&problem, &mapping, tables, spec, scenario.seed, probe)
    });
    let sim_us = if sim.is_some() { StageTimes::us(sim_start.elapsed()) } else { 0 };

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
        // Routed loads are finite sums of non-negative commodity rates —
        // in range for `Mbps` by construction.
        max_link_load: Mbps::raw(loads.max()),
        total_load: Mbps::raw(loads.total()),
        evaluations,
        sim,
        times: StageTimes { build_us, map_us, route_us, sim_us, cache_us },
    }
}

/// Runs the wormhole simulator over the scenario's routed traffic: one
/// [`FlowSpec`] per positive commodity, paths and shares straight from the
/// routing tables, link bandwidth = the scenario's capacity (the topology
/// was built with it). The traffic seed is a pure function of the
/// scenario's seed, so the stats are worker-independent.
fn simulate(
    problem: &MappingProblem,
    mapping: &Mapping,
    tables: &RoutingTables,
    spec: &SimulateSpec,
    scenario_seed: u64,
    probe: &Probe,
) -> SimStats {
    let flows = flows_from_tables(problem, mapping, tables);
    let config = spec.sim_config(scenario_seed);
    let packet_bytes = config.packet_bytes;
    let mut sim = Simulator::new(problem.topology(), flows, config);
    sim.set_loop_kind(spec.loop_kind);
    sim.set_probe(probe);
    let report = sim.run();
    sim_stats(&report, problem.topology().link_count(), packet_bytes)
}

/// Converts a placement's commodities plus routing tables into simulator
/// flows: one [`FlowSpec`] per positive commodity, paths and traffic
/// shares straight from the tables (zero-fraction placeholder routes are
/// dropped — [`FlowSpec::split`] rejects non-positive weights). This is
/// *the* bridge between the mapping layer and the simulator; the
/// Figure 5(c) sweep's pool tasks route through it too.
pub fn flows_from_tables(
    problem: &MappingProblem,
    mapping: &Mapping,
    tables: &RoutingTables,
) -> Vec<FlowSpec> {
    problem
        .commodities(mapping)
        .into_iter()
        .filter(|c| !c.value.is_zero())
        .map(|c| {
            let paths: Vec<(Vec<_>, f64)> = tables
                .routes_of(c.edge)
                .iter()
                .filter(|r| r.fraction > 0.0)
                .map(|r| (r.links.clone(), r.fraction))
                .collect();
            FlowSpec::split(c.source, c.dest, c.value, paths)
        })
        .collect()
}

/// Folds a [`SimReport`] into the record-level [`SimStats`] columns.
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
        .map(|l| report.link_throughput_mbps(noc_graph::LinkId::new(l)))
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

/// Routes `mapping` under the scenario's regime and returns the link
/// loads the feasibility check and load metrics are taken from, plus —
/// when `need_tables` is set (the scenario simulates) — the routing
/// tables the simulate stage loads as source routes. The single-path
/// regimes skip the table construction (per-commodity path clones)
/// otherwise; the MCF regimes' tables are their path columns, so they
/// always return them.
///
/// For the MCF regimes the minimum-total-flow program (MCF2) provides the
/// routing; when its capacities are infeasible, the always-feasible
/// slack-minimizing program (MCF1) provides it instead, so the record
/// still reports how much traffic the best split routing would carry.
fn route(
    problem: &MappingProblem,
    mapping: &Mapping,
    routing: RoutingSpec,
    need_tables: bool,
    probe: &Probe,
) -> nmap::Result<(Option<RoutingTables>, LinkLoads)> {
    let scope = match routing {
        RoutingSpec::MinPath | RoutingSpec::Xy => {
            let (paths, loads) = if routing == RoutingSpec::MinPath {
                routing::route_min_paths(problem, mapping)?
            } else {
                routing::route_xy(problem, mapping)?
            };
            return Ok((need_tables.then(|| RoutingTables::from_single_paths(&paths)), loads));
        }
        RoutingSpec::McfQuadrant => PathScope::Quadrant,
        RoutingSpec::McfAllPaths => PathScope::AllPaths,
    };
    let (result, stats) =
        solve_mcf_or_slack(problem.topology(), &problem.commodities(mapping), scope);
    stats.record(probe);
    let solution = result?;
    Ok((Some(solution.tables), solution.link_loads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AppSpec, TopologySpec};
    use nmap::search::{SaOptions, TabuOptions};
    use nmap::SinglePathOptions;
    use noc_apps::App;
    use noc_graph::RandomGraphConfig;
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

    /// One scenario through the public entry point, single-threaded.
    fn run_one(scenario: &Scenario) -> RunRecord {
        run_scenarios(std::slice::from_ref(scenario), 1).remove(0)
    }

    fn small_set() -> ScenarioSet {
        ScenarioSet::builder()
            .root_seed(3)
            .app(App::Pip)
            .dsp()
            .random(RandomGraphConfig { cores: 9, ..Default::default() }, 2)
            .topology(TopologySpec::FitMesh)
            .topology(TopologySpec::FitTorus)
            .mapper(MapperSpec::NmapInit)
            .mapper(MapperSpec::Gmap)
            .routing(RoutingSpec::MinPath)
            .routing(RoutingSpec::Xy)
            .build()
    }

    #[test]
    fn pool_matches_sequential_run() {
        let set = small_set();
        let sequential = run_scenarios(set.scenarios(), 1);
        assert_eq!(sequential.len(), set.len());
        for threads in [2, 4] {
            let pooled = run_scenarios(set.scenarios(), threads);
            assert_eq!(strip_times(&pooled), strip_times(&sequential), "threads={threads}");
        }
    }

    #[test]
    fn failure_becomes_a_record_not_a_panic() {
        let scenario = Scenario {
            label: "VOPD".into(),
            app: AppSpec::Bundled(App::Vopd),
            seed: 0,
            topology: TopologySpec::Mesh { dims: vec![2, 2] },
            capacity: mbps(1_000.0),
            mapper: MapperSpec::Pmap,
            routing: RoutingSpec::MinPath,
            simulate: None,
        };
        let record = run_one(&scenario);
        assert!(!record.is_ok());
        assert!(record.error.contains("16 cores"), "error: {}", record.error);
        assert!(!record.feasible);
    }

    #[test]
    fn pbb_on_a_topology_wider_than_its_mask_is_an_error_record() {
        let scenario = Scenario {
            label: "PIP".into(),
            app: AppSpec::Bundled(App::Pip),
            seed: 0,
            topology: TopologySpec::Mesh { dims: vec![12, 12] },
            capacity: mbps(1_000.0),
            mapper: MapperSpec::Pbb(noc_baselines::PbbOptions::default()),
            routing: RoutingSpec::MinPath,
            simulate: None,
        };
        let records = run_scenarios(std::slice::from_ref(&scenario), 2);
        assert_eq!(records.len(), 1);
        assert!(!records[0].is_ok());
        assert!(
            records[0].error.contains("pbb supports at most 128 nodes, topology has 144"),
            "error: {}",
            records[0].error
        );
    }

    /// The map stage keeps no per-node-pair table: PIP maps onto a 256×256
    /// mesh (65,536 nodes), where one quadrant slot per `(source, dest)`
    /// pair would take 2³² × 56 bytes.
    #[test]
    fn nmap_init_maps_pip_onto_a_256x256_mesh() {
        assert_maps_pip_onto_a_256x256_mesh(MapperSpec::NmapInit);
    }

    #[test]
    fn gmap_maps_pip_onto_a_256x256_mesh() {
        // GMAP's first core once re-scanned the fabric for its centre at
        // every candidate node: O(nodes²), minutes at this size.
        assert_maps_pip_onto_a_256x256_mesh(MapperSpec::Gmap);
    }

    fn assert_maps_pip_onto_a_256x256_mesh(mapper: MapperSpec) {
        let scenario = Scenario {
            label: "PIP".into(),
            app: AppSpec::Bundled(App::Pip),
            seed: 0,
            topology: TopologySpec::Mesh { dims: vec![256, 256] },
            capacity: mbps(1_000.0),
            mapper,
            routing: RoutingSpec::MinPath,
            simulate: None,
        };
        let record = run_one(&scenario);
        assert!(record.is_ok(), "error: {}", record.error);
        assert_eq!(record.topology, "mesh256x256");
        assert!(record.feasible);
    }

    #[test]
    fn mcf_routing_reports_split_loads() {
        let scenario = Scenario {
            label: "DSP".into(),
            app: AppSpec::DspFilter,
            seed: 0,
            topology: TopologySpec::Mesh { dims: vec![3, 2] },
            capacity: mbps(1_000.0),
            mapper: MapperSpec::Nmap(SinglePathOptions::paper_exact()),
            routing: RoutingSpec::McfQuadrant,
            simulate: None,
        };
        let record = run_one(&scenario);
        assert!(record.is_ok(), "error: {}", record.error);
        assert!(record.feasible);
        assert!(record.max_link_load > Mbps::ZERO);
        assert!(record.total_load >= record.max_link_load);
    }

    #[test]
    fn infeasible_capacity_is_reported_infeasible() {
        // One 500 MB/s flow on 100 MB/s links cannot fit, split or not.
        let scenario = Scenario {
            label: "DSP".into(),
            app: AppSpec::DspFilter,
            seed: 0,
            topology: TopologySpec::FitMesh,
            capacity: mbps(100.0),
            mapper: MapperSpec::NmapInit,
            routing: RoutingSpec::McfAllPaths,
            simulate: None,
        };
        let record = run_one(&scenario);
        assert!(record.is_ok(), "error: {}", record.error);
        assert!(!record.feasible);
        assert!(record.max_link_load > mbps(100.0));
    }

    /// A fast simulate config for engine tests.
    fn quick_sim() -> SimulateSpec {
        SimulateSpec {
            warmup_cycles: 1_000,
            measure_cycles: 8_000,
            drain_cycles: 4_000,
            ..Default::default()
        }
    }

    #[test]
    fn simulate_stage_populates_sim_stats() {
        let scenario = Scenario {
            label: "DSP".into(),
            app: AppSpec::DspFilter,
            seed: 5,
            topology: TopologySpec::Mesh { dims: vec![3, 2] },
            capacity: mbps(1_400.0),
            mapper: MapperSpec::Nmap(SinglePathOptions::paper_exact()),
            routing: RoutingSpec::MinPath,
            simulate: Some(quick_sim()),
        };
        let record = run_one(&scenario);
        assert!(record.is_ok(), "error: {}", record.error);
        let sim = record.sim.as_ref().expect("simulate stage ran");
        assert!(sim.avg_latency_cycles.to_f64() > 0.0, "no packets measured");
        assert!(sim.avg_network_latency_cycles.to_f64() > 0.0);
        assert!(sim.avg_network_latency_cycles <= sim.avg_latency_cycles);
        assert!(sim.p95_latency_cycles > 0);
        assert!(sim.delivered_mbps > Mbps::ZERO);
        assert!(sim.max_link_mbps > Mbps::ZERO);
        assert!(!sim.saturated, "1.4 GB/s links must not saturate the DSP design");

        // Same scenario, same record — the sim stage is deterministic.
        let again = run_one(&scenario);
        assert_eq!(again.sim, record.sim);

        // Without the simulate stage the columns stay empty.
        let bare = run_one(&Scenario { simulate: None, ..scenario });
        assert!(bare.sim.is_none());
        assert_eq!(bare.comm_cost, record.comm_cost);
    }

    #[test]
    fn invalid_hand_built_simulate_spec_becomes_an_error_record() {
        // Scenario fields are public: a spec that bypassed the builder's
        // validation must fail as a record, not as a worker panic that
        // aborts the sweep.
        let scenario = Scenario {
            label: "DSP".into(),
            app: AppSpec::DspFilter,
            seed: 0,
            topology: TopologySpec::FitMesh,
            capacity: mbps(1_000.0),
            mapper: MapperSpec::NmapInit,
            routing: RoutingSpec::MinPath,
            simulate: Some(SimulateSpec { measure_cycles: 0, ..Default::default() }),
        };
        let records = run_scenarios(std::slice::from_ref(&scenario), 2);
        assert_eq!(records.len(), 1);
        assert!(!records[0].is_ok());
        assert!(
            records[0].error.contains("simulate: measurement window"),
            "error: {}",
            records[0].error
        );
        assert!(records[0].sim.is_none());

        // Unresolved bandwidth points are an error too: the engine would
        // otherwise simulate at `capacity` and mislabel every sim column.
        let unresolved = Scenario {
            simulate: Some(SimulateSpec {
                bandwidths_mbps: vec![mbps(600.0)],
                ..Default::default()
            }),
            ..scenario
        };
        let record = run_one(&unresolved);
        assert!(!record.is_ok());
        assert!(record.error.contains("unresolved bandwidth"), "error: {}", record.error);
    }

    #[test]
    fn invalid_hand_built_topology_becomes_an_error_record() {
        // Zero capacity, a zero grid extent and extents whose product
        // overflows `usize`: `TopologySpec::build` rejects all three, and a
        // pool worker must not panic on them.
        let zero_capacity = Scenario {
            label: "PIP".into(),
            app: AppSpec::Bundled(App::Pip),
            seed: 0,
            topology: TopologySpec::FitMesh,
            capacity: Mbps::ZERO,
            mapper: MapperSpec::NmapInit,
            routing: RoutingSpec::MinPath,
            simulate: None,
        };
        let zero_extent = Scenario {
            topology: TopologySpec::Mesh { dims: vec![0, 4] },
            capacity: mbps(1_000.0),
            ..zero_capacity.clone()
        };
        let oversized = Scenario {
            topology: TopologySpec::Mesh { dims: vec![1 << 32, 1 << 32] },
            ..zero_extent.clone()
        };
        let scenarios = [zero_capacity, zero_extent, oversized];
        for threads in [1, 2] {
            let records = run_scenarios(&scenarios, threads);
            assert_eq!(records.len(), 3, "threads={threads}");
            let [capacity, extent, product] = [&records[0], &records[1], &records[2]];
            assert_eq!(capacity.topology, "fit");
            assert_eq!(
                capacity.error,
                "invalid topology spec: link capacity 0 is not a finite positive value"
            );
            assert_eq!(extent.topology, "mesh 0x4");
            assert_eq!(extent.error, "invalid topology spec: grid axis 0 has zero extent");
            assert_eq!(product.topology, "mesh 4294967296x4294967296");
            assert_eq!(product.error, "invalid topology spec: grid has more than 65536 nodes");
            assert!(records.iter().all(|r| !r.feasible && r.cores == 8), "threads={threads}");
        }
        assert!(matches!(scenarios[1].problem(), Err(nmap::MapError::Topology(_))));
    }

    #[test]
    fn scenario_events_come_in_scenario_order() {
        // A slow 25-core NMAP scenario first: with several workers every
        // other scenario finishes before it.
        let slow = Scenario {
            label: "rand25".into(),
            app: AppSpec::Random(RandomGraphConfig { cores: 25, ..Default::default() }),
            seed: 1,
            topology: TopologySpec::FitMesh,
            capacity: mbps(1_000.0),
            mapper: MapperSpec::Nmap(SinglePathOptions::default()),
            routing: RoutingSpec::MinPath,
            simulate: None,
        };
        let scenarios: Vec<Scenario> =
            std::iter::once(slow).chain(small_set().scenarios().iter().cloned()).collect();
        let mut lists = Vec::new();
        for threads in [1, 4] {
            let probe = Probe::new();
            let ctx = RunContext { threads, probe: probe.clone() };
            let records = run_scenarios(&scenarios, ctx);
            let events: Vec<Vec<(String, Value)>> = probe
                .snapshot()
                .events_named("dse.scenario")
                .map(|e| e.fields.iter().filter(|(k, _)| k != "total_us").cloned().collect())
                .collect();
            // The first three fields are the record's scenario, mapper
            // and routing labels.
            let labels: Vec<[Value; 3]> =
                events.iter().map(|fields| [0, 1, 2].map(|i| fields[i].1.clone())).collect();
            let want: Vec<[Value; 3]> = records
                .iter()
                .map(|r| [&r.scenario, &r.mapper, &r.routing].map(|s| Value::from(s.as_str())))
                .collect();
            assert_eq!(labels, want, "threads={threads}: events out of record order");
            lists.push(events);
        }
        assert_eq!(lists[0], lists[1], "the event lists differ between thread counts");
    }

    #[test]
    fn search_sample_events_come_in_scenario_order() {
        // Each `sa` and `tabu` placement serves both routings: its samples
        // belong before the first of the two in scenario order, whichever
        // worker computed it.
        let mappers = [
            MapperSpec::Sa(SaOptions { moves: 3_000, ..SaOptions::default() }),
            MapperSpec::Tabu(TabuOptions::default()),
        ];
        let mut scenarios = Vec::new();
        for routing in [RoutingSpec::MinPath, RoutingSpec::Xy] {
            for app in [App::Pip, App::Mpeg4, App::Vopd] {
                for mapper in &mappers {
                    scenarios.push(Scenario {
                        label: app.name().into(),
                        app: AppSpec::Bundled(app),
                        seed: 5,
                        topology: TopologySpec::FitMesh,
                        capacity: mbps(1_000.0),
                        mapper: mapper.clone(),
                        routing,
                        simulate: None,
                    });
                }
            }
        }
        let mut lists = Vec::new();
        for threads in [1, 4] {
            let probe = Probe::new();
            run_scenarios(&scenarios, RunContext { threads, probe: probe.clone() });
            let events: Vec<Event> = probe
                .snapshot()
                .events
                .into_iter()
                .filter(|e| e.name != "dse.worker")
                .map(|mut e| {
                    e.fields.retain(|(k, _)| k != "total_us");
                    e
                })
                .collect();
            lists.push(events);
        }
        assert_eq!(lists[0], lists[1], "the event lists differ between thread counts");
        // One run of samples per placement, all before the first routing's
        // six `dse.scenario` events end.
        let names: Vec<&str> = lists[0].iter().map(|e| e.name.as_str()).collect();
        let half = names.iter().rposition(|&n| n.ends_with(".sample")).expect("samples listed");
        let before = names[..half].iter().filter(|&&n| n == "dse.scenario").count();
        assert_eq!(before, 5, "samples after the first routing's placements: {names:?}");
        for kind in ["sa.sample", "tabu.sample"] {
            assert!(names.contains(&kind), "no {kind} event: {names:?}");
        }
    }

    #[test]
    fn simulate_runs_split_tables_through_the_simulator() {
        // MCF split routing hands multi-path tables to the simulator; the
        // run must accept the per-path fractions as flow weights.
        let scenario = Scenario {
            label: "DSP".into(),
            app: AppSpec::DspFilter,
            seed: 1,
            topology: TopologySpec::Mesh { dims: vec![3, 2] },
            capacity: mbps(1_400.0),
            mapper: MapperSpec::Nmap(SinglePathOptions::paper_exact()),
            routing: RoutingSpec::McfQuadrant,
            simulate: Some(quick_sim()),
        };
        let record = run_one(&scenario);
        assert!(record.is_ok(), "error: {}", record.error);
        assert!(record.sim.as_ref().expect("sim ran").avg_latency_cycles.to_f64() > 0.0);
    }

    #[test]
    fn run_sweep_aggregates_in_order() {
        let set = small_set();
        let outcome = run_sweep(&set, &SweepConfig::default(), &Probe::default(), &mut |_, _| {})
            .expect("no checkpoint to fail");
        assert!(outcome.completed);
        assert_eq!(outcome.shards_total, 1, "no checkpoint: one shard over every scenario");
        let report = outcome.report;
        assert_eq!(report.records.len(), set.len());
        let labels: Vec<_> = report.records.iter().map(|r| r.scenario.clone()).collect();
        let expected: Vec<_> = set.scenarios().iter().map(|s| s.label.clone()).collect();
        assert_eq!(labels, expected);
        let summary = report.summary();
        assert_eq!(summary.failed, 0);
        assert!(summary.feasibility_rate > 0.0);
    }

    #[test]
    fn pool_map_preserves_index_order() {
        let square = |i: usize| i * i;
        let expected: Vec<usize> = (0..97).map(square).collect();
        for threads in [0, 1, 2, 8] {
            assert_eq!(pool_map(97, threads, square), expected, "threads={threads}");
        }
        assert_eq!(pool_map(0, 4, square), Vec::<usize>::new());
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(5, 2), 2);
        assert_eq!(effective_threads(1, 100), 1);
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(3, 0), 1);
    }
}

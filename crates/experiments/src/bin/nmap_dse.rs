//! `nmap_dse` — drive the `noc-dse` design-space exploration engine.
//!
//! ```text
//! nmap_dse --smoke                  fast built-in sweep (CI health check)
//! nmap_dse --table2                 Table 2 scaling study through the engine
//! nmap_dse --torus-vs-mesh         torus wrap-link gain over meshes
//! nmap_dse --fig5c [--smoke]        Figure 5(c) latency sweep through the
//!                                   engine pool (--smoke: reduced cycles)
//! nmap_dse --mesh3d [--smoke]       2-D vs 3-D mapping cost/latency on the
//!                                   bundled apps (--smoke: reduced cycles)
//! nmap_dse --spec <file>            run a .dse sweep specification
//! nmap_dse --bench-mcf <path>       time the MCF route stage of a capacity
//!                                   sweep under the dense seed solver, the
//!                                   sparse cold solver and the warm-started
//!                                   chain; write the snapshot as JSON
//! options:  --loop <kind>           simulator loop for --fig5c/--mesh3d:
//!                                   active-set (default) | full-scan
//!           --threads N             worker threads (default: all cores)
//!           --jsonl <path>          write records as JSON lines
//!           --csv <path>            write records as CSV
//!           --timing                include per-stage wall times in output
//!           --profile <path>        write the instrumentation profile as JSON
//!                                   lines (counters, histograms, run-log
//!                                   events), also when the run fails
//!           --warm-lp               chain MCF route-stage LP bases across
//!                                   the bandwidth axis (dual-simplex warm
//!                                   starts; records stay byte-identical)
//!           --allow-failures        (--spec only) exit 0 even when scenarios fail
//! sharded sweeps (--spec only; any of these switches to the sharded engine):
//!           --resume <dir>          checkpoint shards under <dir> and skip
//!                                   shards already completed there; `--jsonl`
//!                                   streams shard by shard
//!           --cache-dir <dir>       persist the map-stage cache under <dir>
//!                                   for cross-run reuse
//!           --cache-mem-cap N       in-memory stage-cache byte budget
//!                                   (LRU eviction; default unbounded)
//!           --shard-size N          scenarios per shard (default 64)
//!           --shard-budget N        stop after executing N shards (exit 3;
//!                                   rerun with --resume to continue)
//! ```
//!
//! `--table2` prints the same values as `table2_scaling` and `--fig5c`
//! the same points as `fig5c_latency` (the sequential reference
//! harnesses); the sweeps themselves fan out across the worker pool.
//! Exit code 1 on bad input or a sweep containing failed scenarios —
//! pass `--allow-failures` for exploratory sweeps where does-not-fit
//! records are data rather than errors.

use std::process::ExitCode;

use noc_dse::spec::parse_loop_kind;
use noc_dse::{
    parse_spec, run_sweep_probed, run_sweep_sharded_with, EngineOptions, LoopKind, SweepConfig,
    SweepReport,
};
use noc_experiments::dse_bridge::{
    fig5c_smoke_config, fig5c_via_engine_probed, table2_rows_from_records, table2_scenario_set,
    torus_vs_mesh_rows_from_records, torus_vs_mesh_set,
};
use noc_experiments::fig5c::Fig5cConfig;
use noc_experiments::mesh3d::{mesh3d_rows_from_records, mesh3d_spec};
use noc_experiments::profile_cli::ProfileFlag;
use noc_experiments::report::{fmt, TextTable};
use noc_experiments::table2::Table2Config;
use noc_probe::Probe;

const USAGE: &str = "usage: nmap_dse (--smoke | --table2 | --torus-vs-mesh | --fig5c [--smoke] \
| --mesh3d [--smoke] | --spec <file> | --bench-mcf <path>) [--loop <kind>] [--threads N] \
[--jsonl <path>] [--csv <path>] [--timing] [--profile <path>] [--warm-lp] [--allow-failures] \
[--resume <dir>] [--cache-dir <dir>] [--cache-mem-cap N] [--shard-size N] [--shard-budget N]";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Smoke,
    Table2,
    TorusVsMesh,
    Fig5c,
    Mesh3d,
    Spec,
    BenchMcf,
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    /// `--fig5c --smoke` / `--mesh3d --smoke`: reduced cycle counts.
    reduced: bool,
    /// `--loop`: simulator main loop for the simulation-backed studies
    /// (`None` keeps each study's default, the active-set loop).
    loop_kind: Option<LoopKind>,
    spec_path: Option<String>,
    threads: usize,
    jsonl: Option<String>,
    csv: Option<String>,
    timing: bool,
    /// `--profile`: dump the instrumentation profile as JSON lines.
    profile: Option<String>,
    allow_failures: bool,
    /// `--resume`: checkpoint directory for sharded sweeps.
    resume: Option<String>,
    /// `--cache-dir`: on-disk stage-cache directory.
    cache_dir: Option<String>,
    /// `--shard-size`: scenarios per shard (`0` = engine default).
    shard_size: usize,
    /// `--shard-budget`: stop after executing this many shards.
    shard_budget: Option<usize>,
    /// `--bench-mcf`: output path of the MCF warm-start benchmark snapshot.
    bench_mcf: Option<String>,
    /// `--warm-lp`: dual-simplex warm starts across the bandwidth axis.
    warm_lp: bool,
    /// `--cache-mem-cap`: in-memory stage-cache byte budget.
    cache_mem_cap: Option<usize>,
}

impl Args {
    /// Any sharded-engine option present? (Routes `--spec` through
    /// [`run_sweep_sharded_with`] instead of the plain pool.)
    fn sharded(&self) -> bool {
        self.resume.is_some()
            || self.cache_dir.is_some()
            || self.cache_mem_cap.is_some()
            || self.shard_size != 0
            || self.shard_budget.is_some()
    }
}

/// Returns `Ok(None)` for `--help`/`-h` (print usage, exit 0).
fn parse_args() -> Result<Option<Args>, String> {
    let mut raw = std::env::args().skip(1);
    let mut modes = Vec::new();
    let mut loop_kind = None;
    let mut spec_path = None;
    let mut threads = 0usize;
    let mut jsonl = None;
    let mut csv = None;
    let mut timing = false;
    let mut profile = None;
    let mut allow_failures = false;
    let mut resume = None;
    let mut cache_dir = None;
    let mut shard_size = 0usize;
    let mut shard_budget = None;
    let mut bench_mcf = None;
    let mut warm_lp = false;
    let mut cache_mem_cap = None;

    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--smoke" => modes.push(Mode::Smoke),
            "--table2" => modes.push(Mode::Table2),
            "--torus-vs-mesh" => modes.push(Mode::TorusVsMesh),
            "--fig5c" => modes.push(Mode::Fig5c),
            "--mesh3d" => modes.push(Mode::Mesh3d),
            "--spec" => {
                modes.push(Mode::Spec);
                spec_path = Some(raw.next().ok_or("--spec needs a file path")?);
            }
            "--loop" => {
                let text = raw.next().ok_or("--loop needs a kind")?;
                loop_kind = Some(parse_loop_kind(&text)?);
            }
            "--threads" => {
                let text = raw.next().ok_or("--threads needs a count")?;
                threads = text.parse().map_err(|_| format!("bad thread count `{text}`"))?;
            }
            "--jsonl" => jsonl = Some(raw.next().ok_or("--jsonl needs a path")?),
            "--csv" => csv = Some(raw.next().ok_or("--csv needs a path")?),
            "--timing" => timing = true,
            "--profile" => profile = Some(raw.next().ok_or("--profile needs a path")?),
            "--allow-failures" => allow_failures = true,
            "--resume" => resume = Some(raw.next().ok_or("--resume needs a directory")?),
            "--cache-dir" => cache_dir = Some(raw.next().ok_or("--cache-dir needs a directory")?),
            "--shard-size" => {
                let text = raw.next().ok_or("--shard-size needs a count")?;
                shard_size = text.parse().map_err(|_| format!("bad shard size `{text}`"))?;
                if shard_size == 0 {
                    return Err("--shard-size must be at least 1".into());
                }
            }
            "--shard-budget" => {
                let text = raw.next().ok_or("--shard-budget needs a count")?;
                let n: usize = text.parse().map_err(|_| format!("bad shard budget `{text}`"))?;
                shard_budget = Some(n);
            }
            "--bench-mcf" => {
                modes.push(Mode::BenchMcf);
                bench_mcf = Some(raw.next().ok_or("--bench-mcf needs a path")?);
            }
            "--warm-lp" => warm_lp = true,
            "--cache-mem-cap" => {
                let text = raw.next().ok_or("--cache-mem-cap needs a byte count")?;
                let n: usize =
                    text.parse().map_err(|_| format!("bad cache byte budget `{text}`"))?;
                cache_mem_cap = Some(n);
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    // `--smoke` doubles as the reduced-cycle-count modifier of `--fig5c`
    // and `--mesh3d`; every other combination of mode flags is ambiguous.
    let (mode, reduced) = match modes.as_slice() {
        [] => return Err(USAGE.to_string()),
        [m] => (*m, false),
        [Mode::Fig5c, Mode::Smoke] | [Mode::Smoke, Mode::Fig5c] => (Mode::Fig5c, true),
        [Mode::Mesh3d, Mode::Smoke] | [Mode::Smoke, Mode::Mesh3d] => (Mode::Mesh3d, true),
        _ => {
            return Err("choose exactly one of --smoke/--table2/--torus-vs-mesh/--fig5c\
                             /--mesh3d/--spec/--bench-mcf"
                .into())
        }
    };
    if loop_kind.is_some() && !matches!(mode, Mode::Fig5c | Mode::Mesh3d) {
        // Only the simulation-backed studies run a wormhole loop to pick.
        return Err("--loop is only valid with --fig5c/--mesh3d".into());
    }
    if allow_failures && mode != Mode::Spec {
        // The built-in sweeps treat failed scenarios as bugs; only
        // user-authored specs can legitimately contain infeasible points.
        return Err("--allow-failures is only valid with --spec".into());
    }
    if warm_lp && mode != Mode::Spec {
        // Warm starting only pays on user-authored MCF-routed bandwidth
        // sweeps; the built-in studies pin their own engine options.
        return Err("--warm-lp is only valid with --spec".into());
    }
    if mode == Mode::Fig5c && (jsonl.is_some() || csv.is_some() || timing) {
        // The fig5c sweep reports latency points, not scenario records.
        // (`--profile` stays valid: the instrumentation profile is
        // mode-independent.)
        return Err("--jsonl/--csv/--timing are not supported with --fig5c".into());
    }
    let args = Args {
        mode,
        reduced,
        loop_kind,
        spec_path,
        threads,
        jsonl,
        csv,
        timing,
        profile,
        allow_failures,
        resume,
        cache_dir,
        shard_size,
        shard_budget,
        bench_mcf,
        warm_lp,
        cache_mem_cap,
    };
    if args.sharded() && mode != Mode::Spec {
        // Sharding/checkpointing keys on the scenario set of one spec;
        // the built-in studies post-process full record sets in order.
        return Err("--resume/--cache-dir/--cache-mem-cap/--shard-size/--shard-budget \
                    are only valid with --spec"
            .into());
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(1);
        }
    };
    let profile = ProfileFlag::new(args.profile.clone());
    let mut code = run(&args, &profile.probe).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        ExitCode::from(1)
    });
    // Written after a failed run too: when the `--spec` failure gate
    // fires, `--jsonl`/`--csv` are already out, and the profile's
    // `dse.scenario` events say which scenarios failed.
    if let Err(msg) = profile.write() {
        eprintln!("error: {msg}");
        code = ExitCode::from(1);
    }
    code
}

fn run(args: &Args, probe: &Probe) -> Result<ExitCode, String> {
    match args.mode {
        Mode::Table2 => {
            println!("Table 2 via noc-dse — PBB vs NMAP on random graphs (engine sweep)");
            println!("(values identical to the sequential table2_scaling harness)\n");
            let config = Table2Config::default();
            let report = sweep(&table2_scenario_set(&config), args, probe)?;
            let rows = table2_rows_from_records(&config, &report.records);
            let mut table = TextTable::new(["cores", "PBB", "NMAP", "ratio"]);
            for row in rows {
                table.row([
                    row.cores.to_string(),
                    fmt(row.pbb, 0),
                    fmt(row.nmap, 0),
                    fmt(row.ratio, 2),
                ]);
            }
            print!("{}", table.render());
            Ok(ExitCode::SUCCESS)
        }
        Mode::TorusVsMesh => {
            println!("Torus vs mesh — NMAP cost with and without wrap links\n");
            let report = sweep(&torus_vs_mesh_set(), args, probe)?;
            let rows = torus_vs_mesh_rows_from_records(&report.records);
            let mut table = TextTable::new(["app", "mesh", "torus", "mesh/torus"]);
            for row in rows {
                table.row([
                    row.app,
                    fmt(row.mesh_cost, 0),
                    fmt(row.torus_cost, 0),
                    fmt(row.gain, 2),
                ]);
            }
            print!("{}", table.render());
            Ok(ExitCode::SUCCESS)
        }
        Mode::Mesh3d => {
            println!("2-D vs 3-D — NMAP cost and simulated latency, fitted mesh vs mesh 4x4x2");
            if args.reduced {
                println!("(reduced simulation windows)");
            }
            println!();
            let mut spec = mesh3d_spec(args.reduced);
            if let Some(kind) = args.loop_kind {
                spec.simulate.as_mut().expect("mesh3d spec simulates").loop_kind = kind;
            }
            let report = sweep(&spec.scenarios(), args, probe)?;
            let rows = mesh3d_rows_from_records(&report.records);
            let mut table = TextTable::new([
                "app", "cores", "cost 2D", "cost 3D", "2D/3D", "lat 2D", "lat 3D", "notes",
            ]);
            for row in rows {
                table.row([
                    row.app,
                    row.cores.to_string(),
                    fmt(row.cost_2d, 0),
                    fmt(row.cost_3d, 0),
                    fmt(row.cost_gain, 2),
                    fmt(row.latency_2d, 1),
                    fmt(row.latency_3d, 1),
                    if row.saturated { "saturated".to_string() } else { String::new() },
                ]);
            }
            print!("{}", table.render());
            Ok(ExitCode::SUCCESS)
        }
        Mode::Fig5c => {
            let mut config =
                if args.reduced { fig5c_smoke_config() } else { Fig5cConfig::default() };
            if let Some(kind) = args.loop_kind {
                config.loop_kind = kind;
            }
            println!("Figure 5(c) via noc-dse — avg packet latency vs link bandwidth, DSP NoC");
            println!("(values identical to the sequential fig5c_latency harness)\n");
            let points = fig5c_via_engine_probed(&config, args.threads, probe);
            let mut table = TextTable::new(["BW (GB/s)", "Minp (cy)", "Split (cy)", "notes"]);
            for p in &points {
                let mut notes = String::new();
                if p.minpath_saturated {
                    notes.push_str("minp saturated ");
                }
                if p.split_saturated {
                    notes.push_str("split saturated");
                }
                table.row([
                    fmt(p.bandwidth_mbps / 1000.0, 1),
                    fmt(p.minpath_latency, 1),
                    fmt(p.split_latency, 1),
                    notes.trim().to_string(),
                ]);
            }
            print!("{}", table.render());
            Ok(ExitCode::SUCCESS)
        }
        Mode::Smoke => {
            for (label, text) in [("smoke", SMOKE_SPEC), ("smoke-split", SMOKE_SPLIT_SPEC)] {
                let spec = parse_spec(text).map_err(|e| format!("{label} spec: {e}"))?;
                let report = sweep(&spec.scenarios(), args, probe)?;
                let failed: Vec<_> = report.records.iter().filter(|r| !r.is_ok()).collect();
                if !failed.is_empty() {
                    return Err(format!(
                        "{} {label} scenarios failed, first: {}",
                        failed.len(),
                        failed[0].error
                    ));
                }
            }
            println!("smoke sweep OK (all registered mappers)");
            Ok(ExitCode::SUCCESS)
        }
        Mode::Spec => {
            let path = args.spec_path.as_deref().expect("set with --spec");
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let spec = parse_spec(&text).map_err(|e| format!("{path}: {e}"))?;
            // A successfully parsed spec always expands to at least one
            // scenario: parse_spec requires an app directive and the
            // builder default-fills every other axis.
            if args.sharded() {
                return sweep_sharded(&spec.scenarios(), args, probe);
            }
            let report = sweep(&spec.scenarios(), args, probe)?;
            check_failures(&report, args)?;
            Ok(ExitCode::SUCCESS)
        }
        Mode::BenchMcf => bench_mcf(args),
    }
}

/// The `--spec` failure gate, shared by the plain and sharded paths.
fn check_failures(report: &SweepReport, args: &Args) -> Result<(), String> {
    let failed = report.records.iter().filter(|r| !r.is_ok()).count();
    if failed > 0 && !args.allow_failures {
        return Err(format!(
            "{failed} of {} scenarios failed (use --allow-failures if \
that is expected)",
            report.records.len()
        ));
    }
    Ok(())
}

/// Runs the sweep, writes requested outputs, prints the summary.
fn sweep(set: &noc_dse::ScenarioSet, args: &Args, probe: &Probe) -> Result<SweepReport, String> {
    println!("running {} scenarios...", set.len());
    let options = EngineOptions { threads: args.threads, warm_lp: args.warm_lp };
    let report = run_sweep_probed(set, &options, probe);
    if let Some(path) = &args.jsonl {
        std::fs::write(path, report.write_jsonl(args.timing))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = &args.csv {
        std::fs::write(path, report.write_csv(args.timing))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    println!("{}", report.summary());
    Ok(report)
}

/// The sharded `--spec` path: stage-cached, optionally checkpointed and
/// budget-bounded (see DESIGN.md §18). `--jsonl` streams shard by shard
/// — an interrupted run leaves a valid prefix on disk. Exit code 3 when
/// a `--shard-budget` stopped the sweep before the last shard.
fn sweep_sharded(
    set: &noc_dse::ScenarioSet,
    args: &Args,
    probe: &Probe,
) -> Result<ExitCode, String> {
    use std::io::Write;

    let config = SweepConfig {
        threads: args.threads,
        shard_size: args.shard_size,
        checkpoint_dir: args.resume.as_ref().map(std::path::PathBuf::from),
        cache_dir: args.cache_dir.as_ref().map(std::path::PathBuf::from),
        shard_budget: args.shard_budget,
        warm_lp: args.warm_lp,
        cache_mem_cap: args.cache_mem_cap,
    };
    println!("running {} scenarios (sharded)...", set.len());
    let mut jsonl = match &args.jsonl {
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            Some((std::io::BufWriter::new(file), path.as_str()))
        }
        None => None,
    };
    let outcome = run_sweep_sharded_with(set, &config, probe, &mut |_, records| {
        if let Some((writer, _)) = &mut jsonl {
            for record in records {
                // Stream errors surface at flush below; the sweep itself
                // must not die mid-shard over a full disk.
                let _ = writeln!(writer, "{}", record.to_json(args.timing));
            }
            let _ = writer.flush();
        }
    })?;
    if let Some((mut writer, path)) = jsonl {
        writer
            .flush()
            .and_then(|()| writer.into_inner().map(drop).map_err(|e| e.into_error()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = &args.csv {
        std::fs::write(path, outcome.report.write_csv(args.timing))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    let stats = &outcome.cache;
    println!(
        "shards: {} run, {} restored, {} total; map stages: {} computed, {} shared, {} from disk; \
{} cache evictions",
        outcome.shards_run,
        outcome.shards_restored,
        outcome.shards_total,
        stats.map_misses,
        stats.map_hits,
        stats.map_disk_hits,
        stats.evictions,
    );
    println!("{}", outcome.report.summary());
    check_failures(&outcome.report, args)?;
    if !outcome.completed {
        println!(
            "stopped by --shard-budget after {} shards; rerun with --resume to continue",
            outcome.shards_run
        );
        return Ok(ExitCode::from(3));
    }
    Ok(ExitCode::SUCCESS)
}

/// One row of the `--bench-mcf` snapshot: a routing scope timed under the
/// three solver configurations across the whole capacity sweep.
struct McfBenchRow {
    name: &'static str,
    instances: usize,
    points: usize,
    dense_ms: f64,
    sparse_ms: f64,
    warm_ms: f64,
    warm_hits: usize,
    pivots_saved: usize,
}

/// `--bench-mcf`: times the MCF route stage of a descending-capacity
/// bandwidth sweep (≥8 points per scope, two instances) under three solver
/// configurations on bit-identical LP instances — the seed's dense tableau
/// (`PivotMode::Dense`), the sparse cold solver, and the dual-simplex
/// warm-started chain — then writes the `mcf_warmstart` snapshot. Every
/// solution is asserted identical across all three configurations before a
/// single time is reported, so the speedups are never bought with a
/// behavior change.
///
/// The capacity axis is anchored per (instance, scope) at the min-max-load
/// optimum λ (the tightest uniform capacity the mapping can route under),
/// so every point is feasible and the sweep tightens toward the binding
/// regime where warm bases earn their keep.
fn bench_mcf(args: &Args) -> Result<ExitCode, String> {
    use std::time::Instant;

    use nmap::mcf::{solve_mcf_for, solve_mcf_for_with_options, solve_mcf_warm};
    use nmap::{McfKind, McfWarmState, PathScope};
    use noc_graph::{RandomGraphConfig, Topology};
    use noc_lp::{PivotMode, SimplexOptions};

    /// Capacity points as multiples of the min-max-load optimum λ.
    const CAP_FACTORS: [f64; 8] = [4.0, 3.0, 2.5, 2.0, 1.75, 1.5, 1.3, 1.15];
    /// Timed repetitions per configuration (the snapshot reports totals).
    const REPS: usize = 3;

    let path = args.bench_mcf.as_deref().expect("set with --bench-mcf");
    // Two chain instances (1-D meshes) of different sizes. Chains have
    // unique routing optima at every capacity point, so the uniqueness
    // guard admits the warm answer and the dual warm start lands hits
    // across the whole sweep; the 32-core chain's larger tableaux also
    // exercise the sparse pivot. 2-D meshes are deliberately absent: their
    // equal-hop alternative paths make optima non-unique, so the guard
    // refuses the chain and every point solves cold (see DESIGN.md §19).
    let instances: Vec<(&str, noc_graph::CoreGraph, [usize; 2])> = vec![
        ("chain-24", RandomGraphConfig { cores: 24, ..Default::default() }.generate(7), [24, 1]),
        ("chain-32", RandomGraphConfig { cores: 32, ..Default::default() }.generate(7), [32, 1]),
    ];
    let dense_options =
        SimplexOptions { pivot_mode: PivotMode::Dense, ..SimplexOptions::default() };
    let mut rows = Vec::new();
    for (name, scope) in [("mcf-quadrant", PathScope::Quadrant), ("mcf-all", PathScope::AllPaths)] {
        let mut row = McfBenchRow {
            name,
            instances: instances.len(),
            points: CAP_FACTORS.len(),
            dense_ms: 0.0,
            sparse_ms: 0.0,
            warm_ms: 0.0,
            warm_hits: 0,
            pivots_saved: 0,
        };
        for (label, graph, [cols, rows_dim]) in &instances {
            // The commodity set is capacity-invariant: derive it once from
            // the loosest topology and reuse it at every sweep point.
            let loose = Topology::mesh(*cols, *rows_dim, 1e9);
            let problem = nmap::MappingProblem::new(graph.clone(), loose)
                .map_err(|e| format!("{label}: {e}"))?;
            let mapping = nmap::initialize(&problem);
            let commodities = problem.commodities(&mapping);
            let lambda =
                solve_mcf_for(problem.topology(), &commodities, McfKind::MinMaxLoad, scope)
                    .map_err(|e| format!("{label}: min-max load: {e}"))?
                    .objective;
            let caps: Vec<f64> = CAP_FACTORS.iter().map(|f| f * lambda).collect();
            let sweep = |cap: f64| Topology::mesh(*cols, *rows_dim, cap);

            for _ in 0..REPS {
                let start = Instant::now();
                let dense: Vec<_> = caps
                    .iter()
                    .map(|&cap| {
                        solve_mcf_for_with_options(
                            &sweep(cap),
                            &commodities,
                            McfKind::FlowMin,
                            scope,
                            dense_options,
                        )
                    })
                    .collect();
                row.dense_ms += start.elapsed().as_secs_f64() * 1e3;

                let start = Instant::now();
                let sparse: Vec<_> = caps
                    .iter()
                    .map(|&cap| solve_mcf_for(&sweep(cap), &commodities, McfKind::FlowMin, scope))
                    .collect();
                row.sparse_ms += start.elapsed().as_secs_f64() * 1e3;

                let mut chain: Option<McfWarmState> = None;
                let mut warm = Vec::with_capacity(caps.len());
                let start = Instant::now();
                for &cap in &caps {
                    let (solution, next, stats) = solve_mcf_warm(
                        &sweep(cap),
                        &commodities,
                        McfKind::FlowMin,
                        scope,
                        chain.take(),
                    )
                    .map_err(|e| format!("{label} {name} at {cap:.1}: {e}"))?;
                    chain = Some(next);
                    row.warm_hits += usize::from(stats.warm_hit);
                    row.pivots_saved += stats.pivots_saved;
                    warm.push(solution);
                }
                row.warm_ms += start.elapsed().as_secs_f64() * 1e3;

                for (i, ((d, s), w)) in dense.iter().zip(&sparse).zip(&warm).enumerate() {
                    let d = d.as_ref().map_err(|e| format!("{label} {name}: dense: {e}"))?;
                    let s = s.as_ref().map_err(|e| format!("{label} {name}: sparse: {e}"))?;
                    if d != s || s != w {
                        return Err(format!(
                            "{label} {name}: solver configurations diverged at point {i}"
                        ));
                    }
                }
            }
        }
        println!(
            "{name}: dense {:.1} ms, sparse {:.1} ms ({:.1}x), warm {:.1} ms ({:.1}x, {} hits)",
            row.dense_ms,
            row.sparse_ms,
            row.dense_ms / row.sparse_ms.max(1e-9),
            row.warm_ms,
            row.dense_ms / row.warm_ms.max(1e-9),
            row.warm_hits,
        );
        rows.push(row);
    }
    let mut out = String::from("{\n  \"bench\": \"mcf_warmstart\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"instances\": {}, \"points\": {}, \
\"dense_ms\": {:.2}, \"sparse_ms\": {:.2}, \"warm_ms\": {:.2}, \
\"sparse_speedup\": {:.2}, \"warm_speedup\": {:.2}, \
\"warm_hits\": {}, \"pivots_saved\": {}}}{}\n",
            r.name,
            r.instances,
            r.points,
            r.dense_ms,
            r.sparse_ms,
            r.warm_ms,
            r.dense_ms / r.sparse_ms.max(1e-9),
            r.dense_ms / r.warm_ms.max(1e-9),
            r.warm_hits,
            r.pivots_saved,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(ExitCode::SUCCESS)
}

/// The built-in CI health-check sweep: small apps, both grid families,
/// **every registered mapper** (the full registry — NMAP family, the
/// sa/tabu searches, and the three baselines; asserted by a test below
/// so a new registry entry cannot be forgotten here), both cheap routing
/// regimes and a short wormhole-simulation stage. The split mappers are
/// the expensive rows, so they run on the DSP app only; every other
/// mapper crosses the whole app × topology × routing product.
const SMOKE_SPEC: &str = "\
# nmap_dse --smoke
capacity 800
seed 1
app pip
app dsp
random 9 1
topology fit
topology fit-torus
mapper nmap nmap-paper nmap-init pmap gmap pbb sa tabu
routing min-path xy
simulate {
  warmup 1000
  measure 5000
  drain 2000
}
";

/// The split-mapper leg of the smoke sweep: `nmap-split-*` solve O(n²)
/// LPs per run, so they smoke-test on the six-core DSP app alone.
const SMOKE_SPLIT_SPEC: &str = "\
# nmap_dse --smoke (split mappers)
capacity 800
seed 1
app dsp
topology fit
mapper nmap-split-quadrant nmap-split-all
routing min-path
simulate {
  warmup 1000
  measure 5000
  drain 2000
}
";

#[cfg(test)]
mod tests {
    use super::{SMOKE_SPEC, SMOKE_SPLIT_SPEC};

    /// The CI smoke sweep must exercise every mapper in the workspace
    /// registry: a registry entry missing from both smoke specs (or a
    /// smoke mapper that fell out of the registry) fails here.
    #[test]
    fn smoke_specs_cover_the_whole_mapper_registry() {
        let mut smoke_names: Vec<String> = Vec::new();
        for text in [SMOKE_SPEC, SMOKE_SPLIT_SPEC] {
            let spec = noc_dse::parse_spec(text).expect("smoke specs parse");
            smoke_names.extend(spec.mappers.iter().map(|m| m.name()));
        }
        smoke_names.sort();
        smoke_names.dedup();
        let mut registry_names: Vec<String> =
            noc_baselines::standard_registry().names().map(str::to_string).collect();
        registry_names.sort();
        assert_eq!(smoke_names, registry_names);
    }
}

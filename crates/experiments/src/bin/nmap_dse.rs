//! `nmap_dse` — the one entry point of every paper study, and of the
//! `noc-dse` design-space exploration engine.
//!
//! ```text
//! nmap_dse --smoke            fast built-in sweep of every catalogued mapper (CI)
//! nmap_dse --spec <file>      run a .dse sweep specification
//! nmap_dse --all              run every study, in order
//! nmap_dse --<study>          run one study: --fig2 --fig3 --fig4 --table1 --table2
//!                             --fig5c --table3 --routing-ablation --search-ablation
//!                             --topology-selection --torus-vs-mesh --mesh3d
//! ```
//!
//! `nmap_dse --help` lists the options and which modes take them. One
//! study table, `STUDIES`, holds each study's flag, its one-line
//! description and the function that runs and renders it. The argument
//! parser, the usage text and `--all` all read it, and each study prints
//! its description as its header line. Figure 3, Figure 4 and Table 1
//! are three folds of one engine sweep, which `--all` runs once.
//!
//! Exit code 1 on bad input or a sweep containing failed scenarios —
//! pass `--allow-failures` for exploratory sweeps where does-not-fit
//! records are data rather than errors.

use std::cell::OnceCell;
use std::path::PathBuf;
use std::process::ExitCode;

use nmap::{map_single_path, render_mapping_grid, MappingProblem, SinglePathOptions};
use noc_apps::{vopd, App};
use noc_dse::spec::parse_loop_kind;
use noc_dse::{
    parse_spec, run_sweep, LoopKind, RunContext, ScenarioSet, SweepConfig, SweepOutcome,
};
use noc_experiments::dse_bridge::{
    fig5c_smoke_config, fig5c_via_engine, table2_rows_from_records, table2_scenario_set,
    torus_vs_mesh_rows_from_records, torus_vs_mesh_set,
};
use noc_experiments::fig5c::Fig5cConfig;
use noc_experiments::mapper_comparison::{mapper_comparison_set, MapperComparison};
use noc_experiments::mesh3d::{mesh3d_rows_from_records, mesh3d_spec};
use noc_experiments::report::{fmt, TextTable};
use noc_experiments::search_ablation::{search_ablation_set, AblationPoint, SearchAblation};
use noc_experiments::table2::Table2Config;
use noc_experiments::topology_selection::{best_by_cost, explore};
use noc_experiments::{routing_ablation, table3, GENEROUS_CAPACITY};
use noc_graph::{core_graph_dot, mapping_dot, topology_dot, Topology};
use noc_probe::Probe;

/// Runs one study and prints its tables.
type Run = fn(&Harness) -> Result<(), String>;

/// Every study, in `--all` order: its flag, its one-line description (its
/// usage entry, and the header line it prints) and its run function.
const STUDIES: [(&str, &str, Run); 12] = [
    ("--fig2", "Figure 2 — VOPD core graph, 4x4 mesh and NMAP's mapping", fig2),
    ("--fig3", "Figure 3 — communication cost (hops x MB/s) per mapper", fig3),
    ("--fig4", "Figure 4 — minimum link bandwidth needed (MB/s)", fig4),
    ("--table1", "Table 1 — cost ratio (cstr) and bandwidth ratio (bwr) vs NMAP", table1),
    ("--table2", "Table 2 — communication cost on random graphs, PBB vs NMAP", table2),
    ("--fig5c", "Figure 5(c) — avg packet latency (cycles) vs link bandwidth, DSP NoC", fig5c),
    ("--table3", "Table 3 — DSP NoC design results", table3),
    ("--routing-ablation", "Routing ablation — greedy router vs LP bound", routing_ablation),
    ("--search-ablation", "Search ablation — NMAP search knobs and strategies", search_ablation),
    ("--topology-selection", "Topology selection — NMAP over fabrics", topology_selection),
    ("--torus-vs-mesh", "Torus vs mesh — NMAP cost with and without wrap links", torus_vs_mesh),
    ("--mesh3d", "2-D vs 3-D — NMAP cost and simulated latency, mesh 4x4x2", mesh3d),
];

/// The studies whose output is one record sweep: `--jsonl`, `--csv` and
/// `--timing` apply.
const RECORD_SWEEPS: [&str; 7] = [
    "--fig3",
    "--fig4",
    "--table1",
    "--table2",
    "--search-ablation",
    "--torus-vs-mesh",
    "--mesh3d",
];

/// The studies that simulate: `--smoke` (reduced windows) and `--loop`
/// apply.
const SIMULATING: [&str; 2] = ["--fig5c", "--mesh3d"];

/// The usage text, one line per study from `STUDIES`.
fn usage() -> String {
    let mut text = String::from(
        "usage: nmap_dse <mode> [options]\n\nmodes:\n  \
--smoke                 fast built-in sweep of every catalogued mapper (CI health check)\n  \
--spec <file>           run a .dse sweep specification\n  \
--all                   run every study below, in order\n\nstudies:\n",
    );
    for (flag, about, _) in STUDIES {
        text.push_str(&format!("  {flag:<22}  {about}\n"));
    }
    text.push_str(&format!(
        "\noptions:\n  \
--smoke                 with {sim}: reduced simulation windows\n  \
--loop <kind>           simulator loop for {sim}: active-set (default) | full-scan\n  \
--threads N             worker threads (default: all cores)\n  \
--profile <path>        write the instrumentation profile as JSON lines, also when \
the run fails\n  \
--jsonl <path>          write records as JSON lines\n  \
--csv <path>            write records as CSV\n  \
--timing                include per-stage wall times in --jsonl/--csv\n{pad}(these three \
with --smoke, --spec and {records})\n  \
--allow-failures        (--spec only) exit 0 even when scenarios fail\n\n\
sharded sweeps (--spec only; any of these also prints shard and cache statistics):\n  \
--resume <dir>          checkpoint shards under <dir>; skip shards completed there\n  \
--shard-size N          scenarios per shard (default: 64 with --resume, else one)\n  \
--shard-budget N        (with --resume) stop after executing N shards (exit 3)\n",
        sim = SIMULATING.join("/"),
        records = RECORD_SWEEPS.join("/"),
        pad = " ".repeat(26),
    ));
    text
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
enum Mode {
    #[default]
    Smoke,
    Spec,
    All,
    /// One study, by its index in `STUDIES`.
    Study(usize),
}

#[derive(Debug, Default)]
struct Args {
    /// The one mode the mode flags select (`Smoke` until they are read).
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
    /// `--shard-size`: scenarios per shard (`0` = engine default).
    shard_size: usize,
    /// `--shard-budget`: stop after executing this many shards.
    shard_budget: Option<usize>,
}

impl Args {
    /// Any sharding or checkpoint option present? They are valid with
    /// `--spec` only, and [`Harness::sweep`] reports shard and cache
    /// statistics when one is given.
    fn sharded(&self) -> bool {
        self.resume.is_some() || self.shard_size != 0 || self.shard_budget.is_some()
    }

    /// The selected study's flag, if the mode is one.
    fn study(&self) -> Option<&'static str> {
        match self.mode {
            Mode::Study(i) => Some(STUDIES[i].0),
            _ => None,
        }
    }
}

/// Parses the arguments after the program name. Returns `Ok(None)` for
/// `--help`/`-h` (print usage, exit 0).
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut raw = argv.into_iter();
    let mut modes = Vec::new();
    let mut args = Args::default();
    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--smoke" => modes.push(Mode::Smoke),
            "--all" => modes.push(Mode::All),
            "--spec" => {
                modes.push(Mode::Spec);
                args.spec_path = Some(raw.next().ok_or("--spec needs a file path")?);
            }
            "--loop" => {
                let text = raw.next().ok_or("--loop needs a kind")?;
                args.loop_kind = Some(parse_loop_kind(&text)?);
            }
            "--threads" => {
                let text = raw.next().ok_or("--threads needs a count")?;
                args.threads = text.parse().map_err(|_| format!("bad thread count `{text}`"))?;
            }
            "--jsonl" => args.jsonl = Some(raw.next().ok_or("--jsonl needs a path")?),
            "--csv" => args.csv = Some(raw.next().ok_or("--csv needs a path")?),
            "--timing" => args.timing = true,
            "--profile" => args.profile = Some(raw.next().ok_or("--profile needs a path")?),
            "--allow-failures" => args.allow_failures = true,
            "--resume" => args.resume = Some(raw.next().ok_or("--resume needs a directory")?),
            "--shard-size" => {
                let text = raw.next().ok_or("--shard-size needs a count")?;
                args.shard_size = text.parse().map_err(|_| format!("bad shard size `{text}`"))?;
                if args.shard_size == 0 {
                    return Err("--shard-size must be at least 1".into());
                }
            }
            "--shard-budget" => {
                let text = raw.next().ok_or("--shard-budget needs a count")?;
                let n: usize = text.parse().map_err(|_| format!("bad shard budget `{text}`"))?;
                args.shard_budget = Some(n);
            }
            "--help" | "-h" => return Ok(None),
            other => match STUDIES.iter().position(|(flag, ..)| *flag == other) {
                Some(i) => modes.push(Mode::Study(i)),
                None => return Err(format!("unexpected argument `{other}`\n{}", usage())),
            },
        }
    }
    // `--smoke` doubles as the reduced-window modifier of the simulating
    // studies; every other combination of mode flags is ambiguous.
    (args.mode, args.reduced) = match modes.as_slice() {
        [] => return Err(usage()),
        [m] => (*m, false),
        [Mode::Study(i), Mode::Smoke] | [Mode::Smoke, Mode::Study(i)]
            if SIMULATING.contains(&STUDIES[*i].0) =>
        {
            (Mode::Study(*i), true)
        }
        _ => return Err("choose exactly one of --smoke, --spec, --all or one study flag".into()),
    };
    let study = args.study();
    if args.loop_kind.is_some() && !study.is_some_and(|f| SIMULATING.contains(&f)) {
        // Only the simulation-backed studies run a wormhole loop to pick.
        return Err(format!("--loop is only valid with {}", SIMULATING.join("/")));
    }
    if args.allow_failures && args.mode != Mode::Spec {
        // The built-in sweeps treat failed scenarios as bugs; only
        // user-authored specs can legitimately contain infeasible points.
        return Err("--allow-failures is only valid with --spec".into());
    }
    let one_sweep = matches!(args.mode, Mode::Smoke | Mode::Spec)
        || study.is_some_and(|f| RECORD_SWEEPS.contains(&f));
    if (args.jsonl.is_some() || args.csv.is_some() || args.timing) && !one_sweep {
        // Records are written where one record sweep is the output: not
        // for latency points or hand-built tables, nor for `--all`'s
        // several sweeps. (`--profile` stays valid: the instrumentation
        // profile is mode-independent.)
        return Err(format!(
            "--jsonl/--csv/--timing are only valid with --smoke/--spec/{}",
            RECORD_SWEEPS.join("/")
        ));
    }
    if args.sharded() && args.mode != Mode::Spec {
        // Sharding/checkpointing keys on the scenario set of one spec;
        // the built-in studies post-process full record sets in order.
        return Err("--resume/--shard-size/--shard-budget are only valid with --spec".into());
    }
    if args.shard_budget.is_some() && args.resume.is_none() {
        // A budget stop is only worth making when a rerun can pick up
        // where it stopped; without a checkpoint it would start over.
        return Err("--shard-budget needs --resume (without a checkpoint a stopped \
                    sweep cannot continue)"
            .into());
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(1);
        }
    };
    // A live probe only when a profile was asked for; otherwise every
    // hook is a no-op.
    let probe = if args.profile.is_some() { Probe::new() } else { Probe::disabled() };
    let mut code = run(&args, &probe).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        ExitCode::from(1)
    });
    // Written after a failed run too: when the `--spec` failure gate
    // fires, `--jsonl`/`--csv` are already out, and the profile's
    // `dse.scenario` events say which scenarios failed.
    if let Some(path) = &args.profile {
        match std::fs::write(path, probe.snapshot().to_jsonl()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                code = ExitCode::from(1);
            }
        }
    }
    code
}

fn run(args: &Args, probe: &Probe) -> Result<ExitCode, String> {
    let harness = Harness { args, probe, comparison: OnceCell::new() };
    match args.mode {
        Mode::Smoke => smoke(&harness),
        Mode::Spec => spec(&harness),
        Mode::All => {
            for i in 0..STUDIES.len() {
                if i > 0 {
                    println!();
                }
                harness.study(i)?;
            }
            Ok(ExitCode::SUCCESS)
        }
        Mode::Study(i) => harness.study(i).map(|()| ExitCode::SUCCESS),
    }
}

/// What a run works with: the parsed flags, the probe, and the §7.1
/// comparison that `--fig3`, `--fig4` and `--table1` share.
struct Harness<'a> {
    args: &'a Args,
    probe: &'a Probe,
    comparison: OnceCell<MapperComparison>,
}

impl Harness<'_> {
    /// Prints study `i`'s header line, then runs it.
    fn study(&self, i: usize) -> Result<(), String> {
        let (_, about, run) = STUDIES[i];
        println!("{about}");
        run(self)
    }

    /// The §7.1 sweep folded into Figure 3, Figure 4 and Table 1, run on
    /// first use: under `--all` the three artifacts read one run.
    fn comparison(&self) -> Result<&MapperComparison, String> {
        if self.comparison.get().is_none() {
            let report = self.sweep(&mapper_comparison_set())?.report;
            let _ = self.comparison.set(MapperComparison::from_records(&report.records));
        }
        Ok(self.comparison.get().expect("set above"))
    }

    /// Runs `set` through the engine (see DESIGN.md §18), writes the
    /// requested outputs and prints the summary, plus a line of shard and
    /// cache statistics when a sharding or checkpoint option is given.
    /// `--jsonl` streams shard by shard, so a run stopped by
    /// `--shard-budget` leaves a valid prefix on disk.
    fn sweep(&self, set: &ScenarioSet) -> Result<SweepOutcome, String> {
        use std::io::Write;

        let args = self.args;
        let config = SweepConfig {
            threads: args.threads,
            shard_size: args.shard_size,
            checkpoint_dir: args.resume.as_ref().map(PathBuf::from),
            shard_budget: args.shard_budget,
        };
        let sharded = args.sharded();
        println!("running {} scenarios{}...", set.len(), if sharded { " (sharded)" } else { "" });
        let mut jsonl = match &args.jsonl {
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("cannot create {path}: {e}"))?;
                Some((std::io::BufWriter::new(file), path.as_str()))
            }
            None => None,
        };
        let outcome = run_sweep(set, &config, self.probe, &mut |_, records| {
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
        if sharded {
            let stats = &outcome.cache;
            println!(
                "shards: {} run, {} restored, {} total; map stages: {} computed, {} shared",
                outcome.shards_run,
                outcome.shards_restored,
                outcome.shards_total,
                stats.map_misses,
                stats.map_hits,
            );
        }
        println!("{}", outcome.report.summary());
        Ok(outcome)
    }
}

/// Runs both smoke specs as one sweep, so `--jsonl`/`--csv` hold every
/// record.
fn smoke(harness: &Harness) -> Result<ExitCode, String> {
    let mut scenarios = Vec::new();
    for (label, text) in [("smoke", SMOKE_SPEC), ("smoke-split", SMOKE_SPLIT_SPEC)] {
        let spec = parse_spec(text).map_err(|e| format!("{label} spec: {e}"))?;
        scenarios.extend_from_slice(spec.scenarios().scenarios());
    }
    let report = harness.sweep(&ScenarioSet::from_scenarios(scenarios))?.report;
    let failed: Vec<_> = report.records.iter().filter(|r| !r.is_ok()).collect();
    if !failed.is_empty() {
        return Err(format!("{} smoke scenarios failed, first: {}", failed.len(), failed[0].error));
    }
    println!("smoke sweep OK (all registered mappers)");
    Ok(ExitCode::SUCCESS)
}

fn spec(harness: &Harness) -> Result<ExitCode, String> {
    let args = harness.args;
    let path = args.spec_path.as_deref().expect("set with --spec");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec = parse_spec(&text).map_err(|e| format!("{path}: {e}"))?;
    // A successfully parsed spec always expands to at least one
    // scenario: parse_spec requires an app directive and the builder
    // default-fills every other axis.
    let outcome = harness.sweep(&spec.scenarios())?;
    let failed = outcome.report.records.iter().filter(|r| !r.is_ok()).count();
    if failed > 0 && !args.allow_failures {
        return Err(format!(
            "{failed} of {} scenarios failed (use --allow-failures if that is expected)",
            outcome.report.records.len()
        ));
    }
    if !outcome.completed {
        println!(
            "stopped by --shard-budget after {} shards; rerun with --resume to continue",
            outcome.shards_run
        );
        return Ok(ExitCode::from(3));
    }
    Ok(ExitCode::SUCCESS)
}

fn fig2(_: &Harness) -> Result<(), String> {
    let mesh = Topology::mesh_nd(&[4, 4], GENEROUS_CAPACITY).map_err(|e| e.to_string())?;
    let problem = MappingProblem::new(vopd(), mesh).map_err(|e| e.to_string())?;
    let outcome =
        map_single_path(&problem, &SinglePathOptions::default()).map_err(|e| e.to_string())?;
    println!("=== Figure 2(a): VOPD core graph (DOT) ===");
    println!("{}", core_graph_dot(problem.cores()));
    println!("=== Figure 2(b): 16-node mesh NoC graph (DOT) ===");
    println!("{}", topology_dot(problem.topology()));
    println!("=== Figure 2(c): NMAP mapping (DOT) ===");
    println!("{}", mapping_dot(problem.cores(), problem.topology(), &outcome.mapping.to_pairs()));
    println!("=== Figure 2(c) as a text grid ===");
    println!("{}", render_mapping_grid(&problem, &outcome.mapping));
    println!("communication cost: {:.0} hops x MB/s", outcome.comm_cost);
    Ok(())
}

fn fig3(harness: &Harness) -> Result<(), String> {
    println!("(uniform link capacity {GENEROUS_CAPACITY} MB/s for all algorithms)\n");
    let mut table = TextTable::new(["app", "PMAP", "GMAP", "PBB", "NMAP"]);
    for row in &harness.comparison()?.fig3 {
        table.row([
            row.app.name().to_string(),
            fmt(row.pmap, 0),
            fmt(row.gmap, 0),
            fmt(row.pbb, 0),
            fmt(row.nmap, 0),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn fig4(harness: &Harness) -> Result<(), String> {
    println!("(D* = dimension-ordered routing; NMAPTM/NMAPTA = split over min/all paths)\n");
    let mut table =
        TextTable::new(["app", "DPMAP", "DGMAP", "PMAP", "GMAP", "NMAP", "NMAPTM", "NMAPTA"]);
    for row in &harness.comparison()?.fig4 {
        table.row([
            row.app.name().to_string(),
            fmt(row.dpmap, 0),
            fmt(row.dgmap, 0),
            fmt(row.pmap, 0),
            fmt(row.gmap, 0),
            fmt(row.nmap, 0),
            fmt(row.nmaptm, 0),
            fmt(row.nmapta, 0),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn table1(harness: &Harness) -> Result<(), String> {
    println!("(paper averages: cstr 1.47, bwr 2.13)\n");
    let table1 = &harness.comparison()?.table1;
    let mut table = TextTable::new(["app", "cstr", "bwr"]);
    for row in &table1.rows {
        table.row([row.app.name().to_lowercase(), fmt(row.cstr, 2), fmt(row.bwr, 2)]);
    }
    table.row(["Avg".to_string(), fmt(table1.avg_cstr, 2), fmt(table1.avg_bwr, 2)]);
    print!("{}", table.render());
    Ok(())
}

fn table2(harness: &Harness) -> Result<(), String> {
    println!("(paper ratios: 1.54, 1.61, 1.85, 1.69, 1.76)\n");
    let config = Table2Config::default();
    let report = harness.sweep(&table2_scenario_set(&config))?.report;
    let mut table = TextTable::new(["cores", "PBB", "NMAP", "ratio"]);
    for row in table2_rows_from_records(&config, &report.records) {
        table.row([row.cores.to_string(), fmt(row.pbb, 0), fmt(row.nmap, 0), fmt(row.ratio, 2)]);
    }
    print!("{}", table.render());
    Ok(())
}

fn fig5c(harness: &Harness) -> Result<(), String> {
    let args = harness.args;
    let mut config = if args.reduced { fig5c_smoke_config() } else { Fig5cConfig::default() };
    if let Some(kind) = args.loop_kind {
        config.loop_kind = kind;
    }
    println!("(wormhole simulator, 64 B packets, 7-cycle switch delay, bursty sources)");
    if args.reduced {
        println!("(reduced simulation windows)");
    }
    println!();
    let ctx =
        RunContext { threads: args.threads, probe: harness.probe.clone(), ..Default::default() };
    let mut table = TextTable::new([
        "BW (GB/s)",
        "Minp (cy)",
        "Split (cy)",
        "Minp net (cy)",
        "Split net (cy)",
        "notes",
    ]);
    for p in fig5c_via_engine(&config, ctx) {
        let saturated =
            [(p.minpath_saturated, "minp saturated"), (p.split_saturated, "split saturated")];
        let notes: Vec<&str> = saturated.iter().filter(|(s, _)| *s).map(|(_, n)| *n).collect();
        table.row([
            fmt(p.bandwidth_mbps / 1000.0, 1),
            fmt(p.minpath_latency, 1),
            fmt(p.split_latency, 1),
            fmt(p.minpath_network_latency, 1),
            fmt(p.split_network_latency, 1),
            notes.join(" "),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn table3(_: &Harness) -> Result<(), String> {
    println!("(area rows are paper constants; bandwidth rows recomputed)\n");
    let t = table3::run();
    let mut table = TextTable::new(["parameter", "value", "source"]);
    table.row(["NI area".into(), format!("{} mm2", t.ni_area_mm2), "paper".into()]);
    table.row(["SW area".into(), format!("{} mm2", t.switch_area_mm2), "paper".into()]);
    table.row(["SW delay".into(), format!("{} cy", t.switch_delay_cycles), "paper".into()]);
    table.row(["Pack. size".into(), format!("{} B", t.packet_bytes), "config".into()]);
    table.row(["minp BW".into(), format!("{:.0} MB/s", t.minpath_bw_mbps), "measured".into()]);
    table.row(["split BW".into(), format!("{:.0} MB/s", t.split_bw_mbps), "measured".into()]);
    print!("{}", table.render());
    Ok(())
}

fn routing_ablation(_: &Harness) -> Result<(), String> {
    println!("(paper: heuristic within ~10% of ILP, seconds vs minutes)\n");
    let mut table = TextTable::new(["app", "greedy max load", "LP bound", "ratio", "greedy", "LP"]);
    for row in routing_ablation::run_all() {
        table.row([
            row.app.name().to_string(),
            fmt(row.heuristic_max_load, 0),
            fmt(row.lp_bound, 0),
            fmt(row.ratio, 3),
            format!("{:?}", row.heuristic_time),
            format!("{:?}", row.lp_time),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn search_ablation(harness: &Harness) -> Result<(), String> {
    let report = harness.sweep(&search_ablation_set())?.report;
    let ablation = SearchAblation::from_records(&report.records);
    let render = |points: &[AblationPoint], label: &str| {
        let mut table = TextTable::new(["app", label, "cost", "evals", "time"]);
        for p in points {
            table.row([
                p.app.name().to_string(),
                p.label.clone(),
                fmt(p.comm_cost, 0),
                p.evaluations.to_string(),
                format!("{:.1?}", p.elapsed),
            ]);
        }
        print!("{}", table.render());
    };
    println!();
    render(&ablation.configurations, "configuration");
    println!("\nthe paper's single-descent configuration is the first row of each group;");
    println!("restarts recover most of the gap to PBB at negligible cost.");
    println!("\nSearch strategies via the mapper catalogue — same swap-delta kernel\n");
    render(&ablation.strategies, "mapper");
    println!("\nsa/tabu are seeded and deterministic; all strategies score Equation-7 cost");
    println!("with min-path feasibility, so rows are directly comparable.");
    Ok(())
}

fn topology_selection(_: &Harness) -> Result<(), String> {
    for app in App::all() {
        println!("\n== {app} ==");
        let results = explore(app);
        let mut table =
            TextTable::new(["fabric", "nodes", "links", "cost", "BW minp", "BW split", "time"]);
        for r in &results {
            table.row([
                r.fabric.clone(),
                r.nodes.to_string(),
                r.links.to_string(),
                fmt(r.comm_cost, 0),
                fmt(r.bw_single, 0),
                fmt(r.bw_split, 0),
                format!("{:.0?}", r.elapsed),
            ]);
        }
        print!("{}", table.render());
        if let Some(best) = best_by_cost(&results) {
            println!("selected: {} (cost {:.0})", best.fabric, best.comm_cost);
        }
    }
    Ok(())
}

fn torus_vs_mesh(harness: &Harness) -> Result<(), String> {
    println!();
    let report = harness.sweep(&torus_vs_mesh_set())?.report;
    let mut table = TextTable::new(["app", "mesh", "torus", "mesh/torus"]);
    for row in torus_vs_mesh_rows_from_records(&report.records) {
        table.row([row.app, fmt(row.mesh_cost, 0), fmt(row.torus_cost, 0), fmt(row.gain, 2)]);
    }
    print!("{}", table.render());
    Ok(())
}

fn mesh3d(harness: &Harness) -> Result<(), String> {
    let args = harness.args;
    if args.reduced {
        println!("(reduced simulation windows)");
    }
    println!();
    let mut spec = mesh3d_spec(args.reduced);
    if let Some(kind) = args.loop_kind {
        spec.simulate.as_mut().expect("mesh3d spec simulates").loop_kind = kind;
    }
    let report = harness.sweep(&spec.scenarios())?.report;
    let mut table = TextTable::new([
        "app", "cores", "cost 2D", "cost 3D", "2D/3D", "lat 2D", "lat 3D", "notes",
    ]);
    for row in mesh3d_rows_from_records(&report.records) {
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
    Ok(())
}

/// The built-in CI health-check sweep: small apps, both grid families,
/// **every catalogued mapper** (the whole mapper catalogue — NMAP family,
/// the sa/tabu searches, and the three baselines; asserted by a test
/// below so a new catalogue row cannot be forgotten here), both cheap routing
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
    use super::*;

    /// The CI smoke sweep must exercise every mapper in the catalogue
    /// ([`noc_dse::spec::mapper_catalogue`]): a catalogue row missing from
    /// both smoke specs (or a smoke mapper that fell out of the catalogue)
    /// fails here.
    #[test]
    fn smoke_specs_cover_the_whole_mapper_registry() {
        let mut smoke_names: Vec<String> = Vec::new();
        for text in [SMOKE_SPEC, SMOKE_SPLIT_SPEC] {
            let spec = noc_dse::parse_spec(text).expect("smoke specs parse");
            smoke_names.extend(spec.mappers.iter().map(|m| m.name()));
        }
        smoke_names.sort();
        smoke_names.dedup();
        let mut catalogue_names: Vec<String> =
            noc_dse::spec::mapper_catalogue().map(|(keyword, _)| keyword.to_string()).into();
        catalogue_names.sort();
        assert_eq!(smoke_names, catalogue_names);
    }

    /// The flags that take an operand.
    const TAKES_OPERAND: &str =
        "--spec --loop --threads --jsonl --csv --profile --resume --shard-size --shard-budget";

    /// The mode flags of `argv`, operands skipped, sorted.
    fn mode_flags(argv: &[&str]) -> Vec<&'static str> {
        let mut flags = Vec::new();
        let mut tokens = argv.iter();
        while let Some(&token) = tokens.next() {
            if TAKES_OPERAND.split(' ').any(|f| f == token) {
                tokens.next();
            }
            let modes = ["--smoke", "--spec", "--all"].into_iter();
            flags.extend(modes.chain(STUDIES.map(|(flag, ..)| flag)).filter(|&f| f == token));
        }
        flags.sort_unstable();
        flags
    }

    /// Every argv of up to three tokens, drawn from every flag plus
    /// awkward operands, parses or fails with a message; none panics.
    /// Every accepted argv selects exactly one mode, or is `--help`, and
    /// keeps the flag validity rules.
    #[test]
    fn every_short_argv_parses_or_fails_cleanly() {
        let others = "--all --smoke --timing --allow-failures --help -h \
                      0 1 -1 18446744073709551616 nan 2x2 0x3 x sweep.dse";
        let tokens: Vec<&str> = STUDIES
            .map(|(flag, ..)| flag)
            .into_iter()
            .chain(others.split_whitespace().chain(TAKES_OPERAND.split_whitespace()))
            .collect();
        let n = tokens.len();
        let mut accepted = 0;
        for len in 0..=3u32 {
            for code in 0..n.pow(len) {
                let argv: Vec<&str> = (0..len).map(|k| tokens[code / n.pow(k) % n]).collect();
                let owned = argv.iter().map(|t| t.to_string());
                let parsed = std::panic::catch_unwind(|| parse_args(owned))
                    .unwrap_or_else(|_| panic!("parse_args panicked on {argv:?}"));
                let args = match parsed {
                    Ok(Some(args)) => args,
                    Ok(None) => continue,
                    Err(msg) => {
                        assert!(!msg.is_empty(), "{argv:?}: empty error");
                        continue;
                    }
                };
                accepted += 1;
                let mut want = match args.mode {
                    Mode::Smoke => vec!["--smoke"],
                    Mode::Spec => vec!["--spec"],
                    Mode::All => vec!["--all"],
                    Mode::Study(i) if args.reduced => vec![STUDIES[i].0, "--smoke"],
                    Mode::Study(i) => vec![STUDIES[i].0],
                };
                want.sort_unstable();
                assert_eq!(mode_flags(&argv), want, "{argv:?}: not exactly one mode");
                let study = args.study();
                assert!(!args.sharded() || args.mode == Mode::Spec, "{argv:?}");
                assert!(args.shard_budget.is_none() || args.resume.is_some(), "{argv:?}");
                let simulating = study.is_some_and(|f| SIMULATING.contains(&f));
                assert!(args.loop_kind.is_none() || simulating, "{argv:?}");
                assert!(!args.allow_failures || args.mode == Mode::Spec, "{argv:?}");
                if args.jsonl.is_some() || args.csv.is_some() || args.timing {
                    assert!(args.mode != Mode::All && study != Some("--fig5c"), "{argv:?}");
                }
            }
        }
        assert!(accepted > 1000, "only {accepted} argvs accepted");
    }

    #[test]
    fn every_study_flag_is_unique_and_in_the_usage() {
        let text = usage();
        for (i, (flag, about, _)) in STUDIES.iter().enumerate() {
            assert!(STUDIES[..i].iter().all(|(f, a, _)| f != flag && a != about), "{flag}");
            assert!(text.contains(&format!("  {flag:<22}  {about}\n")), "{flag}");
        }
    }
}

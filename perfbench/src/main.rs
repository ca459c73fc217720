//! `noc_bench`: the pipeline benchmark's command line. See the crate
//! documentation (`src/lib.rs`) or `README.md` for workloads and metrics.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use perfbench::metrics::{
    self, compare_reports, fmt_value, index, json_number, parse_report, write_report, RunInfo,
    WorkloadReport, END_TO_END, PER_LAYER,
};
use perfbench::run::{timed_run, traced_run, RunConfig};
use perfbench::sys;
use perfbench::workload::Workload;

/// Counts heap bytes during the traced run's one-worker reference call,
/// for the `peak_heap_mb` metric.
#[global_allocator]
static ALLOCATOR: sys::CountingAlloc = sys::CountingAlloc;

const USAGE: &str = "\
usage: noc_bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
                 [--out PATH] [--compare OLD]

  --workload   fig5c, mesh3d, table2, mcf-sweep or all (default all)
  --seed       input seed (default: each workload's own)
  --seconds    measuring time per run (default 15)
  --trace      0: timed run only (end-to-end metrics); 1: traced run only
               (per-layer metrics); omitted: both
  --smoke      reduced inputs and repetitions (allowed in debug builds)
  --out        write the full report (JSON lines) to PATH
  --compare    compare this run against a report written by --out";

/// Worker threads of every engine call (clamped to the machine).
const THREADS: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: u64,
    trace: Option<bool>,
    threads: usize,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<PathBuf>,
    child: bool,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: None,
        seconds: 15,
        trace: None,
        threads: THREADS.clamp(1, sys::nproc()),
        smoke: false,
        out: None,
        compare: None,
        child: false,
    };
    while let Some(flag) = raw.next() {
        let mut value = || raw.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?]
                };
            }
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--compare" => args.compare = Some(PathBuf::from(value()?)),
            "--child" => args.child = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run_info(args: &Args) -> RunInfo {
    RunInfo { nproc: sys::nproc(), threads: args.threads, seconds: args.seconds, smoke: args.smoke }
}

/// Where traces go: `bench/` beside the build's profile directory
/// (`target/bench/` for a default build).
fn trace_dir() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.parent()?.join("bench"))
}

fn run_config(args: &Args, workload: Workload) -> RunConfig {
    RunConfig {
        workload,
        seed: args.seed.unwrap_or(workload.default_seed()),
        seconds: args.seconds,
        threads: args.threads,
        smoke: args.smoke,
    }
}

/// Child mode: measure one workload in this process and print its report.
fn child(args: &Args) -> ExitCode {
    let [workload] = args.workloads[..] else {
        eprintln!("noc_bench: a child measures exactly one workload");
        return ExitCode::from(2);
    };
    let config = run_config(args, workload);
    let report = if args.trace == Some(true) {
        traced_run(&config, trace_dir().as_deref())
    } else {
        timed_run(&config)
    };
    print!("{}", write_report(&run_info(args), &[report]));
    ExitCode::SUCCESS
}

/// Runs one measuring child and reads back its report.
fn spawn_child(
    args: &Args,
    workload: Workload,
    seed: u64,
    traced: bool,
) -> Result<WorkloadReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--child", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| format!("cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let text = String::from_utf8(output.stdout).map_err(|_| "child wrote non-UTF-8".to_string())?;
    let mut reports = parse_report(&text)?;
    match reports.len() {
        1 => Ok(reports.remove(0)),
        n => Err(format!("child reported {n} workloads")),
    }
}

/// Measures one workload: the timed child, the traced child, or both.
fn measure(args: &Args, workload: Workload) -> WorkloadReport {
    let mut report = run_config(args, workload).report();
    let modes: &[bool] = match args.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    for &traced in modes {
        let mode = if traced { "traced" } else { "timed" };
        match spawn_child(args, workload, report.seed, traced) {
            Ok(child) => {
                report.attempted += child.attempted;
                report.failed += child.failed;
                report.checks.extend(child.checks);
                report.metrics.extend(child.metrics);
            }
            Err(e) => {
                report.attempted += 1;
                report.failed += 1;
                report.checks.push((format!("{mode}_child"), false, e));
            }
        }
    }
    let expected: Vec<&str> = modes
        .iter()
        .flat_map(|&traced| if traced { PER_LAYER.iter() } else { END_TO_END.iter() })
        .map(|m| m.name)
        .collect();
    let reported: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    if reported != expected {
        report.failed += 1;
        report.checks.push((
            "metrics_complete".to_string(),
            false,
            format!("{} of {} catalogue metrics reported", reported.len(), expected.len()),
        ));
    }
    report
}

fn print_workload(info: &RunInfo, r: &WorkloadReport) {
    println!(
        "== {}: seed {} (held-out {}), at least {} timed reps, {} threads on {} cpus ==",
        r.workload, r.seed, r.held_out_seed, r.min_reps, info.threads, info.nproc
    );
    for (name, passed, detail) in &r.checks {
        println!("  {:<5} {name:<36} {detail}", if *passed { "ok" } else { "FAIL" });
    }
    for m in &r.metrics {
        let unit = metrics::find(&m.name).map_or("", |d| d.unit);
        let s = m.spread;
        if s.n > 1 {
            println!(
                "  {:<26} {:>14} {unit:<12} q1 {} q3 {} n {}",
                m.name,
                fmt_value(s.median),
                fmt_value(s.q1),
                fmt_value(s.q3),
                s.n
            );
        } else {
            println!("  {:<26} {:>14} {unit}", m.name, fmt_value(s.median));
        }
    }
    println!("  attempted {} scenarios, {} failed", r.attempted, r.failed);
}

/// No failed scenario and no failed check anywhere.
fn all_correct(reports: &[WorkloadReport]) -> bool {
    reports.iter().all(|r| r.failed == 0 && r.checks.iter().all(|(_, passed, _)| *passed))
}

/// The closing line: `correct`, `attempted`, `failed` and every metric's
/// median with its unit. With several workloads, metric names carry the
/// workload as a prefix.
fn summary_line(reports: &[WorkloadReport]) -> String {
    let prefixed = reports.len() > 1;
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let correct = all_correct(reports);
    let metrics: Vec<String> = reports
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(move |m| {
                let unit = metrics::find(&m.name).map_or("", |d| d.unit);
                let name =
                    if prefixed { format!("{}.{}", r.workload, m.name) } else { m.name.clone() };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(m.spread.median)
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("noc_bench: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) && !args.smoke {
        eprintln!(
            "noc_bench: timed runs need an optimized build (cargo run --release); use --smoke"
        );
        return ExitCode::from(2);
    }
    if args.child {
        return child(&args);
    }
    let old = match &args.compare {
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| parse_report(&t))
        {
            Ok(old) => Some(old),
            Err(e) => {
                eprintln!("noc_bench: --compare {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    let info = run_info(&args);
    let reports: Vec<WorkloadReport> = args
        .workloads
        .iter()
        .map(|&w| {
            let report = measure(&args, w);
            print_workload(&info, &report);
            report
        })
        .collect();
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, write_report(&info, &reports)) {
            eprintln!("noc_bench: --out {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(old) = old {
        print!("{}", compare_reports(&index(&old), &index(&reports)));
    }
    println!("{}", summary_line(&reports));
    if all_correct(&reports) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

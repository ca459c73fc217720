//! The metric catalogue, the report file the harness writes, and the
//! report-only comparison of two such files.
//!
//! The report is JSON lines written by hand (the workspace carries no
//! JSON crate): one `run` header line, then per workload one `workload`
//! line followed by its `check` and `metric` lines. [`parse_report`]
//! reads back only that format.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Spread;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput, hit rates).
    Higher,
    /// Smaller is better (times, memory, work).
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How two values of a metric compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time, or a rate or share derived from it: noisy, compared
    /// against a bound when it has one.
    Timed,
    /// A count or a simulated statistic: a pure function of the inputs,
    /// so it must repeat exactly.
    Exact,
}

/// One metric the harness reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the old median by which the metric may worsen before a
    /// comparison calls it a regression (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Timed or exact.
    pub kind: Kind,
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None, kind: Kind::Timed }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None, kind: Kind::Exact }
}

const fn bounded(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound), kind: Kind::Timed }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured by the untraced (timed) child. Host
/// times throughout, at reference host speed (see [`crate::calibration`]).
pub const END_TO_END: [MetricDef; 3] = [
    bounded("scenarios_per_s", "scenarios/s", Higher, 0.25),
    bounded("cpu_ms_per_scenario", "ms", Lower, 0.25),
    bounded("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics, measured by the traced child. Every workload
/// reports every one; a layer a workload bypasses reads 0. Busy times
/// are summed span time of the median traced repetition; they and the
/// rates are at reference host speed, and `host.speed` is the measured
/// speed of the host against that reference. Shares are of the summed
/// scenario span time.
pub const PER_LAYER: [MetricDef; 44] = [
    timed("host.speed", "x", Higher),
    exact("peak_heap_mb", "MB", Lower),
    timed("dse.self_s", "s", Lower),
    timed("dse.parallel_efficiency", "frac", Higher),
    exact("dse.cache.map_hit_rate", "frac", Higher),
    exact("dse.cache.route_hit_rate", "frac", Higher),
    exact("dse.cache.map_misses", "count", Lower),
    timed("build.busy_s", "s", Lower),
    exact("map.calls", "count", Lower),
    timed("map.busy_s", "s", Lower),
    timed("map.share", "frac", Lower),
    timed("map.nmap.busy_s", "s", Lower),
    timed("map.pbb.busy_s", "s", Lower),
    exact("map.evaluations", "count", Lower),
    timed("map.evals_per_s", "1/s", Higher),
    exact("route.calls", "count", Lower),
    timed("route.busy_s", "s", Lower),
    timed("route.share", "frac", Lower),
    timed("route.single.busy_s", "s", Lower),
    timed("route.mcf.busy_s", "s", Lower),
    exact("route.mcf.slack_fallbacks", "count", Lower),
    exact("lp.solves", "count", Lower),
    exact("lp.pivots", "count", Lower),
    exact("lp.phase1_pivots", "count", Lower),
    timed("lp.pivots_per_s", "1/s", Higher),
    exact("lp.warm_hit_rate", "frac", Higher),
    exact("sim.calls", "count", Lower),
    timed("sim.busy_s", "s", Lower),
    timed("sim.share", "frac", Lower),
    exact("sim.cycles", "cycles", Lower),
    exact("sim.cycles_executed", "cycles", Lower),
    exact("sim.executed_frac", "frac", Lower),
    exact("sim.flit_hops", "count", Lower),
    timed("sim.ns_per_flit_hop", "ns", Lower),
    exact("sim.packets_delivered", "count", Higher),
    exact("sim.dropped_packets", "count", Lower),
    exact("sim.unfinished_packets", "count", Lower),
    exact("sim.avg_latency_cycles", "cycles", Lower),
    timed("scenario_ms.p50", "ms", Lower),
    timed("scenario_ms.tail", "ms", Lower),
    exact("scenario_ms.tail_pct", "%", Higher),
    exact("scenario_ms.n", "count", Higher),
    timed("trace.overhead_frac", "frac", Lower),
    exact("comm_cost", "hop.MB/s", Lower),
];

/// Looks a metric up by name in both catalogues.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name)
}

/// A number in JSON form: shortest round-trip digits, and `0` in place
/// of a non-finite value (which no metric should produce).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// JSON string body escaping for the short ASCII strings the report holds.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One measured metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// Median, quartiles and sample count.
    pub spread: Spread,
}

/// Everything the harness learned about one workload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs were made from.
    pub seed: u64,
    /// Seed held back for confirming a claimed gain.
    pub held_out_seed: u64,
    /// Minimum timed repetitions per run.
    pub min_reps: usize,
    /// Scenarios attempted (every repetition counts).
    pub attempted: u64,
    /// Error records plus failed checks.
    pub failed: u64,
    /// Correctness checks: name, passed, detail.
    pub checks: Vec<(String, bool, String)>,
    /// Metrics in catalogue order.
    pub metrics: Vec<Measured>,
}

/// Machine facts recorded with every report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunInfo {
    /// `available_parallelism` of the machine.
    pub nproc: usize,
    /// Worker threads the pool used.
    pub threads: usize,
    /// Seconds each run measured for.
    pub seconds: u64,
    /// Reduced-size smoke run.
    pub smoke: bool,
}

/// Report format version.
pub const SCHEMA: &str = "noc-bench/1";

/// The report file: a `run` header line, then per workload one
/// `workload` line, one `check` line per check and one `metric` line per
/// metric. The harness's children speak the same format to the parent.
pub fn write_report(info: &RunInfo, workloads: &[WorkloadReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"run\",\"schema\":\"{SCHEMA}\",\"nproc\":{},\"threads\":{},\
\"seconds\":{},\"smoke\":{}}}",
        info.nproc, info.threads, info.seconds, info.smoke
    );
    for w in workloads {
        let name = json_escape(&w.workload);
        let _ = writeln!(
            out,
            "{{\"type\":\"workload\",\"workload\":\"{name}\",\"seed\":{},\"held_out_seed\":{},\
\"min_reps\":{},\"attempted\":{},\"failed\":{}}}",
            w.seed, w.held_out_seed, w.min_reps, w.attempted, w.failed
        );
        for (check, passed, detail) in &w.checks {
            let _ = writeln!(
                out,
                "{{\"type\":\"check\",\"workload\":\"{name}\",\"check\":\"{}\",\"passed\":{passed},\
\"detail\":\"{}\"}}",
                json_escape(check),
                json_escape(detail)
            );
        }
        for m in &w.metrics {
            let unit = find(&m.name).map_or("", |d| d.unit);
            let _ = writeln!(
                out,
                "{{\"type\":\"metric\",\"workload\":\"{name}\",\"metric\":\"{}\",\"unit\":\"{unit}\",\
\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
                json_escape(&m.name),
                json_number(m.spread.median),
                json_number(m.spread.q1),
                json_number(m.spread.q3),
                m.spread.n
            );
        }
    }
    out
}

/// Extracts `"key":value` pairs from one flat JSON object line as raw
/// strings (string values unquoted). Only the report's own flat lines
/// are supported: no nesting, no escaped quotes inside values.
fn flat_fields(line: &str) -> Option<BTreeMap<String, String>> {
    let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = BTreeMap::new();
    let mut rest = body;
    while !rest.trim().is_empty() {
        let after_key = rest.trim_start().strip_prefix('"')?;
        let (key, after) = after_key.split_once('"')?;
        let after = after.trim_start().strip_prefix(':')?.trim_start();
        let (value, next) = if let Some(quoted) = after.strip_prefix('"') {
            quoted.split_once('"')?
        } else {
            match after.find(',') {
                Some(i) => (after[..i].trim(), &after[i..]),
                None => (after.trim(), ""),
            }
        };
        fields.insert(key.to_string(), value.to_string());
        rest = next.trim_start().strip_prefix(',').unwrap_or(next);
    }
    Some(fields)
}

/// Parses a report written by [`write_report`] back into its workloads.
///
/// # Errors
///
/// A message naming the first line that is not one of the report's
/// lines, or a check or metric line before any workload line.
pub fn parse_report(text: &str) -> Result<Vec<WorkloadReport>, String> {
    let mut workloads: Vec<WorkloadReport> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = || format!("line {}: not a noc-bench report line", i + 1);
        let fields = flat_fields(line).ok_or_else(bad)?;
        let text_field = |k: &str| fields.get(k).cloned().ok_or_else(bad);
        let num = |k: &str| -> Result<f64, String> {
            fields.get(k).and_then(|v| v.parse().ok()).ok_or_else(bad)
        };
        let int = |k: &str| -> Result<u64, String> {
            fields.get(k).and_then(|v| v.parse().ok()).ok_or_else(bad)
        };
        match fields.get("type").map(String::as_str) {
            Some("run") => {
                if fields.get("schema").map(String::as_str) != Some(SCHEMA) {
                    return Err(format!("line {}: unsupported schema", i + 1));
                }
            }
            Some("workload") => workloads.push(WorkloadReport {
                workload: text_field("workload")?,
                seed: int("seed")?,
                held_out_seed: int("held_out_seed")?,
                min_reps: int("min_reps")? as usize,
                attempted: int("attempted")?,
                failed: int("failed")?,
                checks: Vec::new(),
                metrics: Vec::new(),
            }),
            Some("check") => {
                let check =
                    (text_field("check")?, text_field("passed")? == "true", text_field("detail")?);
                workloads.last_mut().ok_or_else(bad)?.checks.push(check);
            }
            Some("metric") => {
                let spread = Spread {
                    median: num("median")?,
                    q1: num("q1")?,
                    q3: num("q3")?,
                    n: int("n")? as usize,
                };
                let name = text_field("metric")?;
                workloads.last_mut().ok_or_else(bad)?.metrics.push(Measured { name, spread });
            }
            _ => return Err(bad()),
        }
    }
    Ok(workloads)
}

/// `(workload, metric) → spread` over every workload of a report.
pub fn index(workloads: &[WorkloadReport]) -> BTreeMap<(String, String), Spread> {
    workloads
        .iter()
        .flat_map(|w| w.metrics.iter().map(|m| ((w.workload.clone(), m.name.clone()), m.spread)))
        .collect()
}

/// The comparison's judgement of one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than both runs' spread.
    Better,
    /// Worse by no more than the bound (or not worse at all).
    WithinBound,
    /// Worse by more than the bound.
    Worse,
    /// A run's quartile spread exceeds the bound: no conclusion.
    Unresolved,
    /// An exact metric repeated exactly.
    Same,
    /// An exact metric changed.
    Changed,
    /// A per-layer timing: reported, not judged.
    Info,
}

impl Verdict {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Changed => "CHANGED",
            Verdict::Info => "info",
        }
    }
}

/// Judges `new` against `old` for metric `def`. The signed change is
/// returned as a share of the old median, positive meaning worse.
pub fn judge(def: &MetricDef, old: &Spread, new: &Spread) -> (f64, Verdict) {
    let delta = if old.median == 0.0 {
        if new.median == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (new.median - old.median) / old.median.abs()
    };
    let worse = match def.better {
        Better::Lower => delta,
        Better::Higher => -delta,
    };
    let verdict = match (def.kind, def.bound) {
        (Kind::Exact, _) => {
            if old.median.to_bits() == new.median.to_bits() {
                Verdict::Same
            } else {
                Verdict::Changed
            }
        }
        (Kind::Timed, None) => Verdict::Info,
        (Kind::Timed, Some(bound)) => {
            let noise = old.relative_iqr().max(new.relative_iqr());
            if noise > bound {
                Verdict::Unresolved
            } else if worse > bound {
                Verdict::Worse
            } else if worse < -noise {
                Verdict::Better
            } else {
                Verdict::WithinBound
            }
        }
    };
    (worse, verdict)
}

/// The comparison table, one line per (workload, metric) present in both
/// reports, plus a line for each pair only one report has.
pub fn compare_reports(
    old: &BTreeMap<(String, String), Spread>,
    new: &BTreeMap<(String, String), Spread>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<26} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "old", "new", "worse by"
    );
    for (key, new_spread) in new {
        let (workload, metric) = key;
        let Some(def) = find(metric) else { continue };
        match old.get(key) {
            Some(old_spread) => {
                let (worse, verdict) = judge(def, old_spread, new_spread);
                let _ = writeln!(
                    out,
                    "{workload:<10} {metric:<26} {:>14} {:>14} {:>8.2}%  {}",
                    fmt_value(old_spread.median),
                    fmt_value(new_spread.median),
                    worse * 100.0,
                    verdict.label()
                );
            }
            None => {
                let _ = writeln!(out, "{workload:<10} {metric:<26} only in the new report");
            }
        }
    }
    for (workload, metric) in old.keys().filter(|k| !new.contains_key(*k)) {
        let _ = writeln!(out, "{workload:<10} {metric:<26} only in the old report");
    }
    out
}

/// A value for a human-readable table: enough digits to tell two runs
/// apart without printing every bit.
pub fn fmt_value(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 1e-3 && v.abs() < 1e7) {
        let s = format!("{v:.6}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        s.to_string()
    } else {
        format!("{v:.4e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(all[..i].iter().all(|o| o.name != m.name), "duplicate {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = find("setup_s").expect("setup_s listed");
        let largest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
    }

    #[test]
    fn report_round_trips() {
        let info = RunInfo { nproc: 2, threads: 2, seconds: 15, smoke: false };
        let w = WorkloadReport {
            workload: "fig5c".into(),
            seed: 7,
            held_out_seed: 9,
            min_reps: 3,
            attempted: 10,
            failed: 0,
            checks: vec![("table3".into(), true, "min-path 600 MB/s; split 200".into())],
            metrics: vec![
                Measured {
                    name: "scenarios_per_s".into(),
                    spread: Spread { median: 31.25, q1: 30.5, q3: 32.0, n: 12 },
                },
                Measured { name: "sim.cycles".into(), spread: Spread::exact(2.4e6) },
            ],
        };
        let text = write_report(&info, std::slice::from_ref(&w));
        let parsed = parse_report(&text).expect("own format parses");
        assert_eq!(parsed, vec![w]);
        let s = index(&parsed)[&("fig5c".to_string(), "scenarios_per_s".to_string())];
        assert_eq!((s.median, s.q1, s.q3, s.n), (31.25, 30.5, 32.0, 12));
        assert!(parse_report("{\"type\":\"run\",\"schema\":\"other/9\"}").is_err());
        assert!(parse_report("not json").is_err());
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let rate = find("scenarios_per_s").expect("listed");
        let s = |median: f64, spread: f64| Spread {
            median,
            q1: median * (1.0 - spread / 2.0),
            q3: median * (1.0 + spread / 2.0),
            n: 10,
        };
        assert_eq!(judge(rate, &s(100.0, 0.02), &s(130.0, 0.02)).1, Verdict::Better);
        assert_eq!(judge(rate, &s(100.0, 0.02), &s(99.0, 0.02)).1, Verdict::WithinBound);
        assert_eq!(judge(rate, &s(100.0, 0.02), &s(70.0, 0.02)).1, Verdict::Worse);
        assert_eq!(judge(rate, &s(100.0, 0.5), &s(130.0, 0.02)).1, Verdict::Unresolved);
        let cycles = find("sim.cycles").expect("listed");
        assert_eq!(judge(cycles, &Spread::exact(5.0), &Spread::exact(5.0)).1, Verdict::Same);
        assert_eq!(judge(cycles, &Spread::exact(5.0), &Spread::exact(6.0)).1, Verdict::Changed);
        let share = find("sim.share").expect("listed");
        assert_eq!(judge(share, &Spread::exact(0.5), &Spread::exact(0.9)).1, Verdict::Info);
    }
}

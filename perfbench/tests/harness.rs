//! End-to-end checks of the `noc_bench` binary at smoke size: every
//! correctness check passes, the printed metrics are exactly the ones
//! `BENCHMARK.json` lists, and exact metrics repeat across runs.

use std::path::PathBuf;
use std::process::Command;

use perfbench::metrics::{
    self, compare_reports, index, judge, parse_report, Kind, Verdict, END_TO_END, PER_LAYER,
};
use perfbench::workload::Workload;

const BIN: &str = env!("CARGO_BIN_EXE_noc_bench");

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory")
}

/// Every `"key": "value"` string value in `text`, in order.
fn string_values<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\": \"");
    text.match_indices(&needle)
        .map(|(i, _)| {
            let rest = &text[i + needle.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

/// Every `"key": number` value in `text`, in order.
fn number_values(text: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\": ");
    text.match_indices(&needle)
        .map(|(i, _)| {
            let rest = &text[i + needle.len()..];
            let end = rest.find([',', '}', '\n']).expect("number ends");
            rest[..end].trim().parse().expect("a number")
        })
        .collect()
}

/// The `BENCHMARK.json` section between `"key":` and the next top-level
/// key (`next`), or the end of the file.
fn section<'a>(text: &'a str, key: &str, next: Option<&str>) -> &'a str {
    let start = text.find(&format!("\"{key}\":")).expect("section present");
    let end = next.map_or(text.len(), |n| text.find(&format!("\"{n}\":")).expect("next section"));
    &text[start..end]
}

fn smoke_run(out: &PathBuf, compare: Option<&PathBuf>) -> String {
    let mut command = Command::new(BIN);
    command.args(["--smoke", "--workload", "all", "--out"]).arg(out);
    if let Some(old) = compare {
        command.arg("--compare").arg(old);
    }
    let output = command.output().expect("noc_bench runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(output.status.success(), "smoke run failed:\n{stdout}");
    stdout
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let text = benchmark_json();
    let workloads = section(&text, "workloads", Some("end_to_end"));
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(string_values(workloads, "name"), names);

    let e2e = section(&text, "end_to_end", Some("per_layer"));
    assert_eq!(string_values(e2e, "name"), END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
    assert_eq!(string_values(e2e, "unit"), END_TO_END.iter().map(|m| m.unit).collect::<Vec<_>>());
    let bounds: Vec<f64> = END_TO_END.iter().map(|m| m.bound.expect("bounded")).collect();
    assert_eq!(number_values(e2e, "bound"), bounds);
    let better: Vec<&str> = END_TO_END.iter().map(|m| m.better.as_str()).collect();
    assert_eq!(string_values(e2e, "better"), better);

    let layer = section(&text, "per_layer", None);
    assert_eq!(string_values(layer, "name"), PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
    assert_eq!(string_values(layer, "unit"), PER_LAYER.iter().map(|m| m.unit).collect::<Vec<_>>());
}

#[test]
fn smoke_runs_pass_every_check_and_repeat_exactly() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let first = dir.join("noc-bench-smoke-1.jsonl");
    let second = dir.join("noc-bench-smoke-2.jsonl");
    let stdout = smoke_run(&first, None);
    let last = stdout.lines().last().expect("a closing line");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");

    let report = parse_report(&std::fs::read_to_string(&first).expect("report written"))
        .expect("report parses");
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(report.iter().map(|w| w.workload.as_str()).collect::<Vec<_>>(), names);
    let catalogue: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name).collect();
    for w in &report {
        assert_eq!(w.failed, 0, "{}", w.workload);
        assert!(w.attempted > 0);
        for (check, passed, detail) in &w.checks {
            assert!(passed, "{}: {check} failed: {detail}", w.workload);
        }
        let printed: Vec<&str> = w.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(printed, catalogue, "{}", w.workload);
        for m in &w.metrics {
            let def = metrics::find(&m.name).expect("catalogued");
            assert!(!def.unit.is_empty());
            assert!(
                last.contains(&format!("\"{}.{}\": {{\"value\": ", w.workload, m.name)),
                "{}.{} missing from the closing line",
                w.workload,
                m.name
            );
        }
    }

    let stdout = smoke_run(&second, Some(&first));
    let again = parse_report(&std::fs::read_to_string(&second).expect("report written"))
        .expect("report parses");
    let (old, new) = (index(&report), index(&again));
    for (key, spread) in &new {
        let def = metrics::find(&key.1).expect("catalogued");
        if def.kind == Kind::Exact {
            assert_eq!(judge(def, &old[key], spread).1, Verdict::Same, "{key:?} changed");
        }
    }
    assert!(!compare_reports(&old, &new).contains("CHANGED"));
    assert!(stdout.contains(" verdict"), "the comparison table is printed");
}

#[test]
fn timed_runs_refuse_a_debug_build() {
    if !cfg!(debug_assertions) {
        return;
    }
    let output = Command::new(BIN).args(["--workload", "fig5c"]).output().expect("runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "no result is printed");
}

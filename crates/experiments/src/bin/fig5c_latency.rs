//! Regenerates Figure 5(c): average packet latency vs link bandwidth for
//! the DSP filter NoC, single-path vs split-traffic routing.
//!
//! `--profile <path>` dumps the instrumentation profile (simulator
//! executed/skipped-cycle counters) as JSON lines.

use std::process::ExitCode;

use noc_experiments::fig5c::{run_probed, Fig5cConfig};
use noc_experiments::profile_cli::ProfileFlag;
use noc_experiments::report::{fmt, TextTable};

fn main() -> ExitCode {
    let flag = match ProfileFlag::from_env("usage: fig5c_latency [--profile <path>]") {
        Ok(flag) => flag,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(1);
        }
    };
    println!("Figure 5(c) — avg packet latency (cycles) vs link bandwidth, DSP NoC");
    println!("(wormhole simulator, 64 B packets, 7-cycle switch delay, bursty sources)\n");
    let points = run_probed(&Fig5cConfig::default(), &flag.probe);
    let mut table = TextTable::new([
        "BW (GB/s)",
        "Minp (cy)",
        "Split (cy)",
        "Minp net (cy)",
        "Split net (cy)",
        "notes",
    ]);
    for p in points {
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
            fmt(p.minpath_network_latency, 1),
            fmt(p.split_network_latency, 1),
            notes.trim().to_string(),
        ]);
    }
    print!("{}", table.render());
    if let Err(msg) = flag.write() {
        eprintln!("error: {msg}");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

//! DSP-filter NoC simulation: the full Section 7.2 flow.
//!
//! Maps the 6-core DSP filter design onto a 3×2 mesh, derives single-path
//! and split-traffic routing tables, then runs the flit-level wormhole
//! simulator at a few link bandwidths to show the latency difference that
//! the paper's Figure 5(c) plots.
//!
//! Run with: `cargo run --release --example dsp_noc_sim`

use nmap_suite::dse::flows_from_tables;
use nmap_suite::graph::Topology;
use nmap_suite::sim::{SimConfig, Simulator};
use noc_experiments::fig5c::design_dsp;

fn main() {
    let design = design_dsp();
    println!("DSP filter design (Table 3):");
    println!("  min-path link bandwidth needed: {:.0} MB/s", design.minpath_bw);
    println!("  split-traffic link bandwidth:   {:.0} MB/s", design.split_bw);

    println!("\nmapping:");
    for (core, node) in design.mapping.assignments() {
        let (x, y) = design.problem.topology().coords(node);
        println!("  {:8} -> ({x}, {y})", design.problem.cores().name(core));
    }

    println!("\nrouting tables (split design):");
    for c in design.problem.commodities(&design.mapping) {
        let routes = design.split_tables.routes_of(c.edge);
        let e = design.problem.cores().edge(c.edge);
        println!(
            "  {:8} -> {:8} {:4.0} MB/s over {} path(s)",
            design.problem.cores().name(e.src),
            design.problem.cores().name(e.dst),
            c.value,
            routes.len()
        );
    }

    println!("\nwormhole simulation (64 B packets, 7-cycle switches, bursty sources):");
    println!("{:>10} {:>12} {:>12}", "BW (GB/s)", "minp (cy)", "split (cy)");
    for bw in [1_100.0, 1_400.0, 1_800.0] {
        let topology = Topology::mesh(3, 2, bw);
        let mut latencies = Vec::new();
        for tables in [&design.minpath_tables, &design.split_tables] {
            let flows = flows_from_tables(&design.problem, &design.mapping, tables);
            let mut sim = Simulator::new(&topology, flows, SimConfig::default());
            let report = sim.run();
            latencies.push(report.avg_latency_cycles());
        }
        println!("{:>10.1} {:>12.1} {:>12.1}", bw / 1000.0, latencies[0], latencies[1]);
    }
    println!("\nsplit routing absorbs bursts that single-path routing queues up.");
}

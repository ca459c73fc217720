//! The paper's headline quantitative claims, as executable assertions.
//!
//! These tests run the real experiment pipelines on the smaller
//! configurations so the suite stays fast; the full-scale numbers live in
//! EXPERIMENTS.md and are regenerated by `nmap_dse --all`.

use nmap_suite::baselines::{pbb, PbbOptions};
use nmap_suite::graph::{RandomGraphConfig, Topology};
use nmap_suite::nmap::{
    map_single_path, map_with_splitting, MappingProblem, McfKind, PathScope, SinglePathOptions,
    SplitOptions,
};
use noc_experiments::fig5c::design_dsp;
use noc_experiments::mapper_comparison::{mapper_comparison_set, MapperComparison};
use noc_experiments::table3;

/// §7.1 / Figure 4: "significant reduction in bandwidth needs with
/// traffic splitting" — split-traffic routing must need at most as much
/// bandwidth as single-path on every app, and strictly less on average.
#[test]
fn splitting_reduces_bandwidth_needs_across_apps() {
    let records = nmap_suite::dse::run_scenarios(mapper_comparison_set().scenarios(), 0);
    let rows = MapperComparison::from_records(&records).fig4;
    let mut single_sum = 0.0;
    let mut split_sum = 0.0;
    for row in &rows {
        assert!(
            row.nmapta <= row.nmap + 1e-6,
            "{}: NMAPTA {} above single-path {}",
            row.app,
            row.nmapta,
            row.nmap
        );
        single_sum += row.nmap;
        split_sum += row.nmapta;
    }
    let saving = 1.0 - split_sum / single_sum;
    // The paper reports ~53% average savings; our reconstructed graphs
    // land in the same ballpark — demand at least 25%.
    assert!(
        saving > 0.25,
        "average bandwidth saving {:.0}% too small for the paper's claim",
        saving * 100.0
    );
}

/// Table 2's trend: on larger random graphs NMAP beats the
/// budget-truncated PBB.
#[test]
fn nmap_beats_pbb_at_scale() {
    let graph = RandomGraphConfig { cores: 30, ..Default::default() }.generate(11);
    let (w, h) = Topology::fit_mesh_dims(30);
    let problem = MappingProblem::new(graph, Topology::mesh(w, h, 1e9)).unwrap();
    let nmap_cost = map_single_path(&problem, &SinglePathOptions::default()).unwrap().comm_cost;
    let pbb_cost =
        pbb(&problem, &PbbOptions { max_queue: 2_000, max_expansions: 20_000 }).comm_cost;
    assert!(
        nmap_cost < pbb_cost,
        "NMAP {nmap_cost} should beat truncated PBB {pbb_cost} at 30 cores"
    );
}

/// Table 3's measured rows: the DSP design needs 600 MB/s links with
/// single-path routing and 200 MB/s with split routing.
#[test]
fn table3_bandwidth_rows() {
    let t = table3::run();
    assert_eq!(t.minpath_bw_mbps, 600.0);
    assert!((t.split_bw_mbps - 200.0).abs() < 1.0);
    // Echoed paper constants stay pinned.
    assert_eq!(t.ni_area_mm2, 0.6);
    assert_eq!(t.switch_area_mm2, 1.08);
    assert_eq!(t.switch_delay_cycles, 7);
    assert_eq!(t.packet_bytes, 64);
}

/// §6: "splitting the traffic ... easing the satisfaction of bandwidth
/// constraints" — a design infeasible under any single-path routing
/// becomes feasible with split-traffic NMAP.
#[test]
fn split_routing_eases_bandwidth_constraints() {
    // One 360 MB/s flow, 200 MB/s links: single path can never fit;
    // splitting over two disjoint routes (180 + 180) fits.
    let mut g = nmap_suite::graph::CoreGraph::new();
    let a = g.add_core("a");
    let b = g.add_core("b");
    g.add_comm(a, b, 360.0).unwrap();
    let problem = MappingProblem::new(g, Topology::mesh(2, 2, 200.0)).unwrap();

    let single = map_single_path(&problem, &SinglePathOptions::default()).unwrap();
    assert!(!single.feasible, "single path cannot carry 360 over 200 MB/s links");

    let split =
        map_with_splitting(&problem, &SplitOptions { scope: PathScope::AllPaths, passes: 1 })
            .unwrap();
    assert_eq!(split.solution.kind, McfKind::FlowMin, "split routing must satisfy the constraints");
    assert!(split.solution.link_loads.within_capacity(problem.topology()));
}

/// §5's runtime claim ("completes in few seconds"): mapping a 16-core
/// application must be fast even in a debug-friendly test environment.
#[test]
fn nmap_runs_fast_on_paper_sized_instances() {
    let problem =
        MappingProblem::new(nmap_suite::apps::vopd(), Topology::mesh(4, 4, 2_000.0)).unwrap();
    let start = std::time::Instant::now();
    let out = map_single_path(&problem, &SinglePathOptions::default()).unwrap();
    let elapsed = start.elapsed();
    assert!(out.feasible);
    assert!(elapsed < std::time::Duration::from_secs(30), "VOPD mapping took {elapsed:?}");
}

/// Figure 5(c)'s design flow produces the expected split structure: the
/// hot FFT⇄Filter commodities ride three paths each, everything else one.
#[test]
fn dsp_split_design_structure() {
    let design = design_dsp();
    let commodities = design.problem.commodities(&design.mapping);
    let mut three_way = 0;
    for c in &commodities {
        let n = design.split_tables.routes_of(c.edge).len();
        if c.value.to_f64() == 600.0 {
            assert_eq!(n, 3);
            three_way += 1;
        } else {
            assert_eq!(n, 1);
        }
    }
    assert_eq!(three_way, 2);
}

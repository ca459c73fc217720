//! Figure 5(c): average packet latency vs link bandwidth for the DSP
//! filter NoC, single-minimum-path routing vs split-traffic routing.
//!
//! Pipeline (mirroring Section 7.2): NMAP maps the 6-core DSP graph onto a
//! 3×2 mesh; a split-aware polish pass settles cost ties so the hot
//! FFT⇄Filter pair lands on the two degree-3 centre nodes (the placement
//! Table 3's 200 MB/s split bandwidth requires); routing tables — single
//! path from the greedy router, split from per-commodity MCF sizing — are
//! loaded into the wormhole simulator as source routes; bursty traffic
//! generators replay the core graph's average rates; the link bandwidth is
//! swept from 1.1 to 1.8 GB/s. This module builds the design and holds
//! the sweep's data types; the sweep itself runs through the engine pool
//! in [`crate::dse_bridge::fig5c_via_engine`].
//!
//! **Split sizing semantics** (DESIGN.md §6): Table 3's "split BW" is the
//! per-flow link provisioning — each commodity is split over just enough
//! equal-share minimal-interference paths that its largest per-link share
//! is ≤ the design target, where the target is the best achievable
//! `max_k (value_k / maxflow_k)`. For the DSP design that is
//! 600 MB/s ÷ 3 paths = 200 MB/s. An *aggregate* 200 MB/s max link load is
//! provably impossible on a 6-node mesh (only two nodes have degree 3),
//! so the aggregate min-max LP is reported separately by Figure 4-style
//! analyses, not here.

use nmap::{
    map_single_path,
    mcf::{solve_mcf_for, McfKind, PathScope},
    Commodity, Mapping, MappingProblem, RoutingTables, SinglePathOptions,
};
use noc_apps::dsp_filter;
use noc_graph::{NodeId, Topology};
use noc_sim::{LoopKind, SimConfig};

use crate::GENEROUS_CAPACITY;

/// One sweep point of Figure 5(c). The primary latencies count from
/// packet generation to tail ejection (the delay a core observes,
/// including NI queueing — where wormhole backpressure accumulates);
/// `*_network` count from network entry only.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5cPoint {
    /// Uniform link bandwidth in MB/s.
    pub bandwidth_mbps: f64,
    /// Average packet latency (cycles), single-min-path routing.
    pub minpath_latency: f64,
    /// Average packet latency (cycles), split-traffic routing.
    pub split_latency: f64,
    /// Network-only latency, single-path.
    pub minpath_network_latency: f64,
    /// Network-only latency, split.
    pub split_network_latency: f64,
    /// Saturation flags (latency numbers are optimistic when saturated).
    pub minpath_saturated: bool,
    /// Saturation flag for the split run.
    pub split_saturated: bool,
}

/// Sweep parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5cConfig {
    /// Link bandwidths to sweep, MB/s (paper: 1100–1800).
    pub bandwidths_mbps: Vec<f64>,
    /// Simulator settings.
    pub sim: SimConfig,
    /// Which simulator main loop runs the sweep. Both kinds are
    /// bit-identical (pinned by the sim crate's identity suites); the
    /// choice only affects wall time, which is what the EXPERIMENTS.md
    /// timing rows compare.
    pub loop_kind: LoopKind,
}

impl Default for Fig5cConfig {
    fn default() -> Self {
        Self {
            bandwidths_mbps: (11..=18).map(|b| b as f64 * 100.0).collect(),
            sim: SimConfig::default(),
            loop_kind: LoopKind::default(),
        }
    }
}

/// The mapped DSP design: placement plus both routing-table sets.
#[derive(Debug, Clone)]
pub struct DspDesign {
    /// The mapping problem (graph + reference mesh).
    pub problem: MappingProblem,
    /// NMAP's placement after the split-aware polish.
    pub mapping: Mapping,
    /// Single-minimum-path routing tables.
    pub minpath_tables: RoutingTables,
    /// Split-traffic routing tables (per-commodity equal-share splits).
    pub split_tables: RoutingTables,
    /// Maximum aggregate link load under the single-path tables (MB/s) —
    /// Table 3's "minp BW".
    pub minpath_bw: f64,
    /// Per-flow link provisioning under splitting (MB/s) — Table 3's
    /// "split BW".
    pub split_bw: f64,
}

/// Per-flow link sizing of one commodity: the smallest per-link capacity
/// that can carry the commodity alone with optimal splitting
/// (`value / maxflow`, from a single-commodity min-max-load LP).
fn solo_sizing(topology: &Topology, commodity: &Commodity) -> f64 {
    solve_mcf_for(topology, &[*commodity], McfKind::MinMaxLoad, PathScope::AllPaths)
        .expect("single-commodity min-max LP is always feasible")
        .objective
}

/// The design's split target: `max_k solo_sizing(k)` for `mapping`.
fn split_target(problem: &MappingProblem, mapping: &Mapping) -> f64 {
    problem
        .commodities(mapping)
        .iter()
        .filter(|c| !c.value.is_zero())
        .map(|c| solo_sizing(problem.topology(), c))
        .fold(0.0, f64::max)
}

/// Maps the DSP filter and derives both routing-table sets.
pub fn design_dsp() -> DspDesign {
    let problem = MappingProblem::new(dsp_filter(), Topology::mesh(3, 2, GENEROUS_CAPACITY))
        .expect("6 cores fit a 3x2 mesh");
    let out =
        map_single_path(&problem, &SinglePathOptions::default()).expect("mesh routing succeeds");

    // Split-aware polish: explore pairwise swaps, accepting those that
    // lower (split target, comm cost) lexicographically. This settles the
    // cost ties of the swap loop in favour of placements where hot flows
    // can split widest (the paper's split design).
    let mut mapping = out.mapping;
    let mut best_target = split_target(&problem, &mapping);
    let mut best_cost = problem.comm_cost(&mapping);
    let n = problem.topology().node_count();
    for _pass in 0..2 {
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (NodeId::new(i), NodeId::new(j));
                if mapping.core_at(a).is_none() && mapping.core_at(b).is_none() {
                    continue;
                }
                let mut candidate = mapping.clone();
                candidate.swap_nodes(a, b);
                let cost = problem.comm_cost(&candidate);
                if cost > best_cost {
                    continue; // never trade cost away
                }
                let target = split_target(&problem, &candidate);
                if target < best_target - 1e-9 || (target < best_target + 1e-9 && cost < best_cost)
                {
                    best_target = target;
                    best_cost = cost;
                    mapping = candidate;
                }
            }
        }
    }

    // Single-path tables and their aggregate worst link load.
    let (paths, loads) =
        nmap::routing::route_min_paths(&problem, &mapping).expect("mesh routing succeeds");
    let minpath_tables = RoutingTables::from_single_paths(&paths);

    // Split tables: each commodity is split over just enough paths to meet
    // the target; commodities already within the target keep their single
    // minimal path (no needless reordering exposure).
    let sizing_topology = Topology::mesh(3, 2, best_target * (1.0 + 1e-9));
    let commodities = problem.commodities(&mapping);
    let mut split_routes = vec![Vec::new(); commodities.len()];
    for c in &commodities {
        if c.value.is_zero() {
            continue;
        }
        if c.value.to_f64() <= best_target + 1e-6 {
            let single = &minpath_tables.routes_of(c.edge)[0];
            split_routes[c.edge.index()] = vec![single.clone()];
        } else {
            let solo =
                solve_mcf_for(&sizing_topology, &[*c], McfKind::FlowMin, PathScope::AllPaths)
                    .expect("solo flow fits its own sizing");
            split_routes[c.edge.index()] = solo.tables.routes_of(c.edge).to_vec();
        }
    }

    DspDesign {
        minpath_bw: loads.max(),
        split_bw: best_target,
        minpath_tables,
        split_tables: RoutingTables::from_split_routes(split_routes),
        mapping,
        problem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsp_design_matches_table3_bandwidths() {
        // Table 3: "minp BW 600 MB/s, split BW 200 MB/s".
        let design = design_dsp();
        assert_eq!(design.minpath_bw, 600.0, "min-path BW");
        assert!((design.split_bw - 200.0).abs() < 1.0, "split BW {} (paper: 200)", design.split_bw);
    }

    #[test]
    fn hot_pair_lands_on_centre_nodes() {
        let design = design_dsp();
        let g = design.problem.cores();
        let fft = g.cores().find(|&c| g.name(c) == "fft").unwrap();
        let filter = g.cores().find(|&c| g.name(c) == "filter").unwrap();
        for core in [fft, filter] {
            let node = design.mapping.node_of(core).unwrap();
            assert_eq!(
                design.problem.topology().degree(node),
                3,
                "{} must sit on a degree-3 centre node",
                g.name(core)
            );
        }
    }

    #[test]
    fn hot_flows_split_three_ways() {
        let design = design_dsp();
        let commodities = design.problem.commodities(&design.mapping);
        for c in &commodities {
            let routes = design.split_tables.routes_of(c.edge);
            if c.value.to_f64() == 600.0 {
                assert_eq!(routes.len(), 3, "600 MB/s flow must split 3 ways");
                for r in routes {
                    assert!(c.value.to_f64() * r.fraction <= 200.0 + 1e-6);
                }
            } else {
                assert_eq!(routes.len(), 1, "200 MB/s flows stay single-path");
            }
        }
    }

    #[test]
    fn flows_cover_all_commodities() {
        let design = design_dsp();
        let flows =
            noc_dse::flows_from_tables(&design.problem, &design.mapping, &design.minpath_tables);
        assert_eq!(flows.len(), 8); // the DSP graph's 8 edges
        let total: f64 = flows.iter().map(|f| f.rate_mbps.to_f64()).sum();
        assert_eq!(total, 2_400.0); // 6x200 + 2x600
    }

    #[test]
    fn one_point_split_is_not_slower() {
        // Single fast spot check: at a tight bandwidth the split routing
        // should not be slower than min-path (the Figure 5(c) ordering).
        let config = Fig5cConfig {
            bandwidths_mbps: vec![1_200.0],
            sim: SimConfig {
                warmup_cycles: 2_000,
                measure_cycles: 30_000,
                drain_cycles: 10_000,
                ..SimConfig::default()
            },
            ..Fig5cConfig::default()
        };
        let points = crate::dse_bridge::fig5c_via_engine(&config, 1);
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert!(p.minpath_latency > 0.0 && p.split_latency > 0.0);
        assert!(
            p.split_latency <= p.minpath_latency * 1.05,
            "split {} vs minpath {}",
            p.split_latency,
            p.minpath_latency
        );
    }
}

//! Topology selection (the paper's Section 8 future-work extension):
//! "the approach can be extended to map cores onto various NoC topologies
//! for fast and efficient design space exploration."
//!
//! For each application and each candidate fabric (meshes and tori of
//! several aspect ratios), run NMAP and record cost, bandwidth needs
//! under both routing regimes, and mapper runtime. The winner columns
//! show which fabric minimizes cost and which minimizes the split-traffic
//! link budget.

use std::time::{Duration, Instant};

use nmap::{
    map_single_path, mcf::solve_mcf, MappingProblem, McfKind, PathScope, SinglePathOptions,
};
use noc_apps::App;
use noc_graph::Topology;

use crate::UNLIMITED_CAPACITY;

/// Result of mapping one application onto one candidate fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateResult {
    /// Fabric description, e.g. "mesh 4x4".
    pub fabric: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Directed link count (cost proxy for wiring).
    pub links: usize,
    /// Equation-7 communication cost of the NMAP mapping.
    pub comm_cost: f64,
    /// Max link load under single-path routing (MB/s).
    pub bw_single: f64,
    /// Min-max link load under all-path splitting (MB/s).
    pub bw_split: f64,
    /// NMAP runtime.
    pub elapsed: Duration,
}

/// Candidate fabrics for `cores` cores, each with
/// `cores ≤ nodes ≤ 2·cores`: the one-row `cores × 1` mesh, every mesh
/// with `width ≥ height ≥ 2` and every torus with `width ≥ height ≥ 3`.
pub fn candidate_fabrics(cores: usize) -> Vec<Topology> {
    let mut out = Vec::new();
    for h in 1..=cores {
        for w in h..=cores.max(2) {
            let nodes = w * h;
            if nodes < cores || nodes > cores * 2 {
                continue;
            }
            out.push(Topology::mesh(w, h, UNLIMITED_CAPACITY));
            if w >= 3 && h >= 3 {
                out.push(Topology::torus(w, h, UNLIMITED_CAPACITY));
            }
        }
    }
    out
}

/// Runs the exploration for one application.
pub fn explore(app: App) -> Vec<CandidateResult> {
    let graph = app.core_graph();
    candidate_fabrics(graph.core_count())
        .into_iter()
        .map(|topology| {
            let fabric = topology.kind().describe();
            let nodes = topology.node_count();
            let links = topology.link_count();
            let problem = MappingProblem::new(graph.clone(), topology).expect("candidate fits");
            let start = Instant::now();
            let out = map_single_path(&problem, &SinglePathOptions::default())
                .expect("mesh/torus routing succeeds");
            let bw_split =
                solve_mcf(&problem, &out.mapping, McfKind::MinMaxLoad, PathScope::AllPaths)
                    .expect("min-max LP is always feasible")
                    .objective;
            CandidateResult {
                fabric,
                nodes,
                links,
                comm_cost: out.comm_cost.to_f64(),
                bw_single: out.link_loads.max(),
                bw_split,
                elapsed: start.elapsed(),
            }
        })
        .collect()
}

/// The candidate minimizing communication cost (ties: fewer links, then
/// name) — the "selected" fabric.
pub fn best_by_cost(results: &[CandidateResult]) -> Option<&CandidateResult> {
    results.iter().min_by(|a, b| {
        a.comm_cost
            .partial_cmp(&b.comm_cost)
            .expect("costs are finite")
            .then(a.links.cmp(&b.links))
            .then(a.fabric.cmp(&b.fabric))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_cover_meshes_and_tori() {
        let fabrics = candidate_fabrics(8);
        assert!(fabrics.len() >= 3);
        let names: Vec<String> = fabrics.iter().map(|f| f.kind().describe()).collect();
        assert!(names.iter().any(|n| n.starts_with("mesh")));
        assert!(names.iter().any(|n| n.starts_with("torus")));
        for f in &fabrics {
            assert!(f.node_count() >= 8 && f.node_count() <= 16);
        }
    }

    #[test]
    fn exploration_finds_a_torus_no_worse_than_its_mesh() {
        let results = explore(App::Pip);
        let mesh33 = results.iter().find(|r| r.fabric == "mesh 3x3").expect("mesh 3x3");
        let torus33 = results.iter().find(|r| r.fabric == "torus 3x3").expect("torus 3x3");
        assert!(torus33.comm_cost <= mesh33.comm_cost + 1e-9);
        assert!(best_by_cost(&results).is_some());
    }

    #[test]
    fn split_bandwidth_never_exceeds_single_path() {
        for r in explore(App::Pip) {
            assert!(
                r.bw_split <= r.bw_single + 1e-6,
                "{}: split {} > single {}",
                r.fabric,
                r.bw_split,
                r.bw_single
            );
        }
    }
}

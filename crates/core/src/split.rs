//! `mappingwithsplitting()` — Section 6 of the paper.
//!
//! The same initialize-then-pairwise-swap skeleton as the single-path
//! algorithm, but candidate placements are scored by multi-commodity-flow
//! programs instead of a deterministic router:
//!
//! * While no bandwidth-feasible placement is known, swaps are scored by
//!   **MCF1** slack (Equation 8) and the search descends toward
//!   feasibility.
//! * Once a feasible placement is found, swaps are scored by **MCF2**
//!   total flow (Equation 9) and the search minimizes communication cost.
//!
//! One [`solve_mcf_or_slack`] call scores each placement and decides
//! which program applies; the incumbent keeps its solution, so the winner
//! is never solved twice.
//!
//! One deviation from the printed pseudocode, recorded in DESIGN.md §6:
//! when the search first reaches feasibility, that mapping's MCF2 score
//! seeds `Bestmapping` (the paper's listing leaves `bestcommcost` at
//! `maxvalue` until the *next* improving swap, which would discard the
//! discovered feasible mapping if no later swap also evaluates below it).

use noc_graph::NodeId;
use noc_units::HopMbps;

use crate::mcf::{solve_mcf_or_slack, McfKind, McfSolution, McfSolveStats, PathScope};
use crate::{initialize, Mapping, MappingProblem, Result};

/// Tuning knobs for [`map_with_splitting`].
#[derive(Debug, Clone, PartialEq)]
pub struct SplitOptions {
    /// Which links each commodity may use: [`PathScope::AllPaths`] is the
    /// paper's NMAPTA, [`PathScope::Quadrant`] the low-jitter NMAPTM.
    pub scope: PathScope,
    /// Number of full pairwise-swap sweeps (the paper performs one).
    pub passes: usize,
}

impl Default for SplitOptions {
    fn default() -> Self {
        Self { scope: PathScope::AllPaths, passes: 1 }
    }
}

impl SplitOptions {
    /// Checks the options, returning the first violation as a message —
    /// the single source of the option constraints, shared by
    /// [`map_with_splitting`] and the `.dse` spec parser.
    ///
    /// # Errors
    ///
    /// A human-readable message when `passes` is zero.
    pub fn check(&self) -> std::result::Result<(), String> {
        if self.passes == 0 {
            return Err("passes must be at least 1 (the paper performs one sweep)".into());
        }
        Ok(())
    }
}

/// Result of [`map_with_splitting`].
#[derive(Debug, Clone, PartialEq)]
pub struct SplitOutcome {
    /// The best placement found.
    pub mapping: Mapping,
    /// Equation-7 communication cost of `mapping` (hops × bandwidth,
    /// independent of routing; for cross-algorithm comparison).
    pub comm_cost: HopMbps,
    /// The split routing of `mapping`, as the search scored it: MCF2's
    /// optimum (kind [`McfKind::FlowMin`], objective the total flow) if
    /// split routing satisfies every bandwidth constraint, else MCF1's
    /// (kind [`McfKind::SlackMin`], objective the least slack found).
    pub solution: McfSolution,
    /// Placements scored, the start included, one solve call each.
    pub evaluations: usize,
    /// The LP work of every scoring solve, summed.
    pub stats: McfSolveStats,
}

/// Runs NMAP with split-traffic routing (the paper's
/// `mappingwithsplitting()` routine).
///
/// # Errors
///
/// [`crate::MapError::InvalidOptions`] when `options` fail
/// [`SplitOptions::check`]; otherwise the first error of a scoring solve:
/// [`crate::MapError::Lp`] on an iteration limit, or when a commodity's
/// endpoints are disconnected.
pub fn map_with_splitting(
    problem: &MappingProblem,
    options: &SplitOptions,
) -> Result<SplitOutcome> {
    options.check().map_err(crate::MapError::InvalidOptions)?;
    let node_count = problem.topology().node_count();
    let mut evaluations = 0usize;
    let mut stats = McfSolveStats::default();
    let mut score = |mapping: &Mapping| {
        evaluations += 1;
        let commodities = problem.commodities(mapping);
        let (solution, work) = solve_mcf_or_slack(problem.topology(), &commodities, options.scope);
        stats += work;
        solution
    };

    let mut placed = initialize(problem);
    let mut best = placed.clone();
    let mut incumbent = score(&placed)?;

    for _ in 0..options.passes {
        for i in 0..node_count {
            for j in (i + 1)..node_count {
                let a = NodeId::new(i);
                let b = NodeId::new(j);
                if placed.core_at(a).is_none() && placed.core_at(b).is_none() {
                    continue;
                }
                let mut candidate = placed.clone();
                candidate.swap_nodes(a, b);
                let solution = score(&candidate)?;
                // Slack competes with slack and flow with flow: once a
                // placement is feasible, infeasible ones score `maxvalue`.
                let first_feasible =
                    incumbent.kind == McfKind::SlackMin && solution.kind == McfKind::FlowMin;
                let better =
                    solution.kind == incumbent.kind && solution.objective < incumbent.objective;
                if first_feasible {
                    placed = candidate.clone(); // the sweep continues from it
                }
                if first_feasible || better {
                    incumbent = solution;
                    best = candidate;
                }
            }
            placed = best.clone();
        }
    }

    Ok(SplitOutcome {
        comm_cost: problem.comm_cost(&best),
        mapping: best,
        solution: incumbent,
        evaluations,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_graph::{CoreGraph, CoreId, EdgeId, Topology};

    fn pipeline(n: usize, bw: f64) -> CoreGraph {
        let mut g = CoreGraph::new();
        let ids: Vec<CoreId> = (0..n).map(|i| g.add_core(format!("s{i}"))).collect();
        for w in ids.windows(2) {
            g.add_comm(w[0], w[1], bw).unwrap();
        }
        g
    }

    #[test]
    fn feasible_problem_minimizes_flow() {
        let p = MappingProblem::new(pipeline(4, 100.0), Topology::mesh(2, 2, 1e9)).unwrap();
        let out = map_with_splitting(&p, &SplitOptions::default()).unwrap();
        assert_eq!(out.solution.kind, McfKind::FlowMin);
        // Ample capacity: optimal flow puts every edge on 1 hop.
        let flow = out.solution.objective;
        assert!((flow - 300.0).abs() < 1e-4, "flow {flow}");
        assert!((out.comm_cost.to_f64() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn splitting_rescues_infeasible_single_path() {
        // 300 MB/s flow, 160 MB/s links: single-path can never fit, split
        // routing can (150+150 across the two disjoint routes of a 2x2).
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 300.0).unwrap();
        let p = MappingProblem::new(g, Topology::mesh(2, 2, 160.0)).unwrap();
        let out = map_with_splitting(&p, &SplitOptions::default()).unwrap();
        assert_eq!(
            out.solution.kind,
            McfKind::FlowMin,
            "split routing must satisfy 300 over 2x160 paths"
        );
        assert!(out.solution.link_loads.within_capacity(p.topology()));
        assert!(out.solution.tables.routes_of(EdgeId::new(0)).len() >= 2, "traffic must split");
    }

    #[test]
    fn truly_infeasible_reports_min_slack() {
        // 300 MB/s flow, 100 MB/s links on 2x2: max deliverable between
        // adjacent nodes is 200 (two paths share no link), slack >= 100.
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 300.0).unwrap();
        let p = MappingProblem::new(g, Topology::mesh(2, 2, 100.0)).unwrap();
        let out = map_with_splitting(&p, &SplitOptions::default()).unwrap();
        assert_eq!(out.solution.kind, McfKind::SlackMin);
        let slack = out.solution.objective;
        assert!((slack - 100.0).abs() < 1e-4, "slack {slack}");
    }

    #[test]
    fn quadrant_scope_keeps_paths_minimal() {
        let p = MappingProblem::new(pipeline(4, 120.0), Topology::mesh(2, 2, 1e9)).unwrap();
        let out = map_with_splitting(&p, &SplitOptions { scope: PathScope::Quadrant, passes: 1 })
            .unwrap();
        assert_eq!(out.solution.kind, McfKind::FlowMin);
        let commodities = p.commodities(&out.mapping);
        for c in &commodities {
            let min_hops = p.topology().hop_distance(c.source, c.dest);
            for r in out.solution.tables.routes_of(c.edge) {
                assert_eq!(r.links.len(), min_hops, "NMAPTM route not minimal");
            }
        }
    }

    #[test]
    fn split_cost_not_worse_than_single_path() {
        use crate::{map_single_path, SinglePathOptions};
        let p = MappingProblem::new(pipeline(5, 200.0), Topology::mesh(3, 2, 1e9)).unwrap();
        let single = map_single_path(&p, &SinglePathOptions::default()).unwrap();
        let split = map_with_splitting(&p, &SplitOptions::default()).unwrap();
        // With ample capacity both should find minimal embeddings; the MCF
        // total flow equals the Eq-7 cost at the optimum.
        assert_eq!(split.solution.kind, McfKind::FlowMin);
        assert!(split.solution.objective <= single.comm_cost.to_f64() + 1e-6);
    }

    #[test]
    fn lp_solve_count_is_tracked() {
        let p = MappingProblem::new(pipeline(3, 10.0), Topology::mesh(2, 2, 1e9)).unwrap();
        let out = map_with_splitting(&p, &SplitOptions::default()).unwrap();
        // The start plus all C(4,2) = 6 swaps (one node is empty, so no
        // pair is skipped); every minimum-hop start fits, so each
        // evaluation solves exactly one program, MCF2.
        assert_eq!(out.evaluations, 7);
        assert_eq!(out.stats.solves, 7, "{:?}", out.stats);
        assert!(out.stats.rounds >= 7 && out.stats.columns >= 7, "{:?}", out.stats);
    }

    #[test]
    fn loads_and_tables_agree() {
        let p = MappingProblem::new(pipeline(4, 150.0), Topology::mesh(2, 2, 200.0)).unwrap();
        let out = map_with_splitting(&p, &SplitOptions::default()).unwrap();
        let commodities = p.commodities(&out.mapping);
        let recomputed = out.solution.tables.link_loads(p.topology(), &commodities);
        for (id, _) in p.topology().links() {
            assert!(
                (out.solution.link_loads.get(id) - recomputed.get(id)).abs() < 1e-3,
                "link {id} mismatch"
            );
        }
    }
}

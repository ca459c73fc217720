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
//! One deviation from the printed pseudocode, recorded in DESIGN.md §6:
//! when the search first reaches feasibility we immediately score that
//! mapping with MCF2 and seed `Bestmapping` from it (the paper's listing
//! leaves `bestcommcost` at `maxvalue` until the *next* improving swap,
//! which would discard the discovered feasible mapping if no later swap
//! also evaluates below it).

use noc_graph::NodeId;
use noc_units::HopMbps;

use crate::mcf::{solve_mcf, McfKind, McfSolution, PathScope, SLACK_EPSILON};
use crate::routing::{LinkLoads, RoutingTables};
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
    /// MCF2 objective of the final flow (total flow over all links), when
    /// feasible.
    // lint: allow(f64-api) — `f64::INFINITY` is the documented
    // not-feasible sentinel, which no non-negative quantity type admits.
    pub total_flow: f64,
    /// Final MCF1 slack: 0 when `feasible`, otherwise the smallest total
    /// capacity violation the search could reach.
    // lint: allow(f64-api) — LP objective; simplex round-off can dip a
    // mathematically-zero slack below 0, outside `Mbps`'s invariant.
    pub slack: f64,
    /// Whether the bandwidth constraints are satisfiable by split routing
    /// under this placement.
    pub feasible: bool,
    /// Split routing tables of the final flow.
    pub tables: RoutingTables,
    /// Aggregate link loads of the final flow.
    pub link_loads: LinkLoads,
    /// Number of LP solves performed (diagnostics).
    pub lp_solves: usize,
}

/// Runs NMAP with split-traffic routing (the paper's
/// `mappingwithsplitting()` routine).
///
/// # Errors
///
/// [`crate::MapError::InvalidOptions`] when `options` fail
/// [`SplitOptions::check`]; otherwise propagates LP failures as
/// [`crate::MapError::Lp`] (iteration limits; MCF1 and the final
/// extraction never report infeasibility).
pub fn map_with_splitting(
    problem: &MappingProblem,
    options: &SplitOptions,
) -> Result<SplitOutcome> {
    options.check().map_err(crate::MapError::InvalidOptions)?;
    let node_count = problem.topology().node_count();
    let mut lp_solves = 0usize;

    let mut placed = initialize(problem);
    let mut best = placed.clone();

    let mut feasible = false;
    let mut best_slack = mcf1(problem, &placed, options.scope, &mut lp_solves)?;
    let mut best_flow = f64::INFINITY;

    if best_slack <= SLACK_EPSILON {
        feasible = true;
        best_flow = mcf2(problem, &placed, options.scope, &mut lp_solves)?;
        best = placed.clone();
    }

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

                if !feasible {
                    let slack = mcf1(problem, &candidate, options.scope, &mut lp_solves)?;
                    if slack <= SLACK_EPSILON {
                        feasible = true;
                        best_flow = mcf2(problem, &candidate, options.scope, &mut lp_solves)?;
                        best = candidate.clone();
                        placed = candidate;
                    } else if slack < best_slack {
                        best_slack = slack;
                        best = candidate;
                    }
                } else {
                    let flow = mcf2(problem, &candidate, options.scope, &mut lp_solves)?;
                    if flow < best_flow {
                        best_flow = flow;
                        best = candidate;
                    }
                }
            }
            placed = best.clone();
        }
    }

    // Final flow extraction on the winning mapping.
    let final_solution: McfSolution = if feasible {
        solve_mcf(problem, &best, McfKind::FlowMin, options.scope)?
    } else {
        solve_mcf(problem, &best, McfKind::SlackMin, options.scope)?
    };
    let slack = if feasible { 0.0 } else { final_solution.objective };
    let total_flow = if feasible { final_solution.objective } else { f64::INFINITY };

    Ok(SplitOutcome {
        comm_cost: problem.comm_cost(&best),
        mapping: best,
        total_flow,
        slack,
        feasible,
        tables: final_solution.tables,
        link_loads: final_solution.link_loads,
        lp_solves,
    })
}

fn mcf1(
    problem: &MappingProblem,
    mapping: &Mapping,
    scope: PathScope,
    lp_solves: &mut usize,
) -> Result<f64> {
    *lp_solves += 1;
    Ok(solve_mcf(problem, mapping, McfKind::SlackMin, scope)?.objective)
}

fn mcf2(
    problem: &MappingProblem,
    mapping: &Mapping,
    scope: PathScope,
    lp_solves: &mut usize,
) -> Result<f64> {
    *lp_solves += 1;
    match solve_mcf(problem, mapping, McfKind::FlowMin, scope) {
        Ok(sol) => Ok(sol.objective),
        // A capacity-infeasible candidate scores `maxvalue`, mirroring the
        // single-path algorithm's treatment.
        Err(e) if crate::mcf::is_infeasible(&e) => Ok(f64::INFINITY),
        Err(e) => Err(e),
    }
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
        assert!(out.feasible);
        assert_eq!(out.slack, 0.0);
        // Ample capacity: optimal flow puts every edge on 1 hop.
        assert!((out.total_flow - 300.0).abs() < 1e-4, "flow {}", out.total_flow);
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
        assert!(out.feasible, "split routing must satisfy 300 over 2x160 paths");
        assert!(out.link_loads.within_capacity(p.topology()));
        assert!(out.tables.routes_of(EdgeId::new(0)).len() >= 2, "traffic must split");
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
        assert!(!out.feasible);
        assert!((out.slack - 100.0).abs() < 1e-4, "slack {}", out.slack);
        assert!(out.total_flow.is_infinite());
    }

    #[test]
    fn quadrant_scope_keeps_paths_minimal() {
        let p = MappingProblem::new(pipeline(4, 120.0), Topology::mesh(2, 2, 1e9)).unwrap();
        let out = map_with_splitting(&p, &SplitOptions { scope: PathScope::Quadrant, passes: 1 })
            .unwrap();
        assert!(out.feasible);
        let commodities = p.commodities(&out.mapping);
        for c in &commodities {
            let min_hops = p.topology().hop_distance(c.source, c.dest);
            for r in out.tables.routes_of(c.edge) {
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
        assert!(split.total_flow <= single.comm_cost.to_f64() + 1e-6);
    }

    #[test]
    fn lp_solve_count_is_tracked() {
        let p = MappingProblem::new(pipeline(3, 10.0), Topology::mesh(2, 2, 1e9)).unwrap();
        let out = map_with_splitting(&p, &SplitOptions::default()).unwrap();
        assert!(out.lp_solves >= 2, "at least MCF1 + MCF2 on the initial mapping");
    }

    #[test]
    fn loads_and_tables_agree() {
        let p = MappingProblem::new(pipeline(4, 150.0), Topology::mesh(2, 2, 200.0)).unwrap();
        let out = map_with_splitting(&p, &SplitOptions::default()).unwrap();
        let commodities = p.commodities(&out.mapping);
        let recomputed = out.tables.link_loads(p.topology(), &commodities);
        for (id, _) in p.topology().links() {
            assert!(
                (out.link_loads.get(id) - recomputed.get(id)).abs() < 1e-3,
                "link {id} mismatch"
            );
        }
    }
}

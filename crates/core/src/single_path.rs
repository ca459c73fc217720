//! `mappingwithsinglepath()` — Section 5 of the paper.
//!
//! Three phases:
//! 1. [`initialize`] builds a constructive placement.
//! 2. The candidate placement is evaluated by the `shortestpath()` routine:
//!    load-balanced minimal-path routing ([`routing::route_min_paths`])
//!    followed by the bandwidth check of Inequality 3; feasible mappings
//!    score their Equation-7 communication cost, infeasible ones score
//!    `maxvalue` (here `f64::INFINITY`).
//! 3. Pairwise-swap improvement: for every pair of mesh positions the swap
//!    is evaluated and the best mapping found so far is committed after
//!    each inner scan, exactly as in the paper's pseudocode.

use noc_graph::NodeId;
use noc_units::{HopMbps, Score};

use crate::routing::{self, CommodityPath, LinkLoads, RoutingTables};
use crate::{initialize, EvalContext, MapError, Mapping, MappingProblem, Result};

/// Tuning knobs for [`map_single_path`].
#[derive(Debug, Clone, PartialEq)]
pub struct SinglePathOptions {
    /// Number of full pairwise-swap sweeps per restart. The paper performs
    /// one; additional passes squeeze out further gains at linear cost.
    /// Must be at least 1 ([`SinglePathOptions::check`]).
    pub passes: usize,
    /// Number of deterministic restarts. Restart `r > 0` relocates the
    /// seed placement to a different anchor node before the swap loop, so
    /// the search explores several basins (an extension over the paper's
    /// single descent; `restarts: 1` reproduces the paper exactly).
    /// Must be at least 1 ([`SinglePathOptions::check`]).
    pub restarts: usize,
}

impl Default for SinglePathOptions {
    fn default() -> Self {
        Self { passes: 2, restarts: 8 }
    }
}

impl SinglePathOptions {
    /// The paper's literal configuration: one descent, one sweep.
    pub fn paper_exact() -> Self {
        Self { passes: 1, restarts: 1 }
    }

    /// Checks the options, returning the first violation as a message —
    /// the single source of the option constraints (mirrors
    /// [`noc_sim` `SimConfig::check`][simcheck]; the `.dse` spec parser
    /// rejects invalid configurations up front with the same predicate,
    /// and the mapping entry points return [`MapError::InvalidOptions`]
    /// instead of silently clamping).
    ///
    /// [simcheck]: https://docs.rs/noc-sim
    ///
    /// # Errors
    ///
    /// A human-readable message when `passes` or `restarts` is zero.
    pub fn check(&self) -> std::result::Result<(), String> {
        if self.passes == 0 {
            return Err("passes must be at least 1 (the paper performs one sweep)".into());
        }
        if self.restarts == 0 {
            return Err("restarts must be at least 1 (the paper runs one descent)".into());
        }
        Ok(())
    }
}

/// Relative width of the delta-gate safety margin: a candidate is skipped
/// only when its estimated cost clears the incumbent by more than this
/// fraction of the magnitudes involved. Summing a few hundred `bw × hops`
/// terms keeps relative rounding error near 1e-13, so 1e-9 is orders of
/// magnitude conservative — the gate can only *pass* extra candidates
/// (harmless: the full evaluation re-rejects them), never skip a winner.
const DELTA_GATE_MARGIN: f64 = 1e-9;

/// Result of [`map_single_path`].
#[derive(Debug, Clone, PartialEq)]
pub struct SinglePathOutcome {
    /// The best placement found.
    pub mapping: Mapping,
    /// Equation-7 communication cost of `mapping` (hops × bandwidth).
    pub comm_cost: HopMbps,
    /// Whether the routed traffic satisfies every link capacity.
    pub feasible: bool,
    /// The single-path route of each commodity (commodity order).
    pub paths: Vec<CommodityPath>,
    /// Aggregate link loads of `paths`.
    pub link_loads: LinkLoads,
    /// Source-routing tables equivalent to `paths`.
    pub tables: RoutingTables,
    /// Number of candidate placements evaluated (diagnostics).
    pub evaluations: usize,
}

/// Runs NMAP with single minimum-path routing (the paper's
/// `mappingwithsinglepath()` routine).
///
/// # Errors
///
/// Propagates [`crate::MapError::Unroutable`] from the router on
/// disconnected custom topologies.
pub fn map_single_path(
    problem: &MappingProblem,
    options: &SinglePathOptions,
) -> Result<SinglePathOutcome> {
    map_single_path_with(&mut EvalContext::new(problem), options)
}

/// [`map_single_path`] driven through a caller-owned [`EvalContext`], so
/// repeated runs on the same problem (e.g. option sweeps) share the
/// quadrant-DAG cache and scratch buffers across calls in addition to the
/// sharing every single call's restarts already get. Results are
/// identical to [`map_single_path`].
///
/// # Errors
///
/// [`MapError::InvalidOptions`] when `options` fail
/// [`SinglePathOptions::check`]; otherwise the same conditions as
/// [`map_single_path`].
pub fn map_single_path_with(
    ctx: &mut EvalContext<'_>,
    options: &SinglePathOptions,
) -> Result<SinglePathOutcome> {
    options.check().map_err(MapError::InvalidOptions)?;
    let problem = ctx.problem();
    let node_count = problem.topology().node_count();
    let restarts = options.restarts;
    let mut evaluations = 0usize;

    let seed = initialize(problem);
    let mut best_cost = Score::INFEASIBLE;
    let mut best: Option<Mapping> = None;

    for restart in 0..restarts {
        // Anchor the seed's content at a different node each restart so the
        // descent starts in a different basin; restart 0 is the paper's
        // untouched initialize() placement.
        let mut placed = seed.clone();
        if restart > 0 {
            let anchor = NodeId::new((restart * node_count) / restarts);
            let origin = seed.assignments().next().map(|(_, node)| node).unwrap_or(anchor);
            placed.swap_nodes(origin, anchor);
        }
        let (cost, mapping) = swap_descent(ctx, placed, options.passes, &mut evaluations)?;
        if cost < best_cost || best.is_none() {
            best_cost = cost;
            best = Some(mapping);
        }
    }
    let best = best.expect("at least one restart ran");

    // Final full evaluation of the winner.
    let (paths, link_loads) = routing::route_min_paths(problem, &best)?;
    let feasible = link_loads.within_capacity(problem.topology());
    let comm_cost = problem.comm_cost(&best);
    let tables = RoutingTables::from_single_paths(&paths);
    Ok(SinglePathOutcome {
        mapping: best,
        comm_cost,
        feasible,
        paths,
        link_loads,
        tables,
        evaluations,
    })
}

/// One multi-pass pairwise-swap descent (the paper's improvement loop).
///
/// The `shortestpath()` score of each candidate is computed through the
/// shared [`EvalContext`] — cached quadrant DAGs, reused scratch buffers,
/// and the same lazy-feasibility shortcut as always: candidates whose
/// placement-only Equation-7 cost cannot beat the incumbent skip the
/// expensive routing-based capacity check.
///
/// A second, cheaper gate runs first: the O(deg)
/// [`EvalContext::swap_delta`] estimates the candidate cost as
/// `cost(placed) + delta`, and candidates that cannot beat the incumbent
/// even after a conservative rounding margin skip the candidate clone and
/// the O(E) scan entirely. Every candidate still counts one evaluation —
/// the gate changes what an evaluation *costs*, not which candidates are
/// considered — and a gated-out candidate is exactly one `evaluate` would
/// have scored `INFINITY` without routing, so outcomes are bit-identical
/// to the ungated descent (the reference in the `swap_delta_identity`
/// integration suite).
fn swap_descent(
    ctx: &mut EvalContext<'_>,
    mut placed: Mapping,
    passes: usize,
    evaluations: &mut usize,
) -> Result<(Score, Mapping)> {
    let node_count = ctx.problem().topology().node_count();
    *evaluations += 1;
    let mut best_cost = ctx.evaluate(&placed, Score::INFEASIBLE)?;
    let mut best = placed.clone();
    // Exact Equation-7 cost of `placed` — the base the delta gate adds to.
    // Kept bit-exact: on commit it is the accepted candidate's evaluate()
    // score, which *is* comm_cost for any feasible score. Raw f64 here so
    // the gate arithmetic is the exact op sequence of the pre-typed code.
    let mut placed_cost = ctx.comm_cost(&placed).to_f64();
    for _ in 0..passes {
        for i in 0..node_count {
            for j in (i + 1)..node_count {
                let a = NodeId::new(i);
                let b = NodeId::new(j);
                // Swapping two empty positions changes nothing.
                if placed.core_at(a).is_none() && placed.core_at(b).is_none() {
                    continue;
                }
                *evaluations += 1;
                let delta = ctx.swap_delta(&placed, a, b).to_f64();
                let margin = DELTA_GATE_MARGIN * (1.0 + placed_cost.abs() + delta.abs());
                if placed_cost + delta - margin >= best_cost.to_f64() {
                    // Even optimistically the candidate cannot beat the
                    // incumbent: evaluate() would return INFINITY from its
                    // threshold gate without routing. Skip the O(E)
                    // confirmation scan.
                    ctx.counters.gate_rejects.inc();
                    continue;
                }
                ctx.counters.gate_accepts.inc();
                let mut candidate = placed.clone();
                candidate.swap_nodes(a, b);
                let cost = ctx.evaluate(&candidate, best_cost)?;
                if cost < best_cost {
                    best_cost = cost;
                    best = candidate;
                }
            }
            placed = best.clone();
            if let Some(cost) = best_cost.cost() {
                placed_cost = cost.to_f64();
            }
        }
    }
    Ok((best_cost, best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_graph::{CoreGraph, CoreId, Topology};

    fn pipeline(n: usize, bw: f64) -> CoreGraph {
        let mut g = CoreGraph::new();
        let ids: Vec<CoreId> = (0..n).map(|i| g.add_core(format!("s{i}"))).collect();
        for w in ids.windows(2) {
            g.add_comm(w[0], w[1], bw).unwrap();
        }
        g
    }

    #[test]
    fn pipeline_reaches_optimal_cost() {
        // 4-stage pipeline on 2x2: optimal cost = every edge on one hop.
        let p = MappingProblem::new(pipeline(4, 100.0), Topology::mesh(2, 2, 1e9)).unwrap();
        let out = map_single_path(&p, &SinglePathOptions::default()).unwrap();
        assert_eq!(out.comm_cost.to_f64(), 300.0);
        assert!(out.feasible);
    }

    #[test]
    fn six_stage_pipeline_on_3x2() {
        let p = MappingProblem::new(pipeline(6, 50.0), Topology::mesh(3, 2, 1e9)).unwrap();
        let out = map_single_path(&p, &SinglePathOptions::default()).unwrap();
        // Snake embedding gives every edge 1 hop: cost 250.
        assert_eq!(out.comm_cost.to_f64(), 250.0, "expected snake embedding");
    }

    #[test]
    fn swaps_improve_on_initialization() {
        // A graph crafted so the greedy init is suboptimal: two hubs.
        let mut g = CoreGraph::new();
        let ids: Vec<CoreId> = (0..8).map(|i| g.add_core(format!("c{i}"))).collect();
        g.add_comm(ids[0], ids[1], 100.0).unwrap();
        g.add_comm(ids[0], ids[2], 100.0).unwrap();
        g.add_comm(ids[0], ids[3], 100.0).unwrap();
        g.add_comm(ids[4], ids[5], 100.0).unwrap();
        g.add_comm(ids[4], ids[6], 100.0).unwrap();
        g.add_comm(ids[4], ids[7], 100.0).unwrap();
        g.add_comm(ids[0], ids[4], 10.0).unwrap();
        let p = MappingProblem::new(g, Topology::mesh(3, 3, 1e9)).unwrap();
        let init = initialize(&p);
        let init_cost = p.comm_cost(&init);
        let out = map_single_path(&p, &SinglePathOptions::default()).unwrap();
        assert!(out.comm_cost <= init_cost);
        assert!(out.feasible);
    }

    #[test]
    fn capacity_constraints_steer_the_search() {
        // Two 100 MB/s flows and 120 MB/s links: mappings that stack both
        // flows on one link are infeasible and must be rejected.
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        let c = g.add_core("c");
        let d = g.add_core("d");
        g.add_comm(a, b, 100.0).unwrap();
        g.add_comm(c, d, 100.0).unwrap();
        let p = MappingProblem::new(g, Topology::mesh(2, 2, 120.0)).unwrap();
        let out = map_single_path(&p, &SinglePathOptions::default()).unwrap();
        assert!(out.feasible, "a feasible mapping exists and must be found");
        assert!(out.link_loads.max() <= 120.0 + 1e-9);
    }

    #[test]
    fn extra_passes_never_hurt() {
        let p = MappingProblem::new(pipeline(6, 50.0), Topology::mesh(3, 3, 1e9)).unwrap();
        let one = map_single_path(&p, &SinglePathOptions { passes: 1, restarts: 1 }).unwrap();
        let three = map_single_path(&p, &SinglePathOptions { passes: 3, restarts: 1 }).unwrap();
        assert!(three.comm_cost <= one.comm_cost);
    }

    #[test]
    fn restarts_never_hurt() {
        let p = MappingProblem::new(pipeline(6, 50.0), Topology::mesh(3, 3, 1e9)).unwrap();
        let single = map_single_path(&p, &SinglePathOptions { passes: 1, restarts: 1 }).unwrap();
        let multi = map_single_path(&p, &SinglePathOptions { passes: 1, restarts: 6 }).unwrap();
        assert!(multi.comm_cost <= single.comm_cost);
    }

    #[test]
    fn evaluation_count_is_bounded() {
        let p = MappingProblem::new(pipeline(4, 10.0), Topology::mesh(2, 2, 1e9)).unwrap();
        let out = map_single_path(&p, &SinglePathOptions::paper_exact()).unwrap();
        // 1 initial + at most C(4,2) = 6 swap evaluations.
        assert!(out.evaluations <= 7, "evaluations {}", out.evaluations);
    }

    #[test]
    fn outcome_is_internally_consistent() {
        let p = MappingProblem::new(pipeline(5, 80.0), Topology::mesh(3, 2, 1e9)).unwrap();
        let out = map_single_path(&p, &SinglePathOptions::default()).unwrap();
        assert_eq!(out.comm_cost, p.comm_cost(&out.mapping));
        let commodities = p.commodities(&out.mapping);
        let recomputed = out.tables.link_loads(p.topology(), &commodities);
        for (id, _) in p.topology().links() {
            assert!((out.link_loads.get(id) - recomputed.get(id)).abs() < 1e-9);
        }
        // Routed cost equals Eq-7 cost because all paths are minimal.
        let routed_cost: HopMbps = out
            .paths
            .iter()
            .map(|path| commodities[path.edge.index()].value * noc_units::Hops::new(path.hops()))
            .sum();
        assert!((routed_cost - out.comm_cost).to_f64().abs() < 1e-9);
    }

    #[test]
    fn works_on_torus_topology() {
        let p = MappingProblem::new(pipeline(6, 100.0), Topology::torus(3, 3, 1e9)).unwrap();
        let out = map_single_path(&p, &SinglePathOptions::default()).unwrap();
        assert!(out.feasible);
        assert_eq!(out.comm_cost.to_f64(), 500.0, "ring embedding should be perfect on a torus");
    }

    #[test]
    fn zero_passes_or_restarts_are_rejected_not_clamped() {
        use crate::MapError;
        let p = MappingProblem::new(pipeline(4, 10.0), Topology::mesh(2, 2, 1e9)).unwrap();
        for bad in [
            SinglePathOptions { passes: 0, restarts: 1 },
            SinglePathOptions { passes: 1, restarts: 0 },
        ] {
            assert!(bad.check().is_err());
            match map_single_path(&p, &bad) {
                Err(MapError::InvalidOptions(msg)) => {
                    assert!(msg.contains("at least 1"), "message: {msg}")
                }
                other => panic!("expected InvalidOptions, got {other:?}"),
            }
        }
        assert!(SinglePathOptions::default().check().is_ok());
        assert!(SinglePathOptions::paper_exact().check().is_ok());
    }

    #[test]
    fn shared_context_reproduces_fresh_runs() {
        // One EvalContext reused across runs (the noc-dse usage pattern)
        // must give byte-identical outcomes to fresh map_single_path calls.
        let p = MappingProblem::new(pipeline(6, 50.0), Topology::mesh(3, 3, 120.0)).unwrap();
        let mut ctx = EvalContext::new(&p);
        let opts = SinglePathOptions::default();
        let fresh = map_single_path(&p, &opts).unwrap();
        let first = map_single_path_with(&mut ctx, &opts).unwrap();
        let second = map_single_path_with(&mut ctx, &opts).unwrap();
        assert_eq!(first, fresh);
        assert_eq!(second, fresh);
        assert!(ctx.built_quadrants() > 0);
    }

    #[test]
    fn infeasible_capacities_reported_not_hidden() {
        // One 500 MB/s flow, 100 MB/s links: no single-path mapping fits.
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 500.0).unwrap();
        let p = MappingProblem::new(g, Topology::mesh(2, 2, 100.0)).unwrap();
        let out = map_single_path(&p, &SinglePathOptions::default()).unwrap();
        assert!(!out.feasible);
        assert!(out.link_loads.max() > 100.0);
    }
}

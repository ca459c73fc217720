//! Deterministic tabu search over pairwise swaps.
//!
//! Each iteration scans every node pair with the O(deg)
//! [`EvalContext::swap_delta`] kernel and applies the best admissible
//! move — even an uphill one, which is how the search escapes the local
//! minima the plain descent stops at. A move just taken is *tabu*
//! (forbidden) for the next [`TabuOptions::tenure`] iterations unless it
//! aspires: it would improve on the best cost seen so far. Ties break
//! toward the first pair in scan order, so the whole search is a pure
//! function of the problem — no seed needed.
//!
//! Feasibility follows the paper's regime: candidate incumbents are
//! confirmed with the full lazy-feasibility [`EvalContext::evaluate`]
//! (exact cost + bandwidth check); only confirmed-feasible placements
//! can win.

use noc_graph::NodeId;
use noc_probe::Value;
use noc_units::Score;

use super::search_outcome;
use crate::{initialize, EvalContext, MapError, Mapping, Result};

/// Iteration interval between `tabu.sample` trajectory events when a
/// live probe is attached (~16 samples over the default budget).
const TABU_SAMPLE_EVERY: usize = 4;

/// Tuning knobs for [`tabu_search`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TabuOptions {
    /// Number of tabu iterations (one applied move each).
    pub iterations: usize,
    /// How many iterations a just-taken move stays forbidden.
    pub tenure: usize,
}

impl Default for TabuOptions {
    /// 64 iterations, tenure 8 — enough to cross the basins the plain
    /// descent is trapped in on the bundled applications.
    fn default() -> Self {
        Self { iterations: 64, tenure: 8 }
    }
}

impl TabuOptions {
    /// Checks the options, returning the first violation as a message
    /// (single source of the constraints; used by the `.dse` parser and
    /// [`tabu_search`]).
    ///
    /// # Errors
    ///
    /// A human-readable message when a knob is out of range.
    pub fn check(&self) -> std::result::Result<(), String> {
        if self.iterations == 0 {
            return Err("tabu iterations must be at least 1".into());
        }
        if self.tenure == 0 {
            return Err(
                "tabu tenure must be at least 1 (0 is plain best-move hill climbing)".into()
            );
        }
        Ok(())
    }
}

/// Tabu-tenure pairwise-swap search (`.dse` keyword `tabu`) from NMAP's
/// constructive placement. Returns the placement and the number of
/// candidate placements examined.
///
/// # Errors
///
/// [`MapError::InvalidOptions`] when `options` fail
/// [`TabuOptions::check`]; otherwise only the router's
/// [`MapError::Unroutable`].
pub fn tabu_search(ctx: &mut EvalContext<'_>, options: &TabuOptions) -> Result<(Mapping, usize)> {
    options.check().map_err(MapError::InvalidOptions)?;
    let problem = ctx.problem();
    let n = problem.topology().node_count();
    let mut current = initialize(problem);
    let mut evaluations = 1usize;
    let mut best_score = ctx.evaluate(&current, Score::INFEASIBLE)?;
    let mut best = current.clone();
    // Raw f64 cost tracking, exactly refreshed each iteration — the
    // typed seams are evaluate()/swap_delta().
    let mut current_cost = ctx.comm_cost(&current).to_f64();
    let mut best_any_cost = current_cost;
    let mut best_any = current.clone();
    // `tabu_until[i * n + j]`: the move (i, j) is forbidden while
    // `iter <= tabu_until`.
    let mut tabu_until = vec![0usize; n * n];

    for iter in 1..=options.iterations {
        if (iter - 1) % TABU_SAMPLE_EVERY == 0 && ctx.probe().is_enabled() {
            ctx.probe().emit(
                "tabu.sample",
                &[
                    ("iter", Value::from(iter)),
                    ("current_cost", Value::from(current_cost)),
                    ("best_cost", Value::from(best_any_cost)),
                ],
            );
        }
        let mut chosen: Option<(NodeId, NodeId, f64)> = None;
        for i in 0..n {
            for j in (i + 1)..n {
                let a = NodeId::new(i);
                let b = NodeId::new(j);
                if current.core_at(a).is_none() && current.core_at(b).is_none() {
                    continue;
                }
                evaluations += 1;
                let delta = ctx.swap_delta(&current, a, b).to_f64();
                let tabu = tabu_until[i * n + j] >= iter;
                let aspires = current_cost + delta < best_any_cost;
                if tabu && !aspires {
                    continue;
                }
                if chosen.is_none_or(|(_, _, d)| delta < d) {
                    chosen = Some((a, b, delta));
                }
            }
        }
        // Every admissible pair was empty↔empty or tabu: stuck.
        let Some((a, b, _)) = chosen else { break };
        current.swap_nodes(a, b);
        // Exact refresh (one O(E) scan per iteration) keeps the
        // aspiration comparisons drift-free.
        current_cost = ctx.comm_cost(&current).to_f64();
        tabu_until[a.index() * n + b.index()] = iter + options.tenure;
        if current_cost < best_any_cost {
            best_any_cost = current_cost;
            best_any = current.clone();
        }
        if current_cost < best_score.to_f64() {
            let score = ctx.evaluate(&current, best_score)?;
            if score < best_score {
                best_score = score;
                best = current.clone();
            }
        }
    }
    Ok((search_outcome(best_score, best, best_any), evaluations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{routing, MappingProblem};
    use noc_graph::{CoreGraph, CoreId, RandomGraphConfig, Topology};

    fn problem(seed: u64) -> MappingProblem {
        let g = RandomGraphConfig { cores: 9, ..Default::default() }.generate(seed);
        MappingProblem::new(g, Topology::mesh(3, 3, 2_000.0)).unwrap()
    }

    fn run(p: &MappingProblem, options: &TabuOptions) -> Result<(Mapping, usize)> {
        tabu_search(&mut EvalContext::new(p), options)
    }

    /// Whether min-path routing of `mapping` meets every link capacity.
    fn feasible(p: &MappingProblem, mapping: &Mapping) -> bool {
        routing::route_min_paths(p, mapping).unwrap().1.within_capacity(p.topology())
    }

    #[test]
    fn tabu_is_deterministic_and_scores_consistently() {
        let p = problem(2);
        let a = run(&p, &TabuOptions::default()).unwrap();
        assert_eq!(a, run(&p, &TabuOptions::default()).unwrap(), "tabu has no random state");
        assert!(feasible(&p, &a.0));
    }

    #[test]
    fn tabu_does_not_lose_to_the_constructive_seed() {
        for seed in 0..3 {
            let p = problem(seed);
            let init_cost = p.comm_cost(&crate::initialize(&p));
            let (mapping, _) = run(&p, &TabuOptions::default()).unwrap();
            assert!(p.comm_cost(&mapping).to_f64() <= init_cost.to_f64() + 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn uphill_moves_are_taken_when_tenure_blocks_the_reverse() {
        // On a 2-node fabric with one core, the only move oscillates;
        // tenure forbids the immediate reverse, so the search must stop
        // (all moves tabu, nothing aspires) instead of looping forever.
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 10.0).unwrap();
        let p = MappingProblem::new(g, Topology::mesh(2, 1, 1_000.0)).unwrap();
        let (mapping, _) = run(&p, &TabuOptions { iterations: 50, tenure: 10 }).unwrap();
        assert!(feasible(&p, &mapping));
        assert_eq!(
            p.comm_cost(&mapping),
            noc_units::hop_mbps(10.0),
            "both placements cost one hop"
        );
    }

    #[test]
    fn infeasible_capacity_reported_not_hidden() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 500.0).unwrap();
        let p = MappingProblem::new(g, Topology::mesh(2, 2, 100.0)).unwrap();
        let (mapping, _) = run(&p, &TabuOptions::default()).unwrap();
        assert!(!feasible(&p, &mapping));
        assert!(mapping.node_of(CoreId::new(0)).is_some());
    }

    #[test]
    fn invalid_options_error_instead_of_running() {
        let p = problem(0);
        for bad in
            [TabuOptions { iterations: 0, tenure: 1 }, TabuOptions { iterations: 5, tenure: 0 }]
        {
            assert!(bad.check().is_err());
            let got = run(&p, &bad);
            assert!(matches!(got, Err(MapError::InvalidOptions(_))), "{got:?}");
        }
    }
}

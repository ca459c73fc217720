//! Seeded simulated annealing over pairwise swaps.
//!
//! The move set is exactly the descent's ([`Mapping::swap_nodes`]:
//! core↔core swaps and core→free-slot moves); proposals are scored by the
//! O(deg) [`EvalContext::swap_delta`] kernel, so a move costs far less
//! than a full Equation-7 scan. Feasibility is handled the way the
//! paper's search handles it: whenever the walk reaches a cost that could
//! beat the feasible incumbent, the full lazy-feasibility
//! [`EvalContext::evaluate`] confirms (exact cost + bandwidth check), and
//! only confirmed-feasible placements become the incumbent.
//!
//! Determinism: the random stream is `ChaCha8` seeded from the
//! caller's seed — in DSE sweeps that is the *scenario* seed, never
//! worker identity, so parallel sweep output stays byte-identical.

use noc_probe::Value;
use noc_units::Score;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::search_outcome;
use crate::{initialize, EvalContext, MapError, Mapping, Result};

/// Proposed-move interval between `sa.sample` trajectory events when a
/// live probe is attached (~20 samples over the default budget).
const SA_SAMPLE_EVERY: usize = 1_000;

/// Tuning knobs for [`anneal`].
#[derive(Debug, Clone, PartialEq)]
pub struct SaOptions {
    /// Number of proposed moves (the annealing budget).
    pub moves: usize,
    /// Initial temperature as a *fraction of the seed placement's cost*,
    /// so the schedule adapts to the problem's cost scale.
    // lint: allow(f64-api) — dimensionless fraction of the seed cost.
    pub initial_temp: f64,
    /// Geometric cooling factor applied after every proposed move, in
    /// `(0, 1]`.
    // lint: allow(f64-api) — dimensionless geometric factor.
    pub cooling: f64,
}

impl Default for SaOptions {
    /// `20_000` moves, `T₀ = 5%` of the seed cost, cooling `0.9995` —
    /// the temperature decays by ~4–5 orders of magnitude over the run.
    fn default() -> Self {
        Self { moves: 20_000, initial_temp: 0.05, cooling: 0.9995 }
    }
}

impl SaOptions {
    /// Checks the options, returning the first violation as a message
    /// (the single source of the constraints; the `.dse` parser and
    /// [`anneal`] both use it).
    ///
    /// # Errors
    ///
    /// A human-readable message when a knob is out of range.
    pub fn check(&self) -> std::result::Result<(), String> {
        if self.moves == 0 {
            return Err("sa moves must be at least 1".into());
        }
        if !(self.initial_temp.is_finite() && self.initial_temp > 0.0) {
            return Err(format!(
                "sa initial temperature must be positive, got {}",
                self.initial_temp
            ));
        }
        if !(self.cooling.is_finite() && self.cooling > 0.0 && self.cooling <= 1.0) {
            return Err(format!("sa cooling must be in (0, 1], got {}", self.cooling));
        }
        Ok(())
    }
}

/// Uniform `[0, 1)` draw from the top 53 bits of one `next_u64`.
fn unit(rng: &mut ChaCha8Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Simulated annealing (`.dse` keyword `sa`) from NMAP's constructive
/// placement. `seed` drives the ChaCha proposal/acceptance stream; in DSE
/// sweeps it is the scenario seed. Returns the placement and the number
/// of candidate placements examined.
///
/// # Errors
///
/// [`MapError::InvalidOptions`] when `options` fail [`SaOptions::check`];
/// otherwise only the router's [`MapError::Unroutable`].
pub fn anneal(
    ctx: &mut EvalContext<'_>,
    options: &SaOptions,
    seed: u64,
) -> Result<(Mapping, usize)> {
    options.check().map_err(MapError::InvalidOptions)?;
    let problem = ctx.problem();
    let n = problem.topology().node_count();
    let mut current = initialize(problem);
    let mut evaluations = 1usize;
    let mut best_score = ctx.evaluate(&current, Score::INFEASIBLE)?;
    let mut best = current.clone();
    // The walk tracks its cost in raw f64 (incremental `+= delta`
    // drifts by rounding, re-anchored below) — same arithmetic as the
    // pre-typed kernel; the typed seams are evaluate()/swap_delta().
    let mut current_cost = ctx.comm_cost(&current).to_f64();
    let mut best_any_cost = current_cost;
    let mut best_any = current.clone();
    if n < 2 {
        return Ok((search_outcome(best_score, best, best_any), evaluations));
    }

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut temp = (options.initial_temp * current_cost).max(f64::MIN_POSITIVE);
    let mut accepted = 0usize;
    for proposed in 0..options.moves {
        if proposed % SA_SAMPLE_EVERY == 0 && ctx.probe().is_enabled() {
            ctx.probe().emit(
                "sa.sample",
                &[
                    ("move", Value::from(proposed)),
                    ("temp", Value::from(temp)),
                    ("current_cost", Value::from(current_cost)),
                    ("best_cost", Value::from(best_any_cost)),
                    ("accepted", Value::from(accepted)),
                ],
            );
        }
        let a = (rng.next_u64() % n as u64) as usize;
        let mut b = (rng.next_u64() % (n as u64 - 1)) as usize;
        if b >= a {
            b += 1;
        }
        let (a, b) = (noc_graph::NodeId::new(a), noc_graph::NodeId::new(b));
        temp = (temp * options.cooling).max(f64::MIN_POSITIVE);
        if current.core_at(a).is_none() && current.core_at(b).is_none() {
            continue;
        }
        evaluations += 1;
        let delta = ctx.swap_delta(&current, a, b).to_f64();
        let accept = delta <= 0.0 || unit(&mut rng) < (-delta / temp).exp();
        if !accept {
            continue;
        }
        current.swap_nodes(a, b);
        current_cost += delta;
        accepted += 1;
        if accepted % 1024 == 0 {
            // The incrementally tracked cost drifts by one rounding
            // error per accepted move; periodically re-anchor it.
            current_cost = ctx.comm_cost(&current).to_f64();
        }
        if current_cost < best_any_cost {
            best_any_cost = current_cost;
            best_any = current.clone();
        }
        if current_cost < best_score.to_f64() {
            // Candidate incumbent: confirm with the exact cost and
            // the bandwidth-feasibility check.
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

    fn run(p: &MappingProblem, options: &SaOptions, seed: u64) -> Result<(Mapping, usize)> {
        anneal(&mut EvalContext::new(p), options, seed)
    }

    /// Whether min-path routing of `mapping` meets every link capacity.
    fn feasible(p: &MappingProblem, mapping: &Mapping) -> bool {
        routing::route_min_paths(p, mapping).unwrap().1.within_capacity(p.topology())
    }

    #[test]
    fn same_seed_same_outcome_different_seed_may_differ() {
        let p = problem(3);
        let a = run(&p, &SaOptions::default(), 1).unwrap();
        let b = run(&p, &SaOptions::default(), 1).unwrap();
        assert_eq!(a, b, "SA must be a pure function of (problem, seed)");
        assert!(feasible(&p, &a.0));
    }

    #[test]
    fn anneal_does_not_lose_to_the_constructive_seed() {
        for seed in 0..3 {
            let p = problem(seed);
            let init_cost = p.comm_cost(&crate::initialize(&p));
            let (mapping, _) = run(&p, &SaOptions::default(), seed).unwrap();
            let cost = p.comm_cost(&mapping);
            assert!(
                cost.to_f64() <= init_cost.to_f64() + 1e-9,
                "seed {seed}: SA {cost} worse than init {init_cost}"
            );
        }
    }

    #[test]
    fn infeasible_problems_are_reported_not_hidden() {
        // One 500 MB/s flow on 100 MB/s links: nothing fits.
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 500.0).unwrap();
        let p = MappingProblem::new(g, Topology::mesh(2, 2, 100.0)).unwrap();
        let (mapping, _) = run(&p, &SaOptions::default(), 7).unwrap();
        assert!(!feasible(&p, &mapping));
        assert!(mapping.node_of(CoreId::new(0)).is_some());
    }

    #[test]
    fn invalid_options_error_instead_of_running() {
        let p = problem(0);
        for bad in [
            SaOptions { moves: 0, ..Default::default() },
            SaOptions { initial_temp: 0.0, ..Default::default() },
            SaOptions { cooling: 1.5, ..Default::default() },
            SaOptions { cooling: 0.0, ..Default::default() },
        ] {
            assert!(bad.check().is_err());
            let got = run(&p, &bad, 0);
            assert!(matches!(got, Err(MapError::InvalidOptions(_))), "{got:?}");
        }
    }

    #[test]
    fn single_node_problem_returns_the_seed_placement() {
        let mut g = CoreGraph::new();
        g.add_core("only");
        let p = MappingProblem::new(g, Topology::mesh(1, 1, 100.0)).unwrap();
        let (mapping, _) = run(&p, &SaOptions::default(), 0).unwrap();
        assert_eq!(p.comm_cost(&mapping), noc_units::HopMbps::ZERO);
        assert!(feasible(&p, &mapping));
    }
}

//! The search layer: every placement algorithm in the workspace behind
//! one [`Mapper`] trait.
//!
//! Before this layer, NMAP single-path, NMAP-split, and the baseline
//! mappers each had their own call shape (`map_single_path(problem,
//! opts) -> SinglePathOutcome`, `pmap(problem) -> Mapping`, ...) glued
//! together by a hand-written `match` in the DSE engine. The trait
//! unifies them: [`Mapper::map`] drives a shared [`EvalContext`] (cached
//! quadrant DAGs, scratch buffers, the O(deg) [`EvalContext::swap_delta`]
//! kernel) and returns a single [`MapOutcome`] — mapping, Equation-7
//! cost, feasibility, and a work measure.
//!
//! Mappers carry no names. The `.dse` keyword of every configuration
//! lives in one catalogue in `noc_dse::spec`, which both parses and
//! prints them; stochastic mappers ([`SaMapper`]) take their seed from
//! the scenario that runs them — never from worker identity — keeping
//! parallel sweeps byte-identical.
//!
//! Two search strategies beyond the paper ride on the cheap swap-delta
//! kernel, following the strategy axis explored by Marcon et al.
//! (*Exploring NoC Mapping Strategies*): seeded simulated annealing
//! ([`SaMapper`]) and deterministic tabu search ([`TabuMapper`]).

mod sa;
mod tabu;

pub use sa::{SaMapper, SaOptions};
pub use tabu::{TabuMapper, TabuOptions};

use noc_units::{HopMbps, Score};

use crate::{
    initialize, map_single_path_with, map_with_splitting, EvalContext, Mapping, Result,
    SinglePathOptions, SplitOptions,
};

/// Unified result of any [`Mapper`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct MapOutcome {
    /// The best placement found.
    pub mapping: Mapping,
    /// Equation-7 communication cost of `mapping` (hops × bandwidth,
    /// independent of routing; comparable across mappers).
    pub comm_cost: HopMbps,
    /// Whether the mapper's own evaluation regime found the placement
    /// bandwidth-feasible (min-path routing for the swap searches and
    /// constructive mappers, split MCF routing for NMAP-split).
    pub feasible: bool,
    /// Mapper-specific work measure: candidate placements examined for
    /// the swap searches, LP solves for NMAP-split, node expansions for
    /// PBB, 0 for the pure constructive mappers.
    pub evaluations: usize,
}

/// A placement algorithm: consumes an evaluation context (problem +
/// caches) and produces a complete [`MapOutcome`].
pub trait Mapper {
    /// Runs the algorithm.
    ///
    /// # Errors
    ///
    /// [`crate::MapError::InvalidOptions`] when the mapper's options fail
    /// their `check()`; otherwise only the error conditions of the
    /// underlying evaluation (unroutable commodities, LP breakdown).
    fn map(&self, ctx: &mut EvalContext<'_>) -> Result<MapOutcome>;

    /// The placement and work measure only, for engines that route and
    /// score the result themselves (the DSE engine's map stage feeds a
    /// separate route stage): same mapping and evaluations as
    /// [`Mapper::map`], but implementations whose search does not already
    /// compute feasibility (the constructive mappers) override this to
    /// skip the outcome's routing-based feasibility check instead of
    /// computing an answer the caller throws away.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Mapper::map`].
    fn place(&self, ctx: &mut EvalContext<'_>) -> Result<(Mapping, usize)> {
        self.map(ctx).map(|out| (out.mapping, out.evaluations))
    }
}

/// A boxed, thread-safe [`Mapper`], as `noc_dse::MapperSpec::mapper`
/// builds it.
pub type BoxedMapper = Box<dyn Mapper + Send + Sync>;

/// Scores a complete placement the way the constructive mappers report
/// it — Equation-7 cost plus min-path bandwidth feasibility — so
/// [`Mapper`] wrappers around placement-only algorithms (here
/// `initialize()`, in `noc-baselines` PMAP and GMAP) share one outcome
/// assembly.
///
/// # Errors
///
/// Propagates [`crate::MapError::Unroutable`] from the router.
pub fn constructive_outcome_of(
    ctx: &mut EvalContext<'_>,
    mapping: Mapping,
    evaluations: usize,
) -> Result<MapOutcome> {
    let comm_cost = ctx.comm_cost(&mapping);
    let topology = ctx.problem().topology();
    let feasible = ctx.route_min_loads(&mapping)?.within_capacity(topology);
    Ok(MapOutcome { mapping, comm_cost, feasible, evaluations })
}

/// NMAP's greedy constructive placement only (`initialize()`), no
/// improvement loop — the cheapest member of the family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InitMapper;

impl Mapper for InitMapper {
    fn map(&self, ctx: &mut EvalContext<'_>) -> Result<MapOutcome> {
        let mapping = initialize(ctx.problem());
        constructive_outcome_of(ctx, mapping, 0)
    }

    fn place(&self, ctx: &mut EvalContext<'_>) -> Result<(Mapping, usize)> {
        Ok((initialize(ctx.problem()), 0))
    }
}

/// NMAP single-minimum-path mapping (Section 5) behind the trait.
#[derive(Debug, Clone, PartialEq)]
pub struct SinglePathMapper {
    options: SinglePathOptions,
}

impl SinglePathMapper {
    /// Wraps [`map_single_path_with`] with the given options.
    pub fn new(options: SinglePathOptions) -> Self {
        Self { options }
    }
}

impl Mapper for SinglePathMapper {
    fn map(&self, ctx: &mut EvalContext<'_>) -> Result<MapOutcome> {
        let out = map_single_path_with(ctx, &self.options)?;
        Ok(MapOutcome {
            mapping: out.mapping,
            comm_cost: out.comm_cost,
            feasible: out.feasible,
            evaluations: out.evaluations,
        })
    }
}

/// NMAP with split-traffic routing (Section 6) behind the trait:
/// MCF-driven placement, `evaluations` counts LP solves.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitMapper {
    options: SplitOptions,
}

impl SplitMapper {
    /// Wraps [`map_with_splitting`] with the given options.
    pub fn new(options: SplitOptions) -> Self {
        Self { options }
    }
}

impl Mapper for SplitMapper {
    fn map(&self, ctx: &mut EvalContext<'_>) -> Result<MapOutcome> {
        let out = map_with_splitting(ctx.problem(), &self.options)?;
        Ok(MapOutcome {
            mapping: out.mapping,
            comm_cost: out.comm_cost,
            feasible: out.feasible,
            evaluations: out.lp_solves,
        })
    }
}

/// Shared outcome assembly for the swap searches ([`SaMapper`],
/// [`TabuMapper`]): prefer the best *feasible* placement (its evaluate()
/// score is its exact cost); fall back to the best-cost placement seen
/// when nothing feasible was found.
fn search_outcome(
    ctx: &mut EvalContext<'_>,
    best_score: Score,
    best: Mapping,
    best_any: Mapping,
    evaluations: usize,
) -> MapOutcome {
    if let Some(comm_cost) = best_score.cost() {
        MapOutcome { mapping: best, comm_cost, feasible: true, evaluations }
    } else {
        let comm_cost = ctx.comm_cost(&best_any);
        MapOutcome { mapping: best_any, comm_cost, feasible: false, evaluations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MappingProblem, PathScope};
    use noc_graph::{RandomGraphConfig, Topology};

    fn problem(seed: u64) -> MappingProblem {
        let g = RandomGraphConfig { cores: 8, ..Default::default() }.generate(seed);
        MappingProblem::new(g, Topology::mesh(3, 3, 2_000.0)).unwrap()
    }

    #[test]
    fn trait_outcomes_match_the_legacy_entry_points() {
        let p = problem(9);
        // Single-path.
        let legacy = crate::map_single_path(&p, &SinglePathOptions::default()).unwrap();
        let out = SinglePathMapper::new(SinglePathOptions::default())
            .map(&mut EvalContext::new(&p))
            .unwrap();
        assert_eq!(out.mapping, legacy.mapping);
        assert_eq!(out.comm_cost, legacy.comm_cost);
        assert_eq!(out.feasible, legacy.feasible);
        assert_eq!(out.evaluations, legacy.evaluations);
        // Init.
        let out = InitMapper.map(&mut EvalContext::new(&p)).unwrap();
        assert_eq!(out.mapping, initialize(&p));
        assert_eq!(out.evaluations, 0);
        // Split.
        let opts = SplitOptions { scope: PathScope::Quadrant, passes: 1 };
        let legacy = map_with_splitting(&p, &opts).unwrap();
        let out = SplitMapper::new(opts).map(&mut EvalContext::new(&p)).unwrap();
        assert_eq!(out.mapping, legacy.mapping);
        assert_eq!(out.evaluations, legacy.lp_solves);
        assert_eq!(out.feasible, legacy.feasible);
    }
}

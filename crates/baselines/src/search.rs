//! The baseline mappers behind the [`nmap::search`] layer: [`Mapper`]
//! wrappers for PMAP, GMAP and PBB.

use nmap::search::{constructive_outcome_of, MapOutcome, Mapper};
use nmap::{EvalContext, Result};

use crate::pbb::MAX_NODES;
use crate::{gmap, pbb, pmap, PbbOptions};

/// The PMAP two-phase baseline (`.dse` keyword `pmap`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmapMapper;

impl Mapper for PmapMapper {
    fn map(&self, ctx: &mut EvalContext<'_>) -> Result<MapOutcome> {
        let mapping = pmap(ctx.problem());
        constructive_outcome_of(ctx, mapping, 0)
    }

    fn place(&self, ctx: &mut EvalContext<'_>) -> Result<(nmap::Mapping, usize)> {
        Ok((pmap(ctx.problem()), 0))
    }
}

/// The GMAP greedy baseline (`.dse` keyword `gmap`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GmapMapper;

impl Mapper for GmapMapper {
    fn map(&self, ctx: &mut EvalContext<'_>) -> Result<MapOutcome> {
        let mapping = gmap(ctx.problem());
        constructive_outcome_of(ctx, mapping, 0)
    }

    fn place(&self, ctx: &mut EvalContext<'_>) -> Result<(nmap::Mapping, usize)> {
        Ok((gmap(ctx.problem()), 0))
    }
}

/// Truncated branch-and-bound (`.dse` keyword `pbb`); `evaluations`
/// counts search-tree expansions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PbbMapper {
    options: PbbOptions,
}

impl PbbMapper {
    /// Wraps [`pbb`] with the given options.
    pub fn new(options: PbbOptions) -> Self {
        Self { options }
    }
}

impl Mapper for PbbMapper {
    fn map(&self, ctx: &mut EvalContext<'_>) -> Result<MapOutcome> {
        self.options.check().map_err(nmap::MapError::InvalidOptions)?;
        let nodes = ctx.problem().topology().node_count();
        if nodes > MAX_NODES {
            return Err(nmap::MapError::InvalidOptions(format!(
                "pbb supports at most {MAX_NODES} nodes, topology has {nodes}"
            )));
        }
        let out = pbb(ctx.problem(), &self.options);
        ctx.probe().counter("search.pbb_expansions").add(out.expansions as u64);
        Ok(MapOutcome {
            mapping: out.mapping,
            comm_cost: out.comm_cost,
            feasible: out.feasible,
            evaluations: out.expansions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmap::MappingProblem;
    use noc_graph::{RandomGraphConfig, Topology};

    fn problem(seed: u64) -> MappingProblem {
        let g = RandomGraphConfig { cores: 8, ..Default::default() }.generate(seed);
        MappingProblem::new(g, Topology::mesh(3, 3, 2_000.0)).unwrap()
    }

    #[test]
    fn trait_wrappers_match_the_bare_functions() {
        let p = problem(6);
        let out = PmapMapper.map(&mut EvalContext::new(&p)).unwrap();
        assert_eq!(out.mapping, pmap(&p));
        assert_eq!(out.comm_cost, p.comm_cost(&out.mapping));
        assert_eq!(out.evaluations, 0);

        let out = GmapMapper.map(&mut EvalContext::new(&p)).unwrap();
        assert_eq!(out.mapping, gmap(&p));

        let opts = PbbOptions { max_queue: 500, max_expansions: 5_000 };
        let legacy = pbb(&p, &opts);
        let out = PbbMapper::new(opts).map(&mut EvalContext::new(&p)).unwrap();
        assert_eq!(out.mapping, legacy.mapping);
        assert_eq!(out.comm_cost, legacy.comm_cost);
        assert_eq!(out.feasible, legacy.feasible);
        assert_eq!(out.evaluations, legacy.expansions);
    }
}

//! Multi-commodity-flow formulations (Equations 5, 8, 9, 10), solved by
//! column generation over paths.
//!
//! Three linear programs over per-commodity path flows `x_p ≥ 0`:
//!
//! * **MCF1** ([`McfKind::SlackMin`], Equation 8) — minimize the total
//!   capacity-violation slack `Σ s_{i,j}`; a zero optimum proves the
//!   mapping can meet all bandwidth constraints with split traffic.
//! * **MCF2** ([`McfKind::FlowMin`], Equation 9) — minimize the total flow
//!   `Σ x^k_{i,j}` (communication cost) subject to hard capacities.
//! * **Min-max load** ([`McfKind::MinMaxLoad`]) — minimize the uniform
//!   capacity `λ` such that every link load is ≤ λ; this computes the
//!   "minimum bandwidth needed" metric of the paper's Figure 4.
//!
//! Flow conservation (Equation 5) holds **per commodity** by construction:
//! every column is a whole source→destination path, and one demand row per
//! commodity makes its path flows sum to its value (the split-traffic
//! routing tables require per-commodity flows; see DESIGN.md §6 for the
//! discussion of the paper's aggregated notation). The master LP has one
//! capacity row per link its columns touch plus one demand row per
//! commodity. It starts from one minimum-hop path per commodity; each
//! round re-solves it and adds, for every commodity, the path that is
//! shortest under the capacity rows' dual prices when that path prices
//! negative (Ford–Fulkerson 1958; Dantzig–Wolfe 1960). The final columns
//! and their flows are the routing tables.
//!
//! Restricting a commodity's paths to its quadrant DAG
//! ([`PathScope::Quadrant`]) yields the equal-hop-delay NMAPTM variant of
//! Equation 10; [`PathScope::AllPaths`] is the unrestricted NMAPTA.
//!
//! The answer depends on the problem alone: commodities, rows and columns
//! enter every master in a canonical order, so permuting the commodity
//! slice returns an identical [`McfSolution`].

use std::collections::BTreeSet;

use noc_graph::{LinkId, PathSearch, QuadrantDag, Topology};
use noc_lp::{Constraint, ConstraintSense, LinearProgram, Sense, SolveError, VarId};
use noc_probe::Probe;

use crate::routing::{LinkLoads, RoutingTables, SplitRoute};
use crate::{Commodity, MapError, Mapping, MappingProblem, Result};

/// Which links each commodity may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathScope {
    /// Any link of the topology (NMAPTA: traffic split across all paths).
    AllPaths,
    /// Only the commodity's quadrant DAG — all paths minimal, equal hop
    /// delay (NMAPTM: split across minimum paths, Equation 10).
    Quadrant,
}

/// Which objective to optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McfKind {
    /// MCF1: minimize total capacity-violation slack (Equation 8).
    SlackMin,
    /// MCF2: minimize total flow subject to capacities (Equation 9).
    FlowMin,
    /// Minimize the uniform link capacity λ needed by the mapping
    /// (capacities in the topology are ignored).
    MinMaxLoad,
}

/// Result of one MCF solve.
#[derive(Debug, Clone, PartialEq)]
pub struct McfSolution {
    /// The objective that was optimized.
    pub kind: McfKind,
    /// Optimal objective value: total slack (MCF1), total flow (MCF2) or
    /// minimal uniform capacity (min-max load).
    // lint: allow(f64-api) — the objective's unit depends on `kind`
    // (slack/flow/capacity), and MCF1 slack is legitimately negative when
    // the instance is infeasible; no single quantity type fits.
    pub objective: f64,
    /// Aggregate link loads of the optimal flow.
    pub link_loads: LinkLoads,
    /// Per-commodity routing tables: the master's path columns that carry
    /// flow, each with its share of the commodity.
    pub tables: RoutingTables,
}

/// Threshold below which a path flow is treated as zero when reading the
/// master LP's solution back into link loads and routing tables.
///
/// The value sits well above the simplex optimality tolerance (`1e-9`) so
/// solver round-off never materializes as a phantom route, and well below
/// any meaningful bandwidth (MB/s magnitudes in the paper's applications),
/// so real traffic is never dropped.
pub const FLOW_EPSILON: f64 = 1e-6;

/// MCF1 slack (MB/s) at or below which a placement counts as
/// bandwidth-feasible, read in one place: [`McfKind::FlowMin`] runs MCF1
/// as its phase 1 and is infeasible exactly when the slack exceeds it.
/// [`solve_mcf_or_slack`] then returns MCF1's routing, and
/// [`crate::map_with_splitting`] reads feasibility off its kind.
pub const SLACK_EPSILON: f64 = 1e-6;

/// Reduced cost below which a priced path enters the master: the simplex
/// optimality tolerance, so column generation stops exactly where the
/// master LP's own optimality test would.
const PRICING_TOLERANCE: f64 = 1e-9;

/// Work counters of one MCF solve, for probe reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct McfSolveStats {
    /// MCF programs solved: one, or two when [`McfKind::FlowMin`] ran
    /// MCF1 first because the minimum-hop start overloads a link.
    pub solves: usize,
    /// Master LP solves, one per pricing round.
    pub rounds: usize,
    /// Path columns generated: the minimum-hop start plus every priced
    /// path that entered a master.
    pub columns: usize,
    /// Simplex pivots over every master solve.
    pub pivots: usize,
    /// Phase-1 pivots (the demand rows are equalities, so every master
    /// solve starts with a short phase 1).
    pub phase1_pivots: usize,
    /// Always false: retained with [`McfWarmState`] for callers of the
    /// retired warm-start API.
    pub warm_hit: bool,
}

impl McfSolveStats {
    fn add_round(&mut self, stats: &noc_lp::SolveStats) {
        self.rounds += 1;
        self.pivots += stats.pivots;
        self.phase1_pivots += stats.phase1_pivots;
    }

    /// Adds this work to `probe`'s `lp.solves`, `lp.pivots`,
    /// `lp.phase1_pivots`, `lp.cg.rounds` and `lp.cg.columns` counters.
    pub fn record(&self, probe: &Probe) {
        probe.counter("lp.solves").add(self.solves as u64);
        probe.counter("lp.pivots").add(self.pivots as u64);
        probe.counter("lp.phase1_pivots").add(self.phase1_pivots as u64);
        probe.counter("lp.cg.rounds").add(self.rounds as u64);
        probe.counter("lp.cg.columns").add(self.columns as u64);
    }
}

impl std::ops::AddAssign for McfSolveStats {
    fn add_assign(&mut self, other: Self) {
        self.solves += other.solves;
        self.rounds += other.rounds;
        self.columns += other.columns;
        self.pivots += other.pivots;
        self.phase1_pivots += other.phase1_pivots;
        self.warm_hit |= other.warm_hit;
    }
}

/// Placeholder of the retired warm-start API: carries nothing, and
/// [`solve_mcf_warm`] ignores it. A cold column-generation solve is
/// faster than the dual-simplex restart it replaced and needs no chain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct McfWarmState;

/// Solves the chosen MCF program for `mapping`.
///
/// # Errors
///
/// * [`MapError::Lp`] wrapping [`SolveError::Infeasible`] — for
///   [`McfKind::FlowMin`] when the MCF1 slack exceeds [`SLACK_EPSILON`],
///   or for any kind when a commodity's endpoints are disconnected.
/// * Other [`MapError::Lp`] variants on solver failure.
///
/// # Panics
///
/// Panics if `mapping` is incomplete.
pub fn solve_mcf(
    problem: &MappingProblem,
    mapping: &Mapping,
    kind: McfKind,
    scope: PathScope,
) -> Result<McfSolution> {
    solve_mcf_for(problem.topology(), &problem.commodities(mapping), kind, scope)
}

/// Solves the chosen MCF program for an explicit commodity set — the
/// general entry point behind [`solve_mcf`]. Passing a single commodity
/// computes per-flow link sizing (how much capacity one flow needs on each
/// link under optimal splitting), used by the DSP design flow of
/// Section 7.2.
///
/// The returned [`RoutingTables`] are indexed by the commodities' [core
/// graph edge ids](noc_graph::EdgeId), so tables from disjoint subsets can
/// be merged.
///
/// # Errors
///
/// Same conditions as [`solve_mcf`].
pub fn solve_mcf_for(
    topology: &Topology,
    commodities: &[Commodity],
    kind: McfKind,
    scope: PathScope,
) -> Result<McfSolution> {
    solve_mcf_with_stats(topology, commodities, kind, scope).0
}

/// [`solve_mcf_for`] plus its work counters, which are returned whether or
/// not the solve succeeded.
fn solve_mcf_with_stats(
    topology: &Topology,
    commodities: &[Commodity],
    kind: McfKind,
    scope: PathScope,
) -> (Result<McfSolution>, McfSolveStats) {
    let mut stats = McfSolveStats::default();
    let instance = Instance::new(topology, commodities, scope);
    let result = match kind {
        McfKind::FlowMin => {
            instance.flow_min(&mut stats).and_then(|(routed, optimum)| match routed {
                McfKind::FlowMin => Ok(instance.solution(kind, &optimum)),
                _ => Err(MapError::Lp(SolveError::Infeasible)),
            })
        }
        McfKind::SlackMin => instance.slack_min(&mut stats),
        McfKind::MinMaxLoad => instance.min_max_load(&mut stats),
    };
    (result, stats)
}

/// The split routing of a placement: the MCF2 optimum when the capacities
/// admit one, otherwise MCF1's least-violation routing (the returned
/// [`McfSolution::kind`] says which). Equal to [`solve_mcf_for`] with
/// [`McfKind::FlowMin`], falling back to [`McfKind::SlackMin`] on
/// infeasibility, but the fallback reuses the MCF1 solve FlowMin already
/// ran as its phase 1.
pub fn solve_mcf_or_slack(
    topology: &Topology,
    commodities: &[Commodity],
    scope: PathScope,
) -> (Result<McfSolution>, McfSolveStats) {
    let mut stats = McfSolveStats::default();
    let instance = Instance::new(topology, commodities, scope);
    let result =
        instance.flow_min(&mut stats).map(|(kind, optimum)| instance.solution(kind, &optimum));
    (result, stats)
}

/// The retired warm-start entry point: a cold [`solve_mcf_for`] plus its
/// work counters; `previous` is ignored, [`McfSolveStats::warm_hit`] false.
///
/// # Errors
///
/// Same conditions as [`solve_mcf`].
pub fn solve_mcf_warm(
    topology: &Topology,
    commodities: &[Commodity],
    kind: McfKind,
    scope: PathScope,
    _previous: Option<McfWarmState>,
) -> Result<(McfSolution, McfWarmState, McfSolveStats)> {
    let (result, stats) = solve_mcf_with_stats(topology, commodities, kind, scope);
    result.map(|solution| (solution, McfWarmState, stats))
}

/// A path column: its links in travel order, keyed by `(hops, links)` so
/// every master lists a commodity's paths shortest first, then by link
/// ids.
type Path = (usize, Vec<LinkId>);

/// One commodity that carries traffic, with its path scope.
struct Demand {
    commodity: Commodity,
    /// The quadrant DAG under [`PathScope::Quadrant`]; `None` = all links.
    quadrant: Option<QuadrantDag>,
}

impl Demand {
    /// Shortest-path pricing: the cheapest path in this demand's scope
    /// when each link costs `unit + weights[link]`, with its cost; `None`
    /// when the destination is unreachable. The search breaks cost ties
    /// on hop count, so among equally priced paths the shortest enters.
    fn cheapest(
        &self,
        search: &mut PathSearch<'_>,
        unit: f64,
        weights: &[f64],
    ) -> Option<(f64, Path)> {
        let Commodity { source, dest, .. } = self.commodity;
        search
            .cheapest(
                source,
                dest,
                |l| self.quadrant.as_ref().is_none_or(|q| q.contains(l)),
                |cost, l| cost + unit + weights[l.index()],
            )
            .map(|(cost, links)| (cost, (links.len(), links.to_vec())))
    }
}

/// The capacity-row twist of each master (Inequality 3 per kind).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Master {
    /// `Σ x_p - s_l ≤ c_l`, minimize `Σ s_l`.
    Slack,
    /// `Σ x_p ≤ c_l + relax_l`, minimize `Σ hops_p · x_p`.
    Flow,
    /// `Σ x_p - λ ≤ 0`, minimize `λ`.
    MinMax,
}

/// An optimal master: the column pool and what the final LP said.
struct Optimum {
    pool: Vec<BTreeSet<Path>>,
    /// Flow of every pool column, in pool order.
    flows: Vec<f64>,
    objective: f64,
    /// Slack per link id (MCF1 only; empty otherwise).
    slacks: Vec<f64>,
}

/// The problem every master of one solve shares.
struct Instance<'a> {
    topology: &'a Topology,
    commodities: &'a [Commodity],
    /// Commodities that carry traffic, in canonical order.
    demands: Vec<Demand>,
}

impl<'a> Instance<'a> {
    fn new(topology: &'a Topology, commodities: &'a [Commodity], scope: PathScope) -> Self {
        let mut active: Vec<Commodity> = commodities
            .iter()
            .filter(|c| !c.value.is_zero() && c.source != c.dest)
            .copied()
            .collect();
        active.sort_by(|a, b| {
            (a.edge, a.source, a.dest)
                .cmp(&(b.edge, b.source, b.dest))
                .then(a.value.to_f64().total_cmp(&b.value.to_f64()))
        });
        let demands = active
            .into_iter()
            .map(|commodity| Demand {
                commodity,
                quadrant: (scope == PathScope::Quadrant)
                    .then(|| QuadrantDag::new(topology, commodity.source, commodity.dest)),
            })
            .collect();
        Self { topology, commodities, demands }
    }

    /// The minimum-hop start: one path per demand. Every MCF program
    /// begins here, so this is where it counts as a solve.
    fn start(&self, stats: &mut McfSolveStats) -> Result<Vec<BTreeSet<Path>>> {
        stats.solves += 1;
        let mut search = PathSearch::new(self.topology);
        let free = vec![0.0; self.topology.link_count()];
        let pool: Vec<BTreeSet<Path>> = self
            .demands
            .iter()
            .map(|d| {
                let (_, path) = d
                    .cheapest(&mut search, 0.0, &free)
                    .ok_or(MapError::Lp(SolveError::Infeasible))?;
                Ok(BTreeSet::from([path]))
            })
            .collect::<Result<_>>()?;
        stats.columns += pool.len();
        Ok(pool)
    }

    /// Whether routing every demand whole on the start's path stays
    /// within every link capacity.
    fn fits(&self, start: &[BTreeSet<Path>]) -> bool {
        let mut loads = vec![0.0; self.topology.link_count()];
        for (d, paths) in self.demands.iter().zip(start) {
            for (_, links) in paths {
                for link in links {
                    loads[link.index()] += d.commodity.value.to_f64();
                }
            }
        }
        self.topology.links().all(|(id, link)| loads[id.index()] <= link.capacity.to_f64())
    }

    /// MCF2, run the paper's way: when the minimum-hop start overloads a
    /// link, MCF1 runs first and decides feasibility against
    /// [`SLACK_EPSILON`]; MCF2 then starts from MCF1's columns with each
    /// capacity relaxed by its residual MCF1 slack, so a placement MCF1
    /// calls feasible always routes. Returns MCF2's optimum, or MCF1's when
    /// that proves the capacities cannot carry the traffic, with its kind.
    fn flow_min(&self, stats: &mut McfSolveStats) -> Result<(McfKind, Optimum)> {
        let start = self.start(stats)?;
        let (pool, relax) = if self.fits(&start) {
            (start, Vec::new())
        } else {
            let mcf1 = self.generate(Master::Slack, start, &[], stats)?;
            if mcf1.objective > SLACK_EPSILON {
                return Ok((McfKind::SlackMin, mcf1));
            }
            stats.solves += 1;
            (mcf1.pool, mcf1.slacks)
        };
        Ok((McfKind::FlowMin, self.generate(Master::Flow, pool, &relax, stats)?))
    }

    fn slack_min(&self, stats: &mut McfSolveStats) -> Result<McfSolution> {
        let start = self.start(stats)?;
        let optimum = self.generate(Master::Slack, start, &[], stats)?;
        Ok(self.solution(McfKind::SlackMin, &optimum))
    }

    fn min_max_load(&self, stats: &mut McfSolveStats) -> Result<McfSolution> {
        let start = self.start(stats)?;
        let optimum = self.generate(Master::MinMax, start, &[], stats)?;
        Ok(self.solution(McfKind::MinMaxLoad, &optimum))
    }

    /// Column generation: solve the master over `pool`, price every demand
    /// against its duals, add the paths that price negative, repeat until
    /// none does. `relax` (per link id, or empty) raises the FlowMin
    /// capacities.
    fn generate(
        &self,
        master: Master,
        mut pool: Vec<BTreeSet<Path>>,
        relax: &[f64],
        stats: &mut McfSolveStats,
    ) -> Result<Optimum> {
        let topology = self.topology;
        let mut search = PathSearch::new(topology);
        let mut weights = vec![0.0; topology.link_count()];
        let unit = if master == Master::Flow { 1.0 } else { 0.0 };
        loop {
            let built = self.build(master, &pool, relax);
            let (solution, lp_stats) = built.lp.solve_with_stats().map_err(MapError::from)?;
            stats.add_round(&lp_stats);
            // A `≤` row's dual is non-positive; its negation is the link's
            // price per unit of flow.
            weights.fill(0.0);
            for (row, &link) in built.rows.iter().enumerate() {
                weights[link.index()] = (-solution.duals[row]).max(0.0);
            }
            let demand_duals = &solution.duals[built.rows.len()..];
            let mut added = 0;
            for ((d, paths), &dual) in self.demands.iter().zip(&mut pool).zip(demand_duals) {
                if let Some((cost, path)) = d.cheapest(&mut search, unit, &weights) {
                    if cost - dual < -PRICING_TOLERANCE && paths.insert(path) {
                        added += 1;
                    }
                }
            }
            stats.columns += added;
            if added == 0 {
                let columns = built.columns;
                let flows = solution.values[..columns].to_vec();
                let mut slacks = Vec::new();
                if master == Master::Slack {
                    slacks = vec![0.0; topology.link_count()];
                    for (row, &link) in built.rows.iter().enumerate() {
                        slacks[link.index()] = solution.values[columns + row];
                    }
                }
                return Ok(Optimum { pool, flows, objective: solution.objective, slacks });
            }
        }
    }

    /// Builds the master LP over `pool` in canonical order: path columns
    /// (demand order, then shortest first), then the per-row slacks or λ;
    /// capacity rows in link-id order over the links some column uses,
    /// then one demand row per demand.
    fn build(&self, master: Master, pool: &[BTreeSet<Path>], relax: &[f64]) -> Built {
        let topology = self.topology;
        let mut lp = LinearProgram::new(Sense::Minimize);
        let mut per_link: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); topology.link_count()];
        let mut demand_rows = Vec::with_capacity(self.demands.len());
        for (d, paths) in self.demands.iter().zip(pool) {
            let mut terms = Vec::with_capacity(paths.len());
            for (hops, links) in paths {
                let cost = if master == Master::Flow { *hops as f64 } else { 0.0 };
                let var = lp.add_variable("", cost);
                for link in links {
                    per_link[link.index()].push((var, 1.0));
                }
                terms.push((var, 1.0));
            }
            demand_rows.push((terms, d.commodity.value.to_f64()));
        }
        let columns = lp.variable_count();
        let rows: Vec<LinkId> = topology
            .links()
            .map(|(id, _)| id)
            .filter(|id| !per_link[id.index()].is_empty())
            .collect();
        let lambda = (master == Master::MinMax).then(|| lp.add_variable("", 1.0));
        for &link in &rows {
            let mut terms = std::mem::take(&mut per_link[link.index()]);
            let capacity = topology.link(link).capacity.to_f64();
            let rhs = match master {
                Master::Slack => {
                    terms.push((lp.add_variable("", 1.0), -1.0));
                    capacity
                }
                Master::Flow => capacity + relax.get(link.index()).copied().unwrap_or(0.0),
                Master::MinMax => {
                    terms.push((lambda.expect("min-max masters carry λ"), -1.0));
                    0.0
                }
            };
            lp.add_constraint(Constraint { terms, sense: ConstraintSense::Le, rhs });
        }
        for (terms, value) in demand_rows {
            lp.add_constraint(Constraint { terms, sense: ConstraintSense::Eq, rhs: value });
        }
        Built { lp, rows, columns }
    }

    /// Link loads and routing tables of `pool` carrying `flows`.
    fn routing(&self, pool: &[BTreeSet<Path>], flows: &[f64]) -> (LinkLoads, RoutingTables) {
        let mut loads = LinkLoads::zeros(self.topology.link_count());
        // Tables are indexed by core-graph edge id, not by position in the
        // (possibly subset) commodity list.
        let table_len = self.commodities.iter().map(|c| c.edge.index() + 1).max().unwrap_or(0);
        let mut routes: Vec<Vec<SplitRoute>> = vec![Vec::new(); table_len];
        let mut flow = flows.iter();
        for (d, paths) in self.demands.iter().zip(pool) {
            let carried: Vec<(&Vec<LinkId>, f64)> = paths
                .iter()
                .map(|(_, links)| (links, *flow.next().expect("one flow per column")))
                .filter(|&(_, x)| x > FLOW_EPSILON)
                .collect();
            let total: f64 = carried.iter().map(|&(_, x)| x).sum();
            let slot = &mut routes[d.commodity.edge.index()];
            for (links, x) in carried {
                for &link in links {
                    loads.add(link, x);
                }
                slot.push(SplitRoute { links: links.clone(), fraction: x / total });
            }
        }
        (loads, RoutingTables::from_split_routes(routes))
    }

    fn solution(&self, kind: McfKind, optimum: &Optimum) -> McfSolution {
        let (link_loads, tables) = self.routing(&optimum.pool, &optimum.flows);
        McfSolution { kind, objective: optimum.objective, link_loads, tables }
    }
}

/// An assembled master LP and its row/column layout.
struct Built {
    lp: LinearProgram,
    /// Link of each capacity row; the demand rows follow them.
    rows: Vec<LinkId>,
    /// Path columns; the slack or λ variables follow them.
    columns: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_graph::{CoreGraph, EdgeId, NodeId, Topology};
    use noc_units::Mbps;

    /// One `value` MB/s flow between adjacent corners of a 2x2 mesh whose
    /// links each carry `link_cap` MB/s. The pair has exactly two
    /// link-disjoint paths: the direct link (1 hop) and the way around
    /// (3 hops). So the flow fits exactly when `value ≤ 2 · link_cap`:
    /// 300 MB/s is infeasible on 100 MB/s links (200 at most) and feasible
    /// on 150 MB/s links (150 + 150).
    fn one_flow_problem(link_cap: f64, value: f64) -> (MappingProblem, Mapping) {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, value).unwrap();
        let t = Topology::mesh(2, 2, link_cap);
        let p = MappingProblem::new(g, t).unwrap();
        let mut m = Mapping::new(4);
        m.place(a, NodeId::new(0));
        m.place(b, NodeId::new(1));
        (p, m)
    }

    /// MCF1's total slack: 0 when the placement admits a feasible split
    /// routing.
    fn slack(p: &MappingProblem, m: &Mapping, scope: PathScope) -> f64 {
        solve_mcf(p, m, McfKind::SlackMin, scope).unwrap().objective
    }

    #[test]
    fn single_commodity_min_flow_uses_shortest_path() {
        let (p, m) = one_flow_problem(1000.0, 300.0);
        let sol = solve_mcf(&p, &m, McfKind::FlowMin, PathScope::AllPaths).unwrap();
        // All 300 on the single 1-hop path: total flow = 300.
        assert!((sol.objective - 300.0).abs() < 1e-6, "objective {}", sol.objective);
        assert_eq!(sol.tables.routes_of(noc_graph::EdgeId::new(0)).len(), 1);
        assert!((sol.link_loads.max() - 300.0).abs() < 1e-6);
    }

    #[test]
    fn capacity_forces_split() {
        let (p, m) = one_flow_problem(150.0, 300.0);
        let sol = solve_mcf(&p, &m, McfKind::FlowMin, PathScope::AllPaths).unwrap();
        // 150 direct (1 hop) + 150 around (3 hops) = 600 total flow.
        assert!((sol.objective - 600.0).abs() < 1e-4, "objective {}", sol.objective);
        assert_eq!(sol.tables.routes_of(noc_graph::EdgeId::new(0)).len(), 2);
        assert!(sol.link_loads.within_capacity(p.topology()));
    }

    #[test]
    fn flow_min_detects_infeasible_capacities() {
        let (p, m) = one_flow_problem(100.0, 300.0);
        let err = solve_mcf(&p, &m, McfKind::FlowMin, PathScope::AllPaths).unwrap_err();
        assert!(matches!(err, MapError::Lp(SolveError::Infeasible)), "got {err:?}");
    }

    #[test]
    fn slack_min_measures_violation() {
        let (p, m) = one_flow_problem(100.0, 300.0);
        let sol = solve_mcf(&p, &m, McfKind::SlackMin, PathScope::AllPaths).unwrap();
        // Best split: 100 + 100 over the two disjoint routes leaves 100
        // excess; the cheapest placement of the excess adds 100 slack on
        // one link (e.g. 200 on the direct link).
        assert!((sol.objective - 100.0).abs() < 1e-4, "slack {}", sol.objective);
    }

    #[test]
    fn slack_is_zero_when_feasible() {
        let (p, m) = one_flow_problem(150.0, 300.0);
        assert!(slack(&p, &m, PathScope::AllPaths) < 1e-6);
        let (p, m) = one_flow_problem(300.0, 300.0);
        assert!(slack(&p, &m, PathScope::AllPaths) < 1e-6);
    }

    #[test]
    fn quadrant_scope_prevents_detours() {
        // Adjacent nodes: the quadrant is exactly the direct link, so a
        // 300 MB/s flow over 150 MB/s links has slack 150 under Quadrant
        // scope (cannot use the 3-hop detour) but 0 under AllPaths.
        let (p, m) = one_flow_problem(150.0, 300.0);
        let q = slack(&p, &m, PathScope::Quadrant);
        assert!((q - 150.0).abs() < 1e-4, "quadrant slack {q}");
        let a = slack(&p, &m, PathScope::AllPaths);
        assert!(a < 1e-6);
    }

    #[test]
    fn min_max_load_balances_two_paths() {
        // 2x2 mesh, diagonal flow of 200: two minimal paths, perfect split
        // gives 100 per link.
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 200.0).unwrap();
        let p = MappingProblem::new(g, Topology::mesh(2, 2, 1e9)).unwrap();
        let mut m = Mapping::new(4);
        m.place(a, NodeId::new(0));
        m.place(b, NodeId::new(3));
        let sol = solve_mcf(&p, &m, McfKind::MinMaxLoad, PathScope::Quadrant).unwrap();
        assert!((sol.objective - 100.0).abs() < 1e-6, "lambda {}", sol.objective);
        assert!((sol.link_loads.max() - 100.0).abs() < 1e-4);
    }

    #[test]
    fn quadrant_routes_have_equal_hops() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 500.0).unwrap();
        let p = MappingProblem::new(g, Topology::mesh(3, 3, 1e9)).unwrap();
        let mut m = Mapping::new(9);
        m.place(a, NodeId::new(0));
        m.place(b, NodeId::new(8)); // opposite corner, 4 hops
        let sol = solve_mcf(&p, &m, McfKind::MinMaxLoad, PathScope::Quadrant).unwrap();
        for r in sol.tables.routes_of(noc_graph::EdgeId::new(0)) {
            assert_eq!(r.links.len(), 4, "NMAPTM path not minimal");
        }
    }

    #[test]
    fn fractions_sum_to_one() {
        let (p, m) = one_flow_problem(150.0, 300.0);
        let sol = solve_mcf(&p, &m, McfKind::FlowMin, PathScope::AllPaths).unwrap();
        let total: f64 =
            sol.tables.routes_of(noc_graph::EdgeId::new(0)).iter().map(|r| r.fraction).sum();
        assert!((total - 1.0).abs() < 1e-6, "fractions sum to {total}");
    }

    #[test]
    fn loads_match_decomposed_tables() {
        let (p, m) = one_flow_problem(150.0, 300.0);
        let sol = solve_mcf(&p, &m, McfKind::FlowMin, PathScope::AllPaths).unwrap();
        let recomputed = sol.tables.link_loads(p.topology(), &p.commodities(&m));
        for (id, _) in p.topology().links() {
            assert!(
                (sol.link_loads.get(id) - recomputed.get(id)).abs() < 1e-4,
                "link {id}: lp={} tables={}",
                sol.link_loads.get(id),
                recomputed.get(id)
            );
        }
    }

    #[test]
    fn zero_value_commodities_are_skipped() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        let c = g.add_core("c");
        g.add_comm(a, b, 0.0).unwrap();
        g.add_comm(b, c, 100.0).unwrap();
        let p = MappingProblem::new(g, Topology::mesh(2, 2, 1e9)).unwrap();
        let mut m = Mapping::new(4);
        m.place(a, NodeId::new(0));
        m.place(b, NodeId::new(1));
        m.place(c, NodeId::new(3));
        let sol = solve_mcf(&p, &m, McfKind::FlowMin, PathScope::AllPaths).unwrap();
        assert!(sol.tables.routes_of(noc_graph::EdgeId::new(0)).is_empty());
        assert_eq!(sol.tables.routes_of(noc_graph::EdgeId::new(1)).len(), 1);
        assert!((sol.objective - 100.0).abs() < 1e-6);
    }

    #[test]
    fn multi_commodity_sharing_respects_capacity() {
        // Two 100 MB/s flows share a 2x1 mesh with a single channel of
        // capacity 150: FlowMin is infeasible; SlackMin reports 50.
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        let c = g.add_core("c");
        let d = g.add_core("d");
        g.add_comm(a, b, 100.0).unwrap();
        g.add_comm(c, d, 100.0).unwrap();
        let t = Topology::mesh(2, 2, 150.0);
        let p = MappingProblem::new(g, t).unwrap();
        let mut m = Mapping::new(4);
        // Both flows forced across the same column pair: a,c on column 0.
        m.place(a, NodeId::new(0));
        m.place(c, NodeId::new(2));
        m.place(b, NodeId::new(1));
        m.place(d, NodeId::new(3));
        // Feasible: each flow has its own row channel. Loads stay 100.
        let sol = solve_mcf(&p, &m, McfKind::FlowMin, PathScope::AllPaths).unwrap();
        assert!(sol.link_loads.within_capacity(p.topology()));
        assert!((sol.objective - 200.0).abs() < 1e-4);
    }

    /// Pins [`FLOW_EPSILON`] as the path-flow boundary: a column carrying
    /// exactly the threshold is treated as zero, one above it routes.
    #[test]
    fn flow_epsilon_is_the_path_flow_boundary() {
        let t = Topology::mesh(2, 2, 1e9);
        let direct = t.find_link(NodeId::new(0), NodeId::new(1)).expect("adjacent link");
        for (flow, routes) in [(2.0 * FLOW_EPSILON, 1), (FLOW_EPSILON, 0)] {
            let commodities = [Commodity {
                edge: EdgeId::new(0),
                value: Mbps::new(flow).unwrap(),
                source: NodeId::new(0),
                dest: NodeId::new(1),
            }];
            let instance = Instance::new(&t, &commodities, PathScope::AllPaths);
            let pool = vec![BTreeSet::from([(1, vec![direct])])];
            let (loads, tables) = instance.routing(&pool, &[flow]);
            assert_eq!(tables.routes_of(EdgeId::new(0)).len(), routes, "flow {flow}");
            assert_eq!(loads.total() > 0.0, routes == 1, "flow {flow}");
        }
    }

    /// Every bandwidth-feasibility verdict comes from [`SLACK_EPSILON`]:
    /// demands whose MCF1 slack falls just above, just below and well
    /// below it must route (or not) consistently in the split mapper and
    /// in FlowMin. At 300.0000005 MB/s over two 150 MB/s paths the slack
    /// is 5e-7, which the mapper calls feasible, so FlowMin must route it.
    #[test]
    fn one_threshold_decides_split_feasibility() {
        for (value, feasible) in [(300.000005, false), (300.0000005, true), (300.00000005, true)] {
            let (p, m) = one_flow_problem(150.0, value);
            let slack = slack(&p, &m, PathScope::AllPaths);
            assert_eq!(slack <= SLACK_EPSILON, feasible, "{value}: slack {slack}");
            let flow = solve_mcf(&p, &m, McfKind::FlowMin, PathScope::AllPaths);
            assert_eq!(flow.is_ok(), feasible, "{value}: {flow:?}");
            let out = crate::map_with_splitting(&p, &crate::SplitOptions::default())
                .unwrap_or_else(|e| panic!("{value}: {e}"));
            assert_eq!(out.solution.kind == McfKind::FlowMin, feasible, "{value}");
        }
    }

    #[test]
    fn flow_min_runs_mcf1_only_when_the_start_overloads() {
        let (p, m) = one_flow_problem(1000.0, 300.0);
        let commodities = p.commodities(&m);
        let (loose, stats) =
            solve_mcf_with_stats(p.topology(), &commodities, McfKind::FlowMin, PathScope::AllPaths);
        assert!(loose.is_ok());
        // One MCF2 master over the start path, proven optimal by one
        // pricing round; its single pivot drives the demand's artificial
        // out.
        assert_eq!((stats.solves, stats.rounds, stats.columns), (1, 1, 1), "{stats:?}");
        assert_eq!((stats.pivots, stats.phase1_pivots), (1, 1), "{stats:?}");
        let (p, m) = one_flow_problem(150.0, 300.0);
        let (tight, stats) = solve_mcf_with_stats(
            p.topology(),
            &p.commodities(&m),
            McfKind::FlowMin,
            PathScope::AllPaths,
        );
        assert!(tight.is_ok());
        assert_eq!(stats.solves, 2, "MCF1 then MCF2: {stats:?}");
        assert!(stats.rounds >= 2 && stats.pivots > 0 && stats.columns >= 2, "{stats:?}");
        assert!(!stats.warm_hit);
    }

    #[test]
    fn or_slack_returns_mcf1_when_flow_min_is_infeasible() {
        for cap in [100.0, 150.0] {
            let (p, m) = one_flow_problem(cap, 300.0);
            let commodities = p.commodities(&m);
            let (routed, _) = solve_mcf_or_slack(p.topology(), &commodities, PathScope::AllPaths);
            let routed = routed.unwrap();
            let expected = match solve_mcf_for(
                p.topology(),
                &commodities,
                McfKind::FlowMin,
                PathScope::AllPaths,
            ) {
                Ok(solution) => solution,
                Err(_) => solve_mcf_for(
                    p.topology(),
                    &commodities,
                    McfKind::SlackMin,
                    PathScope::AllPaths,
                )
                .unwrap(),
            };
            assert_eq!(routed, expected, "cap {cap}");
        }
    }
}

/// The retired warm-start API survives as a thin cold wrapper; these
/// tests pin that it returns exactly what [`solve_mcf_for`] returns and
/// never claims a warm hit.
#[cfg(test)]
mod warm_start_tests {
    use noc_graph::{RandomGraphConfig, Topology};

    use super::*;

    /// The wrapper and the plain solve must agree on the *entire*
    /// solution — the objective, the link loads and the routing tables —
    /// across a shrinking-capacity sweep, on seeded random graphs, with a
    /// previous state threaded through as a sweep would.
    #[test]
    fn warm_and_cold_solves_are_identical_across_a_capacity_sweep() {
        for seed in [1u64, 7, 42] {
            let graph = RandomGraphConfig { cores: 10, ..Default::default() }.generate(seed);
            for kind in [McfKind::FlowMin, McfKind::SlackMin] {
                let mut warm: Option<McfWarmState> = None;
                for cap in [5000.0, 4000.0, 3000.0, 2500.0, 2000.0, 1500.0, 1200.0, 1000.0] {
                    let problem =
                        MappingProblem::new(graph.clone(), Topology::mesh(4, 3, cap)).unwrap();
                    let mapping = crate::initialize(&problem);
                    let commodities = problem.commodities(&mapping);
                    let scope = PathScope::AllPaths;
                    let cold = solve_mcf_for(problem.topology(), &commodities, kind, scope);
                    let warmed =
                        solve_mcf_warm(problem.topology(), &commodities, kind, scope, warm.take());
                    match (cold, warmed) {
                        (Ok(c), Ok((w, next, stats))) => {
                            assert_eq!(c, w, "seed {seed} {kind:?} cap {cap}");
                            assert!(!stats.warm_hit);
                            warm = Some(next);
                        }
                        (Err(ce), Err(we)) => {
                            assert_eq!(ce, we, "seed {seed} {kind:?} cap {cap}");
                            warm = None;
                        }
                        (c, w) => {
                            panic!("seed {seed} {kind:?} cap {cap}: cold {c:?} vs warm {w:?}")
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn warm_state_is_not_reused_across_kinds_or_scopes() {
        let graph = RandomGraphConfig { cores: 8, ..Default::default() }.generate(3);
        let problem = MappingProblem::new(graph, Topology::mesh(3, 3, 5_000.0)).unwrap();
        let mapping = crate::initialize(&problem);
        let commodities = problem.commodities(&mapping);
        let (_, state, first) = solve_mcf_warm(
            problem.topology(),
            &commodities,
            McfKind::FlowMin,
            PathScope::AllPaths,
            None,
        )
        .unwrap();
        assert!(!first.warm_hit);
        let (_, _, cross_kind) = solve_mcf_warm(
            problem.topology(),
            &commodities,
            McfKind::SlackMin,
            PathScope::AllPaths,
            Some(state),
        )
        .unwrap();
        assert!(!cross_kind.warm_hit, "state must not cross formulations");
        let (_, _, cross_scope) = solve_mcf_warm(
            problem.topology(),
            &commodities,
            McfKind::FlowMin,
            PathScope::Quadrant,
            Some(state),
        )
        .unwrap();
        assert!(!cross_scope.warm_hit, "state must not cross path scopes");
    }
}

#[cfg(test)]
mod determinism_tests {
    use noc_graph::{RandomGraphConfig, Topology};

    use super::*;

    /// Repeated solves of the same MCF instance must produce identical
    /// solutions — objective, link loads *and* routing tables. The master
    /// LPs are built in a canonical order and every container is ordered,
    /// so nothing depends on allocation or hashing order.
    #[test]
    fn repeated_solves_are_identical() {
        let graph = RandomGraphConfig { cores: 12, ..Default::default() }.generate(5);
        let problem =
            MappingProblem::new(graph, Topology::mesh(4, 3, 5_000.0)).expect("12 cores fit 4x3");
        let mapping = crate::initialize(&problem);
        for kind in [McfKind::FlowMin, McfKind::SlackMin, McfKind::MinMaxLoad] {
            let first = solve_mcf(&problem, &mapping, kind, PathScope::AllPaths).unwrap();
            for run in 1..4 {
                let again = solve_mcf(&problem, &mapping, kind, PathScope::AllPaths).unwrap();
                assert_eq!(again, first, "{kind:?} diverged on run {run}");
            }
        }
    }
}

#[cfg(test)]
mod failure_injection_tests {
    use super::*;
    use noc_lp::SolveError;

    /// LP failures propagate as `MapError::Lp` carrying the solver's own
    /// variant: the split mapper scores a placement by its solution's kind
    /// and turns no error into a score.
    #[test]
    fn iteration_limit_propagates_from_split_mapper() {
        // `noc-lp`'s own tests reach the limit; this pins the conversion
        // path the mappers use.
        let err: MapError = SolveError::IterationLimit.into();
        assert_eq!(err, MapError::Lp(SolveError::IterationLimit));
        assert!(err.to_string().contains("iteration limit"));
    }
}

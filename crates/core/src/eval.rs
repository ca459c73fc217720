//! Reusable evaluation context for placement search — the hot path of
//! [`map_single_path`](crate::map_single_path) and of every design-space
//! sweep built on top of it.
//!
//! Evaluating one candidate placement means routing every commodity over
//! its quadrant DAG and checking link capacities. The naive loop rebuilds
//! three mapping-independent artifacts on every call:
//!
//! * the **quadrant DAG** of each `(source, dest)` node pair — a pure
//!   function of the topology, yet a pairwise-swap descent revisits the
//!   same pairs thousands of times;
//! * the **commodity processing order** (edges by decreasing bandwidth) —
//!   a pure function of the core graph;
//! * the **scratch vectors** (commodity list, per-link loads) — identical
//!   shape on every evaluation.
//!
//! [`EvalContext`] caches the first two and reuses the third, and it owns
//! one [`PathSearch`] whose buffers every evaluation reuses. Its router
//! runs the one greedy loop of the uncached
//! [`routing::route_min_paths`](crate::routing::route_min_paths), with
//! the same shortest-path queries and weights in the same order, so its
//! loads and costs are *bit-identical* to that router's (asserted by
//! tests and the workspace determinism suite).

use noc_graph::{NodeId, PathSearch};
use noc_probe::{Counter, Probe};
use noc_units::{CostDelta, HopMbps, Score};

use crate::routing::{route_greedy, LinkLoads, QuadrantCache};
use crate::{Commodity, Mapping, MappingProblem, Result};

/// Telemetry handles for the search layer (see `crates/probe`): no-ops
/// unless [`EvalContext::set_probe`] attached a live probe, and strictly
/// out-of-band — nothing in the search reads them, so every mapper
/// result is byte-identical with a live probe, a disabled one, or none.
#[derive(Debug, Clone, Default)]
pub(crate) struct SearchCounters {
    /// Full candidate evaluations ([`EvalContext::evaluate`] calls).
    pub evaluations: Counter,
    /// O(deg) swap-delta prefilter computations.
    pub swap_deltas: Counter,
    /// Delta-gated descent: candidates the gate let through to a full
    /// evaluation.
    pub gate_accepts: Counter,
    /// Delta-gated descent: candidates pruned by the gate.
    pub gate_rejects: Counter,
    /// Evaluations scored feasible without routing, because no routing
    /// can overload a link ([`MappingProblem::capacity_never_binds`]).
    pub capacity_skips: Counter,
}

impl SearchCounters {
    fn new(probe: &Probe) -> Self {
        Self {
            evaluations: probe.counter("search.evaluations"),
            swap_deltas: probe.counter("search.swap_deltas"),
            gate_accepts: probe.counter("search.gate_accepts"),
            gate_rejects: probe.counter("search.gate_rejects"),
            capacity_skips: probe.counter("search.capacity_skips"),
        }
    }
}

/// Cached state for repeatedly evaluating placements of one
/// [`MappingProblem`].
///
/// Create one per problem and feed it to
/// [`map_single_path_with`](crate::map_single_path_with), or drive it
/// directly via [`EvalContext::evaluate`] for custom search loops.
#[derive(Debug, Clone)]
pub struct EvalContext<'p> {
    problem: &'p MappingProblem,
    /// Commodity processing order (decreasing bandwidth) — graph-only.
    order: Vec<noc_graph::EdgeId>,
    /// Quadrant DAGs of the node pairs routed so far.
    quadrants: QuadrantCache,
    /// Scratch: commodity list of the mapping under evaluation.
    commodities: Vec<Commodity>,
    /// Scratch: per-link loads of the routing under evaluation.
    loads: LinkLoads,
    /// The router's shortest-path searcher, its buffers reused.
    search: PathSearch<'p>,
    /// Telemetry (no-op handles unless a probe was attached).
    probe: Probe,
    pub(crate) counters: SearchCounters,
}

impl<'p> EvalContext<'p> {
    /// Creates an empty context for `problem`. Caches fill lazily.
    pub fn new(problem: &'p MappingProblem) -> Self {
        Self {
            problem,
            order: problem.commodity_order(),
            quadrants: QuadrantCache::default(),
            commodities: Vec::with_capacity(problem.cores().edge_count()),
            loads: LinkLoads::zeros(problem.topology().link_count()),
            search: PathSearch::new(problem.topology()),
            probe: Probe::default(),
            counters: SearchCounters::default(),
        }
    }

    /// Attaches a telemetry probe (see `crates/probe`). The search layer
    /// only ever *writes* to it, so attaching one cannot change any
    /// mapper's result — pinned by the probe-identity differential suite.
    pub fn set_probe(&mut self, probe: &Probe) {
        self.probe = probe.clone();
        self.counters = SearchCounters::new(&self.probe);
    }

    /// The attached probe (disabled unless [`Self::set_probe`] was
    /// called), for mappers that emit their own events through it.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// The problem this context evaluates against.
    pub fn problem(&self) -> &'p MappingProblem {
        self.problem
    }

    /// Number of distinct quadrant DAGs built so far (cache size).
    pub fn built_quadrants(&self) -> usize {
        self.quadrants.built()
    }

    /// Equation-7 communication cost of `mapping` — delegates to the
    /// (allocation-free) [`MappingProblem::comm_cost`].
    ///
    /// # Panics
    ///
    /// Panics if `mapping` is incomplete.
    pub fn comm_cost(&self, mapping: &Mapping) -> HopMbps {
        self.problem.comm_cost(mapping)
    }

    /// Equation-7 cost change of exchanging the contents of nodes `a` and
    /// `b` in `mapping` (the move set of [`Mapping::swap_nodes`]), in
    /// `O(deg(a) + deg(b))` hop-distance queries instead of the full
    /// O(E) scan: only commodities incident to the two swapped cores
    /// change their hop distance, so only those are re-measured. Each
    /// query is a closed form on grids and a memoized BFS-row lookup on
    /// custom topologies (see [`noc_graph::Topology::hop_distance`]), so
    /// the whole call is O(deg). Either node may be empty (a
    /// core→free-slot move); `a == b` or two empty nodes give
    /// [`CostDelta::ZERO`].
    ///
    /// The returned delta equals `comm_cost(swapped) - comm_cost(mapping)`
    /// up to floating-point rounding of the different summation orders —
    /// exact in real arithmetic, including on custom topologies with
    /// asymmetric hop distances (directions are preserved per edge). Use
    /// it to *rank* or *prefilter* candidate swaps; confirm an accepted
    /// candidate with the full [`EvalContext::evaluate`] when bit-exact
    /// costs matter (that is what the delta-gated swap descent does).
    ///
    /// # Panics
    ///
    /// Panics if `mapping` does not place every core whose commodities
    /// touch `a` or `b`, or if a node is out of range.
    pub fn swap_delta(&self, mapping: &Mapping, a: NodeId, b: NodeId) -> CostDelta {
        self.counters.swap_deltas.inc();
        if a == b {
            return CostDelta::ZERO;
        }
        let topology = self.problem.topology();
        let cores = self.problem.cores();
        let ca = mapping.core_at(a);
        let cb = mapping.core_at(b);
        // Accumulate in raw f64 — the exact op sequence of the pre-typed
        // kernel — and stamp the unit once at the exit.
        let mut delta = 0.0;
        let hop = |x: NodeId, y: NodeId| topology.hop_distance(x, y) as f64;
        if let Some(ca) = ca {
            for (_, e) in cores.out_edges(ca) {
                if Some(e.dst) == cb {
                    // ca→cb rides the swap on both ends: a→b becomes b→a.
                    delta += e.bandwidth.to_f64() * (hop(b, a) - hop(a, b));
                    continue;
                }
                let other = mapping.node_of(e.dst).expect("complete mapping");
                delta += e.bandwidth.to_f64() * (hop(b, other) - hop(a, other));
            }
            for (_, e) in cores.in_edges(ca) {
                if Some(e.src) == cb {
                    delta += e.bandwidth.to_f64() * (hop(a, b) - hop(b, a));
                    continue;
                }
                let other = mapping.node_of(e.src).expect("complete mapping");
                delta += e.bandwidth.to_f64() * (hop(other, b) - hop(other, a));
            }
        }
        if let Some(cb) = cb {
            for (_, e) in cores.out_edges(cb) {
                if Some(e.dst) == ca {
                    continue; // counted once via ca's incoming loop
                }
                let other = mapping.node_of(e.dst).expect("complete mapping");
                delta += e.bandwidth.to_f64() * (hop(a, other) - hop(b, other));
            }
            for (_, e) in cores.in_edges(cb) {
                if Some(e.src) == ca {
                    continue; // counted once via ca's outgoing loop
                }
                let other = mapping.node_of(e.src).expect("complete mapping");
                delta += e.bandwidth.to_f64() * (hop(other, a) - hop(other, b));
            }
        }
        CostDelta::raw(delta)
    }

    /// Routes every commodity over a single minimal path exactly like
    /// [`routing::route_min_paths`](crate::routing::route_min_paths) (the
    /// same greedy loop), but returns only the aggregate link loads and
    /// reuses the cached quadrant DAGs and scratch buffers.
    ///
    /// # Errors
    ///
    /// [`MapError::Unroutable`](crate::MapError::Unroutable) under the
    /// same conditions as the uncached router.
    ///
    /// # Panics
    ///
    /// Panics if `mapping` is incomplete.
    pub fn route_min_loads(&mut self, mapping: &Mapping) -> Result<&LinkLoads> {
        let Self { problem, order, quadrants, commodities, loads, search, .. } = self;
        problem.commodities_into(mapping, commodities);
        loads.reset();
        route_greedy(search, commodities, order, quadrants, loads, None)?;
        Ok(loads)
    }

    /// The paper's `shortestpath()` score of `mapping`: its Equation-7
    /// communication cost if the routed loads satisfy every link capacity,
    /// [`Score::INFEASIBLE`] otherwise.
    ///
    /// Lazy feasibility as in the swap descent: when the (cheap,
    /// placement-only) cost already fails to beat `threshold`, the
    /// (expensive) routing-based capacity check is skipped — such
    /// candidates would be rejected either way.
    ///
    /// The threshold comparison is **inclusive**: `cost == threshold`
    /// returns [`Score::INFEASIBLE`] too, because the descent only commits
    /// *strict* improvements (`cost < incumbent`) — an equal-cost
    /// candidate can never win, so routing it would be wasted work. Pass
    /// [`Score::INFEASIBLE`] as the threshold to force a full evaluation.
    ///
    /// A candidate that passes the threshold is routed only when routing
    /// can change the answer: where
    /// [`MappingProblem::capacity_never_binds`] holds, every routing fits,
    /// so the score is the cost.
    ///
    /// # Errors
    ///
    /// Propagates [`MapError::Unroutable`](crate::MapError::Unroutable)
    /// from the router.
    ///
    /// # Panics
    ///
    /// Panics if `mapping` is incomplete, or if a commodity's endpoints
    /// are disconnected (its Equation-7 distance,
    /// [`noc_graph::Topology::hop_distance`], is computed first).
    /// [`MappingProblem::new`] rejects every topology with such a pair.
    pub fn evaluate(&mut self, mapping: &Mapping, threshold: Score) -> Result<Score> {
        self.counters.evaluations.inc();
        let cost = self.comm_cost(mapping);
        if cost.to_f64() >= threshold.to_f64() {
            return Ok(Score::INFEASIBLE);
        }
        if self.problem.capacity_never_binds() {
            self.counters.capacity_skips.inc();
            return Ok(Score::feasible(cost));
        }
        let topology = self.problem.topology();
        let feasible = self.route_min_loads(mapping)?.within_capacity(topology);
        Ok(if feasible { Score::feasible(cost) } else { Score::INFEASIBLE })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{routing, MapError};
    use noc_graph::{GraphError, NodeId, RandomGraphConfig, Topology};
    use noc_probe::Probe;

    fn random_problem(seed: u64) -> MappingProblem {
        let g = RandomGraphConfig { cores: 12, ..Default::default() }.generate(seed);
        MappingProblem::new(g, Topology::mesh(4, 3, 500.0)).unwrap()
    }

    /// Deterministic complete placements to compare both evaluation paths.
    fn placements(problem: &MappingProblem) -> Vec<Mapping> {
        let base = crate::initialize(problem);
        let n = problem.topology().node_count();
        let mut all = vec![base.clone()];
        for k in 1..6 {
            let mut m = all.last().unwrap().clone();
            m.swap_nodes(NodeId::new(k % n), NodeId::new((3 * k + 1) % n));
            all.push(m);
        }
        all
    }

    #[test]
    fn cached_loads_match_uncached_router_bit_for_bit() {
        for seed in 0..4 {
            let p = random_problem(seed);
            let mut ctx = EvalContext::new(&p);
            for m in placements(&p) {
                let (_, want) = routing::route_min_paths(&p, &m).unwrap();
                let got = ctx.route_min_loads(&m).unwrap();
                assert_eq!(got.as_slice(), want.as_slice(), "seed {seed}");
            }
        }
    }

    #[test]
    fn cached_comm_cost_matches_problem_comm_cost() {
        let p = random_problem(9);
        let ctx = EvalContext::new(&p);
        for m in placements(&p) {
            assert_eq!(ctx.comm_cost(&m), p.comm_cost(&m));
            assert!(ctx.comm_cost(&m).to_f64().is_finite());
        }
    }

    #[test]
    fn quadrant_cache_is_hit_on_reevaluation() {
        let p = random_problem(2);
        let mut ctx = EvalContext::new(&p);
        let m = crate::initialize(&p);
        ctx.route_min_loads(&m).unwrap();
        let after_first = ctx.built_quadrants();
        assert!(after_first > 0);
        ctx.route_min_loads(&m).unwrap();
        assert_eq!(ctx.built_quadrants(), after_first, "second pass must not rebuild");
    }

    #[test]
    fn evaluate_scores_like_the_paper() {
        let p = random_problem(5);
        let mut ctx = EvalContext::new(&p);
        let m = crate::initialize(&p);
        let cost = ctx.comm_cost(&m);
        // Below-threshold candidates are rejected without routing.
        assert!(!ctx.evaluate(&m, Score::feasible(cost)).unwrap().is_feasible());
        // Otherwise the score is the cost (feasible) or infinity.
        let score = ctx.evaluate(&m, Score::INFEASIBLE).unwrap();
        let feasible = ctx.route_min_loads(&m).unwrap().within_capacity(p.topology());
        assert_eq!(score.is_feasible(), feasible);
        if feasible {
            assert_eq!(score.cost(), Some(cost));
        }
    }

    #[test]
    fn evaluate_at_exact_threshold_returns_infinity() {
        // The boundary contract: `cost == threshold` is a rejection (the
        // descent needs strict improvement), with no routing performed.
        let p = random_problem(3);
        let mut ctx = EvalContext::new(&p);
        let m = crate::initialize(&p);
        let cost = ctx.comm_cost(&m);
        assert!(cost > HopMbps::ZERO);
        assert!(!ctx.evaluate(&m, Score::feasible(cost)).unwrap().is_feasible());
        assert_eq!(ctx.built_quadrants(), 0, "equality must not trigger routing");
        // Nudging the threshold just above the cost re-enables evaluation.
        let threshold = Score::raw(cost.to_f64() * (1.0 + 1e-12));
        let score = ctx.evaluate(&m, threshold).unwrap();
        assert!(score.cost() == Some(cost) || !score.is_feasible());
    }

    /// `swap_delta` against ground truth: `comm_cost(after) - comm_cost(before)`.
    fn assert_deltas_match(p: &MappingProblem, m: &Mapping) {
        let ctx = EvalContext::new(p);
        let base = ctx.comm_cost(m);
        let n = p.topology().node_count();
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (NodeId::new(i), NodeId::new(j));
                let mut swapped = m.clone();
                swapped.swap_nodes(a, b);
                let want = (ctx.comm_cost(&swapped) - base).to_f64();
                let got = ctx.swap_delta(m, a, b).to_f64();
                let tol = 1e-9 * (1.0 + base.to_f64());
                assert!(
                    (got - want).abs() <= tol,
                    "swap ({i},{j}): delta {got} but full recompute says {want}"
                );
            }
        }
    }

    #[test]
    fn swap_delta_matches_full_recompute_on_random_meshes() {
        for seed in 0..4 {
            let p = random_problem(seed);
            for m in placements(&p) {
                assert_deltas_match(&p, &m);
            }
        }
    }

    #[test]
    fn swap_delta_handles_tori_and_empty_nodes() {
        // 5 cores on a 3x3 torus: four empty positions exercise the
        // core→free-slot and empty↔empty cases.
        let g = RandomGraphConfig { cores: 5, ..Default::default() }.generate(11);
        let p = MappingProblem::new(g, Topology::torus(3, 3, 500.0)).unwrap();
        for m in placements(&p) {
            assert_deltas_match(&p, &m);
        }
    }

    #[test]
    fn swap_delta_is_exact_on_asymmetric_custom_topologies() {
        use noc_graph::CoreGraph;
        // A directed ring plus one chord: hop(a, b) != hop(b, a) for most
        // pairs, so the per-edge direction handling is load-bearing.
        let mut g = CoreGraph::new();
        let cores: Vec<_> = (0..4).map(|i| g.add_core(format!("c{i}"))).collect();
        g.add_comm(cores[0], cores[1], 10.0).unwrap();
        g.add_comm(cores[1], cores[2], 20.0).unwrap();
        g.add_comm(cores[3], cores[0], 30.0).unwrap();
        g.add_comm(cores[2], cores[3], 5.0).unwrap();
        let ring: Vec<_> =
            (0..5).map(|i| (NodeId::new(i), NodeId::new((i + 1) % 5), 100.0)).collect();
        let mut links = ring;
        links.push((NodeId::new(0), NodeId::new(3), 100.0));
        let t = Topology::custom(5, links).unwrap();
        let p = MappingProblem::new(g, t).unwrap();
        assert_ne!(
            p.topology().hop_distance(NodeId::new(1), NodeId::new(0)),
            p.topology().hop_distance(NodeId::new(0), NodeId::new(1)),
            "test premise: distances are asymmetric"
        );
        let mut m = Mapping::new(5);
        for (i, &c) in cores.iter().enumerate() {
            m.place(c, NodeId::new(i));
        }
        assert_deltas_match(&p, &m);
    }

    #[test]
    fn swap_delta_of_identical_nodes_is_zero() {
        let p = random_problem(1);
        let ctx = EvalContext::new(&p);
        let m = crate::initialize(&p);
        assert_eq!(ctx.swap_delta(&m, NodeId::new(2), NodeId::new(2)), CostDelta::ZERO);
    }

    /// Two cores on a fabric of `nodes` nodes with the given directed
    /// links, every one far wider than the traffic.
    fn fabric_problem(nodes: usize, links: &[(usize, usize)]) -> Result<MappingProblem> {
        use noc_graph::CoreGraph;
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 10.0).unwrap();
        let links = links.iter().map(|&(u, v)| (NodeId::new(u), NodeId::new(v), 1e9));
        MappingProblem::new(g, Topology::custom(nodes, links).unwrap())
    }

    #[test]
    fn a_fabric_with_an_unreachable_pair_is_rejected_before_evaluation() {
        // A commodity without a path has no Equation-7 cost and no route,
        // so construction rejects the fabric, naming one pair, before any
        // placement can be scored or routed.
        let disconnected = |nodes, links, a, b| {
            let err = fabric_problem(nodes, links).unwrap_err();
            assert_eq!(
                err,
                MapError::Topology(GraphError::Disconnected(NodeId::new(a), NodeId::new(b)))
            );
        };
        // Node 2 only sends to node 0, so nothing reaches it.
        disconnected(3, &[(0, 1), (1, 0), (2, 0)], 0, 2);
        // Node 1 only receives.
        disconnected(2, &[(0, 1)], 1, 0);
    }

    #[test]
    fn evaluate_skips_routing_on_a_wide_one_way_ring() {
        // Every pair routes on a one-way ring, so wide links alone make
        // routing skippable there.
        let p = fabric_problem(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert!(p.capacity_never_binds());
        let probe = Probe::new();
        let mut ctx = EvalContext::new(&p);
        ctx.set_probe(&probe);
        let mut m = Mapping::new(3);
        for (core, node) in p.cores().cores().zip([0, 2]) {
            m.place(core, NodeId::new(node));
        }
        let score = ctx.evaluate(&m, Score::INFEASIBLE).unwrap();
        assert_eq!(score.cost().map(|cost| cost.to_f64()), Some(20.0), "two hops from 0 to 2");
        assert_eq!(ctx.built_quadrants(), 0, "the candidate was not routed");
        assert_eq!(probe.counter("search.capacity_skips").get(), 1);
    }

    #[test]
    #[should_panic(expected = "no path between")]
    fn evaluate_of_an_unreachable_commodity_panics_instead_of_scoring() {
        // The Equation-7 cost of a commodity without a path is undefined:
        // were such a problem built, `hop_distance` panics before routing
        // is reached, so no score, and no skipped routing, can hide it.
        use noc_graph::CoreGraph;
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 10.0).unwrap();
        // Node 2 only sends to node 0, so nothing reaches it.
        let links = [(0, 1), (1, 0), (2, 0)].map(|(u, v)| (NodeId::new(u), NodeId::new(v), 1e9));
        let t = Topology::custom(3, links).unwrap();
        let p = MappingProblem::new_without_connectivity_check(g, t);
        let mut m = Mapping::new(3);
        m.place(a, NodeId::new(0));
        m.place(b, NodeId::new(2));
        let _ = EvalContext::new(&p).evaluate(&m, Score::INFEASIBLE);
    }

    #[test]
    #[should_panic(expected = "no path between")]
    fn disconnected_custom_topology_panics_like_uncached_router() {
        use noc_graph::CoreGraph;
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 10.0).unwrap();
        g.add_comm(b, a, 10.0).unwrap();
        // Only a one-way link: b -> a has no route, and the quadrant
        // builder reports it the same way route_min_paths does.
        let t = Topology::custom(2, [(NodeId::new(0), NodeId::new(1), 100.0)]).unwrap();
        let p = MappingProblem::new_without_connectivity_check(g, t);
        let mut m = Mapping::new(2);
        m.place(a, NodeId::new(0));
        m.place(b, NodeId::new(1));
        let mut ctx = EvalContext::new(&p);
        let _ = ctx.route_min_loads(&m);
    }
}

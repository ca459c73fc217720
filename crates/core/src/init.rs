//! The constructive `initialize()` placement of Section 5, and the
//! bookkeeping it shares with the PMAP and GMAP baselines.
//!
//! 1. The core with the largest total communication demand (in the
//!    undirected view of the core graph) is placed on the topology node
//!    with the most neighbours.
//! 2. Repeatedly, the unmapped core communicating most with the already
//!    mapped cores is selected, and placed on the free node minimizing
//!    `Σ_{w ∈ mapped} comm(next, w) · dist(candidate, map(w))`.
//!
//! All ties break toward lower ids, making the routine deterministic.
//!
//! [`GreedyPlacement`] keeps each core's traffic to the placed set up to
//! date as cores are placed, so a step costs one scan of the cores and
//! one scan of the free nodes over the next core's placed neighbours:
//! O(|V|²) comparisons and O(|U|·|E|) hop lookups in all. Re-summing
//! every placed core's traffic for each candidate core and node would
//! take O(|V|³ + |U|·|V|²) `comm_between` calls, two hash lookups each.

use noc_graph::{CoreId, NodeId};
use noc_units::Mbps;

use crate::{Mapping, MappingProblem};

/// Computes the initial placement for `problem` (the paper's
/// `initialize()` routine).
///
/// Returns a complete [`Mapping`]: every core of the application is
/// assigned to a distinct topology node.
pub fn initialize(problem: &MappingProblem) -> Mapping {
    let topology = problem.topology();
    let mut greedy = GreedyPlacement::new(problem);

    // Seed: max-communication core onto the max-degree (most central) node.
    let seed = problem.cores().max_comm_core().expect("non-empty problem");
    greedy.place(seed, topology.max_degree_node());

    while let Some(next) = greedy.most_attached() {
        let node = greedy
            .cheapest_node(next, topology.nodes())
            .expect("|V| <= |U| guarantees a free node");
        greedy.place(next, node);
    }

    let mapping = greedy.into_mapping();
    debug_assert!(mapping.is_complete(problem.cores()));
    mapping
}

/// A greedy constructive placement under way: the partial [`Mapping`],
/// the order its cores were placed in, and each core's traffic to the
/// placed cores, read from the undirected view of the core graph
/// ([`noc_graph::CoreGraph::undirected_neighbours`], built once).
/// [`initialize`] and the PMAP and GMAP baselines build on it.
///
/// Every sum runs over the same nonzero terms, in placement order, as a
/// scan of the placed cores through `comm_between` would add them, so
/// the values are bit for bit that scan's: a zero term leaves a
/// non-negative sum unchanged.
#[derive(Debug)]
pub struct GreedyPlacement<'a> {
    problem: &'a MappingProblem,
    neighbours: Vec<Vec<(CoreId, Mbps)>>,
    mapping: Mapping,
    /// `step[c]`: how many cores were placed before core `c`; `None`
    /// while `c` is unplaced.
    step: Vec<Option<usize>>,
    /// `attach[c]`: the traffic between core `c` and the placed cores.
    attach: Vec<Mbps>,
    placed: usize,
}

impl<'a> GreedyPlacement<'a> {
    /// An empty placement for `problem`.
    pub fn new(problem: &'a MappingProblem) -> Self {
        let cores = problem.cores().core_count();
        Self {
            problem,
            neighbours: problem.cores().undirected_neighbours(),
            mapping: Mapping::new(problem.topology().node_count()),
            step: vec![None; cores],
            attach: vec![Mbps::ZERO; cores],
            placed: 0,
        }
    }

    /// Places `core` on `node` and adds its traffic to each unplaced
    /// neighbour's total.
    ///
    /// # Panics
    ///
    /// Panics if `core` is already placed or `node` is occupied.
    pub fn place(&mut self, core: CoreId, node: NodeId) {
        self.mapping.place(core, node);
        self.step[core.index()] = Some(self.placed);
        self.placed += 1;
        for &(w, comm) in &self.neighbours[core.index()] {
            if comm > Mbps::ZERO && self.step[w.index()].is_none() {
                self.attach[w.index()] += comm;
            }
        }
    }

    /// The unplaced core with the most traffic to the placed cores,
    /// lowest id on ties; cores with none are still eligible. `None`
    /// once every core is placed.
    pub fn most_attached(&self) -> Option<CoreId> {
        let mut best: Option<CoreId> = None;
        for (c, step) in self.step.iter().enumerate() {
            if step.is_none() && best.is_none_or(|b| self.attach[c] > self.attach[b.index()]) {
                best = Some(CoreId::new(c));
            }
        }
        best
    }

    /// The free node among `candidates` where placing `core` adds the
    /// least `Σ comm(core, w) · hops(node, map(w))` over the placed cores
    /// `w`; the first such candidate on ties, `None` without a free one.
    pub fn cheapest_node(
        &self,
        core: CoreId,
        candidates: impl IntoIterator<Item = NodeId>,
    ) -> Option<NodeId> {
        let topology = self.problem.topology();
        // The placed neighbours with nonzero traffic, in placement order.
        let mut terms: Vec<(usize, f64, NodeId)> = self.neighbours[core.index()]
            .iter()
            .filter(|&&(_, comm)| comm > Mbps::ZERO)
            .filter_map(|&(w, comm)| {
                let host = self.mapping.node_of(w)?;
                Some((self.step[w.index()]?, comm.to_f64(), host))
            })
            .collect();
        terms.sort_unstable_by_key(|&(step, ..)| step);

        let mut best = None;
        let mut best_cost = f64::INFINITY;
        for node in candidates {
            if self.mapping.core_at(node).is_some() {
                continue;
            }
            let mut cost = 0.0;
            for &(_, comm, host) in &terms {
                cost += comm * topology.hop_distance(node, host) as f64;
            }
            if cost < best_cost {
                best_cost = cost;
                best = Some(node);
            }
        }
        best
    }

    /// Consumes the greedy placement and returns its mapping.
    pub fn into_mapping(self) -> Mapping {
        self.mapping
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_graph::{CoreGraph, Topology};

    fn problem(edges: &[(usize, usize, f64)], cores: usize, w: usize, h: usize) -> MappingProblem {
        let mut g = CoreGraph::new();
        let ids: Vec<CoreId> = (0..cores).map(|i| g.add_core(format!("c{i}"))).collect();
        for &(a, b, bw) in edges {
            g.add_comm(ids[a], ids[b], bw).unwrap();
        }
        MappingProblem::new(g, Topology::mesh(w, h, 1e9)).unwrap()
    }

    #[test]
    fn seed_goes_to_center() {
        // Star: core 0 talks to everyone; must land on the 3x3 center.
        let p = problem(&[(0, 1, 100.0), (0, 2, 100.0), (0, 3, 100.0), (0, 4, 100.0)], 5, 3, 3);
        let m = initialize(&p);
        let center = p.topology().node_at(1, 1).unwrap();
        assert_eq!(m.node_of(CoreId::new(0)), Some(center));
    }

    #[test]
    fn star_satellites_surround_hub() {
        let p = problem(&[(0, 1, 100.0), (0, 2, 100.0), (0, 3, 100.0), (0, 4, 100.0)], 5, 3, 3);
        let m = initialize(&p);
        let hub = m.node_of(CoreId::new(0)).unwrap();
        for i in 1..5 {
            let n = m.node_of(CoreId::new(i)).unwrap();
            assert_eq!(p.topology().hop_distance(hub, n), 1, "satellite {i} not adjacent to hub");
        }
    }

    #[test]
    fn heavy_pair_lands_adjacent() {
        let p = problem(&[(0, 1, 1000.0), (1, 2, 10.0), (2, 3, 10.0)], 4, 4, 4);
        let m = initialize(&p);
        let a = m.node_of(CoreId::new(0)).unwrap();
        let b = m.node_of(CoreId::new(1)).unwrap();
        assert_eq!(p.topology().hop_distance(a, b), 1);
    }

    #[test]
    fn placement_is_complete_and_injective() {
        let p = problem(
            &[(0, 1, 50.0), (1, 2, 40.0), (2, 3, 30.0), (3, 4, 20.0), (4, 5, 10.0)],
            6,
            3,
            2,
        );
        let m = initialize(&p);
        assert!(m.is_complete(p.cores()));
        let mut nodes: Vec<_> = m.assignments().map(|(_, n)| n).collect();
        nodes.sort();
        nodes.dedup();
        assert_eq!(nodes.len(), 6);
    }

    #[test]
    fn pipeline_initial_cost_is_reasonable() {
        // A 4-stage pipeline on a 2x2 mesh can achieve cost = sum of edges
        // (all adjacent). initialize() should get within 1 extra hop of it.
        let p = problem(&[(0, 1, 100.0), (1, 2, 100.0), (2, 3, 100.0)], 4, 2, 2);
        let m = initialize(&p);
        let cost = p.comm_cost(&m);
        assert!(cost.to_f64() <= 400.0, "cost {cost} too high for a 2x2 pipeline");
    }

    #[test]
    fn isolated_cores_are_still_placed() {
        let p = problem(&[(0, 1, 10.0)], 4, 2, 2);
        let m = initialize(&p);
        assert!(m.is_complete(p.cores()));
    }

    #[test]
    fn deterministic_across_runs() {
        let p = problem(
            &[(0, 1, 70.0), (1, 2, 362.0), (2, 3, 362.0), (3, 4, 357.0), (4, 0, 27.0)],
            5,
            3,
            3,
        );
        assert_eq!(initialize(&p), initialize(&p));
    }

    #[test]
    fn node_costs_sum_in_placement_order() {
        // Core 3 trades 0.1, 0.2 and 0.3 MB/s with cores 0, 1 and 2, placed
        // in reverse id order. Summed in placement order, node 5 costs
        // 0.8999999999999999 and node 1 costs 0.9; summed in id order they
        // would cost 0.9000000000000001 and 0.9, and node 1 would win.
        let p = problem(&[(3, 0, 0.1), (3, 1, 0.2), (3, 2, 0.3)], 4, 4, 4);
        let mut greedy = GreedyPlacement::new(&p);
        for (core, node) in [(2, 4), (1, 2), (0, 0)] {
            greedy.place(CoreId::new(core), NodeId::new(node));
        }
        let node = greedy.cheapest_node(CoreId::new(3), p.topology().nodes());
        assert_eq!(node, Some(NodeId::new(5)));
    }

    #[test]
    fn works_on_torus() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 5.0).unwrap();
        let p = MappingProblem::new(g, Topology::torus(3, 3, 1e9)).unwrap();
        let m = initialize(&p);
        assert!(m.is_complete(p.cores()));
        let (na, nb) = (m.node_of(a).unwrap(), m.node_of(b).unwrap());
        assert_eq!(p.topology().hop_distance(na, nb), 1);
    }
}

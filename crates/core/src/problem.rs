//! The mapping problem instance and its commodity view.

use std::sync::OnceLock;

use noc_graph::{CoreGraph, EdgeId, GraphError, NodeId, Topology, TopologyKind};
use noc_units::{HopMbps, Hops, Mbps};

use crate::{MapError, Mapping, Result};

/// One commodity `d_k` of Equation 2: the traffic of a single core-graph
/// edge, pinned to topology endpoints by a concrete [`Mapping`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Commodity {
    /// The core-graph edge this commodity carries.
    pub edge: EdgeId,
    /// Commodity value `vl(d_k)` in MB/s.
    pub value: Mbps,
    /// `source(d_k) = map(v_i)`.
    pub source: NodeId,
    /// `dest(d_k) = map(v_j)`.
    pub dest: NodeId,
}

/// A complete instance of the mapping problem: the application core graph
/// `G(V, E)` plus the NoC topology graph `P(U, F)`.
///
/// Construction validates the structural requirements of Equation 1
/// (`|V| ≤ |U|`, non-empty application) and that every node pair of the
/// topology has a directed path, so every commodity of every placement
/// routes and has an Equation-7 distance.
#[derive(Debug, Clone)]
pub struct MappingProblem {
    cores: CoreGraph,
    topology: Topology,
    /// [`MappingProblem::capacity_never_binds`], computed on first use.
    capacity_never_binds: OnceLock<bool>,
}

/// Relative margin by which the total traffic must undercut the smallest
/// link capacity before [`MappingProblem::capacity_never_binds`] holds:
/// it covers the different summation orders of the total and of a
/// routed link load.
const TOTAL_TRAFFIC_MARGIN: f64 = 1e-9;

impl MappingProblem {
    /// Creates a problem instance.
    ///
    /// # Errors
    ///
    /// * [`MapError::EmptyProblem`] if the core graph has no vertices.
    /// * [`MapError::TooManyCores`] if `|V| > |U|`.
    /// * [`MapError::Topology`] with [`GraphError::Disconnected`] naming
    ///   one unreachable node pair if a custom topology is not strongly
    ///   connected. Grids are by construction and skip the check; a custom
    ///   topology pays one pair of BFS runs.
    pub fn new(cores: CoreGraph, topology: Topology) -> Result<Self> {
        if cores.core_count() == 0 {
            return Err(MapError::EmptyProblem);
        }
        if cores.core_count() > topology.node_count() {
            return Err(MapError::TooManyCores {
                cores: cores.core_count(),
                nodes: topology.node_count(),
            });
        }
        if !matches!(topology.kind(), TopologyKind::Grid(_)) {
            if let Some((a, b)) = topology.unreachable_pair() {
                return Err(MapError::Topology(GraphError::Disconnected(a, b)));
            }
        }
        Ok(Self { cores, topology, capacity_never_binds: OnceLock::new() })
    }

    /// Builds a problem whose topology may have an unreachable pair, so
    /// tests can reach the panics that still guard such a commodity.
    #[cfg(test)]
    pub(crate) fn new_without_connectivity_check(cores: CoreGraph, topology: Topology) -> Self {
        Self { cores, topology, capacity_never_binds: OnceLock::new() }
    }

    /// The application core graph.
    pub fn cores(&self) -> &CoreGraph {
        &self.cores
    }

    /// The NoC topology graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// True when no single-path routing of any placement can overload a
    /// link, so the capacity check of Inequality 3 always passes: the
    /// total traffic, times `1 + 1e-9`, fits on the smallest link.
    ///
    /// Exact: every commodity routes (construction rejects a topology
    /// that is not strongly connected), and a single-path route is a
    /// minimal path, which crosses a link at most once, so a link's load
    /// is the sum of a subset of the commodities and never exceeds their
    /// total. The margin covers the floating-point summation orders, and
    /// the capacity check adds its own absolute tolerance. Computed on the
    /// first call and kept, so a mapper that never checks capacities never
    /// pays for it.
    pub fn capacity_never_binds(&self) -> bool {
        *self.capacity_never_binds.get_or_init(|| {
            let total = self.cores.total_bandwidth() * (1.0 + TOTAL_TRAFFIC_MARGIN);
            self.topology.links().all(|(_, link)| total <= link.capacity)
        })
    }

    /// Consumes the problem, returning its parts.
    pub fn into_parts(self) -> (CoreGraph, Topology) {
        (self.cores, self.topology)
    }

    /// The commodity set `D` induced by `mapping` (Equation 2), in
    /// core-graph edge order.
    ///
    /// # Panics
    ///
    /// Panics if `mapping` does not place every core (see
    /// [`Mapping::is_complete`]).
    pub fn commodities(&self, mapping: &Mapping) -> Vec<Commodity> {
        let mut out = Vec::with_capacity(self.cores.edge_count());
        self.commodities_into(mapping, &mut out);
        out
    }

    /// Writes the commodity set of `mapping` into `out` (cleared first) —
    /// the allocation-reusing form of [`MappingProblem::commodities`],
    /// producing the same commodities in the same order.
    ///
    /// # Panics
    ///
    /// Panics if `mapping` does not place every core.
    pub fn commodities_into(&self, mapping: &Mapping, out: &mut Vec<Commodity>) {
        assert!(
            mapping.is_complete(&self.cores),
            "mapping must place every core before commodities can be formed"
        );
        out.clear();
        out.extend(self.cores.edges().map(|(edge, e)| Commodity {
            edge,
            value: e.bandwidth,
            source: mapping.node_of(e.src).expect("complete mapping"),
            dest: mapping.node_of(e.dst).expect("complete mapping"),
        }));
    }

    /// Commodity indices ordered by decreasing value, the processing order
    /// of the paper's `shortestpath()` routine.
    pub fn commodity_order(&self) -> Vec<EdgeId> {
        self.cores.edges_by_decreasing_bandwidth()
    }

    /// Communication cost of `mapping` per Equation 7:
    /// `Σ_k vl(d_k) · dist(source(d_k), dest(d_k))` where `dist` is the
    /// minimum hop count. This depends only on the placement, not on the
    /// routing. Allocation-free (summed straight off the edge list in
    /// edge order) — it is the inner loop of every swap descent.
    ///
    /// # Panics
    ///
    /// Panics if `mapping` is incomplete.
    pub fn comm_cost(&self, mapping: &Mapping) -> HopMbps {
        assert!(
            mapping.is_complete(&self.cores),
            "mapping must place every core before commodities can be formed"
        );
        self.cores
            .edges()
            .map(|(_, e)| {
                let src = mapping.node_of(e.src).expect("complete mapping");
                let dst = mapping.node_of(e.dst).expect("complete mapping");
                e.bandwidth * Hops::new(self.topology.hop_distance(src, dst))
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_graph::Topology;

    fn two_core_app() -> CoreGraph {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 100.0).unwrap();
        g
    }

    #[test]
    fn construction_validates_sizes() {
        let g = two_core_app();
        assert!(MappingProblem::new(g.clone(), Topology::mesh(2, 1, 1.0)).is_ok());
        let err = MappingProblem::new(g, Topology::mesh(1, 1, 1.0)).unwrap_err();
        assert_eq!(err, MapError::TooManyCores { cores: 2, nodes: 1 });
        let err = MappingProblem::new(CoreGraph::new(), Topology::mesh(2, 2, 1.0)).unwrap_err();
        assert_eq!(err, MapError::EmptyProblem);
    }

    #[test]
    fn commodities_follow_mapping() {
        let g = two_core_app();
        let t = Topology::mesh(2, 2, 1.0);
        let problem = MappingProblem::new(g, t).unwrap();
        let mut m = Mapping::new(problem.topology().node_count());
        m.place(noc_graph::CoreId::new(0), NodeId::new(0));
        m.place(noc_graph::CoreId::new(1), NodeId::new(3));
        let cs = problem.commodities(&m);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].source, NodeId::new(0));
        assert_eq!(cs[0].dest, NodeId::new(3));
        assert_eq!(cs[0].value.to_f64(), 100.0);
    }

    #[test]
    fn comm_cost_is_bandwidth_times_hops() {
        let g = two_core_app();
        let problem = MappingProblem::new(g, Topology::mesh(2, 2, 1.0)).unwrap();
        let mut m = Mapping::new(4);
        m.place(noc_graph::CoreId::new(0), NodeId::new(0));
        m.place(noc_graph::CoreId::new(1), NodeId::new(3));
        assert_eq!(problem.comm_cost(&m).to_f64(), 200.0); // 100 MB/s * 2 hops
        let mut m2 = Mapping::new(4);
        m2.place(noc_graph::CoreId::new(0), NodeId::new(0));
        m2.place(noc_graph::CoreId::new(1), NodeId::new(1));
        assert_eq!(problem.comm_cost(&m2).to_f64(), 100.0);
    }

    #[test]
    #[should_panic(expected = "mapping must place every core")]
    fn incomplete_mapping_panics() {
        let g = two_core_app();
        let problem = MappingProblem::new(g, Topology::mesh(2, 2, 1.0)).unwrap();
        let m = Mapping::new(4);
        let _ = problem.commodities(&m);
    }

    #[test]
    fn capacity_never_binds_needs_every_link_above_the_total() {
        // two_core_app carries 100 MB/s in total.
        let on =
            |t: Topology| MappingProblem::new(two_core_app(), t).unwrap().capacity_never_binds();
        assert!(on(Topology::mesh(2, 2, 1e9)));
        assert!(on(Topology::torus(3, 3, 101.0)));
        assert!(!on(Topology::mesh(2, 2, 100.0)), "equality is within the margin");
        assert!(!on(Topology::mesh(2, 2, 50.0)));
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert!(on(Topology::custom(2, [(a, b, 1e9), (b, a, 1e9)]).unwrap()));
        assert!(!on(Topology::custom(2, [(a, b, 1e9), (b, a, 99.0)]).unwrap()));
        let one_way = Topology::custom(2, [(a, b, 1e9)]).unwrap();
        let err = MappingProblem::new(two_core_app(), one_way).unwrap_err();
        assert_eq!(err, MapError::Topology(GraphError::Disconnected(b, a)), "b cannot reach a");
    }

    #[test]
    fn commodity_order_is_decreasing() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        let c = g.add_core("c");
        g.add_comm(a, b, 10.0).unwrap();
        g.add_comm(b, c, 500.0).unwrap();
        let problem = MappingProblem::new(g, Topology::mesh(2, 2, 1.0)).unwrap();
        let order = problem.commodity_order();
        assert_eq!(order[0].index(), 1);
        assert_eq!(order[1].index(), 0);
    }
}

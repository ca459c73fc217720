//! The application **core graph** `G(V, E)` of Definition 1.
//!
//! Vertices are IP cores; a directed edge `(v_i, v_j)` with weight
//! `comm_{i,j}` states that core `v_i` sends an average of `comm_{i,j}` MB/s
//! to core `v_j`. Each edge becomes one *commodity* `d_k` during mapping.

// lint: allow-file(hash-container) — the only hash container here is
// `edge_lookup`, a get/insert-only duplicate index that is never
// iterated, so its order cannot leak into results.
use std::collections::HashMap;

use noc_units::Mbps;

use crate::parse::MAX_BANDWIDTH;
use crate::{CoreId, EdgeId, GraphError, Result};

/// A directed communication edge of the core graph: one commodity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreEdge {
    /// Source core `v_i`.
    pub src: CoreId,
    /// Destination core `v_j`.
    pub dst: CoreId,
    /// Average communication bandwidth `comm_{i,j}` in MB/s; this is the
    /// commodity value `vl(d_k)` of Equation 2. Finite and non-negative
    /// by construction ([`CoreGraph::add_comm`] validates).
    pub bandwidth: Mbps,
}

/// The application core graph `G(V, E)` (Definition 1 in the paper).
///
/// Construction is incremental: add cores with [`CoreGraph::add_core`], then
/// add weighted directed communication edges with [`CoreGraph::add_comm`].
///
/// # Example
///
/// ```
/// use noc_graph::CoreGraph;
///
/// let mut g = CoreGraph::new();
/// let vld = g.add_core("vld");
/// let rld = g.add_core("run-length-decoder");
/// g.add_comm(vld, rld, 70.0)?;
/// assert_eq!(g.core_count(), 2);
/// assert_eq!(g.edge_count(), 1);
/// assert_eq!(g.total_bandwidth().to_f64(), 70.0);
/// # Ok::<(), noc_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreGraph {
    names: Vec<String>,
    edges: Vec<CoreEdge>,
    /// Outgoing edge ids per core, in insertion order.
    out_adj: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per core, in insertion order.
    in_adj: Vec<Vec<EdgeId>>,
    /// Fast duplicate detection for `(src, dst)` pairs.
    edge_lookup: HashMap<(CoreId, CoreId), EdgeId>,
}

impl CoreGraph {
    /// Creates an empty core graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a core named `name` and returns its id.
    ///
    /// Names are labels for reporting only; they need not be unique.
    pub fn add_core(&mut self, name: impl Into<String>) -> CoreId {
        let id = CoreId::new(self.names.len());
        self.names.push(name.into());
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Adds a directed communication edge `src -> dst` carrying
    /// `bandwidth` MB/s and returns its id.
    ///
    /// # Errors
    ///
    /// * [`GraphError::UnknownCore`] if either endpoint was not added first.
    /// * [`GraphError::SelfLoop`] if `src == dst`.
    /// * [`GraphError::InvalidBandwidth`] if `bandwidth` is negative, NaN,
    ///   infinite or above [`crate::parse::MAX_BANDWIDTH`].
    /// * [`GraphError::DuplicateEdge`] if `(src, dst)` already exists; sum
    ///   parallel demands before inserting.
    // lint: allow(f64-api) — checked boundary intake: validated via `Mbps::new`.
    pub fn add_comm(&mut self, src: CoreId, dst: CoreId, bandwidth: f64) -> Result<EdgeId> {
        if src.index() >= self.names.len() {
            return Err(GraphError::UnknownCore(src));
        }
        if dst.index() >= self.names.len() {
            return Err(GraphError::UnknownCore(dst));
        }
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        if bandwidth > MAX_BANDWIDTH {
            return Err(GraphError::InvalidBandwidth(bandwidth));
        }
        let bandwidth =
            Mbps::new(bandwidth).map_err(|_| GraphError::InvalidBandwidth(bandwidth))?;
        if self.edge_lookup.contains_key(&(src, dst)) {
            return Err(GraphError::DuplicateEdge(src, dst));
        }
        let id = EdgeId::new(self.edges.len());
        self.edges.push(CoreEdge { src, dst, bandwidth });
        self.out_adj[src.index()].push(id);
        self.in_adj[dst.index()].push(id);
        self.edge_lookup.insert((src, dst), id);
        Ok(id)
    }

    /// Number of cores `|V|`.
    pub fn core_count(&self) -> usize {
        self.names.len()
    }

    /// Number of directed communication edges `|E|` (= number of
    /// commodities).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns the name given to `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn name(&self, core: CoreId) -> &str {
        &self.names[core.index()]
    }

    /// Returns the edge record for `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn edge(&self, edge: EdgeId) -> CoreEdge {
        self.edges[edge.index()]
    }

    /// Looks up the directed edge `src -> dst`, if present.
    pub fn find_edge(&self, src: CoreId, dst: CoreId) -> Option<EdgeId> {
        self.edge_lookup.get(&(src, dst)).copied()
    }

    /// Iterates over all core ids `v_0, v_1, …`.
    pub fn cores(&self) -> impl ExactSizeIterator<Item = CoreId> + '_ {
        (0..self.names.len()).map(CoreId::new)
    }

    /// Iterates over all edges with their ids, in insertion order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (EdgeId, CoreEdge)> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId::new(i), *e))
    }

    /// Outgoing edges of `core`.
    pub fn out_edges(&self, core: CoreId) -> impl Iterator<Item = (EdgeId, CoreEdge)> + '_ {
        self.out_adj[core.index()].iter().map(move |&id| (id, self.edges[id.index()]))
    }

    /// Incoming edges of `core`.
    pub fn in_edges(&self, core: CoreId) -> impl Iterator<Item = (EdgeId, CoreEdge)> + '_ {
        self.in_adj[core.index()].iter().map(move |&id| (id, self.edges[id.index()]))
    }

    /// Total communication demand adjacent to `core` in the **undirected**
    /// view `S(A, B) = makeundirected(G)` used by `initialize()`:
    /// the sum of bandwidths of all edges entering or leaving the core.
    pub fn total_comm(&self, core: CoreId) -> Mbps {
        let out: Mbps = self.out_edges(core).map(|(_, e)| e.bandwidth).sum();
        let inn: Mbps = self.in_edges(core).map(|(_, e)| e.bandwidth).sum();
        out + inn
    }

    /// Undirected communication volume between `a` and `b`:
    /// `comm(a→b) + comm(b→a)`.
    pub fn comm_between(&self, a: CoreId, b: CoreId) -> Mbps {
        let ab = self.find_edge(a, b).map_or(Mbps::ZERO, |e| self.edges[e.index()].bandwidth);
        let ba = self.find_edge(b, a).map_or(Mbps::ZERO, |e| self.edges[e.index()].bandwidth);
        ab + ba
    }

    /// The undirected view `S(A, B) = makeundirected(G)` as adjacency
    /// lists: entry `c` lists every core that shares an edge with `c`
    /// once, by increasing id, with [`CoreGraph::comm_between`]'s value
    /// bit for bit (`ab + ba`, or the one edge's bandwidth alone, which
    /// `+ 0` leaves unchanged). A pair joined only by zero-bandwidth
    /// edges is listed with weight 0.
    ///
    /// Built from the edge lists in O(|V| + |E| log deg) per call; the
    /// greedy placements build it once, where asking `comm_between` of
    /// every pair costs two hash lookups a pair.
    pub fn undirected_neighbours(&self) -> Vec<Vec<(CoreId, Mbps)>> {
        let mut view: Vec<Vec<(CoreId, Mbps)>> = vec![Vec::new(); self.names.len()];
        // `slot[b]`: where `b` sits in the list being built, if it does.
        let mut slot: Vec<Option<usize>> = vec![None; self.names.len()];
        for (a, list) in view.iter_mut().enumerate() {
            let core = CoreId::new(a);
            let ends = self
                .out_edges(core)
                .map(|(_, e)| (e.dst, e.bandwidth))
                .chain(self.in_edges(core).map(|(_, e)| (e.src, e.bandwidth)));
            for (b, bandwidth) in ends {
                match slot[b.index()] {
                    Some(i) => list[i].1 += bandwidth,
                    None => {
                        slot[b.index()] = Some(list.len());
                        list.push((b, bandwidth));
                    }
                }
            }
            for &(b, _) in list.iter() {
                slot[b.index()] = None;
            }
            list.sort_unstable_by_key(|&(b, _)| b);
        }
        view
    }

    /// Sum of all edge bandwidths (aggregate application demand in MB/s).
    pub fn total_bandwidth(&self) -> Mbps {
        self.edges.iter().map(|e| e.bandwidth).sum()
    }

    /// The core with the largest total adjacent communication — the seed
    /// vertex `max_s` of `initialize()`. Ties break toward the lowest id so
    /// the algorithm is deterministic. Returns `None` on an empty graph.
    pub fn max_comm_core(&self) -> Option<CoreId> {
        self.cores().max_by(|&a, &b| {
            // `Mbps` is totally ordered (NaN unrepresentable), so no
            // partial_cmp/expect dance.
            self.total_comm(a).cmp(&self.total_comm(b)).then(b.cmp(&a)) // prefer the *lower* id on ties
        })
    }

    /// Edge ids sorted by decreasing bandwidth (the commodity ordering used
    /// by `shortestpath()`); ties break toward the lower edge id.
    pub fn edges_by_decreasing_bandwidth(&self) -> Vec<EdgeId> {
        let mut ids: Vec<EdgeId> = (0..self.edges.len()).map(EdgeId::new).collect();
        ids.sort_by(|&a, &b| {
            self.edges[b.index()].bandwidth.cmp(&self.edges[a.index()].bandwidth).then(a.cmp(&b))
        });
        ids
    }

    /// Checks whether the undirected view of the graph is connected.
    /// The empty graph counts as connected.
    pub fn is_connected(&self) -> bool {
        if self.names.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.names.len()];
        let mut stack = vec![CoreId::new(0)];
        seen[0] = true;
        let mut visited = 1usize;
        while let Some(v) = stack.pop() {
            let neighbours =
                self.out_edges(v).map(|(_, e)| e.dst).chain(self.in_edges(v).map(|(_, e)| e.src));
            for n in neighbours {
                if !seen[n.index()] {
                    seen[n.index()] = true;
                    visited += 1;
                    stack.push(n);
                }
            }
        }
        visited == self.names.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (CoreGraph, CoreId, CoreId, CoreId) {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        let c = g.add_core("c");
        g.add_comm(a, b, 100.0).unwrap();
        g.add_comm(b, c, 50.0).unwrap();
        g.add_comm(c, a, 25.0).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn counts_and_lookup() {
        let (g, a, b, c) = triangle();
        assert_eq!(g.core_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.find_edge(a, b).is_some());
        assert!(g.find_edge(b, a).is_none());
        assert_eq!(g.name(c), "c");
    }

    #[test]
    fn total_comm_sums_both_directions() {
        let (g, a, b, _) = triangle();
        // a: out 100 (a->b), in 25 (c->a)
        assert_eq!(g.total_comm(a).to_f64(), 125.0);
        // b: out 50, in 100
        assert_eq!(g.total_comm(b).to_f64(), 150.0);
    }

    #[test]
    fn comm_between_is_symmetric() {
        let (mut g, a, b, _) = triangle();
        assert_eq!(g.comm_between(a, b).to_f64(), 100.0);
        assert_eq!(g.comm_between(b, a).to_f64(), 100.0);
        g.add_comm(b, a, 11.0).unwrap();
        assert_eq!(g.comm_between(a, b).to_f64(), 111.0);
    }

    #[test]
    fn undirected_neighbours_merge_both_directions() {
        let (mut g, a, b, c) = triangle();
        g.add_comm(b, a, 11.0).unwrap();
        let d = g.add_core("isolated");
        let view = g.undirected_neighbours();
        let weights = |core: CoreId| -> Vec<(CoreId, f64)> {
            view[core.index()].iter().map(|&(n, w)| (n, w.to_f64())).collect()
        };
        assert_eq!(weights(a), vec![(b, 111.0), (c, 25.0)]);
        assert_eq!(weights(b), vec![(a, 111.0), (c, 50.0)]);
        assert_eq!(weights(c), vec![(a, 25.0), (b, 50.0)]);
        assert!(view[d.index()].is_empty());
    }

    #[test]
    fn max_comm_core_matches_paper_seed_rule() {
        let (g, _, b, _) = triangle();
        assert_eq!(g.max_comm_core(), Some(b));
        assert_eq!(CoreGraph::new().max_comm_core(), None);
    }

    #[test]
    fn max_comm_core_breaks_ties_toward_lower_id() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        let c = g.add_core("c");
        let d = g.add_core("d");
        g.add_comm(a, b, 10.0).unwrap();
        g.add_comm(c, d, 10.0).unwrap();
        assert_eq!(g.max_comm_core(), Some(a));
    }

    #[test]
    fn commodity_ordering_is_decreasing_and_stable() {
        let (g, _, _, _) = triangle();
        let order = g.edges_by_decreasing_bandwidth();
        let bws: Vec<f64> = order.iter().map(|&e| g.edge(e).bandwidth.to_f64()).collect();
        assert_eq!(bws, vec![100.0, 50.0, 25.0]);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        assert_eq!(g.add_comm(a, a, 1.0), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let (mut g, a, b, _) = triangle();
        assert_eq!(g.add_comm(a, b, 1.0), Err(GraphError::DuplicateEdge(a, b)));
    }

    #[test]
    fn rejects_bad_bandwidth() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        assert!(matches!(g.add_comm(a, b, -1.0), Err(GraphError::InvalidBandwidth(_))));
        assert!(matches!(g.add_comm(a, b, f64::NAN), Err(GraphError::InvalidBandwidth(_))));
        assert!(matches!(g.add_comm(a, b, f64::INFINITY), Err(GraphError::InvalidBandwidth(_))));
        assert!(matches!(g.add_comm(a, b, 1e308), Err(GraphError::InvalidBandwidth(_))));
        assert!(g.add_comm(a, b, MAX_BANDWIDTH).is_ok(), "the cap itself is accepted");
    }

    #[test]
    fn rejects_unknown_core() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let ghost = CoreId::new(9);
        assert_eq!(g.add_comm(a, ghost, 1.0), Err(GraphError::UnknownCore(ghost)));
        assert_eq!(g.add_comm(ghost, a, 1.0), Err(GraphError::UnknownCore(ghost)));
    }

    #[test]
    fn zero_bandwidth_edges_are_allowed() {
        // Control edges of negligible rate may legitimately be modeled as 0.
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        assert!(g.add_comm(a, b, 0.0).is_ok());
    }

    #[test]
    fn connectivity() {
        let (g, ..) = triangle();
        assert!(g.is_connected());
        let mut g2 = CoreGraph::new();
        g2.add_core("x");
        g2.add_core("y");
        assert!(!g2.is_connected());
        assert!(CoreGraph::new().is_connected());
    }

    #[test]
    fn adjacency_iterators_agree_with_edges() {
        let (g, a, b, c) = triangle();
        let outs: Vec<CoreId> = g.out_edges(a).map(|(_, e)| e.dst).collect();
        assert_eq!(outs, vec![b]);
        let ins: Vec<CoreId> = g.in_edges(a).map(|(_, e)| e.src).collect();
        assert_eq!(ins, vec![c]);
    }

    #[test]
    fn total_bandwidth_sums_all_edges() {
        let (g, ..) = triangle();
        assert_eq!(g.total_bandwidth().to_f64(), 175.0);
    }
}

//! Graph algorithms over [`Topology`]: BFS hop counts, from a node or to
//! it, and [`PathSearch`], the one shortest-path searcher (the engine
//! inside the paper's `shortestpath()` routine and the pricing step of
//! the MCF column generation).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::{LinkId, NodeId, Topology};

/// Breadth-first hop distances from `source` to every node.
///
/// `result[i]` is `None` when node `i` is unreachable.
pub fn bfs_hops(topology: &Topology, source: NodeId) -> Vec<Option<usize>> {
    bfs(topology, source, false)
}

/// Breadth-first hop distances from every node to `dest`, found by the
/// same search run over in-links.
///
/// `result[i]` is `None` when `dest` is unreachable from node `i`.
pub(crate) fn bfs_hops_to(topology: &Topology, dest: NodeId) -> Vec<Option<usize>> {
    bfs(topology, dest, true)
}

/// The one BFS loop: hop counts from `start` over out-links, or to
/// `start` over in-links when `reverse` is set.
fn bfs(topology: &Topology, start: NodeId, reverse: bool) -> Vec<Option<usize>> {
    let mut dist = vec![None; topology.node_count()];
    dist[start.index()] = Some(0);
    let mut queue = VecDeque::from([start]);
    while let Some(n) = queue.pop_front() {
        let d = dist[n.index()].expect("queued nodes have distances");
        let mut visit = |next: NodeId| {
            if dist[next.index()].is_none() {
                dist[next.index()] = Some(d + 1);
                queue.push_back(next);
            }
        };
        if reverse {
            topology.in_links(n).for_each(|(_, link)| visit(link.src));
        } else {
            topology.out_links(n).for_each(|(_, link)| visit(link.dst));
        }
    }
    dist
}

/// A reusable Dijkstra searcher over one [`Topology`], with caller-chosen
/// links and step costs: the single-path router queries it under load
/// weights, the MCF pricer under link duals.
///
/// Nodes settle in `(cost, hops, node id)` order, and a link is relaxed
/// only when it strictly improves its head's `(cost, hops)`. So among
/// equally cheap paths the one with the fewest hops wins, and ties beyond
/// that resolve deterministically (lowest node id settled first, links
/// relaxed in adjacency order). The buffers are sized to the topology
/// once and reused by every query.
#[derive(Debug, Clone)]
pub struct PathSearch<'t> {
    topology: &'t Topology,
    /// Best `(cost, hops)` found so far, per node.
    best: Vec<(f64, usize)>,
    /// The link that set each node's best, per node.
    prev: Vec<Option<LinkId>>,
    settled: Vec<bool>,
    heap: BinaryHeap<Queued>,
    /// Links of the last path found, in travel order.
    path: Vec<LinkId>,
}

impl<'t> PathSearch<'t> {
    /// A searcher with its buffers sized to `topology`.
    pub fn new(topology: &'t Topology) -> Self {
        let n = topology.node_count();
        Self {
            topology,
            best: vec![(f64::INFINITY, usize::MAX); n],
            prev: vec![None; n],
            settled: vec![false; n],
            heap: BinaryHeap::new(),
            path: Vec::new(),
        }
    }

    /// The topology this searcher runs on.
    pub fn topology(&self) -> &'t Topology {
        self.topology
    }

    /// The cheapest `source → dest` path over the links `allowed` admits:
    /// its cost and its links in travel order, or `None` when no allowed
    /// path reaches `dest`. `step(cost, link)` is the cost of a path that
    /// reaches `link`'s tail at `cost` and then takes `link`; each caller
    /// writes its own arithmetic there, so the association of its sums
    /// (and with it every tie) is its own. A step must keep the cost
    /// finite and never lower it (debug-asserted).
    ///
    /// # Panics
    ///
    /// Panics if `source` or `dest` is out of range.
    // lint: allow(f64-api) — generic path costs: the caller picks the
    // cost dimension (load weights, LP duals) through `step`.
    pub fn cheapest<A, S>(
        &mut self,
        source: NodeId,
        dest: NodeId,
        mut allowed: A,
        mut step: S,
    ) -> Option<(f64, &[LinkId])>
    where
        A: FnMut(LinkId) -> bool,
        S: FnMut(f64, LinkId) -> f64,
    {
        self.best.fill((f64::INFINITY, usize::MAX));
        self.prev.fill(None);
        self.settled.fill(false);
        self.heap.clear();
        self.best[source.index()] = (0.0, 0);
        self.heap.push(Queued { cost: 0.0, hops: 0, node: source });
        while let Some(Queued { cost, hops, node }) = self.heap.pop() {
            if std::mem::replace(&mut self.settled[node.index()], true) {
                continue;
            }
            if node == dest {
                break;
            }
            for (id, link) in self.topology.out_links(node) {
                if !allowed(id) {
                    continue;
                }
                let next = step(cost, id);
                debug_assert!(next.is_finite() && next >= cost, "step {cost} -> {next} on {id}");
                let head = link.dst.index();
                if lexicographic((next, hops + 1), self.best[head]) == Ordering::Less {
                    self.best[head] = (next, hops + 1);
                    self.prev[head] = Some(id);
                    self.heap.push(Queued { cost: next, hops: hops + 1, node: link.dst });
                }
            }
        }
        let (cost, hops) = self.best[dest.index()];
        if !cost.is_finite() {
            return None;
        }
        self.path.clear();
        let mut at = dest;
        while at != source {
            let link = self.prev[at.index()].expect("reached nodes have a predecessor");
            self.path.push(link);
            at = self.topology.link(link).src;
        }
        self.path.reverse();
        debug_assert_eq!(self.path.len(), hops);
        Some((cost, &self.path))
    }
}

fn lexicographic(a: (f64, usize), b: (f64, usize)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// A heap entry, ordered so that `BinaryHeap` (a max-heap) pops the
/// smallest `(cost, hops, node)` first.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Queued {
    cost: f64,
    hops: usize,
    node: NodeId,
}

impl Eq for Queued {}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        lexicographic((other.cost, other.hops), (self.cost, self.hops))
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    /// The cheapest path as owned `(cost, links)`.
    fn cheapest(
        t: &Topology,
        a: NodeId,
        b: NodeId,
        weight: impl Fn(LinkId) -> f64,
        allowed: impl Fn(LinkId) -> bool,
    ) -> Option<(f64, Vec<LinkId>)> {
        PathSearch::new(t)
            .cheapest(a, b, allowed, |cost, l| cost + weight(l))
            .map(|(cost, links)| (cost, links.to_vec()))
    }

    /// The nodes a path visits, source first.
    fn nodes_of(t: &Topology, source: NodeId, links: &[LinkId]) -> Vec<NodeId> {
        std::iter::once(source).chain(links.iter().map(|&l| t.link(l).dst)).collect()
    }

    #[test]
    fn bfs_matches_manhattan_on_mesh() {
        let m = Topology::mesh(4, 3, 1.0);
        let src = m.node_at(0, 0).unwrap();
        let hops = bfs_hops(&m, src);
        for node in m.nodes() {
            assert_eq!(hops[node.index()], Some(m.hop_distance(src, node)));
        }
    }

    #[test]
    fn bfs_reports_unreachable() {
        let t = Topology::custom(3, [(NodeId::new(0), NodeId::new(1), 1.0)]).unwrap();
        let hops = bfs_hops(&t, NodeId::new(0));
        assert_eq!(hops, vec![Some(0), Some(1), None]);
    }

    #[test]
    fn reverse_bfs_counts_hops_to_the_node() {
        // A directed 4-ring 0→1→2→3→0: the hops to 0 are the hops from 0
        // read the other way round.
        let ring = (0..4).map(|i| (NodeId::new(i), NodeId::new((i + 1) % 4), 1.0));
        let t = Topology::custom(4, ring).unwrap();
        assert_eq!(bfs_hops_to(&t, NodeId::new(0)), vec![Some(0), Some(3), Some(2), Some(1)]);
        let chain = Topology::custom(3, [(NodeId::new(0), NodeId::new(1), 1.0)]).unwrap();
        assert_eq!(bfs_hops_to(&chain, NodeId::new(1)), vec![Some(1), Some(0), None]);
    }

    #[test]
    fn dijkstra_unit_weights_equals_hop_distance() {
        let m = Topology::mesh(4, 4, 1.0);
        let a = m.node_at(0, 0).unwrap();
        let b = m.node_at(3, 2).unwrap();
        let (cost, links) = cheapest(&m, a, b, |_| 1.0, |_| true).unwrap();
        assert_eq!(links.len(), m.hop_distance(a, b));
        assert_eq!(cost, m.hop_distance(a, b) as f64);
        let nodes = nodes_of(&m, a, &links);
        assert_eq!(nodes.first(), Some(&a));
        assert_eq!(nodes.last(), Some(&b));
    }

    #[test]
    fn dijkstra_trivial_source_equals_dest() {
        let m = Topology::mesh(2, 2, 1.0);
        let a = m.node_at(1, 1).unwrap();
        let (cost, links) = cheapest(&m, a, a, |_| 1.0, |_| true).unwrap();
        assert!(links.is_empty());
        assert_eq!(cost, 0.0);
        assert_eq!(nodes_of(&m, a, &links), vec![a]);
    }

    #[test]
    fn dijkstra_avoids_heavy_links() {
        // 2x2 mesh with the direct link made costly.
        let m = Topology::mesh(2, 2, 1.0);
        let a = m.node_at(0, 0).unwrap();
        let b = m.node_at(1, 0).unwrap();
        let direct = m.find_link(a, b).unwrap();
        let weight = |l| if l == direct { 10.0 } else { 1.0 };
        let (cost, links) = cheapest(&m, a, b, weight, |_| true).unwrap();
        // Detour via (0,1) and (1,1): 3 hops of weight 1 < direct 10.
        assert_eq!(links.len(), 3);
        assert_eq!(cost, 3.0);
    }

    #[test]
    fn dijkstra_respects_allowed_filter() {
        let m = Topology::mesh(3, 1, 1.0);
        let a = NodeId::new(0);
        let c = NodeId::new(2);
        let forbidden = m.find_link(NodeId::new(1), c).unwrap();
        assert!(cheapest(&m, a, c, |_| 1.0, |l| l != forbidden).is_none());
    }

    #[test]
    fn dijkstra_handles_zero_weights() {
        let m = Topology::mesh(3, 3, 1.0);
        let a = m.node_at(0, 0).unwrap();
        let b = m.node_at(2, 2).unwrap();
        let (cost, links) = cheapest(&m, a, b, |_| 0.0, |_| true).unwrap();
        assert_eq!(cost, 0.0);
        let nodes = nodes_of(&m, a, &links);
        assert_eq!(nodes.first(), Some(&a));
        assert_eq!(nodes.last(), Some(&b));
        // Every path is free, so the fewest hops win.
        assert_eq!(links.len(), m.hop_distance(a, b));
    }

    #[test]
    fn cost_ties_go_to_the_fewest_hops() {
        // 0→1→2→4 and 0→3→4 both cost 1. Node 2 (two free hops out) has a
        // lower id than node 3 (one), so only the hop count in the settle
        // order and in the relaxation test picks the 2-hop path.
        let arcs = [(0, 1, 0.0), (1, 2, 0.0), (2, 4, 1.0), (0, 3, 0.0), (3, 4, 1.0)];
        let t = Topology::custom(5, arcs.map(|(u, v, _)| (NodeId::new(u), NodeId::new(v), 1.0)))
            .unwrap();
        let (cost, links) =
            cheapest(&t, NodeId::new(0), NodeId::new(4), |l| arcs[l.index()].2, |_| true).unwrap();
        assert_eq!(cost, 1.0);
        assert_eq!(nodes_of(&t, NodeId::new(0), &links), [0, 3, 4].map(NodeId::new));
    }

    #[test]
    fn dijkstra_is_deterministic() {
        let m = Topology::mesh(5, 5, 1.0);
        let a = m.node_at(0, 0).unwrap();
        let b = m.node_at(4, 4).unwrap();
        let p1 = cheapest(&m, a, b, |_| 1.0, |_| true).unwrap();
        // A reused searcher answers a query exactly as a fresh one does.
        let mut search = PathSearch::new(&m);
        search.cheapest(b, a, |_| true, |cost, _| cost + 1.0).unwrap();
        let (cost, links) = search.cheapest(a, b, |_| true, |cost, _| cost + 1.0).unwrap();
        assert_eq!(p1, (cost, links.to_vec()));
    }

    #[test]
    fn path_links_are_consistent_with_nodes() {
        let m = Topology::mesh(4, 4, 1.0);
        let a = m.node_at(1, 0).unwrap();
        let b = m.node_at(2, 3).unwrap();
        let (_, links) = cheapest(&m, a, b, |_| 1.0, |_| true).unwrap();
        let nodes = nodes_of(&m, a, &links);
        for (i, &link) in links.iter().enumerate() {
            let l = m.link(link);
            assert_eq!(l.src, nodes[i]);
            assert_eq!(l.dst, nodes[i + 1]);
        }
    }
}

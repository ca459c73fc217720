//! The **quadrant graph** `Q(d_k)` of a commodity (Section 5).
//!
//! For a commodity with source `s` and destination `t` on a mesh, the
//! shortest paths all lie inside the axis-aligned rectangle spanned by `s`
//! and `t`. We represent the quadrant as the DAG of *productive* links:
//! links `(u, v)` with `dist(v, t) = dist(u, t) - 1`. Every `s → t` path in
//! this DAG is a minimal path, so a shortest-path search over it always
//! returns a minimum-hop route — exactly what "single minimum-path routing"
//! requires — and restricting the split-traffic MCF to these links yields
//! the equal-hop-delay (low-jitter) NMAPTM variant of Equation 10.
//!
//! The definition via distances generalizes beyond 2-D meshes: on a torus
//! the quadrant follows the shorter wrap direction, on an N-dimensional
//! grid the "quadrant" is really the **orthant** spanned by the per-axis
//! productive directions (the same DAG-of-productive-links construction,
//! with distances summed axis by axis), and on custom topologies it
//! degenerates to the union of all BFS-minimal paths.

use crate::algo::bfs_hops_to;
use crate::{bfs_hops, LinkId, NodeId, Topology, TopologyKind};

/// The set of productive links for one source/destination pair, plus the
/// membership test used by routing and the MCF builder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuadrantDag {
    source: NodeId,
    dest: NodeId,
    links: Vec<LinkId>,
    member: Vec<bool>,
}

impl QuadrantDag {
    /// Builds the quadrant DAG for the commodity `source → dest`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range or (for custom topologies) if
    /// `dest` is unreachable from `source`.
    pub fn new(topology: &Topology, source: NodeId, dest: NodeId) -> Self {
        let links = quadrant_links(topology, source, dest);
        let mut member = vec![false; topology.link_count()];
        for &l in &links {
            member[l.index()] = true;
        }
        Self { source, dest, links, member }
    }

    /// Source node of the commodity.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Destination node of the commodity.
    pub fn dest(&self) -> NodeId {
        self.dest
    }

    /// All productive links, in topology order.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// True if `link` is productive for this commodity.
    #[inline]
    pub fn contains(&self, link: LinkId) -> bool {
        self.member[link.index()]
    }
}

/// Computes the productive links of the quadrant `Q(source → dest)`:
/// all links `(u, v)` such that `dist(u, dest) = dist(v, dest) + 1` **and**
/// `u` lies on some minimal `source → dest` path (i.e.
/// `dist(source, u) + dist(u, dest) = dist(source, dest)`).
///
/// # Panics
///
/// Panics if either node is out of range, or the pair is disconnected in a
/// custom topology.
pub fn quadrant_links(topology: &Topology, source: NodeId, dest: NodeId) -> Vec<LinkId> {
    let (dist_to_dest, dist_from_source): (Vec<usize>, Vec<usize>) = match topology.kind() {
        TopologyKind::Grid(_) => (
            topology.nodes().map(|n| topology.hop_distance(n, dest)).collect(),
            topology.nodes().map(|n| topology.hop_distance(source, n)).collect(),
        ),
        TopologyKind::Custom => {
            let to_dest = bfs_hops_to(topology, dest);
            let from_source = bfs_hops(topology, source);
            if from_source[dest.index()].is_none() {
                panic!("{}", crate::GraphError::Disconnected(source, dest));
            }
            let big = usize::MAX / 2;
            (
                to_dest.iter().map(|d| d.unwrap_or(big)).collect(),
                from_source.iter().map(|d| d.unwrap_or(big)).collect(),
            )
        }
    };

    let shortest = dist_from_source[dest.index()];
    topology
        .links()
        .filter_map(|(id, link)| {
            let u = link.src.index();
            let v = link.dst.index();
            let productive = dist_to_dest[u] == dist_to_dest[v].wrapping_add(1);
            let on_minimal_path = dist_from_source[u]
                .checked_add(dist_to_dest[u])
                .is_some_and(|total| total == shortest);
            (productive && on_minimal_path).then_some(id)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    /// All quadrant links of a mesh commodity stay in the bounding box.
    #[test]
    fn mesh_quadrant_is_bounding_box() {
        let m = Topology::mesh(4, 4, 1.0);
        let s = m.node_at(1, 3).unwrap(); // v14-ish in paper numbering
        let t = m.node_at(2, 1).unwrap();
        let q = QuadrantDag::new(&m, s, t);
        assert!(!q.links().is_empty());
        for &l in q.links() {
            let link = m.link(l);
            for node in [link.src, link.dst] {
                let (x, y) = m.coords(node);
                assert!((1..=2).contains(&x), "x {x} outside quadrant");
                assert!((1..=3).contains(&y), "y {y} outside quadrant");
            }
        }
    }

    /// Every maximal walk in the quadrant DAG from source reaches dest in
    /// exactly `dist` hops (equal-hop-delay property behind NMAPTM).
    #[test]
    fn all_quadrant_paths_are_minimal() {
        let m = Topology::mesh(5, 4, 1.0);
        let s = m.node_at(0, 0).unwrap();
        let t = m.node_at(3, 2).unwrap();
        let q = QuadrantDag::new(&m, s, t);
        let want = m.hop_distance(s, t);
        // DFS over productive links counting depth.
        fn dfs(
            m: &Topology,
            q: &QuadrantDag,
            node: crate::NodeId,
            t: crate::NodeId,
            depth: usize,
            want: usize,
        ) {
            if node == t {
                assert_eq!(depth, want, "non-minimal quadrant path");
                return;
            }
            let mut found = false;
            for (id, l) in m.out_links(node) {
                if q.contains(id) {
                    found = true;
                    dfs(m, q, l.dst, t, depth + 1, want);
                }
            }
            assert!(found, "dead end inside quadrant at {node}");
        }
        dfs(&m, &q, s, t, 0, want);
    }

    /// On a 3-D grid the construction yields the orthant (axis-aligned
    /// box) spanned by the endpoints, and every walk stays minimal.
    #[test]
    fn orthant_on_3d_mesh_is_bounding_box_and_minimal() {
        let m = Topology::mesh_nd(&[4, 3, 2], 1.0).unwrap();
        let s = m.node_at_coords(&[0, 2, 1]).unwrap();
        let t = m.node_at_coords(&[2, 0, 0]).unwrap();
        let q = QuadrantDag::new(&m, s, t);
        assert!(!q.links().is_empty());
        for &l in q.links() {
            let link = m.link(l);
            for node in [link.src, link.dst] {
                let c = m.grid_coords(node);
                assert!((0..=2).contains(&c[0]), "x {} outside orthant", c[0]);
                assert!((0..=2).contains(&c[1]), "y {} outside orthant", c[1]);
                assert!((0..=1).contains(&c[2]), "z {} outside orthant", c[2]);
            }
        }
        // Every maximal walk from s terminates at t in exactly dist hops.
        fn dfs(m: &Topology, q: &QuadrantDag, node: crate::NodeId, t: crate::NodeId, left: usize) {
            if node == t {
                assert_eq!(left, 0, "non-minimal orthant path");
                return;
            }
            assert!(left > 0, "walk overshot the hop budget at {node}");
            let mut found = false;
            for (id, l) in m.out_links(node) {
                if q.contains(id) {
                    found = true;
                    dfs(m, q, l.dst, t, left - 1);
                }
            }
            assert!(found, "dead end inside orthant at {node}");
        }
        dfs(&m, &q, s, t, m.hop_distance(s, t));
    }

    #[test]
    fn quadrant_link_count_on_mesh_rectangle() {
        // Rectangle (0,0)..(2,1): 3x2 block. Productive links: rightward
        // 2 per row * 2 rows = 4, downward 1 per column * 3 cols = 3.
        let m = Topology::mesh(4, 4, 1.0);
        let s = m.node_at(0, 0).unwrap();
        let t = m.node_at(2, 1).unwrap();
        let q = QuadrantDag::new(&m, s, t);
        assert_eq!(q.links().len(), 7);
    }

    #[test]
    fn colinear_quadrant_is_a_single_path() {
        let m = Topology::mesh(4, 4, 1.0);
        let s = m.node_at(0, 2).unwrap();
        let t = m.node_at(3, 2).unwrap();
        let q = QuadrantDag::new(&m, s, t);
        assert_eq!(q.links().len(), 3);
    }

    #[test]
    fn quadrant_on_torus_prefers_wrap_direction() {
        let t = Topology::torus(5, 5, 1.0);
        let a = t.node_at(0, 0).unwrap();
        let b = t.node_at(4, 0).unwrap();
        let q = QuadrantDag::new(&t, a, b);
        // Minimal distance is 1 via the wrap link; the quadrant must be
        // exactly that link.
        assert_eq!(q.links().len(), 1);
        let l = t.link(q.links()[0]);
        assert_eq!((l.src, l.dst), (a, b));
    }

    #[test]
    fn quadrant_on_custom_topology_uses_bfs() {
        use crate::NodeId;
        // Diamond: 0->1->3, 0->2->3, plus slow edge 0->3 via 4 (longer).
        let t = Topology::custom(
            5,
            [
                (NodeId::new(0), NodeId::new(1), 1.0),
                (NodeId::new(0), NodeId::new(2), 1.0),
                (NodeId::new(1), NodeId::new(3), 1.0),
                (NodeId::new(2), NodeId::new(3), 1.0),
                (NodeId::new(0), NodeId::new(4), 1.0),
                (NodeId::new(4), NodeId::new(3), 1.0),
            ],
        )
        .unwrap();
        let q = QuadrantDag::new(&t, NodeId::new(0), NodeId::new(3));
        // 0->4->3 is also a 2-hop path, so 6 links qualify... wait: both
        // diamond arms and the 4-arm are 2 hops, so all 6 links qualify.
        assert_eq!(q.links().len(), 6);
    }

    #[test]
    fn contains_matches_link_list() {
        let m = Topology::mesh(4, 4, 1.0);
        let q = QuadrantDag::new(&m, m.node_at(0, 0).unwrap(), m.node_at(3, 3).unwrap());
        for (id, _) in m.links() {
            assert_eq!(q.contains(id), q.links().contains(&id));
        }
    }

    #[test]
    fn source_dest_accessors() {
        let m = Topology::mesh(2, 2, 1.0);
        let s = m.node_at(0, 0).unwrap();
        let t = m.node_at(1, 1).unwrap();
        let q = QuadrantDag::new(&m, s, t);
        assert_eq!(q.source(), s);
        assert_eq!(q.dest(), t);
    }
}

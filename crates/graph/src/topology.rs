//! The **NoC topology graph** `P(U, F)` of Definition 2.
//!
//! Vertices are network nodes (router + network-interface cross-points);
//! a directed edge `(u_i, u_j)` with weight `bw_{i,j}` is a physical link
//! with that much bandwidth capacity. The paper restricts itself to 2-D
//! meshes and tori; this module supports dimension-generic grids (2-D and
//! 3-D meshes/tori are the `dims = [w, h]` / `[w, h, d]` special cases of
//! one [`Grid`] abstraction) plus arbitrary custom topologies (the
//! "future work" extension of Section 8).

// lint: allow-file(hash-container) — the only hash container here is
// `link_lookup`, a get/insert-only index that is never iterated, so its
// order cannot leak into results.
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use noc_units::Mbps;

use crate::{GraphError, Grid, LinkId, NodeId, Result};

/// The family a [`Topology`] was constructed from.
///
/// Grid topologies carry their [`Grid`] so hop distances, orthant DAGs
/// and dimension-ordered routing can use per-axis closed forms;
/// [`TopologyKind::Custom`] falls back to BFS.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// A dimension-generic grid (mesh, torus, or mixed-wrap).
    Grid(Grid),
    /// Arbitrary directed graph built with [`Topology::custom`].
    Custom,
}

impl TopologyKind {
    /// Human-readable description: `mesh 4x4`, `torus 4x4x2`, `custom`.
    pub fn describe(&self) -> String {
        match self {
            TopologyKind::Grid(grid) => {
                format!("{} {}", grid.kind_keyword(), grid.dims_label())
            }
            TopologyKind::Custom => "custom".to_string(),
        }
    }
}

/// A directed physical link of the NoC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Upstream node `u_i`.
    pub src: NodeId,
    /// Downstream node `u_j`.
    pub dst: NodeId,
    /// Capacity `bw_{i,j}` in MB/s (finite and positive by
    /// construction — every constructor validates through
    /// [`Mbps::positive`]).
    pub capacity: Mbps,
}

/// The NoC topology graph `P(U, F)` (Definition 2 in the paper).
///
/// # Example
///
/// ```
/// use noc_graph::{Topology, NodeId};
///
/// let mesh = Topology::mesh(4, 4, 1_000.0);
/// assert_eq!(mesh.node_count(), 16);
/// // A 4x4 mesh has 24 bidirectional channels = 48 directed links.
/// assert_eq!(mesh.link_count(), 48);
/// assert_eq!(mesh.hop_distance(NodeId::new(0), NodeId::new(15)), 6);
///
/// // 3-D grids fall out of the same machinery.
/// let cube = Topology::mesh_nd(&[4, 4, 2], 1_000.0).unwrap();
/// assert_eq!(cube.node_count(), 32);
/// assert_eq!(cube.hop_distance(NodeId::new(0), NodeId::new(31)), 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    kind: TopologyKind,
    node_count: usize,
    links: Vec<Link>,
    out_links: Vec<Vec<LinkId>>,
    in_links: Vec<Vec<LinkId>>,
    link_lookup: HashMap<(NodeId, NodeId), LinkId>,
    /// Number of coordinates per node (the grid rank; 2 for custom).
    rank: usize,
    /// Flattened node coordinates, `rank` entries per node; synthesized
    /// `(i, 0)` for custom topologies.
    coords: Vec<usize>,
    /// Custom topologies' hop rows, filled on first query.
    hop_rows: HopRows,
}

/// Marks a node that a hop row's source cannot reach.
const UNREACHABLE: u32 = u32::MAX;

/// The BFS hop counts from each source of a custom topology, each row
/// computed by [`crate::algo::bfs_hops`] on its first query and kept.
/// One `OnceLock` per source: rows fill from any thread, and no
/// node-count² table exists before it is asked for. Grids keep none.
/// A memo, not part of the topology's value: every memo compares equal
/// and prints alike, filled or not.
#[derive(Clone, Default)]
struct HopRows(Vec<OnceLock<Box<[u32]>>>);

impl PartialEq for HopRows {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for HopRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("HopRows")
    }
}

impl HopRows {
    /// The hop counts from `source` to every node ([`UNREACHABLE`] where
    /// there is no path).
    fn row(&self, topology: &Topology, source: NodeId) -> &[u32] {
        self.0[source.index()].get_or_init(|| {
            crate::algo::bfs_hops(topology, source)
                .into_iter()
                .map(|hops| {
                    hops.map_or(UNREACHABLE, |h| u32::try_from(h).expect("hop count fits u32"))
                })
                .collect()
        })
    }
}

impl Topology {
    /// Builds a `width × height` mesh whose links all have capacity
    /// `link_capacity` MB/s. Nodes are numbered row-major: node `(x, y)` is
    /// `y * width + x`. The 2-D spelling of [`Topology::mesh_nd`].
    ///
    /// # Panics
    ///
    /// Panics if `width == 0 || height == 0` or if `link_capacity` is not a
    /// finite positive number. Use [`Topology::mesh_nd`] for fallible
    /// construction.
    // lint: allow(f64-api) — checked boundary intake: validated via `Mbps::positive`.
    pub fn mesh(width: usize, height: usize, link_capacity: f64) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        Self::mesh_nd(&[width, height], link_capacity)
            .unwrap_or_else(|e| panic!("link capacity invalid: {e}"))
    }

    /// Builds a `width × height` torus (mesh plus wrap-around links), all
    /// links with capacity `link_capacity` MB/s. The 2-D spelling of
    /// [`Topology::torus_nd`].
    ///
    /// Dimensions of size 1 or 2 get no wrap link in that dimension (it
    /// would duplicate an existing channel).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Topology::mesh`].
    // lint: allow(f64-api) — checked boundary intake: validated via `Mbps::positive`.
    pub fn torus(width: usize, height: usize, link_capacity: f64) -> Self {
        assert!(width > 0 && height > 0, "torus dimensions must be non-zero");
        Self::torus_nd(&[width, height], link_capacity)
            .unwrap_or_else(|e| panic!("link capacity invalid: {e}"))
    }

    /// Builds an N-dimensional mesh with the given per-axis extents, all
    /// links at `link_capacity` MB/s. Axis 0 varies fastest in the node
    /// numbering (see [`Grid`]); `dims = [w, h]` reproduces
    /// [`Topology::mesh`] exactly, link ids included.
    ///
    /// # Errors
    ///
    /// * [`GraphError::EmptyTopology`] / [`GraphError::ZeroExtent`] for
    ///   empty or zero-extent dimension lists.
    /// * [`GraphError::InvalidCapacity`] for non-finite or non-positive
    ///   capacities.
    // lint: allow(f64-api) — checked boundary intake: validated via `Mbps::positive`.
    pub fn mesh_nd(dims: &[usize], link_capacity: f64) -> Result<Self> {
        Self::grid(Grid::mesh(dims)?, link_capacity)
    }

    /// Builds an N-dimensional torus (every axis wraps; wraps on axes of
    /// extent ≤ 2 are skipped as in [`Topology::torus`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Topology::mesh_nd`].
    // lint: allow(f64-api) — checked boundary intake: validated via `Mbps::positive`.
    pub fn torus_nd(dims: &[usize], link_capacity: f64) -> Result<Self> {
        Self::grid(Grid::torus(dims)?, link_capacity)
    }

    /// Builds the topology of an arbitrary [`Grid`] (per-axis extents and
    /// wrap flags), all links at `link_capacity` MB/s.
    ///
    /// Links are created in a fixed order: first the mesh channels, node
    /// by node in index order (per node: axis 0 neighbour first), then the
    /// wrap channels axis by axis. For 2-D grids this reproduces the
    /// historical [`Topology::mesh`]/[`Topology::torus`] link ids exactly.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidCapacity`] for non-finite or non-positive
    /// capacities.
    // lint: allow(f64-api) — checked boundary intake: the bare capacity is
    // validated into `Mbps` before any link is built.
    pub fn grid(grid: Grid, link_capacity: f64) -> Result<Self> {
        let capacity = Mbps::positive(link_capacity)
            .map_err(|_| GraphError::InvalidCapacity(link_capacity))?;
        let node_count = grid.node_count();
        let rank = grid.rank();
        // Build with a placeholder kind so `grid` stays borrowable for the
        // link loops; it moves into the kind at the end.
        let mut t = Self::empty(TopologyKind::Custom, node_count, rank);
        let mut scratch = Vec::with_capacity(rank);
        for index in 0..node_count {
            grid.coords_into(index, &mut scratch);
            t.coords[index * rank..(index + 1) * rank].copy_from_slice(&scratch);
        }
        // Mesh channels: node-index order, axis 0 first within each node.
        for index in 0..node_count {
            grid.coords_into(index, &mut scratch);
            for (axis, &coord) in scratch.iter().enumerate() {
                if coord + 1 < grid.axis(axis).extent {
                    let here = NodeId::new(index);
                    let next = NodeId::new(index + grid.stride(axis));
                    t.push_bidirectional(here, next, capacity);
                }
            }
        }
        // Wrap channels: axis by axis, last-coordinate nodes in index order.
        for axis in 0..rank {
            let ax = grid.axis(axis);
            if !ax.wraps() {
                continue;
            }
            let span = (ax.extent - 1) * grid.stride(axis);
            for index in 0..node_count {
                if t.coords[index * rank + axis] == ax.extent - 1 {
                    let here = NodeId::new(index);
                    let first = NodeId::new(index - span);
                    t.push_bidirectional(here, first, capacity);
                }
            }
        }
        t.kind = TopologyKind::Grid(grid);
        Ok(t)
    }

    /// Builds an arbitrary topology from `node_count` nodes and directed
    /// `(src, dst, capacity)` links.
    ///
    /// # Errors
    ///
    /// * [`GraphError::EmptyTopology`] if `node_count == 0`.
    /// * [`GraphError::UnknownNode`] for out-of-range endpoints.
    /// * [`GraphError::InvalidCapacity`] for non-finite or non-positive
    ///   capacities.
    // lint: allow(f64-api) — checked boundary intake: validated via `Mbps::positive`.
    pub fn custom(
        node_count: usize,
        links: impl IntoIterator<Item = (NodeId, NodeId, f64)>,
    ) -> Result<Self> {
        if node_count == 0 {
            return Err(GraphError::EmptyTopology);
        }
        let mut t = Self::empty(TopologyKind::Custom, node_count, 2);
        for i in 0..node_count {
            t.coords[i * 2] = i;
        }
        t.hop_rows = HopRows((0..node_count).map(|_| OnceLock::new()).collect());
        for (src, dst, cap) in links {
            if src.index() >= node_count {
                return Err(GraphError::UnknownNode(src));
            }
            if dst.index() >= node_count {
                return Err(GraphError::UnknownNode(dst));
            }
            let capacity = Mbps::positive(cap).map_err(|_| GraphError::InvalidCapacity(cap))?;
            t.push_link(src, dst, capacity);
        }
        Ok(t)
    }

    fn empty(kind: TopologyKind, node_count: usize, rank: usize) -> Self {
        Self {
            kind,
            node_count,
            links: Vec::new(),
            out_links: vec![Vec::new(); node_count],
            in_links: vec![Vec::new(); node_count],
            link_lookup: HashMap::new(),
            rank,
            coords: vec![0; node_count * rank],
            hop_rows: HopRows::default(),
        }
    }

    fn push_link(&mut self, src: NodeId, dst: NodeId, capacity: Mbps) -> LinkId {
        let id = LinkId::new(self.links.len());
        self.links.push(Link { src, dst, capacity });
        self.out_links[src.index()].push(id);
        self.in_links[dst.index()].push(id);
        self.link_lookup.insert((src, dst), id);
        id
    }

    fn push_bidirectional(&mut self, a: NodeId, b: NodeId, capacity: Mbps) {
        self.push_link(a, b, capacity);
        self.push_link(b, a, capacity);
    }

    /// The topology family (grid or custom).
    pub fn kind(&self) -> &TopologyKind {
        &self.kind
    }

    /// The grid structure of a grid topology, `None` for custom ones.
    pub fn grid_structure(&self) -> Option<&Grid> {
        match &self.kind {
            TopologyKind::Grid(g) => Some(g),
            TopologyKind::Custom => None,
        }
    }

    /// Number of nodes `|U|`.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of directed links `|F|`.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Returns the link record for `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn link(&self, link: LinkId) -> Link {
        self.links[link.index()]
    }

    /// Looks up the directed link `src -> dst`.
    pub fn find_link(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.link_lookup.get(&(src, dst)).copied()
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.node_count).map(NodeId::new)
    }

    /// Iterates over all links with their ids.
    pub fn links(&self) -> impl ExactSizeIterator<Item = (LinkId, Link)> + '_ {
        self.links.iter().enumerate().map(|(i, l)| (LinkId::new(i), *l))
    }

    /// Outgoing links of `node` (the paper's adjacency set `Adj_i`).
    pub fn out_links(&self, node: NodeId) -> impl Iterator<Item = (LinkId, Link)> + '_ {
        self.out_links[node.index()].iter().map(move |&id| (id, self.links[id.index()]))
    }

    /// Incoming links of `node`.
    pub fn in_links(&self, node: NodeId) -> impl Iterator<Item = (LinkId, Link)> + '_ {
        self.in_links[node.index()].iter().map(move |&id| (id, self.links[id.index()]))
    }

    /// Number of distinct neighbour nodes reachable over one outgoing link.
    pub fn degree(&self, node: NodeId) -> usize {
        self.out_links[node.index()].len()
    }

    /// The first two grid coordinates `(x, y)` of `node` — the historical
    /// 2-D accessor (`y` is 0 on rank-1 grids; synthetic `(index, 0)` for
    /// custom topologies). Use [`Topology::grid_coords`] for the full
    /// coordinate vector of higher-rank grids.
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        let c = self.grid_coords(node);
        (c[0], c.get(1).copied().unwrap_or(0))
    }

    /// All grid coordinates of `node`, one entry per axis (synthetic
    /// `[index, 0]` for custom topologies).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn grid_coords(&self, node: NodeId) -> &[usize] {
        &self.coords[node.index() * self.rank..(node.index() + 1) * self.rank]
    }

    /// The node at 2-D grid coordinates `(x, y)`.
    ///
    /// Returns `None` if out of range, if the topology is custom, or if
    /// the grid's rank is not 2 (use [`Topology::node_at_coords`] then).
    pub fn node_at(&self, x: usize, y: usize) -> Option<NodeId> {
        match &self.kind {
            TopologyKind::Grid(grid) if grid.rank() == 2 => grid.index_of(&[x, y]).map(NodeId::new),
            _ => None,
        }
    }

    /// The node at the given grid coordinates (one entry per axis).
    ///
    /// Returns `None` if the rank or a coordinate is out of range, or if
    /// the topology is custom.
    pub fn node_at_coords(&self, coords: &[usize]) -> Option<NodeId> {
        match &self.kind {
            TopologyKind::Grid(grid) => grid.index_of(coords).map(NodeId::new),
            TopologyKind::Custom => None,
        }
    }

    /// Minimum hop count `dist(a, b)` between two nodes (Equation 7's
    /// distance). Closed-form per-axis wrap-aware distance for grids
    /// (Manhattan on meshes, torus shortcuts where wraps exist); on
    /// custom topologies a lookup in `a`'s BFS row, which the first query
    /// from `a` computes and every later one reuses.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range, or if the nodes are
    /// disconnected in a custom topology.
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> usize {
        assert!(a.index() < self.node_count, "node {a} out of range");
        assert!(b.index() < self.node_count, "node {b} out of range");
        match &self.kind {
            TopologyKind::Grid(grid) => {
                let ca = self.grid_coords(a);
                let cb = self.grid_coords(b);
                grid.axes()
                    .iter()
                    .zip(ca.iter().zip(cb))
                    .map(|(axis, (&x, &y))| axis.distance(x, y))
                    .sum()
            }
            TopologyKind::Custom => match self.hop_rows.row(self, a)[b.index()] {
                UNREACHABLE => panic!("{}", GraphError::Disconnected(a, b)),
                hops => hops as usize,
            },
        }
    }

    /// The node with the largest number of neighbours — `max_t` in
    /// `initialize()`. Ties break toward the node closest to the geometric
    /// center of the grid, then toward the lowest id, so results are
    /// deterministic and centered (a central seed is what the paper's cost
    /// function rewards).
    pub fn max_degree_node(&self) -> NodeId {
        let center = self.center_coords();
        self.nodes()
            .min_by(|&a, &b| {
                self.degree(b)
                    .cmp(&self.degree(a))
                    .then_with(|| {
                        self.center_distance(a, &center).cmp(&self.center_distance(b, &center))
                    })
                    .then(a.cmp(&b))
            })
            .expect("topology has at least one node")
    }

    fn center_coords(&self) -> Vec<f64> {
        match &self.kind {
            TopologyKind::Grid(grid) => {
                grid.axes().iter().map(|a| (a.extent as f64 - 1.0) / 2.0).collect()
            }
            TopologyKind::Custom => vec![0.0; self.rank],
        }
    }

    fn center_distance(&self, node: NodeId, center: &[f64]) -> u64 {
        // Scaled L1 distance to the center, kept integral for total ordering.
        let d: f64 =
            self.grid_coords(node).iter().zip(center).map(|(&c, &m)| (c as f64 - m).abs()).sum();
        (d * 2.0).round() as u64
    }

    /// True if every node can reach every other node over directed links.
    pub fn is_strongly_connected(&self) -> bool {
        self.unreachable_pair().is_none()
    }

    /// A pair `(a, b)` of nodes with no directed path from `a` to `b`, or
    /// `None` if the topology is strongly connected: the first node that
    /// node 0 cannot reach, else the first node that cannot reach node 0.
    pub fn unreachable_pair(&self) -> Option<(NodeId, NodeId)> {
        if self.node_count == 0 {
            return None;
        }
        let root = NodeId::new(0);
        let missing =
            |hops: Vec<Option<usize>>| hops.iter().position(Option::is_none).map(NodeId::new);
        missing(crate::algo::bfs_hops(self, root))
            .map(|b| (root, b))
            .or_else(|| missing(crate::algo::bfs_hops_to(self, root)).map(|a| (a, root)))
    }

    /// Smallest square-ish mesh `(w, h)` with at least `cores` nodes,
    /// preferring squares then wider-by-one rectangles — the sizing rule the
    /// experiments use when the paper does not state mesh dimensions. It
    /// is [`Grid::fit_dims`] at rank 2, as a pair.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn fit_mesh_dims(cores: usize) -> (usize, usize) {
        let dims = Grid::fit_dims(cores, 2);
        (dims[0], dims[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Axis;

    #[test]
    fn mesh_counts() {
        let m = Topology::mesh(4, 4, 100.0);
        assert_eq!(m.node_count(), 16);
        assert_eq!(m.link_count(), 48);
        let m = Topology::mesh(2, 3, 100.0);
        assert_eq!(m.node_count(), 6);
        // channels: horizontal 1*3, vertical 2*2 => 7 * 2 directed = 14
        assert_eq!(m.link_count(), 14);
        let m = Topology::mesh(1, 1, 100.0);
        assert_eq!(m.link_count(), 0);
    }

    #[test]
    fn mesh_3d_counts() {
        // 4x4x2: x-channels 3*4*2, y-channels 4*3*2, z-channels 4*4*1
        // = 24 + 24 + 16 = 64 bidirectional = 128 directed links.
        let m = Topology::mesh_nd(&[4, 4, 2], 100.0).unwrap();
        assert_eq!(m.node_count(), 32);
        assert_eq!(m.link_count(), 128);
        // 4x4x4 torus: mesh 3*16*3*2 = 288 directed + wraps 16*3 channels
        // * 2 = 96 directed => 384. Every node has degree 6.
        let t = Topology::torus_nd(&[4, 4, 4], 100.0).unwrap();
        assert_eq!(t.link_count(), 384);
        for n in t.nodes() {
            assert_eq!(t.degree(n), 6);
        }
    }

    #[test]
    fn grid_construction_keeps_historical_2d_link_order() {
        // The pre-grid constructors pushed, per node in row-major order,
        // the rightward channel then the downward one; torus wraps came
        // after, all x-wraps (by row) then all y-wraps (by column). Link
        // ids are load-bearing (routing tables, loads, sim layouts), so
        // pin the exact sequence.
        let endpoints = |t: &Topology| -> Vec<(usize, usize)> {
            t.links().map(|(_, l)| (l.src.index(), l.dst.index())).collect()
        };
        let m = Topology::mesh(2, 2, 7.0);
        assert_eq!(
            endpoints(&m),
            vec![(0, 1), (1, 0), (0, 2), (2, 0), (1, 3), (3, 1), (2, 3), (3, 2)]
        );
        let t = Topology::torus(3, 3, 7.0);
        let wraps: Vec<(usize, usize)> = endpoints(&t)[24..].to_vec();
        assert_eq!(
            wraps,
            vec![
                // x-wraps, rows top to bottom (right end first)...
                (2, 0),
                (0, 2),
                (5, 3),
                (3, 5),
                (8, 6),
                (6, 8),
                // ...then y-wraps, columns left to right (bottom end first).
                (6, 0),
                (0, 6),
                (7, 1),
                (1, 7),
                (8, 2),
                (2, 8)
            ]
        );
    }

    #[test]
    fn torus_counts_and_no_duplicate_wraps() {
        let t = Topology::torus(4, 4, 100.0);
        // mesh 48 + wrap: 4 rows * 2 + 4 cols * 2 = 64
        assert_eq!(t.link_count(), 64);
        // width 2: wrap would duplicate the existing channel; must be absent
        let t = Topology::torus(2, 4, 100.0);
        assert_eq!(t.link_count(), Topology::mesh(2, 4, 100.0).link_count() + 2 * 2);
    }

    #[test]
    fn mesh_hop_distance_is_manhattan() {
        let m = Topology::mesh(4, 4, 1.0);
        let a = m.node_at(0, 0).unwrap();
        let b = m.node_at(3, 3).unwrap();
        assert_eq!(m.hop_distance(a, b), 6);
        assert_eq!(m.hop_distance(b, a), 6);
        assert_eq!(m.hop_distance(a, a), 0);
    }

    #[test]
    fn grid_3d_hop_distance_sums_axes() {
        let m = Topology::mesh_nd(&[4, 4, 2], 1.0).unwrap();
        let a = m.node_at_coords(&[0, 0, 0]).unwrap();
        let b = m.node_at_coords(&[3, 3, 1]).unwrap();
        assert_eq!(m.hop_distance(a, b), 7);
        let t = Topology::torus_nd(&[4, 4, 4], 1.0).unwrap();
        let a = t.node_at_coords(&[0, 0, 0]).unwrap();
        let b = t.node_at_coords(&[3, 3, 3]).unwrap();
        assert_eq!(t.hop_distance(a, b), 3, "every axis wraps");
    }

    #[test]
    fn torus_hop_distance_uses_wraparound() {
        let t = Topology::torus(4, 4, 1.0);
        let a = t.node_at(0, 0).unwrap();
        let b = t.node_at(3, 0).unwrap();
        assert_eq!(t.hop_distance(a, b), 1);
        let c = t.node_at(2, 2).unwrap();
        assert_eq!(t.hop_distance(a, c), 4);
    }

    #[test]
    fn torus_size_two_dimension_has_no_shortcut() {
        let t = Topology::torus(2, 5, 1.0);
        let a = t.node_at(0, 0).unwrap();
        let b = t.node_at(1, 0).unwrap();
        assert_eq!(t.hop_distance(a, b), 1);
        let c = t.node_at(0, 4).unwrap();
        assert_eq!(t.hop_distance(a, c), 1); // vertical wrap exists (5 > 2)
    }

    #[test]
    fn max_degree_node_is_central() {
        let m = Topology::mesh(3, 3, 1.0);
        assert_eq!(m.max_degree_node(), m.node_at(1, 1).unwrap());
        let m = Topology::mesh(4, 4, 1.0);
        // Four interior nodes tie on degree 4; closest-to-center tie-break
        // keeps one of (1,1),(2,1),(1,2),(2,2); lowest id wins among equals.
        assert_eq!(m.max_degree_node(), m.node_at(1, 1).unwrap());
        // 3x3x3 mesh: the body center has degree 6 and wins outright.
        let m = Topology::mesh_nd(&[3, 3, 3], 1.0).unwrap();
        assert_eq!(m.max_degree_node(), m.node_at_coords(&[1, 1, 1]).unwrap());
    }

    #[test]
    fn degree_counts() {
        let m = Topology::mesh(3, 3, 1.0);
        assert_eq!(m.degree(m.node_at(0, 0).unwrap()), 2);
        assert_eq!(m.degree(m.node_at(1, 0).unwrap()), 3);
        assert_eq!(m.degree(m.node_at(1, 1).unwrap()), 4);
        let t = Topology::torus(4, 4, 1.0);
        for n in t.nodes() {
            assert_eq!(t.degree(n), 4);
        }
    }

    #[test]
    fn custom_topology_and_bfs_distance() {
        // 0 -> 1 -> 2, 0 -> 2 (one-way ring-ish)
        let t = Topology::custom(
            3,
            [
                (NodeId::new(0), NodeId::new(1), 10.0),
                (NodeId::new(1), NodeId::new(2), 10.0),
                (NodeId::new(2), NodeId::new(0), 10.0),
            ],
        )
        .unwrap();
        assert_eq!(t.hop_distance(NodeId::new(0), NodeId::new(2)), 2);
        assert_eq!(t.hop_distance(NodeId::new(2), NodeId::new(1)), 2);
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn custom_topology_validation() {
        assert_eq!(Topology::custom(0, []), Err(GraphError::EmptyTopology));
        let bad = Topology::custom(2, [(NodeId::new(0), NodeId::new(5), 1.0)]);
        assert_eq!(bad, Err(GraphError::UnknownNode(NodeId::new(5))));
        let bad = Topology::custom(2, [(NodeId::new(0), NodeId::new(1), -3.0)]);
        assert_eq!(bad, Err(GraphError::InvalidCapacity(-3.0)));
        // Hardened: zero and non-finite capacities are rejected too.
        let bad = Topology::custom(2, [(NodeId::new(0), NodeId::new(1), 0.0)]);
        assert_eq!(bad, Err(GraphError::InvalidCapacity(0.0)));
        let bad = Topology::custom(2, [(NodeId::new(0), NodeId::new(1), f64::NAN)]);
        assert!(matches!(bad, Err(GraphError::InvalidCapacity(_))));
    }

    #[test]
    fn grid_constructors_validate() {
        assert_eq!(Topology::mesh_nd(&[], 1.0), Err(GraphError::EmptyTopology));
        assert_eq!(Topology::mesh_nd(&[4, 0], 1.0), Err(GraphError::ZeroExtent { axis: 1 }));
        assert_eq!(Topology::torus_nd(&[0], 1.0), Err(GraphError::ZeroExtent { axis: 0 }));
        assert_eq!(Topology::mesh_nd(&[2, 2], 0.0), Err(GraphError::InvalidCapacity(0.0)));
        assert_eq!(Topology::mesh_nd(&[2, 2], -1.0), Err(GraphError::InvalidCapacity(-1.0)));
        assert!(matches!(
            Topology::mesh_nd(&[2, 2], f64::INFINITY),
            Err(GraphError::InvalidCapacity(_))
        ));
    }

    #[test]
    fn mixed_wrap_grid_is_supported() {
        // Wrap only along x: a cylinder.
        let grid = Grid::new(vec![Axis { extent: 4, wrap: true }, Axis { extent: 3, wrap: false }])
            .unwrap();
        let t = Topology::grid(grid, 100.0).unwrap();
        assert_eq!(t.kind().describe(), "grid 4x3");
        let a = t.node_at(0, 0).unwrap();
        let b = t.node_at(3, 0).unwrap();
        assert_eq!(t.hop_distance(a, b), 1, "x wraps");
        let c = t.node_at(0, 2).unwrap();
        assert_eq!(t.hop_distance(a, c), 2, "y does not wrap");
    }

    #[test]
    fn meshes_are_strongly_connected() {
        assert!(Topology::mesh(5, 3, 1.0).is_strongly_connected());
        assert!(Topology::torus(3, 3, 1.0).is_strongly_connected());
        assert!(Topology::mesh_nd(&[3, 2, 2], 1.0).unwrap().is_strongly_connected());
        let lonely = Topology::custom(2, []).unwrap();
        assert!(!lonely.is_strongly_connected());
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        assert_eq!(lonely.unreachable_pair(), Some((a, b)));
        let into_zero = Topology::custom(3, [(a, b, 1.0), (b, a, 1.0), (c, a, 1.0)]).unwrap();
        assert_eq!(into_zero.unreachable_pair(), Some((a, c)), "nothing reaches c");
        let from_zero = Topology::custom(2, [(a, b, 1.0)]).unwrap();
        assert_eq!(from_zero.unreachable_pair(), Some((b, a)), "b reaches nothing");
        let ring = Topology::custom(3, [(a, b, 1.0), (b, c, 1.0), (c, a, 1.0)]).unwrap();
        assert_eq!(ring.unreachable_pair(), None);
    }

    #[test]
    fn fit_mesh_dims_prefers_tight_rectangles() {
        assert_eq!(Topology::fit_mesh_dims(1), (1, 1));
        assert_eq!(Topology::fit_mesh_dims(4), (2, 2));
        assert_eq!(Topology::fit_mesh_dims(6), (3, 2));
        assert_eq!(Topology::fit_mesh_dims(8), (3, 3));
        assert_eq!(Topology::fit_mesh_dims(12), (4, 3));
        assert_eq!(Topology::fit_mesh_dims(16), (4, 4));
        assert_eq!(Topology::fit_mesh_dims(25), (5, 5));
        assert_eq!(Topology::fit_mesh_dims(30), (6, 5));
    }

    #[test]
    fn node_at_round_trips_coords() {
        let m = Topology::mesh(5, 4, 1.0);
        for n in m.nodes() {
            let (x, y) = m.coords(n);
            assert_eq!(m.node_at(x, y), Some(n));
        }
        assert_eq!(m.node_at(5, 0), None);
        // node_at is the rank-2 spelling; higher ranks use node_at_coords.
        let cube = Topology::mesh_nd(&[2, 2, 2], 1.0).unwrap();
        assert_eq!(cube.node_at(0, 0), None);
        for n in cube.nodes() {
            let c = cube.grid_coords(n).to_vec();
            assert_eq!(cube.node_at_coords(&c), Some(n));
        }
    }

    #[test]
    fn kind_describe_names_family_and_dims() {
        assert_eq!(Topology::mesh(4, 3, 1.0).kind().describe(), "mesh 4x3");
        assert_eq!(Topology::torus_nd(&[4, 4, 2], 1.0).unwrap().kind().describe(), "torus 4x4x2");
        assert_eq!(Topology::custom(1, []).unwrap().kind().describe(), "custom");
    }

    #[test]
    fn find_link_direction_sensitive() {
        let m = Topology::mesh(2, 1, 7.0);
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        let ab = m.find_link(a, b).unwrap();
        let ba = m.find_link(b, a).unwrap();
        assert_ne!(ab, ba);
        assert_eq!(m.link(ab).capacity.to_f64(), 7.0);
    }
}

//! The **dimension-generic grid** behind mesh and torus topologies.
//!
//! The paper formulates NMAP for 2-D meshes, but nothing in the machinery
//! is inherently two-dimensional: hop distances, dimension-ordered
//! routing, quadrant (orthant) DAGs and the symmetry arguments all work
//! axis by axis. [`Grid`] captures exactly that per-axis structure — an
//! ordered list of [`Axis`] records, each an extent plus a wrap flag — so
//! a 2-D mesh is the `dims = [w, h]` special case and 3-D meshes/tori
//! (`WxHxD`) fall out of the same code paths.
//!
//! # Node numbering
//!
//! Nodes are numbered with **axis 0 varying fastest** (the row-major
//! `y * width + x` convention of the original 2-D code): the stride of
//! axis `i` is the product of the extents of axes `0..i`. All coordinate
//! conversions in this module follow that convention.
//!
//! # Wrap semantics
//!
//! An axis with `wrap = true` declares the torus wrap-around channel from
//! its last coordinate back to its first. The wrap is only *realized* —
//! both as a physical link and in distance computations — when the extent
//! exceeds 2; for extents 1 and 2 the wrap channel would duplicate an
//! existing one, so it is skipped (matching the original 2-D torus
//! constructor). The declared flag is still recorded: a `2x4` torus keeps
//! its torus identity even though its first axis gains no extra link.

use crate::parse::MAX_NODES;
use crate::{GraphError, Result};

/// One axis of a [`Grid`]: its extent (number of coordinates) and whether
/// it wraps around (torus channel from the last coordinate to the first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Axis {
    /// Number of coordinates along this axis (must be non-zero).
    pub extent: usize,
    /// Declared wrap-around; realized only when `extent > 2` (see
    /// [`Axis::wraps`]).
    pub wrap: bool,
}

impl Axis {
    /// True when the wrap channel physically exists: declared *and* the
    /// extent is large enough that it would not duplicate a mesh channel.
    #[inline]
    pub fn wraps(&self) -> bool {
        self.wrap && self.extent > 2
    }

    /// Wrap-aware distance between two coordinates on this axis.
    #[inline]
    pub fn distance(&self, a: usize, b: usize) -> usize {
        let d = a.abs_diff(b);
        if self.wraps() {
            d.min(self.extent - d)
        } else {
            d
        }
    }
}

/// A dimension-generic grid: per-axis extents and wrap flags.
///
/// Invariants (enforced by the constructors): at least one axis, every
/// extent non-zero, and at most [`MAX_NODES`] nodes, so the node count and
/// every stride fit in a `usize`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Grid {
    axes: Vec<Axis>,
}

impl Grid {
    /// Builds a grid from explicit axes.
    ///
    /// # Errors
    ///
    /// * [`GraphError::EmptyTopology`] if `axes` is empty.
    /// * [`GraphError::ZeroExtent`] if any axis has extent 0.
    /// * [`GraphError::GridTooLarge`] if the extents multiply to more than
    ///   [`MAX_NODES`] nodes, or overflow a `usize`.
    pub fn new(axes: Vec<Axis>) -> Result<Self> {
        if axes.is_empty() {
            return Err(GraphError::EmptyTopology);
        }
        for (i, axis) in axes.iter().enumerate() {
            if axis.extent == 0 {
                return Err(GraphError::ZeroExtent { axis: i });
            }
        }
        let nodes = axes.iter().try_fold(1usize, |nodes, axis| nodes.checked_mul(axis.extent));
        if nodes.is_none_or(|nodes| nodes > MAX_NODES) {
            return Err(GraphError::GridTooLarge);
        }
        Ok(Self { axes })
    }

    /// An N-dimensional mesh: no axis wraps.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Grid::new`].
    pub fn mesh(dims: &[usize]) -> Result<Self> {
        Self::new(dims.iter().map(|&extent| Axis { extent, wrap: false }).collect())
    }

    /// An N-dimensional torus: every axis wraps.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Grid::new`].
    pub fn torus(dims: &[usize]) -> Result<Self> {
        Self::new(dims.iter().map(|&extent| Axis { extent, wrap: true }).collect())
    }

    /// Number of axes (2 for the paper's meshes, 3 for `WxHxD` grids).
    pub fn rank(&self) -> usize {
        self.axes.len()
    }

    /// The axes, in stride order (axis 0 varies fastest).
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// The axis record of axis `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rank()`.
    pub fn axis(&self, i: usize) -> Axis {
        self.axes[i]
    }

    /// Total number of nodes (product of extents).
    pub fn node_count(&self) -> usize {
        self.axes.iter().map(|a| a.extent).product()
    }

    /// True when no axis declares a wrap (a pure mesh).
    pub fn is_mesh(&self) -> bool {
        self.axes.iter().all(|a| !a.wrap)
    }

    /// True when every axis declares a wrap (a full torus).
    pub fn is_torus(&self) -> bool {
        self.axes.iter().all(|a| a.wrap)
    }

    /// The node-index stride of axis `i` (product of the extents of axes
    /// `0..i`).
    pub fn stride(&self, i: usize) -> usize {
        self.axes[..i].iter().map(|a| a.extent).product()
    }

    /// The coordinate of node `index` along axis `i`.
    #[inline]
    pub fn coord(&self, index: usize, i: usize) -> usize {
        index / self.stride(i) % self.axes[i].extent
    }

    /// Decomposes a node index into its per-axis coordinates, writing them
    /// into `out` (resized to `rank()`).
    pub fn coords_into(&self, index: usize, out: &mut Vec<usize>) {
        out.clear();
        let mut rest = index;
        for axis in &self.axes {
            out.push(rest % axis.extent);
            rest /= axis.extent;
        }
    }

    /// Decomposes a node index into a fresh coordinate vector.
    pub fn coords_of(&self, index: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.rank());
        self.coords_into(index, &mut out);
        out
    }

    /// Composes per-axis coordinates back into a node index. Returns
    /// `None` when `coords` has the wrong rank or a coordinate is out of
    /// range.
    pub fn index_of(&self, coords: &[usize]) -> Option<usize> {
        if coords.len() != self.rank() {
            return None;
        }
        let mut index = 0;
        let mut stride = 1;
        for (axis, &c) in self.axes.iter().zip(coords) {
            if c >= axis.extent {
                return None;
            }
            index += c * stride;
            stride *= axis.extent;
        }
        Some(index)
    }

    /// Wrap-aware grid distance between two node indices: the sum of the
    /// per-axis [`Axis::distance`]s (the closed form behind
    /// [`crate::Topology::hop_distance`] on grids).
    pub fn distance(&self, a: usize, b: usize) -> usize {
        let (mut ra, mut rb, mut total) = (a, b, 0);
        for axis in &self.axes {
            total += axis.distance(ra % axis.extent, rb % axis.extent);
            ra /= axis.extent;
            rb /= axis.extent;
        }
        total
    }

    /// The `WxH`/`WxHxD` spelling of the extents, e.g. `4x4` or `4x4x2`
    /// (the grid-borne form of [`dims_label`]).
    pub fn dims_label(&self) -> String {
        let dims: Vec<usize> = self.axes.iter().map(|a| a.extent).collect();
        dims_label(&dims)
    }

    /// The family keyword of this grid: `mesh` when no axis wraps,
    /// `torus` when all do, `grid` for mixed wrap flags.
    pub fn kind_keyword(&self) -> &'static str {
        if self.is_mesh() {
            "mesh"
        } else if self.is_torus() {
            "torus"
        } else {
            "grid"
        }
    }

    /// Smallest near-cubic extents of the given rank holding at least
    /// `cores` nodes: start from the smallest cube `s^rank ≥ cores`, then
    /// shave axes (last axis first, as many coordinates as still fit). At
    /// rank 2 this is [`crate::Topology::fit_mesh_dims`].
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or `rank == 0`.
    pub fn fit_dims(cores: usize, rank: usize) -> Vec<usize> {
        assert!(cores > 0, "need at least one core");
        assert!(rank > 0, "need at least one axis");
        let mut side = 1usize;
        while side.pow(rank as u32) < cores {
            side += 1;
        }
        let mut dims = vec![side; rank];
        for i in (0..rank).rev() {
            while dims[i] > 1 {
                dims[i] -= 1;
                if dims.iter().product::<usize>() < cores {
                    dims[i] += 1;
                    break;
                }
            }
        }
        dims
    }
}

/// The `WxH`/`WxHxD` spelling of a dimension list, e.g. `4x4` or `4x4x2`
/// — the one formatter behind grid labels and `.dse` topology spellings,
/// so the two surfaces cannot drift.
pub fn dims_label(dims: &[usize]) -> String {
    let parts: Vec<String> = dims.iter().map(usize::to_string).collect();
    parts.join("x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_validate() {
        assert_eq!(Grid::mesh(&[]), Err(GraphError::EmptyTopology));
        assert_eq!(Grid::mesh(&[4, 0, 2]), Err(GraphError::ZeroExtent { axis: 1 }));
        assert_eq!(Grid::torus(&[3, 0]), Err(GraphError::ZeroExtent { axis: 1 }));
        assert!(Grid::mesh(&[1]).is_ok());
        // At most `MAX_NODES` nodes.
        assert_eq!(Grid::mesh(&[256, 256]).unwrap().node_count(), MAX_NODES);
        assert_eq!(Grid::torus(&[MAX_NODES, 1]).unwrap().node_count(), MAX_NODES);
        for dims in [&[256, 257][..], &[MAX_NODES + 1], &[64, 64, 64]] {
            assert_eq!(Grid::mesh(dims), Err(GraphError::GridTooLarge), "{dims:?}");
        }
        // A product that overflows `usize` is the same error, not a panic
        // or a wrapped count.
        assert_eq!(Grid::torus(&[1 << 32, 1 << 32]), Err(GraphError::GridTooLarge));
        assert_eq!(GraphError::GridTooLarge.to_string(), "grid has more than 65536 nodes");
    }

    #[test]
    fn node_count_is_extent_product() {
        assert_eq!(Grid::mesh(&[4, 4]).unwrap().node_count(), 16);
        assert_eq!(Grid::mesh(&[4, 4, 2]).unwrap().node_count(), 32);
        assert_eq!(Grid::torus(&[5]).unwrap().node_count(), 5);
    }

    #[test]
    fn coords_round_trip_axis0_fastest() {
        let g = Grid::mesh(&[4, 3, 2]).unwrap();
        assert_eq!(g.coords_of(0), vec![0, 0, 0]);
        assert_eq!(g.coords_of(1), vec![1, 0, 0]);
        assert_eq!(g.coords_of(4), vec![0, 1, 0]);
        assert_eq!(g.coords_of(12), vec![0, 0, 1]);
        for i in 0..g.node_count() {
            assert_eq!(g.index_of(&g.coords_of(i)), Some(i));
            for axis in 0..g.rank() {
                assert_eq!(g.coord(i, axis), g.coords_of(i)[axis]);
            }
        }
        assert_eq!(g.index_of(&[4, 0, 0]), None, "coordinate out of range");
        assert_eq!(g.index_of(&[0, 0]), None, "wrong rank");
    }

    #[test]
    fn strides_follow_row_major_convention() {
        let g = Grid::mesh(&[4, 3, 2]).unwrap();
        assert_eq!(g.stride(0), 1);
        assert_eq!(g.stride(1), 4);
        assert_eq!(g.stride(2), 12);
    }

    #[test]
    fn distance_sums_wrap_aware_axis_distances() {
        let mesh = Grid::mesh(&[4, 4, 4]).unwrap();
        // (0,0,0) -> (3,3,3)
        assert_eq!(mesh.distance(0, 63), 9);
        let torus = Grid::torus(&[4, 4, 4]).unwrap();
        assert_eq!(torus.distance(0, 63), 3, "every axis wraps to distance 1");
        // Size-2 wrap axes add nothing.
        let squat = Grid::torus(&[2, 5]).unwrap();
        assert_eq!(squat.distance(0, 1), 1);
        assert!(!squat.axis(0).wraps());
        assert!(squat.axis(1).wraps());
    }

    #[test]
    fn labels_and_keywords() {
        assert_eq!(Grid::mesh(&[4, 4]).unwrap().dims_label(), "4x4");
        assert_eq!(Grid::torus(&[4, 4, 2]).unwrap().dims_label(), "4x4x2");
        assert_eq!(Grid::mesh(&[3, 3]).unwrap().kind_keyword(), "mesh");
        assert_eq!(Grid::torus(&[3, 3]).unwrap().kind_keyword(), "torus");
        let mixed =
            Grid::new(vec![Axis { extent: 4, wrap: true }, Axis { extent: 4, wrap: false }])
                .unwrap();
        assert_eq!(mixed.kind_keyword(), "grid");
    }

    /// `Topology::fit_mesh_dims` is `fit_dims` at rank 2. The oracle is
    /// the loop it had before: the smallest square, less one row if that
    /// still fits.
    #[test]
    fn fit_dims_matches_fit_mesh_dims_at_rank_2() {
        let oracle = |cores: usize| {
            let mut w = 1usize;
            while w * w < cores {
                w += 1;
            }
            if w > 1 && w * (w - 1) >= cores {
                (w, w - 1)
            } else {
                (w, w)
            }
        };
        for cores in 1..=4_096 {
            let (w, h) = oracle(cores);
            assert_eq!(crate::Topology::fit_mesh_dims(cores), (w, h), "cores {cores}");
            assert_eq!(Grid::fit_dims(cores, 2), vec![w, h], "cores {cores}");
        }
    }

    #[test]
    fn fit_dims_rank_3_is_near_cubic() {
        assert_eq!(Grid::fit_dims(16, 3), vec![3, 3, 2]);
        assert_eq!(Grid::fit_dims(27, 3), vec![3, 3, 3]);
        assert_eq!(Grid::fit_dims(28, 3), vec![4, 4, 2]);
        assert_eq!(Grid::fit_dims(64, 3), vec![4, 4, 4]);
        assert_eq!(Grid::fit_dims(1, 3), vec![1, 1, 1]);
        for cores in 1..=80 {
            let dims = Grid::fit_dims(cores, 3);
            assert!(dims.iter().product::<usize>() >= cores, "cores {cores}: {dims:?}");
        }
    }
}

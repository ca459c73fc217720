//! PBB: the partial branch-and-bound mapper of Hu & Marculescu
//! (ASP-DAC 2003).
//!
//! Best-first search over placement prefixes. Cores are ordered by total
//! communication demand (descending); tree level ℓ assigns core ℓ to one
//! of the free nodes. Each search node carries
//!
//! * the exact cost of the already-placed pairs, and
//! * an admissible lower bound for the rest: every edge not yet fully
//!   placed must span at least one hop, so
//!   `LB = partial_cost + Σ (weights of unfinished edges)`.
//!
//! The "partial" qualifier: the priority queue is bounded
//! ([`PbbOptions::max_queue`]); when it overflows, the worst entries are
//! discarded — exactly the paper's "we monitored the queue length so that
//! the PBB algorithm ran for few minutes". An expansion budget
//! ([`PbbOptions::max_expansions`]) gives a second, harder stop.
//!
//! Symmetry breaking: the first core only tries one octant of the mesh
//! (or one representative of each degree class on other topologies),
//! cutting the 8-fold dihedral symmetry of square meshes.
//!
//! Completed placements are accepted only if the load-balanced
//! minimum-path routing satisfies the link capacities — the bandwidth
//! constraint side of the original formulation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use nmap::{routing, EvalContext, MapError, Mapping, MappingProblem};
use noc_graph::{CoreId, NodeId, TopologyKind};

/// Tuning knobs for [`pbb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PbbOptions {
    /// Maximum number of live entries in the best-first queue; beyond it
    /// the worst entries are dropped (partial search).
    pub max_queue: usize,
    /// Maximum number of node expansions before the search stops and the
    /// incumbent is returned.
    pub max_expansions: usize,
}

impl Default for PbbOptions {
    fn default() -> Self {
        Self { max_queue: 10_000, max_expansions: 200_000 }
    }
}

impl PbbOptions {
    /// Checks the options, returning the first violation as a message —
    /// the single source of the budget constraints, shared by
    /// [`pbb_checked`] and the `.dse` spec parser.
    /// (The bare [`pbb`] stays total: a zero budget there degenerates to
    /// the `initialize()` fallback.)
    ///
    /// # Errors
    ///
    /// A human-readable message when a budget is zero.
    pub fn check(&self) -> std::result::Result<(), String> {
        if self.max_queue == 0 {
            return Err("pbb queue bound must be at least 1".into());
        }
        if self.max_expansions == 0 {
            return Err("pbb expansion budget must be at least 1".into());
        }
        Ok(())
    }
}

/// Result of a [`pbb`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct PbbOutcome {
    /// Best complete placement found (falls back to NMAP's `initialize()`
    /// seeding if the budget expired before any completion — never absent).
    pub mapping: Mapping,
    /// Equation-7 communication cost of `mapping`.
    pub comm_cost: noc_units::HopMbps,
    /// Whether min-path routing of `mapping` meets all link capacities.
    pub feasible: bool,
    /// Number of search-tree nodes expanded (diagnostics).
    pub expansions: usize,
    /// True if the search ran out of budget while work remained.
    pub truncated: bool,
}

/// Widest topology [`pbb`] accepts: occupancy is a `u128` bitmask and
/// placements store node indices as `u8`.
const MAX_NODES: usize = 128;

#[derive(Debug)]
struct SearchNode {
    /// `placement[i]` is the index of the node hosting core `order[i]`.
    placement: Vec<u8>,
    /// Occupied nodes as a bitmask.
    occupied: u128,
    /// Exact cost of placed-pair communication.
    partial_cost: f64,
    /// `partial_cost` + admissible remainder bound.
    lower_bound: f64,
}

/// Min-heap adapter: BinaryHeap is a max-heap, so reverse the ordering.
///
/// The order is strict over live entries: ties on the bound fall to the
/// prefix length, then to the placement itself, and the search tree
/// generates each placement prefix exactly once. Queue truncation relies
/// on this — the set of best entries it keeps, and so every later pop,
/// does not depend on how the heap happens to be laid out.
#[derive(Debug)]
struct HeapNode(SearchNode);

impl PartialEq for HeapNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapNode {}
impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .lower_bound
            .partial_cmp(&self.0.lower_bound)
            .expect("bounds are finite")
            .then_with(|| other.0.placement.len().cmp(&self.0.placement.len()))
            .then_with(|| other.0.placement.cmp(&self.0.placement))
    }
}
impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// [`pbb`] as the mapper dispatch runs it: its placement and expansion
/// count, which also feeds the probe's `search.pbb_expansions` counter.
///
/// # Errors
///
/// [`MapError::InvalidOptions`] when `options` fail
/// [`PbbOptions::check`] or the topology has more than 128 nodes, the
/// inputs on which [`pbb`] panics.
pub fn pbb_checked(ctx: &EvalContext<'_>, options: &PbbOptions) -> nmap::Result<(Mapping, usize)> {
    options.check().map_err(MapError::InvalidOptions)?;
    let nodes = ctx.problem().topology().node_count();
    if nodes > MAX_NODES {
        return Err(MapError::InvalidOptions(format!(
            "pbb supports at most {MAX_NODES} nodes, topology has {nodes}"
        )));
    }
    let out = pbb(ctx.problem(), options);
    ctx.probe().counter("search.pbb_expansions").add(out.expansions as u64);
    Ok((out.mapping, out.expansions))
}

/// Runs the partial branch-and-bound mapper.
///
/// The search allocates nothing per expansion: placement buffers cycle
/// through a free list, bound terms read a hop table built once per call,
/// and queue overflow keeps the best half by selection, not by sorting.
///
/// # Panics
///
/// Panics if the topology has more than 128 nodes (the occupancy bitmask
/// width; all paper-scale experiments are ≤ 81 nodes), or if it is a
/// disconnected custom topology.
pub fn pbb(problem: &MappingProblem, options: &PbbOptions) -> PbbOutcome {
    let cores = problem.cores();
    let topology = problem.topology();
    let n = topology.node_count();
    assert!(n <= MAX_NODES, "PBB occupancy mask supports up to {MAX_NODES} nodes");

    // Core order: decreasing total communication demand.
    let mut order: Vec<CoreId> = cores.cores().collect();
    order.sort_by(|&a, &b| cores.total_comm(b).cmp(&cores.total_comm(a)).then(a.cmp(&b)));
    let position: Vec<usize> = {
        let mut pos = vec![0usize; order.len()];
        for (i, &c) in order.iter().enumerate() {
            pos[c.index()] = i;
        }
        pos
    };

    // remaining_weight[l] = total weight of edges NOT fully placed once the
    // first `l` cores of `order` are down: edge (a, b) completes at level
    // max(pos[a], pos[b]) + 1.
    let levels = order.len();
    let mut remaining_weight = vec![0.0f64; levels + 1];
    for (_, e) in cores.edges() {
        let done_at = position[e.src.index()].max(position[e.dst.index()]) + 1;
        for level_weight in remaining_weight.iter_mut().take(done_at) {
            *level_weight += e.bandwidth.to_f64();
        }
    }

    // Adjacency of each core to earlier-ordered cores, with weights.
    // earlier[l] = list of (level index < l, undirected comm weight).
    let mut earlier: Vec<Vec<(usize, f64)>> = vec![Vec::new(); levels];
    for (li, &c) in order.iter().enumerate() {
        for (lj, &w) in order.iter().enumerate().take(li) {
            let comm = cores.comm_between(c, w);
            if comm > noc_units::Mbps::ZERO {
                earlier[li].push((lj, comm.to_f64()));
            }
        }
    }

    // hops[t * n + p] = hop_distance(t, p): target first, placed node
    // second, since custom topologies need not be symmetric.
    let hops: Vec<f64> = topology
        .nodes()
        .flat_map(|t| topology.nodes().map(move |p| topology.hop_distance(t, p) as f64))
        .collect();

    // Free list of placement buffers: every entry that leaves the queue
    // hands its buffer back, so steady-state children allocate nothing.
    let mut pool: Vec<Vec<u8>> = Vec::new();
    let mut heap: BinaryHeap<HeapNode> = BinaryHeap::new();
    // Root expansions with symmetry breaking.
    for node in first_core_candidates(problem) {
        let mut placement = Vec::with_capacity(levels);
        placement.push(node.index() as u8);
        heap.push(HeapNode(SearchNode {
            placement,
            occupied: 1u128 << node.index(),
            partial_cost: 0.0,
            lower_bound: remaining_weight[1],
        }));
    }

    let mut best: Option<(f64, Mapping)> = None;
    let mut expansions = 0usize;
    let mut truncated = false;

    while let Some(HeapNode(node)) = heap.pop() {
        if expansions >= options.max_expansions {
            truncated = true;
            break;
        }
        if let Some((best_cost, _)) = &best {
            if node.lower_bound >= *best_cost {
                pool.push(node.placement);
                continue; // prune: cannot beat the incumbent
            }
        }
        expansions += 1;
        let level = node.placement.len();

        if level == levels {
            // Complete placement: accept if bandwidth-feasible.
            let mapping = to_mapping(&order, &node.placement, n);
            pool.push(node.placement);
            let feasible = routing::route_min_paths(problem, &mapping)
                .map(|(_, loads)| loads.within_capacity(topology))
                .unwrap_or(false);
            if feasible {
                let cost = node.partial_cost;
                if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                    best = Some((cost, mapping));
                }
            }
            continue;
        }

        // Expand: place core `order[level]` on every free node.
        for (target, row) in hops.chunks_exact(n).enumerate() {
            if node.occupied & (1u128 << target) != 0 {
                continue;
            }
            let mut delta = 0.0;
            for &(lj, comm) in &earlier[level] {
                delta += comm * row[usize::from(node.placement[lj])];
            }
            let partial_cost = node.partial_cost + delta;
            let lower_bound = partial_cost + remaining_weight[level + 1];
            if let Some((best_cost, _)) = &best {
                if lower_bound >= *best_cost {
                    continue;
                }
            }
            let mut placement = pool.pop().unwrap_or_else(|| Vec::with_capacity(levels));
            placement.clear();
            placement.extend_from_slice(&node.placement);
            placement.push(target as u8);
            heap.push(HeapNode(SearchNode {
                placement,
                occupied: node.occupied | (1u128 << target),
                partial_cost,
                lower_bound,
            }));
        }
        pool.push(node.placement);

        // Partial search: keep the best half when the queue overflows.
        if heap.len() > options.max_queue {
            truncated = true;
            let keep = options.max_queue / 2;
            let mut entries = std::mem::take(&mut heap).into_vec();
            if keep > 0 {
                entries.select_nth_unstable_by(keep - 1, |a, b| b.cmp(a)); // best first
            }
            pool.extend(entries.drain(keep..).map(|HeapNode(dropped)| dropped.placement));
            heap = BinaryHeap::from(entries);
        }
    }

    let (mapping, feasible) = match best {
        Some((_, mapping)) => {
            let feasible = routing::route_min_paths(problem, &mapping)
                .map(|(_, loads)| loads.within_capacity(topology))
                .unwrap_or(false);
            (mapping, feasible)
        }
        None => {
            // Budget expired with no completion: fall back to the greedy
            // constructive placement so callers always get a mapping.
            let mapping = nmap::initialize(problem);
            let feasible = routing::route_min_paths(problem, &mapping)
                .map(|(_, loads)| loads.within_capacity(topology))
                .unwrap_or(false);
            truncated = true;
            (mapping, feasible)
        }
    };

    PbbOutcome { comm_cost: problem.comm_cost(&mapping), mapping, feasible, expansions, truncated }
}

/// Candidate nodes for the first core: one orthant of the mesh — per axis
/// `coord ≤ ⌈extent/2⌉`, and for adjacent equal-extent axis pairs
/// additionally `coord[i+1] ≤ coord[i]` (on 2-D meshes: x ≤ ⌈w/2⌉,
/// y ≤ ⌈h/2⌉ and, on square meshes, y ≤ x) — which breaks the grid's
/// reflection/rotation symmetry group. On wrapping grids and custom
/// topologies, all nodes.
fn first_core_candidates(problem: &MappingProblem) -> Vec<NodeId> {
    let topology = problem.topology();
    match topology.kind() {
        TopologyKind::Grid(grid) if grid.is_mesh() => topology
            .nodes()
            .filter(|&n| {
                let c = topology.grid_coords(n);
                let axes = grid.axes();
                let low_orthant =
                    axes.iter().zip(c).all(|(axis, &coord)| coord <= (axis.extent - 1) / 2);
                let symmetry_broken = (1..axes.len())
                    .all(|i| axes[i - 1].extent != axes[i].extent || c[i] <= c[i - 1]);
                low_orthant && symmetry_broken
            })
            .collect(),
        _ => topology.nodes().collect(),
    }
}

fn to_mapping(order: &[CoreId], placement: &[u8], node_count: usize) -> Mapping {
    let mut mapping = Mapping::new(node_count);
    for (&core, &node) in order.iter().zip(placement) {
        mapping.place(core, NodeId::new(usize::from(node)));
    }
    mapping
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_graph::{CoreGraph, Topology};

    fn problem(edges: &[(usize, usize, f64)], n: usize, w: usize, h: usize) -> MappingProblem {
        let mut g = CoreGraph::new();
        let ids: Vec<CoreId> = (0..n).map(|i| g.add_core(format!("c{i}"))).collect();
        for &(a, b, bw) in edges {
            g.add_comm(ids[a], ids[b], bw).unwrap();
        }
        MappingProblem::new(g, Topology::mesh(w, h, 1e9)).unwrap()
    }

    #[test]
    fn finds_optimal_pipeline_embedding() {
        // 4-stage pipeline on 2x2: optimum = 300 (every edge adjacent).
        let p = problem(&[(0, 1, 100.0), (1, 2, 100.0), (2, 3, 100.0)], 4, 2, 2);
        let out = pbb(&p, &PbbOptions::default());
        assert_eq!(out.comm_cost.to_f64(), 300.0);
        assert!(out.feasible);
        assert!(!out.truncated);
    }

    #[test]
    fn optimal_on_star_graph() {
        // Star with 4 satellites on 3x3: all satellites adjacent to hub.
        let p = problem(&[(0, 1, 100.0), (0, 2, 100.0), (0, 3, 100.0), (0, 4, 100.0)], 5, 3, 3);
        let out = pbb(&p, &PbbOptions::default());
        assert_eq!(out.comm_cost.to_f64(), 400.0);
    }

    #[test]
    fn matches_exhaustive_on_tiny_instance() {
        // 3 cores on 2x2: brute-force all placements and compare.
        let p = problem(&[(0, 1, 70.0), (1, 2, 30.0), (0, 2, 20.0)], 3, 2, 2);
        let out = pbb(&p, &PbbOptions::default());

        // Brute force.
        let nodes: Vec<NodeId> = p.topology().nodes().collect();
        let mut best = f64::INFINITY;
        for &a in &nodes {
            for &b in &nodes {
                for &c in &nodes {
                    if a == b || b == c || a == c {
                        continue;
                    }
                    let mut m = Mapping::new(4);
                    m.place(CoreId::new(0), a);
                    m.place(CoreId::new(1), b);
                    m.place(CoreId::new(2), c);
                    best = best.min(p.comm_cost(&m).to_f64());
                }
            }
        }
        assert_eq!(out.comm_cost.to_f64(), best, "PBB missed the optimum");
    }

    #[test]
    fn respects_bandwidth_constraints() {
        // Two 100 MB/s flows, 120 MB/s links: stacking them is infeasible;
        // PBB must return a feasible layout.
        let p = {
            let mut g = CoreGraph::new();
            let ids: Vec<CoreId> = (0..4).map(|i| g.add_core(format!("c{i}"))).collect();
            g.add_comm(ids[0], ids[1], 100.0).unwrap();
            g.add_comm(ids[2], ids[3], 100.0).unwrap();
            MappingProblem::new(g, Topology::mesh(2, 2, 120.0)).unwrap()
        };
        let out = pbb(&p, &PbbOptions::default());
        assert!(out.feasible);
    }

    #[test]
    fn tiny_budget_still_returns_a_mapping() {
        let p = problem(
            &[(0, 1, 100.0), (1, 2, 90.0), (2, 3, 80.0), (3, 4, 70.0), (4, 5, 60.0)],
            6,
            3,
            2,
        );
        let out = pbb(&p, &PbbOptions { max_queue: 4, max_expansions: 10 });
        assert!(out.truncated);
        assert!(out.mapping.is_complete(p.cores()));
        // The cost is finite by type (`HopMbps` excludes NaN/infinity);
        // nothing left to assert beyond completeness above.
        let _ = out.comm_cost;
    }

    #[test]
    fn deterministic() {
        let p = problem(&[(0, 1, 70.0), (1, 2, 362.0), (2, 3, 49.0)], 4, 2, 2);
        let a = pbb(&p, &PbbOptions::default());
        let b = pbb(&p, &PbbOptions::default());
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.comm_cost, b.comm_cost);
    }

    #[test]
    fn larger_budget_is_no_worse() {
        let p = problem(
            &[
                (0, 1, 100.0),
                (1, 2, 90.0),
                (2, 3, 80.0),
                (3, 4, 70.0),
                (4, 5, 60.0),
                (5, 0, 50.0),
                (0, 3, 40.0),
            ],
            6,
            3,
            2,
        );
        let small = pbb(&p, &PbbOptions { max_queue: 16, max_expansions: 100 });
        let large = pbb(&p, &PbbOptions::default());
        assert!(large.comm_cost <= small.comm_cost);
    }
}

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
    /// True if the search accepted no complete placement, so `mapping` is
    /// the `initialize()` fallback (then `truncated` is true as well).
    pub fallback: bool,
}

/// Widest topology [`pbb`] accepts: occupancy is a `u128` bitmask, and
/// node indices and prefix lengths are stored as `u8`.
const MAX_NODES: usize = 128;

/// The parent row of a root entry, whose parent prefix is empty.
const NO_ROW: u32 = u32::MAX;

/// One queue entry: the placement prefix of length `depth` made of the
/// first `depth - 1` nodes of row `parent` and then `target`. A `Copy`
/// key of 24 bytes with no buffer of its own.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// `partial_cost` + admissible remainder bound.
    lower_bound: f64,
    /// Exact cost of placed-pair communication.
    partial_cost: f64,
    /// The row holding the parent's placement, or [`NO_ROW`] for a root.
    parent: u32,
    /// Index of the node hosting core `order[depth - 1]`.
    target: u8,
    /// Number of cores placed.
    depth: u8,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 24);

/// The placements of expanded entries: row `r` is `width` node bytes
/// beside an occupancy mask. A row counts its references: the ordered
/// entries that name it, the queue's threshold, and the expansion
/// writing it. Unsorted entries take none, since the next overflow drops
/// most of them unseen. So while an unsorted tier can exist (`defer`), a
/// row whose count reaches zero waits on `pending` instead of the free
/// list, and [`Rows::flush`] frees it once the unsorted entries that are
/// kept have taken their references. Without a threshold there is no
/// unsorted tier, and the last release frees a row at once. Memory
/// follows the live queue, not the expansion count.
#[derive(Debug)]
struct Rows {
    width: usize,
    nodes: Vec<u8>,
    occupied: Vec<u128>,
    refs: Vec<u32>,
    free: Vec<u32>,
    pending: Vec<u32>,
    defer: bool,
}

impl Rows {
    fn new(width: usize) -> Self {
        Self {
            width,
            nodes: Vec::new(),
            occupied: Vec::new(),
            refs: Vec::new(),
            free: Vec::new(),
            pending: Vec::new(),
            defer: false,
        }
    }

    /// The first `len` nodes of `row`; a root's empty prefix for [`NO_ROW`].
    fn prefix(&self, row: u32, len: usize) -> &[u8] {
        if row == NO_ROW {
            return &[];
        }
        let start = row as usize * self.width;
        &self.nodes[start..start + len]
    }

    fn occupied(&self, row: u32) -> u128 {
        if row == NO_ROW {
            0
        } else {
            self.occupied[row as usize]
        }
    }

    /// Writes `entry`'s placement into a free row, which the caller holds
    /// one reference to.
    fn write(&mut self, entry: &Entry) -> u32 {
        let row = self.free.pop().unwrap_or_else(|| {
            let row = u32::try_from(self.refs.len())
                .ok()
                .filter(|&row| row != NO_ROW)
                .expect("PBB prefix rows outgrew u32 indices");
            self.nodes.resize(self.nodes.len() + self.width, 0);
            self.occupied.push(0);
            self.refs.push(0);
            row
        });
        let start = row as usize * self.width;
        let parent_len = usize::from(entry.depth) - 1;
        if entry.parent != NO_ROW {
            let from = entry.parent as usize * self.width;
            self.nodes.copy_within(from..from + parent_len, start);
        }
        self.nodes[start + parent_len] = entry.target;
        self.occupied[row as usize] = self.occupied(entry.parent) | 1u128 << entry.target;
        self.refs[row as usize] = 1;
        row
    }

    fn retain(&mut self, row: u32) {
        if row != NO_ROW {
            self.refs[row as usize] += 1;
        }
    }

    fn release(&mut self, row: u32) {
        if row != NO_ROW {
            let refs = &mut self.refs[row as usize];
            *refs -= 1;
            if *refs == 0 {
                if self.defer {
                    self.pending.push(row);
                } else {
                    self.free.push(row);
                }
            }
        }
    }

    /// Frees the pending rows that no entry has taken a reference to
    /// since they were released.
    fn flush(&mut self) {
        let Self { refs, free, pending, .. } = self;
        free.extend(pending.drain(..).filter(|&row| refs[row as usize] == 0));
    }
}

/// The search order: lower bound first, then the shorter prefix, then
/// the placement lexicographically (byte order is `NodeId` order). Two
/// prefixes of one depth compare their parents' rows, then their last
/// nodes; siblings share a row and compare last nodes alone. The order
/// is strict over live entries, because the search tree generates each
/// prefix once.
#[inline]
fn search_order(a: &Entry, b: &Entry, rows: &Rows) -> Ordering {
    if a.lower_bound < b.lower_bound {
        return Ordering::Less;
    }
    if a.lower_bound > b.lower_bound {
        return Ordering::Greater;
    }
    assert!(a.lower_bound == b.lower_bound, "bounds are finite");
    a.depth.cmp(&b.depth).then_with(|| {
        let parents = if a.parent == b.parent {
            Ordering::Equal
        } else {
            let len = usize::from(a.depth) - 1;
            rows.prefix(a.parent, len).cmp(rows.prefix(b.parent, len))
        };
        parents.then(a.target.cmp(&b.target))
    })
}

#[inline]
fn precedes(a: &Entry, b: &Entry, rows: &Rows) -> bool {
    search_order(a, b, rows) == Ordering::Less
}

/// Binary-heap primitives over a slice whose root is the entry that
/// comes `before` every other.
fn sift_up(heap: &mut [Entry], mut at: usize, before: impl Fn(&Entry, &Entry) -> bool) {
    let entry = heap[at];
    while at > 0 {
        let parent = (at - 1) / 2;
        if !before(&entry, &heap[parent]) {
            break;
        }
        heap[at] = heap[parent];
        at = parent;
    }
    heap[at] = entry;
}

fn sift_down(heap: &mut [Entry], mut at: usize, before: impl Fn(&Entry, &Entry) -> bool) {
    let Some(&entry) = heap.get(at) else { return };
    loop {
        let mut child = 2 * at + 1;
        if child >= heap.len() {
            break;
        }
        if child + 1 < heap.len() && before(&heap[child + 1], &heap[child]) {
            child += 1;
        }
        if !before(&heap[child], &entry) {
            break;
        }
        heap[at] = heap[child];
        at = child;
    }
    heap[at] = entry;
}

fn heapify(heap: &mut [Entry], before: impl Fn(&Entry, &Entry) -> bool) {
    for at in (0..heap.len() / 2).rev() {
        sift_down(heap, at, &before);
    }
}

/// Moves the best `k` of `entries` to its front (`1 ≤ k ≤ len`) through
/// a bounded heap rooted at the worst candidate: most entries lose to it
/// in one comparison.
fn select_best(entries: &mut [Entry], k: usize, rows: &Rows) {
    let worse = |a: &Entry, b: &Entry| precedes(b, a, rows);
    let (candidates, rest) = entries.split_at_mut(k);
    heapify(candidates, worse);
    for entry in rest {
        if precedes(entry, &candidates[0], rows) {
            std::mem::swap(entry, &mut candidates[0]);
            sift_down(candidates, 0, worse);
        }
    }
}

/// The live entries in two tiers. The ordered tier is `sorted`, what the
/// last overflow kept (worst first, so its best is last), and `heap`, a
/// binary min-heap of the children since then that precede `threshold`,
/// the worst kept entry. The unsorted tier holds the children that come
/// after it, which the next overflow drops unless too few others remain.
/// Invariant: every ordered entry precedes every unsorted entry, so the
/// better of the two ordered bests is the best live entry.
#[derive(Debug)]
struct Queue {
    sorted: Vec<Entry>,
    heap: Vec<Entry>,
    unsorted: Vec<Entry>,
    /// Holds a reference to its parent row, which it is compared through.
    threshold: Option<Entry>,
    rows: Rows,
    /// Scratch: the unsorted tier's bounds, for an overflow's prefilter.
    bounds: Vec<f64>,
}

impl Queue {
    fn new(levels: usize) -> Self {
        Self {
            sorted: Vec::new(),
            heap: Vec::new(),
            unsorted: Vec::new(),
            threshold: None,
            rows: Rows::new(levels),
            bounds: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.sorted.len() + self.heap.len() + self.unsorted.len()
    }

    /// Adds a child. An ordered child takes a reference to its parent
    /// row; an unsorted one takes none until an overflow keeps it.
    fn push(&mut self, entry: Entry) {
        match &self.threshold {
            Some(threshold) if !precedes(&entry, threshold, &self.rows) => {
                self.unsorted.push(entry);
            }
            _ => {
                self.rows.retain(entry.parent);
                let rows = &self.rows;
                let at = self.heap.len();
                self.heap.push(entry);
                sift_up(&mut self.heap, at, |a, b| precedes(a, b, rows));
            }
        }
    }

    /// Takes the best live entry. It still holds its reference to its
    /// parent row: the caller releases it once done with the prefix.
    fn pop(&mut self) -> Option<Entry> {
        if self.sorted.is_empty() && self.heap.is_empty() {
            if self.unsorted.is_empty() {
                return None;
            }
            // The unsorted tier becomes the heap, its entries taking
            // their references, and the threshold goes.
            std::mem::swap(&mut self.heap, &mut self.unsorted);
            for entry in &self.heap {
                self.rows.retain(entry.parent);
            }
            let rows = &self.rows;
            heapify(&mut self.heap, |a, b| precedes(a, b, rows));
            self.set_threshold(None);
        }
        let rows = &self.rows;
        let from_heap = match (self.sorted.last(), self.heap.first()) {
            (Some(kept), Some(child)) => precedes(child, kept, rows),
            (None, _) => true,
            (Some(_), None) => false,
        };
        if !from_heap {
            return self.sorted.pop();
        }
        let best = self.heap.swap_remove(0);
        sift_down(&mut self.heap, 0, |a, b| precedes(a, b, rows));
        Some(best)
    }

    /// Overflow: keeps the best `keep` live entries and drops the rest —
    /// from the ordered tier alone when it holds that many (the unsorted
    /// tier is then dropped whole), otherwise the whole ordered tier plus
    /// the best of the unsorted tier. The kept entries become the sorted
    /// run, and the worst of them the threshold.
    fn truncate(&mut self, keep: usize) {
        let ordered = self.sorted.len() + self.heap.len();
        let from_unsorted = keep.saturating_sub(ordered);
        let Self { sorted, heap, unsorted, rows, bounds, .. } = self;
        let worst_first = |a: &Entry, b: &Entry| search_order(b, a, rows);
        // Sort the heap worst first and merge it into the run from the back.
        heap.sort_unstable_by(worst_first);
        let (mut i, mut j) = (sorted.len(), heap.len());
        sorted.extend_from_slice(heap); // room for the merge
        while j > 0 {
            let into = i + j - 1;
            if i > 0 && precedes(&sorted[i - 1], &heap[j - 1], rows) {
                sorted[into] = sorted[i - 1];
                i -= 1;
            } else {
                sorted[into] = heap[j - 1];
                j -= 1;
            }
        }
        heap.clear();
        // The kept unsorted entries come after every ordered one. Only
        // those whose bound is at or below the `from_unsorted`-th
        // smallest unsorted bound can be among them.
        if from_unsorted > 0 {
            bounds.clear();
            bounds.extend(unsorted.iter().map(|entry| entry.lower_bound));
            let (_, &mut cut, _) = bounds.select_nth_unstable_by(from_unsorted - 1, f64::total_cmp);
            unsorted.retain(|entry| entry.lower_bound <= cut);
            select_best(unsorted, from_unsorted, rows);
            unsorted[..from_unsorted].sort_unstable_by(worst_first);
            sorted.splice(..0, unsorted[..from_unsorted].iter().copied());
        }
        let dropped_ordered = ordered.saturating_sub(keep);
        for kept in &sorted[..from_unsorted] {
            rows.retain(kept.parent);
        }
        for dropped in sorted.drain(..dropped_ordered) {
            rows.release(dropped.parent);
        }
        unsorted.clear();
        self.set_threshold(self.sorted.first().copied());
    }

    /// Replaces the threshold once an overflow or a refill has dealt with
    /// the unsorted tier: the entries it keeps hold their references, so
    /// the pending rows that are still unreferenced are freed. Released
    /// rows wait on the pending list from now on exactly when a threshold
    /// is set.
    fn set_threshold(&mut self, threshold: Option<Entry>) {
        if let Some(new) = &threshold {
            self.rows.retain(new.parent);
        }
        if let Some(old) = std::mem::replace(&mut self.threshold, threshold) {
            self.rows.release(old.parent);
        }
        self.rows.defer = self.threshold.is_some();
        self.rows.flush();
    }
}

/// [`pbb`] as the mapper dispatch runs it: its placement and expansion
/// count. The probe counts `search.pbb_expansions`, and the runs whose
/// budget bound (`search.pbb_truncated`) or that fell back to
/// `initialize()` (`search.pbb_fallbacks`).
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
    let probe = ctx.probe();
    probe.counter("search.pbb_expansions").add(out.expansions as u64);
    probe.counter("search.pbb_truncated").add(u64::from(out.truncated));
    probe.counter("search.pbb_fallbacks").add(u64::from(out.fallback));
    Ok((out.mapping, out.expansions))
}

/// Runs the partial branch-and-bound mapper.
///
/// Queue entries are 24-byte `Copy` keys (bounds, parent row, last node,
/// depth). Expanding an entry writes its placement once, into a row that
/// its children name; rows are reference-counted and reused, so memory
/// follows the live queue. Children that come after the last overflow's
/// threshold, which the next overflow would mostly drop, wait in an
/// unsorted tier instead of being ordered, and hold no row reference
/// until an overflow keeps them. Bound terms read a hop table built once
/// per call. A complete placement is routed for its capacity check only
/// where a link could overload. The search order is strict over live
/// entries, so the entries an overflow keeps, and every pop, are those of
/// one fully ordered queue: the outcome does not depend on the queue's
/// layout.
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

    let mut queue = Queue::new(levels);
    // Root expansions with symmetry breaking.
    for node in first_core_candidates(problem) {
        queue.push(Entry {
            lower_bound: remaining_weight[1],
            partial_cost: 0.0,
            parent: NO_ROW,
            target: node.index() as u8,
            depth: 1,
        });
    }

    let mut best: Option<(f64, Mapping)> = None;
    let mut expansions = 0usize;
    let mut truncated = false;
    // (placed node, comm weight) of each earlier neighbour of the core
    // being placed, in `earlier[level]` order.
    let mut neighbours: Vec<(usize, f64)> = Vec::with_capacity(levels);

    while let Some(entry) = queue.pop() {
        if expansions >= options.max_expansions {
            truncated = true;
            break;
        }
        if let Some((best_cost, _)) = &best {
            if entry.lower_bound >= *best_cost {
                queue.rows.release(entry.parent);
                continue; // prune: cannot beat the incumbent
            }
        }
        expansions += 1;
        let level = usize::from(entry.depth);

        if level == levels {
            // Complete placement: accept if bandwidth-feasible.
            let prefix = queue.rows.prefix(entry.parent, level - 1);
            let mapping = to_mapping(&order, prefix, entry.target, n);
            queue.rows.release(entry.parent);
            if fits(problem, &mapping) {
                let cost = entry.partial_cost;
                if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                    best = Some((cost, mapping));
                }
            }
            continue;
        }

        // Expand: place core `order[level]` on every free node.
        let row = queue.rows.write(&entry);
        queue.rows.release(entry.parent);
        let occupied = queue.rows.occupied(row);
        let placement = queue.rows.prefix(row, level);
        neighbours.clear();
        neighbours
            .extend(earlier[level].iter().map(|&(lj, comm)| (usize::from(placement[lj]), comm)));
        for (target, hop_row) in hops.chunks_exact(n).enumerate() {
            if occupied & (1u128 << target) != 0 {
                continue;
            }
            let mut delta = 0.0;
            for &(placed, comm) in &neighbours {
                delta += comm * hop_row[placed];
            }
            let partial_cost = entry.partial_cost + delta;
            let lower_bound = partial_cost + remaining_weight[level + 1];
            if let Some((best_cost, _)) = &best {
                if lower_bound >= *best_cost {
                    continue;
                }
            }
            queue.push(Entry {
                lower_bound,
                partial_cost,
                parent: row,
                target: target as u8,
                depth: entry.depth + 1,
            });
        }
        queue.rows.release(row);

        // Partial search: keep the best half when the queue overflows.
        if queue.len() > options.max_queue {
            truncated = true;
            queue.truncate(options.max_queue / 2);
        }
    }

    let (mapping, fallback) = match best {
        Some((_, mapping)) => (mapping, false),
        None => {
            // Budget expired with no completion: fall back to the greedy
            // constructive placement so callers always get a mapping.
            truncated = true;
            (nmap::initialize(problem), true)
        }
    };

    PbbOutcome {
        feasible: fits(problem, &mapping),
        comm_cost: problem.comm_cost(&mapping),
        mapping,
        expansions,
        truncated,
        fallback,
    }
}

/// Whether load-balanced minimum-path routing of `mapping` meets every
/// link capacity. It routes only where a link could overload
/// ([`MappingProblem::capacity_never_binds`]).
fn fits(problem: &MappingProblem, mapping: &Mapping) -> bool {
    problem.capacity_never_binds()
        || routing::route_min_paths(problem, mapping)
            .is_ok_and(|(_, loads)| loads.within_capacity(problem.topology()))
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

/// The placement `prefix ++ [last]` of the cores in `order`.
fn to_mapping(order: &[CoreId], prefix: &[u8], last: u8, node_count: usize) -> Mapping {
    let mut mapping = Mapping::new(node_count);
    for (&core, &node) in order.iter().zip(prefix.iter().chain([&last])) {
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

    /// The probe's PBB counters after one [`pbb_checked`] run:
    /// `(expansions, truncated, fallbacks)`.
    fn probe_counts(problem: &MappingProblem, options: PbbOptions) -> (u64, u64, u64) {
        let probe = noc_probe::Probe::new();
        let mut ctx = EvalContext::new(problem);
        ctx.set_probe(&probe);
        pbb_checked(&ctx, &options).unwrap();
        let count = |name: &str| probe.counter(name).get();
        (
            count("search.pbb_expansions"),
            count("search.pbb_truncated"),
            count("search.pbb_fallbacks"),
        )
    }

    #[test]
    fn probe_counts_truncated_runs_and_fallbacks() {
        // Ten expansions cannot complete a 12-core placement, which takes
        // at least twelve: the run is truncated and falls back.
        let graph = noc_graph::RandomGraphConfig { cores: 12, ..Default::default() }.generate(1);
        let p = MappingProblem::new(graph, Topology::mesh(4, 3, 1e9)).unwrap();
        let budget = PbbOptions { max_queue: 4, max_expansions: 10 };
        assert_eq!(probe_counts(&p, budget), (10, 1, 1));
        let out = pbb(&p, &budget);
        assert!(out.truncated && out.fallback);
        assert_eq!(out.mapping, nmap::initialize(&p));
        // An unbudgeted PIP run proves its optimum: it counts neither.
        let pip = noc_apps::App::Pip;
        let (w, h) = pip.mesh_dims();
        let p = MappingProblem::new(pip.core_graph(), Topology::mesh(w, h, 2000.0)).unwrap();
        let unbudgeted = PbbOptions { max_queue: 30_000_000, max_expansions: 100_000_000 };
        let (expansions, truncated, fallbacks) = probe_counts(&p, unbudgeted);
        assert!(expansions > 0);
        assert_eq!((truncated, fallbacks), (0, 0));
    }

    #[test]
    fn rows_are_freed_at_once_only_without_a_threshold() {
        let mut queue = Queue::new(3);
        let root =
            Entry { lower_bound: 1.0, partial_cost: 0.0, parent: NO_ROW, target: 0, depth: 1 };
        // No threshold, so no unsorted tier: a released row is freed at
        // once, and the next write reuses it.
        let row = queue.rows.write(&root);
        queue.rows.release(row);
        assert_eq!(queue.rows.write(&root), row);
        // While a threshold is set, unsorted entries may still name a
        // released row: it waits, and the next write takes a fresh one.
        queue.set_threshold(Some(root));
        queue.rows.release(row);
        assert_ne!(queue.rows.write(&root), row);
        // Replacing the threshold frees what waited.
        queue.set_threshold(None);
        assert_eq!(queue.rows.free, [row]);
        assert!(queue.rows.pending.is_empty());
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

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

use std::cmp::{Ordering, Reverse};

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
/// key of 24 bytes with no buffer of its own. Its exact cost of
/// placed-pair communication is not stored: [`Tree::partial_cost`]
/// recomputes it when the entry is expanded.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Exact cost of placed-pair communication + admissible remainder
    /// bound.
    lower_bound: f64,
    /// The entry's place in generation order, unique over the run: roots
    /// first, then every child in the order it was computed.
    seq: u64,
    /// The row holding the parent's placement, or [`NO_ROW`] for a root.
    parent: u32,
    /// Index of the node hosting core `order[depth - 1]`.
    target: u8,
    /// Number of cores placed.
    depth: u8,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 24);

impl Entry {
    /// The integer sort key of an overflow: the bound, then the
    /// generation order. Bounds are nonnegative, so their bits order as
    /// they do, and within one bound generation order is mostly the
    /// search order; [`sort_worst_first`] checks it.
    fn key(&self) -> (u64, u64) {
        (self.lower_bound.to_bits(), self.seq)
    }
}

/// Relative margin of every shell test. A shell bound and a child bound
/// sum the same nonnegative terms in different orders, so rounding moves
/// them apart by a few ulps at most, far less than this.
const SHELL_MARGIN: f64 = 1e-9;

/// The children of an expanded entry from shell position `next` on. The
/// shells are the free targets grouped by their hop distance `d` from
/// the node of the level's anchor, the earlier neighbour that sends the
/// core being placed the most traffic. Every other earlier neighbour is at
/// least one hop away, so every child in shell `d` has a bound of at least
/// `partial_cost + floor + comm · (d − 1)` ([`Tree::next_bound`]). 8
/// bytes, holding one reference on `row`.
#[derive(Debug, Clone, Copy)]
struct Deferred {
    /// The row holding the expanded entry's placement and cost.
    row: u32,
    /// Number of cores the expanded entry placed.
    level: u8,
    /// Position in the row's shell order of the first target not yet
    /// generated.
    next: u8,
}

const _: () = assert!(std::mem::size_of::<Deferred>() == 8);

/// The search tree's tables, built once per call: the core order and
/// what every child bound reads.
#[derive(Debug)]
struct Tree {
    /// The cores by decreasing total communication demand: level `l`
    /// places core `order[l]`.
    order: Vec<CoreId>,
    /// Node count of the topology.
    n: usize,
    /// `hops[t * n + p] = hop_distance(t, p)`: target first, placed node
    /// second, since custom topologies need not be symmetric.
    hops: Vec<f64>,
    /// The shell orders, `n` `(node, hops)` pairs a row. Row `p < n` lists
    /// every node `t` with `hop_distance(t, p)`, nearest first (ties by
    /// index), so it starts with `p` itself. Row `n` lists every node at a
    /// nominal distance 1: the one shell of a level without an anchor.
    shells: Vec<(u8, u8)>,
    /// `earlier[l]`: (level index < l, undirected comm weight) of each
    /// earlier neighbour of the core placed at level `l`.
    earlier: Vec<Vec<(usize, f64)>>,
    /// `remaining[l]`: total weight of the edges not fully placed once the
    /// first `l` cores are down.
    remaining: Vec<f64>,
    /// `anchor[l]`: the entry of `earlier[l]` with the largest weight (the
    /// first on ties); `None` when the core has no earlier neighbour.
    anchor: Vec<Option<(usize, f64)>>,
    /// `floor[l]`: the sum of `earlier[l]`'s weights plus
    /// `remaining[l + 1]`, what a child's bound adds to its parent's
    /// partial cost when every earlier neighbour is one hop away.
    floor: Vec<f64>,
}

impl Tree {
    fn new(problem: &MappingProblem) -> Self {
        let cores = problem.cores();
        let topology = problem.topology();
        let n = topology.node_count();
        let mut order: Vec<CoreId> = cores.cores().collect();
        order.sort_by(|&a, &b| cores.total_comm(b).cmp(&cores.total_comm(a)).then(a.cmp(&b)));
        let mut position = vec![0usize; order.len()];
        for (i, &c) in order.iter().enumerate() {
            position[c.index()] = i;
        }

        // Edge (a, b) completes at level max(pos[a], pos[b]) + 1.
        let levels = order.len();
        let mut remaining = vec![0.0f64; levels + 1];
        for (_, e) in cores.edges() {
            let done_at = position[e.src.index()].max(position[e.dst.index()]) + 1;
            for level_weight in remaining.iter_mut().take(done_at) {
                *level_weight += e.bandwidth.to_f64();
            }
        }

        let mut earlier: Vec<Vec<(usize, f64)>> = vec![Vec::new(); levels];
        for (li, &c) in order.iter().enumerate() {
            for (lj, &w) in order.iter().enumerate().take(li) {
                let comm = cores.comm_between(c, w);
                if comm > noc_units::Mbps::ZERO {
                    earlier[li].push((lj, comm.to_f64()));
                }
            }
        }
        let anchor = earlier
            .iter()
            .map(|list| list.iter().copied().reduce(|a, b| if b.1 > a.1 { b } else { a }))
            .collect();
        let floor = earlier
            .iter()
            .zip(&remaining[1..])
            .map(|(list, rest)| list.iter().map(|&(_, comm)| comm).sum::<f64>() + rest)
            .collect();

        let hops: Vec<f64> = topology
            .nodes()
            .flat_map(|t| topology.nodes().map(move |p| topology.hop_distance(t, p) as f64))
            .collect();
        let mut shells = Vec::with_capacity((n + 1) * n);
        for p in 0..n {
            let mut row: Vec<(u8, u8)> = (0..n).map(|t| (t as u8, hops[t * n + p] as u8)).collect();
            row.sort_unstable_by_key(|&(t, hops)| (hops, t));
            shells.extend(row);
        }
        shells.extend((0..n).map(|t| (t as u8, 1)));

        Self { order, n, hops, shells, earlier, remaining, anchor, floor }
    }

    /// `parent`'s targets in shell order, each with its shell's hop
    /// distance, and the anchor's weight (0 without an anchor).
    fn shell_order(&self, rows: &Rows, parent: &Deferred) -> (&[(u8, u8)], f64) {
        let level = usize::from(parent.level);
        let (node, comm) = match self.anchor[level] {
            Some((lj, comm)) => (usize::from(rows.prefix(parent.row, level)[lj]), comm),
            None => (self.n, 0.0),
        };
        (&self.shells[node * self.n..][..self.n], comm)
    }

    /// A bound that no child in `parent`'s next shell is below (less the
    /// rounding [`SHELL_MARGIN`] covers), or `None` once every shell is
    /// generated.
    fn next_bound(&self, rows: &Rows, parent: &Deferred) -> Option<f64> {
        let (order, comm) = self.shell_order(rows, parent);
        let &(_, hops) = order.get(usize::from(parent.next))?;
        let floor = self.floor[usize::from(parent.level)];
        Some(rows.partial_cost(parent.row) + floor + comm * (f64::from(hops) - 1.0))
    }

    /// What placing core `order[level]` on `target` adds to the cost of
    /// the `placement` of the cores before it: its `comm × hops` terms,
    /// summed in `earlier[level]` order.
    #[inline]
    fn delta(&self, level: usize, placement: &[u8], target: u8) -> f64 {
        let hop_row = &self.hops[usize::from(target) * self.n..][..self.n];
        let mut delta = 0.0;
        for &(lj, comm) in &self.earlier[level] {
            delta += comm * hop_row[usize::from(placement[lj])];
        }
        delta
    }

    /// `entry`'s exact cost of placed-pair communication, bit for bit
    /// the value [`Tree::generate`] computed its bound from.
    fn partial_cost(&self, rows: &Rows, entry: &Entry) -> f64 {
        let level = usize::from(entry.depth) - 1;
        let placement = rows.prefix(entry.parent, level);
        rows.partial_cost(entry.parent) + self.delta(level, placement, entry.target)
    }

    /// Generates `parent`'s next shell: hands each child to `emit`,
    /// numbered from `seq` on, moves `parent.next` past the shell and
    /// returns how many children, one per free target, it computed.
    fn generate(
        &self,
        rows: &Rows,
        parent: &mut Deferred,
        seq: &mut u64,
        mut emit: impl FnMut(Entry),
    ) -> usize {
        let level = usize::from(parent.level);
        let placement = rows.prefix(parent.row, level);
        let occupied = rows.occupied(parent.row);
        let parent_cost = rows.partial_cost(parent.row);
        let (order, _) = self.shell_order(rows, parent);
        let start = usize::from(parent.next);
        let distance = order[start].1;
        let shell = order[start..].iter().take_while(|&&(_, hops)| hops == distance);
        let mut end = start;
        let mut computed = 0;
        for &(target, _) in shell {
            end += 1;
            if occupied & (1u128 << target) != 0 {
                continue;
            }
            computed += 1;
            let partial_cost = parent_cost + self.delta(level, placement, target);
            emit(Entry {
                lower_bound: partial_cost + self.remaining[level + 1],
                seq: *seq,
                parent: parent.row,
                target,
                depth: parent.level + 1,
            });
            *seq += 1;
        }
        parent.next = end as u8;
        computed
    }
}

/// The placements of expanded entries: row `r` is `width` node bytes
/// beside an occupancy mask and the entry's exact cost of placed-pair
/// communication, which every child's bound starts from. A row counts
/// its references: the live entries that name it, ordered or unsorted,
/// the deferred record of its ungenerated shells, the queue's threshold
/// and the expansion writing it. Its last release frees it, so memory
/// follows the live queue, not the expansion count.
#[derive(Debug)]
struct Rows {
    width: usize,
    nodes: Vec<u8>,
    occupied: Vec<u128>,
    partial: Vec<f64>,
    refs: Vec<u32>,
    free: Vec<u32>,
}

impl Rows {
    fn new(width: usize) -> Self {
        Self {
            width,
            nodes: Vec::new(),
            occupied: Vec::new(),
            partial: Vec::new(),
            refs: Vec::new(),
            free: Vec::new(),
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

    /// The exact cost of `row`'s placement; 0 for [`NO_ROW`].
    fn partial_cost(&self, row: u32) -> f64 {
        if row == NO_ROW {
            0.0
        } else {
            self.partial[row as usize]
        }
    }

    /// Writes `entry`'s placement and its `partial_cost` into a free row,
    /// which the caller holds one reference to.
    fn write(&mut self, entry: &Entry, partial_cost: f64) -> u32 {
        let row = self.free.pop().unwrap_or_else(|| {
            let row = u32::try_from(self.refs.len())
                .ok()
                .filter(|&row| row != NO_ROW)
                .expect("PBB prefix rows outgrew u32 indices");
            self.nodes.resize(self.nodes.len() + self.width, 0);
            self.occupied.push(0);
            self.partial.push(0.0);
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
        self.partial[row as usize] = partial_cost;
        self.refs[row as usize] = 1;
        row
    }

    fn retain(&mut self, row: u32, count: u32) {
        if row != NO_ROW {
            self.refs[row as usize] += count;
        }
    }

    fn release(&mut self, row: u32) {
        if row != NO_ROW {
            let refs = &mut self.refs[row as usize];
            *refs -= 1;
            if *refs == 0 {
                self.free.push(row);
            }
        }
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
    family_order(a, b, rows).then(a.target.cmp(&b.target))
}

/// The search order of two entries of one bound but for their last
/// nodes: the shorter prefix first, then the parents' placements.
/// Siblings share it.
#[inline]
fn family_order(a: &Entry, b: &Entry, rows: &Rows) -> Ordering {
    a.depth.cmp(&b.depth).then_with(|| {
        if a.parent == b.parent {
            Ordering::Equal
        } else {
            let len = usize::from(a.depth) - 1;
            rows.prefix(a.parent, len).cmp(rows.prefix(b.parent, len))
        }
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

/// Sorts `entries` worst first: by [`Entry::key`], checked pair by pair
/// against the search order, and by the search order itself where the
/// check fails. False if it fell back.
fn sort_worst_first(entries: &mut [Entry], rows: &Rows) -> bool {
    entries.sort_unstable_by_key(|entry| Reverse(entry.key()));
    if entries.windows(2).all(|pair| precedes(&pair[1], &pair[0], rows)) {
        return true;
    }
    entries.sort_unstable_by(|a, b| search_order(b, a, rows));
    false
}

/// The live entries in two tiers. The ordered tier is `sorted`, what the
/// last overflow kept (worst first, so its best is last), and `heap`, a
/// binary min-heap of the children since then that precede `threshold`,
/// the worst kept entry. The unsorted tier holds the children that come
/// after it, which the next overflow drops unless too few others remain:
/// those in `unsorted`, and those of the shells in `deferred`, counted
/// but not generated yet. Invariant: every ordered entry precedes every
/// unsorted entry, so the better of the two ordered bests is the best
/// live entry. Every live entry, every deferred record and the threshold
/// holds one reference on the row it names.
#[derive(Debug)]
struct Queue {
    sorted: Vec<Entry>,
    heap: Vec<Entry>,
    unsorted: Vec<Entry>,
    /// Expansions whose later shells all come after the threshold.
    deferred: Vec<Deferred>,
    /// The number of children `deferred` stands for.
    deferred_len: usize,
    threshold: Option<Entry>,
    rows: Rows,
    tree: Tree,
    /// The sequence number of the next entry generated: the number of
    /// roots plus the child bounds computed so far.
    seq: u64,
    /// Scratch: the unsorted tier's bounds, for an overflow's prefilter.
    bounds: Vec<f64>,
}

impl Queue {
    /// A queue holding `roots`, which name no row and are numbered
    /// `0..roots.len()`.
    fn new(tree: Tree, mut roots: Vec<Entry>) -> Self {
        let rows = Rows::new(tree.order.len());
        let seq = roots.len() as u64;
        heapify(&mut roots, |a, b| precedes(a, b, &rows));
        Self {
            sorted: Vec::new(),
            heap: roots,
            unsorted: Vec::new(),
            deferred: Vec::new(),
            deferred_len: 0,
            threshold: None,
            rows,
            tree,
            seq,
            bounds: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.sorted.len() + self.heap.len() + self.unsorted.len() + self.deferred_len
    }

    /// Adds the children of the entry whose placement `parent.row` holds.
    /// Its shells are generated in order while their bound is at most the
    /// threshold's (with [`SHELL_MARGIN`]); every child of a later shell
    /// comes after the threshold, so those shells are deferred. A child
    /// that precedes the threshold joins the heap, any other the unsorted
    /// tier. The row gains the references of every child and of the
    /// deferred record in one step.
    fn expand(&mut self, mut parent: Deferred) {
        let limit = self.threshold.map_or(f64::INFINITY, |entry| entry.lower_bound);
        let limit = limit * (1.0 + SHELL_MARGIN);
        let Self { heap, unsorted, threshold, rows, tree, seq, .. } = self;
        // `!precedes(child, threshold)`, with the family order that every
        // child shares computed once.
        let mut family = None;
        let mut after_threshold = |child: &Entry| {
            let Some(threshold) = threshold else { return false };
            if child.lower_bound != threshold.lower_bound {
                return child.lower_bound > threshold.lower_bound;
            }
            let family = *family.get_or_insert_with(|| family_order(child, threshold, rows));
            family.then(child.target.cmp(&threshold.target)) != Ordering::Less
        };
        let mut computed = 0;
        while tree.next_bound(rows, &parent).is_some_and(|bound| bound <= limit) {
            computed += tree.generate(rows, &mut parent, seq, |child| {
                if after_threshold(&child) {
                    unsorted.push(child);
                } else {
                    let at = heap.len();
                    heap.push(child);
                    sift_up(heap, at, |a, b| precedes(a, b, rows));
                }
            });
        }
        let left = self.tree.n - usize::from(parent.level) - computed;
        self.rows.retain(parent.row, (computed + usize::from(left > 0)) as u32);
        if left > 0 {
            self.deferred.push(parent);
            self.deferred_len += left;
        }
    }

    /// Generates into the unsorted tier the next shell of every deferred
    /// expansion whose next bound is at most `limit`; false if none is.
    fn undefer(&mut self, limit: f64) -> bool {
        let Self { unsorted, deferred, deferred_len, rows, tree, seq, .. } = self;
        let mut any = false;
        for parent in deferred.iter_mut() {
            if tree.next_bound(rows, parent).is_some_and(|bound| bound <= limit) {
                let computed = tree.generate(rows, parent, seq, |child| unsorted.push(child));
                rows.retain(parent.row, computed as u32);
                *deferred_len -= computed;
                any = true;
            }
        }
        any
    }

    /// Takes the best live entry. It still holds its reference to its
    /// parent row: the caller releases it once done with the prefix. An
    /// empty ordered tier is refilled first, by the overflow that keeps
    /// every live entry.
    fn pop(&mut self) -> Option<Entry> {
        if self.sorted.is_empty() && self.heap.is_empty() {
            if self.len() == 0 {
                return None;
            }
            self.truncate(self.len());
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

    /// The `k`-th smallest bound of the unsorted tier once every deferred
    /// shell that could hold one of its best `k` entries is generated:
    /// each pass generates the next shell of every deferred expansion at
    /// or below the cut of the entries generated so far (all of them
    /// while fewer than `k` are), until no shell is left at or below it.
    /// Requires at least `k` unsorted entries, generated or not.
    fn unsorted_cut(&mut self, k: usize) -> f64 {
        loop {
            let cut = if self.unsorted.len() < k {
                f64::INFINITY
            } else {
                let bounds = &mut self.bounds;
                bounds.clear();
                bounds.extend(self.unsorted.iter().map(|entry| entry.lower_bound));
                *bounds.select_nth_unstable_by(k - 1, f64::total_cmp).1
            };
            if !self.undefer(cut * (1.0 + SHELL_MARGIN)) {
                return cut;
            }
        }
    }

    /// Overflow: keeps the best `keep` live entries and releases the rest
    /// — from the ordered tier alone when it holds that many (the unsorted
    /// tier is then dropped whole, its deferred shells ungenerated),
    /// otherwise the whole ordered tier plus the best of the unsorted
    /// tier. The kept entries become the sorted run, and the worst of them
    /// the threshold. A refill is the overflow that keeps every entry.
    fn truncate(&mut self, keep: usize) {
        let ordered = self.sorted.len() + self.heap.len();
        let from_unsorted = keep.saturating_sub(ordered);
        // The kept unsorted entries come after every ordered one. Only
        // those whose bound is at or below the `from_unsorted`-th
        // smallest unsorted bound can be among them.
        let cut = (from_unsorted > 0).then(|| self.unsorted_cut(from_unsorted));
        let Self { sorted, heap, unsorted, deferred, deferred_len, rows, .. } = self;
        for record in deferred.drain(..) {
            rows.release(record.row);
        }
        *deferred_len = 0;
        // Sort the heap worst first and merge it into the run from the
        // back: each heap entry, best first, finds its place by galloping
        // down from the last one's and then by binary search, and the run
        // entries it precedes move up as one block. Most heap entries
        // land next to the one before, at the cost of one comparison.
        sort_worst_first(heap, rows);
        let (mut i, mut j) = (sorted.len(), heap.len());
        sorted.extend_from_slice(heap); // room for the merge
        while j > 0 {
            let child = heap[j - 1];
            let mut step = 1;
            while step <= i && precedes(&sorted[i - step], &child, rows) {
                step *= 2;
            }
            // `sorted[i - step / 2..i]` precede the child, and so does no
            // entry at or below `i - step`.
            let low = (i + 1).saturating_sub(step);
            let high = i - step / 2;
            let at = low + sorted[low..high].partition_point(|kept| !precedes(kept, &child, rows));
            sorted.copy_within(at..i, at + j);
            sorted[at + j - 1] = child;
            (i, j) = (at, j - 1);
        }
        heap.clear();
        if let Some(cut) = cut {
            unsorted.retain(|entry| {
                let prefiltered = entry.lower_bound <= cut;
                if !prefiltered {
                    rows.release(entry.parent);
                }
                prefiltered
            });
            sort_worst_first(unsorted, rows);
            let dropped = unsorted.len() - from_unsorted;
            sorted.splice(..0, unsorted.drain(dropped..));
        }
        for dropped in unsorted.drain(..) {
            rows.release(dropped.parent);
        }
        for dropped in sorted.drain(..ordered.saturating_sub(keep)) {
            rows.release(dropped.parent);
        }
        self.set_threshold(self.sorted.first().copied());
        if cfg!(debug_assertions) {
            self.audit();
        }
    }

    /// Replaces the threshold, moving its reference to the new one's
    /// parent row.
    fn set_threshold(&mut self, threshold: Option<Entry>) {
        if let Some(new) = &threshold {
            self.rows.retain(new.parent, 1);
        }
        if let Some(old) = std::mem::replace(&mut self.threshold, threshold) {
            self.rows.release(old.parent);
        }
    }

    /// Checks every row's reference count against a recount of what the
    /// queue holds (live entries, deferred records and the threshold), and
    /// that the free rows are exactly the unreferenced ones. A leaked
    /// reference changes no outcome, so only this check sees it.
    fn audit(&self) {
        let Self { sorted, heap, unsorted, deferred, threshold, rows, .. } = self;
        let mut refs = vec![0; rows.refs.len()];
        let entries = sorted.iter().chain(heap).chain(unsorted).chain(threshold);
        let named = entries.map(|entry| entry.parent).chain(deferred.iter().map(|d| d.row));
        for row in named.filter(|&row| row != NO_ROW) {
            refs[row as usize] += 1;
        }
        assert_eq!(refs, rows.refs, "row references differ from the queue's");
        let mut free = rows.free.clone();
        free.sort_unstable();
        let unreferenced: Vec<u32> =
            (0..refs.len() as u32).filter(|&row| refs[row as usize] == 0).collect();
        assert_eq!(free, unreferenced, "the free rows are not the unreferenced ones");
    }
}

/// [`pbb`] as the mapper dispatch runs it: its placement and expansion
/// count. The probe counts `search.pbb_expansions`, the child bounds the
/// search computed (`search.pbb_children`), and the runs whose budget
/// bound (`search.pbb_truncated`) or that fell back to `initialize()`
/// (`search.pbb_fallbacks`). Two more say why a run falls back: the
/// histogram `search.pbb_depth` records each run's deepest expanded
/// prefix (a completion counts), and `search.pbb_plateau_pops` counts
/// the expansions whose bound equals the previous expansion's. A prefix
/// whose placed edges all span one hop keeps the root bound, and the
/// search order takes shorter prefixes first on a tie, so such plateaus
/// are walked breadth first and a budget can run out far from any
/// complete placement.
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
    let (out, stats) = search(ctx.problem(), options);
    let probe = ctx.probe();
    probe.counter("search.pbb_expansions").add(out.expansions as u64);
    probe.counter("search.pbb_children").add(stats.children as u64);
    probe.counter("search.pbb_plateau_pops").add(stats.plateau_pops as u64);
    probe.histogram("search.pbb_depth").record(u64::from(stats.deepest));
    probe.counter("search.pbb_truncated").add(u64::from(out.truncated));
    probe.counter("search.pbb_fallbacks").add(u64::from(out.fallback));
    Ok((out.mapping, out.expansions))
}

/// Runs the partial branch-and-bound mapper.
///
/// Queue entries are 24-byte `Copy` keys (bound, generation sequence
/// number, parent row, last node, depth). Expanding an entry writes its
/// placement and cost once, into a row that its children name; rows are
/// reference-counted and reused, so memory follows the live queue.
/// Children that come after the last overflow's threshold, which the
/// next overflow would mostly drop, wait in an unsorted tier instead of
/// being ordered. An expansion generates its children in shells of
/// rising hop distance from its heaviest earlier neighbour, and the
/// shells whose bound puts every child after the threshold wait as one
/// 8-byte record until an overflow needs them; a refill is the overflow
/// that keeps every entry. Bound terms read a hop table built once per
/// call. An overflow sorts by bound and generation order, checks the
/// result against the search order and falls back to it where they
/// disagree. A complete placement is routed
/// for its capacity check only where a link could overload, and the
/// first one accepted ends the search: every live entry comes after it,
/// so none has a lower bound. The search order is strict over live
/// entries, so the entries an overflow keeps, and every pop, are those
/// of one fully ordered queue: the outcome does not depend on the
/// queue's layout.
///
/// # Panics
///
/// Panics if the topology has more than 128 nodes (the occupancy bitmask
/// width; all paper-scale experiments are ≤ 81 nodes).
pub fn pbb(problem: &MappingProblem, options: &PbbOptions) -> PbbOutcome {
    search(problem, options).0
}

/// What a [`search`] counts beside its outcome.
#[derive(Debug, Default)]
struct Stats {
    /// Child bounds computed.
    children: usize,
    /// The depth of the deepest entry expanded.
    deepest: u8,
    /// Expansions whose bound equals the previous expansion's.
    plateau_pops: usize,
}

/// [`pbb`] and what it counted.
fn search(problem: &MappingProblem, options: &PbbOptions) -> (PbbOutcome, Stats) {
    let n = problem.topology().node_count();
    assert!(n <= MAX_NODES, "PBB occupancy mask supports up to {MAX_NODES} nodes");
    let tree = Tree::new(problem);
    let levels = tree.order.len();
    let root_bound = tree.remaining[1];

    // Root expansions with symmetry breaking.
    let roots: Vec<Entry> = first_core_candidates(problem)
        .into_iter()
        .enumerate()
        .map(|(seq, node)| Entry {
            lower_bound: root_bound,
            seq: seq as u64,
            parent: NO_ROW,
            target: node.index() as u8,
            depth: 1,
        })
        .collect();
    let root_count = roots.len();
    let mut queue = Queue::new(tree, roots);

    let mut best: Option<Mapping> = None;
    let mut expansions = 0usize;
    let mut truncated = false;
    let mut stats = Stats::default();
    let mut previous_bound = None;

    while let Some(entry) = queue.pop() {
        if expansions >= options.max_expansions {
            truncated = true;
            break;
        }
        expansions += 1;
        stats.deepest = stats.deepest.max(entry.depth);
        stats.plateau_pops += usize::from(previous_bound == Some(entry.lower_bound));
        previous_bound = Some(entry.lower_bound);
        let level = usize::from(entry.depth);

        if level == levels {
            // Complete placement: accept if bandwidth-feasible.
            let prefix = queue.rows.prefix(entry.parent, level - 1);
            let mapping = to_mapping(&queue.tree.order, prefix, entry.target, n);
            queue.rows.release(entry.parent);
            if fits(problem, &mapping) {
                // Its bound is its cost, and every live entry comes after
                // it, so none has a bound below that cost: the search
                // would prune every one, unless the expansion budget
                // stopped it at the next pop.
                truncated |= expansions >= options.max_expansions && queue.len() > 0;
                best = Some(mapping);
                break;
            }
            continue;
        }

        // Expand: place core `order[level]` on every free node.
        let partial_cost = queue.tree.partial_cost(&queue.rows, &entry);
        let row = queue.rows.write(&entry, partial_cost);
        queue.rows.release(entry.parent);
        queue.expand(Deferred { row, level: entry.depth, next: 0 });
        queue.rows.release(row);

        // Partial search: keep the best half when the queue overflows.
        if queue.len() > options.max_queue {
            truncated = true;
            queue.truncate(options.max_queue / 2);
        }
    }

    let (mapping, fallback) = match best {
        Some(mapping) => (mapping, false),
        None => {
            // Budget expired with no completion: fall back to the greedy
            // constructive placement so callers always get a mapping.
            truncated = true;
            (nmap::initialize(problem), true)
        }
    };

    let outcome = PbbOutcome {
        feasible: fits(problem, &mapping),
        comm_cost: problem.comm_cost(&mapping),
        mapping,
        expansions,
        truncated,
        fallback,
    };
    stats.children = queue.seq as usize - root_count;
    (outcome, stats)
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
    fn rows_are_freed_at_their_last_release() {
        let p = problem(&[(0, 1, 1.0)], 3, 3, 1);
        let mut queue = Queue::new(Tree::new(&p), Vec::new());
        let root = Entry { lower_bound: 1.0, seq: 0, parent: NO_ROW, target: 0, depth: 1 };
        // Without a threshold: the writer's release is the last, so the
        // row is freed at once and the next write reuses it, cost and all.
        let row = queue.rows.write(&root, 2.5);
        assert_eq!(queue.rows.partial_cost(row), 2.5);
        queue.rows.release(row);
        assert_eq!(queue.rows.write(&root, 0.5), row);
        assert_eq!(queue.rows.partial_cost(row), 0.5);
        // A threshold that names no row changes nothing.
        queue.set_threshold(Some(root));
        queue.rows.release(row);
        assert_eq!(queue.rows.write(&root, 4.0), row);
        // A threshold that names the row holds a reference on it: the row
        // outlives the writer's release, keeping its cost, and the next
        // write takes a fresh one, until the threshold's release frees it.
        queue.set_threshold(Some(Entry { parent: row, target: 1, depth: 2, ..root }));
        queue.rows.release(row);
        let fresh = queue.rows.write(&root, 0.5);
        assert_ne!(fresh, row);
        assert_eq!((queue.rows.partial_cost(row), queue.rows.partial_cost(fresh)), (4.0, 0.5));
        queue.set_threshold(None);
        assert_eq!(queue.rows.free, [row]);
    }

    /// One bound class of an overflow, four prefixes at one bound, in
    /// the search order: two roots, then two children of row `[0]`; and
    /// an entry at a higher bound. Generation orders that put a child or
    /// a larger last node before an entry it comes after in the search
    /// order make the key sort fall back, and every result is the search
    /// order's.
    #[test]
    fn key_order_falls_back_where_generation_order_is_not_the_search_order() {
        let mut rows = Rows::new(3);
        let entry =
            |parent, target, depth| Entry { lower_bound: 2.0, seq: 0, parent, target, depth };
        let row = rows.write(&entry(NO_ROW, 0, 1), 0.0);
        let best_first = [
            entry(NO_ROW, 1, 1),
            entry(NO_ROW, 2, 1),
            entry(row, 1, 2),
            entry(row, 2, 2),
            Entry { lower_bound: 3.0, ..entry(row, 0, 2) },
        ];
        let numbered = |seqs: [u64; 5]| {
            let mut entries = best_first;
            for (entry, seq) in entries.iter_mut().zip(seqs) {
                entry.seq = seq;
            }
            entries.reverse();
            entries
        };
        let targets = |entries: &[Entry]| -> Vec<(u8, u8)> {
            entries.iter().map(|entry| (entry.depth, entry.target)).collect()
        };
        let worst_first = targets(&numbered([0; 5]));
        let in_order = [0, 1, 2, 3, 4];
        let child_first = [1, 2, 0, 3, 4];
        let larger_node_first = [0, 2, 1, 3, 4];
        // The bound decides first, whatever the generation order.
        let later_bound_first = [1, 2, 3, 4, 0];
        for (seqs, agrees) in [
            (in_order, true),
            (child_first, false),
            (larger_node_first, false),
            (later_bound_first, true),
        ] {
            let mut entries = numbered(seqs);
            entries.rotate_left(2);
            assert_eq!(sort_worst_first(&mut entries, &rows), agrees, "{seqs:?}");
            assert_eq!(targets(&entries), worst_first, "{seqs:?}");
        }
        // An overflow keeping the best two: the key order keeps the right
        // two in the right order, but the children it drops are out of
        // order. The sort checks every adjacent pair, so it falls back.
        let dropped_out_of_order = [0, 1, 3, 2, 4];
        let mut entries = numbered(dropped_out_of_order);
        entries.sort_unstable_by_key(|entry| Reverse(entry.key()));
        assert_eq!(targets(&entries[3..]), worst_first[3..]);
        assert_ne!(targets(&entries), worst_first);
        assert!(!sort_worst_first(&mut entries, &rows));
        assert_eq!(targets(&entries), worst_first);
    }

    /// Two random graphs side by side, so that some levels place a core
    /// with no earlier neighbour.
    fn two_components(cores: usize, seed: u64) -> CoreGraph {
        let mut graph = CoreGraph::new();
        for part in 0..2 {
            let random =
                noc_graph::RandomGraphConfig { cores, ..Default::default() }.generate(seed + part);
            let ids: Vec<CoreId> =
                random.cores().map(|c| graph.add_core(format!("p{part}c{}", c.index()))).collect();
            for (_, e) in random.edges() {
                graph
                    .add_comm(ids[e.src.index()], ids[e.dst.index()], e.bandwidth.to_f64())
                    .unwrap();
            }
        }
        graph
    }

    /// Every shell's bound is at most every bound computed in it or in a
    /// later shell (less the rounding [`SHELL_MARGIN`] covers), and
    /// generating every shell computes the children of the plain loop over
    /// all free targets, bit for bit, on random prefixes over a mesh, a
    /// torus, a 3-D mesh and a one-way ring with chords.
    #[test]
    fn shells_bound_their_children_and_partition_the_eager_children() {
        let ring = {
            let node = NodeId::new;
            let mut links: Vec<_> = (0..18).map(|i| (node(i), node((i + 1) % 18), 1e9)).collect();
            links.extend([(0, 9), (9, 0), (4, 13), (13, 4)].map(|(a, b)| (node(a), node(b), 1e9)));
            Topology::custom(18, links).unwrap()
        };
        let topologies = [
            Topology::mesh(4, 4, 1e9),
            Topology::torus(4, 4, 1e9),
            Topology::mesh_nd(&[3, 3, 2], 1e9).unwrap(),
            ring,
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % bound
        };
        let mut anchorless = 0;
        for topology in topologies {
            let p = MappingProblem::new(two_components(7, 5), topology).unwrap();
            let tree = Tree::new(&p);
            let (n, levels) = (tree.n, tree.order.len());
            let mut rows = Rows::new(levels);
            for _ in 0..200 {
                let level = 1 + next(levels - 1);
                let partial_cost = next(10_000) as f64 / 7.0;
                let mut nodes: Vec<u8> = (0..n as u8).collect();
                let mut row = NO_ROW;
                for depth in 1..=level {
                    let pick = depth - 1 + next(n - depth + 1);
                    nodes.swap(depth - 1, pick);
                    let target = nodes[depth - 1];
                    let depth = depth as u8;
                    let cost = if usize::from(depth) == level { partial_cost } else { 0.0 };
                    let entry = Entry { lower_bound: 0.0, seq: 0, parent: row, target, depth };
                    row = rows.write(&entry, cost);
                }
                anchorless += usize::from(tree.anchor[level].is_none());
                let mut parent = Deferred { row, level: level as u8, next: 0 };
                let (mut lazy, mut computed, mut floor, mut seq) = (Vec::new(), 0, 0.0f64, 0);
                while let Some(bound) = tree.next_bound(&rows, &parent) {
                    floor = floor.max(bound);
                    let from = lazy.len();
                    computed +=
                        tree.generate(&rows, &mut parent, &mut seq, |child| lazy.push(child));
                    for child in &lazy[from..] {
                        assert!(
                            floor <= child.lower_bound * (1.0 + SHELL_MARGIN),
                            "{floor} above {child:?}"
                        );
                    }
                }
                assert_eq!(computed, n - level);
                assert_eq!(seq, computed as u64);
                assert!(lazy.iter().enumerate().all(|(i, child)| child.seq == i as u64));
                let placement = rows.prefix(row, level);
                let eager: Vec<(u8, u64, u64)> = (0..n)
                    .filter(|&t| !placement.contains(&(t as u8)))
                    .map(|t| {
                        let mut delta = 0.0;
                        for &(lj, comm) in &tree.earlier[level] {
                            let placed = NodeId::new(usize::from(placement[lj]));
                            delta +=
                                comm * p.topology().hop_distance(NodeId::new(t), placed) as f64;
                        }
                        let child = partial_cost + delta;
                        (t as u8, child.to_bits(), (child + tree.remaining[level + 1]).to_bits())
                    })
                    .collect();
                // A child's cost, recomputed from its parent row as an
                // expansion does, is the one its bound was computed from.
                let mut lazy: Vec<(u8, u64, u64)> = lazy
                    .iter()
                    .map(|c| {
                        let cost = tree.partial_cost(&rows, c);
                        (c.target, cost.to_bits(), c.lower_bound.to_bits())
                    })
                    .collect();
                lazy.sort_unstable();
                assert_eq!(lazy, eager);
            }
        }
        assert!(anchorless > 0, "no prefix reached a level without an anchor");
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

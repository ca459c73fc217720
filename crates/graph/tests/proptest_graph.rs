//! Property-based tests for topologies, quadrant DAGs, the shortest-path
//! searcher and the random graph generator.

use noc_graph::{bfs_hops, LinkId, NodeId, PathSearch, QuadrantDag, RandomGraphConfig, Topology};
use proptest::prelude::*;

/// The cheapest `a → b` path under per-link `weight`, as owned
/// `(cost, links)`.
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

/// Every simple `source → dest` path, as `(cost, hops)`, by exhaustive
/// depth-first enumeration; `step(link)` is the link's weight, or `None`
/// when the link is not allowed.
fn simple_paths(
    t: &Topology,
    source: NodeId,
    dest: NodeId,
    step: &dyn Fn(LinkId) -> Option<f64>,
) -> Vec<(f64, usize)> {
    fn walk(
        t: &Topology,
        at: NodeId,
        dest: NodeId,
        step: &dyn Fn(LinkId) -> Option<f64>,
        visited: u64,
        (cost, hops): (f64, usize),
        out: &mut Vec<(f64, usize)>,
    ) {
        if at == dest {
            out.push((cost, hops));
            return;
        }
        let visited = visited | 1 << at.index();
        for (id, link) in t.out_links(at) {
            if let Some(w) = step(id).filter(|_| visited & 1 << link.dst.index() == 0) {
                walk(t, link.dst, dest, step, visited, (cost + w, hops + 1), out);
            }
        }
    }
    let mut out = Vec::new();
    walk(t, source, dest, step, 0, (0.0, 0), &mut out);
    out
}

fn mesh_dims() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=6, 1usize..=6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Mesh hop distance is a metric: symmetric, zero iff equal, triangle
    /// inequality; and BFS agrees with the closed form.
    #[test]
    fn mesh_distance_is_a_metric((w, h) in mesh_dims(), seed in 0u64..1000) {
        let t = Topology::mesh(w, h, 1.0);
        let n = t.node_count();
        let a = NodeId::new((seed as usize) % n);
        let b = NodeId::new((seed as usize * 7 + 3) % n);
        let c = NodeId::new((seed as usize * 13 + 5) % n);
        prop_assert_eq!(t.hop_distance(a, b), t.hop_distance(b, a));
        prop_assert_eq!(t.hop_distance(a, a), 0);
        if a != b {
            prop_assert!(t.hop_distance(a, b) > 0);
        }
        prop_assert!(
            t.hop_distance(a, c) <= t.hop_distance(a, b) + t.hop_distance(b, c)
        );
        let hops = bfs_hops(&t, a);
        prop_assert_eq!(hops[b.index()], Some(t.hop_distance(a, b)));
    }

    /// Torus distances never exceed mesh distances on the same grid.
    #[test]
    fn torus_shortcuts_never_lengthen((w, h) in (2usize..=6, 2usize..=6), seed in 0u64..1000) {
        let mesh = Topology::mesh(w, h, 1.0);
        let torus = Topology::torus(w, h, 1.0);
        let n = mesh.node_count();
        let a = NodeId::new((seed as usize) % n);
        let b = NodeId::new((seed as usize * 11 + 1) % n);
        prop_assert!(torus.hop_distance(a, b) <= mesh.hop_distance(a, b));
    }

    /// Every maximal walk through the quadrant DAG is a minimal path, and
    /// the DAG is non-empty whenever source != dest.
    #[test]
    fn quadrant_paths_are_minimal((w, h) in (2usize..=6, 2usize..=6), seed in 0u64..1000) {
        let t = Topology::mesh(w, h, 1.0);
        let n = t.node_count();
        let s = NodeId::new((seed as usize) % n);
        let d = NodeId::new((seed as usize * 17 + 2) % n);
        prop_assume!(s != d);
        let q = QuadrantDag::new(&t, s, d);
        prop_assert!(!q.links().is_empty());
        // Walk greedily along quadrant links; each step must reduce the
        // distance to the destination by exactly one.
        let mut at = s;
        let mut steps = 0;
        while at != d {
            let next = t
                .out_links(at)
                .find(|(id, _)| q.contains(*id))
                .map(|(_, l)| l.dst)
                .expect("quadrant has no dead ends");
            prop_assert_eq!(t.hop_distance(next, d) + 1, t.hop_distance(at, d));
            at = next;
            steps += 1;
            prop_assert!(steps <= n, "walk did not terminate");
        }
        prop_assert_eq!(steps, t.hop_distance(s, d));
    }

    /// The searcher with unit weights matches hop distance on meshes and
    /// tori.
    #[test]
    fn dijkstra_matches_distance((w, h) in mesh_dims(), torus in any::<bool>(), seed in 0u64..1000) {
        let t = if torus { Topology::torus(w, h, 1.0) } else { Topology::mesh(w, h, 1.0) };
        let n = t.node_count();
        let a = NodeId::new((seed as usize) % n);
        let b = NodeId::new((seed as usize * 5 + 1) % n);
        let (_, links) = cheapest(&t, a, b, |_| 1.0, |_| true).expect("meshes are connected");
        prop_assert_eq!(links.len(), t.hop_distance(a, b));
        // Path is contiguous from a to b.
        let mut at = a;
        for &l in &links {
            prop_assert_eq!(t.link(l).src, at);
            at = t.link(l).dst;
        }
        prop_assert_eq!(at, b);
    }

    /// The searcher's cost with arbitrary non-negative weights is a lower
    /// bound on any explicitly constructed path's weight (here: an XY
    /// staircase walk).
    #[test]
    fn dijkstra_is_optimal_vs_xy_walk(
        (w, h) in (2usize..=5, 2usize..=5),
        seed in 0u64..500,
        weights_seed in 0u64..100,
    ) {
        let t = Topology::mesh(w, h, 1.0);
        let n = t.node_count();
        let a = NodeId::new((seed as usize) % n);
        let b = NodeId::new((seed as usize * 3 + 2) % n);
        prop_assume!(a != b);
        let weight = |l: LinkId| {
            // Deterministic pseudo-random positive weights.
            let x = l.index() as u64 * 2654435761 + weights_seed * 97;
            1.0 + (x % 100) as f64 / 10.0
        };
        let (best, _) = cheapest(&t, a, b, weight, |_| true).expect("connected");

        // Manual XY walk.
        let (ax, ay) = t.coords(a);
        let (bx, by) = t.coords(b);
        let mut cost = 0.0;
        let (mut x, mut y) = (ax, ay);
        while x != bx {
            let nx = if bx > x { x + 1 } else { x - 1 };
            let l = t.find_link(t.node_at(x, y).unwrap(), t.node_at(nx, y).unwrap()).unwrap();
            cost += weight(l);
            x = nx;
        }
        while y != by {
            let ny = if by > y { y + 1 } else { y - 1 };
            let l = t.find_link(t.node_at(x, y).unwrap(), t.node_at(x, ny).unwrap()).unwrap();
            cost += weight(l);
            y = ny;
        }
        prop_assert!(best <= cost + 1e-9, "searcher {} > xy walk {}", best, cost);
    }

    /// Generated random graphs are connected, respect their bandwidth
    /// range and have the requested number of cores.
    #[test]
    fn random_graphs_are_well_formed(cores in 2usize..40, seed in 0u64..50) {
        let cfg = RandomGraphConfig { cores, ..Default::default() };
        let g = cfg.generate(seed);
        prop_assert_eq!(g.core_count(), cores);
        prop_assert!(g.is_connected());
        prop_assert!(g.edge_count() >= cores - 1);
        for (_, e) in g.edges() {
            prop_assert!(e.bandwidth >= cfg.min_bandwidth);
            prop_assert!(e.bandwidth <= cfg.max_bandwidth);
        }
    }

    /// The generator hits the requested shape across configurations: the
    /// edge count equals `round(cores · avg_degree)` (clamped between the
    /// spanning minimum and the simple-digraph maximum), the graph stays
    /// connected, and bandwidths stay inside the configured range — the
    /// guarantees the `noc-dse` random sweeps build on.
    #[test]
    fn random_graphs_hit_requested_degree_and_range(
        cores in 4usize..32,
        tenths_degree in 10u32..45, // avg_degree 1.0..4.5
        bw_base in 1u32..200,
        bw_spread in 0u32..100,
        seed in 0u64..200,
    ) {
        let cfg = RandomGraphConfig {
            cores,
            avg_degree: tenths_degree as f64 / 10.0,
            min_bandwidth: noc_units::Mbps::raw(bw_base as f64),
            max_bandwidth: noc_units::Mbps::raw((bw_base + bw_spread) as f64),
        };
        let g = cfg.generate(seed);
        prop_assert_eq!(g.core_count(), cores);
        prop_assert!(g.is_connected(), "seed {} disconnected", seed);
        let target = ((cores as f64 * cfg.avg_degree).round() as usize)
            .clamp(cores - 1, cores * (cores - 1));
        prop_assert_eq!(g.edge_count(), target, "cores {} degree {}", cores, cfg.avg_degree);
        for (_, e) in g.edges() {
            prop_assert!(e.bandwidth >= cfg.min_bandwidth);
            prop_assert!(e.bandwidth <= cfg.max_bandwidth);
        }
        // Reproducibility: the same (config, seed) pair is one graph.
        prop_assert_eq!(cfg.generate(seed), g);
    }

    /// Mesh link structure: every node's degree matches its position
    /// (corner 2, edge 3, interior 4) and in-degree equals out-degree.
    #[test]
    fn mesh_degrees_match_positions((w, h) in (2usize..=7, 2usize..=7)) {
        let t = Topology::mesh(w, h, 1.0);
        for node in t.nodes() {
            let (x, y) = t.coords(node);
            let expected = [x > 0, x + 1 < w, y > 0, y + 1 < h]
                .iter()
                .filter(|&&b| b)
                .count();
            prop_assert_eq!(t.degree(node), expected);
            prop_assert_eq!(t.in_links(node).count(), t.out_links(node).count());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// On random custom digraphs of up to 7 nodes (parallel links,
    /// self-loops and unreachable pairs included) with small integer
    /// weights, half of them 0 so that cost ties are common: the searcher's
    /// cost is the minimum over all simple allowed paths, its hop count
    /// is the fewest among the cost-minimal ones, its links form such a
    /// path, and it returns `None` exactly when no allowed path exists.
    #[test]
    fn path_search_is_exact_on_small_digraphs(
        nodes in 1usize..=7,
        arcs in prop::collection::vec((0usize..7, 0usize..7, 0u32..6), 0..18),
        mask in any::<u64>(),
        (source, dest) in (0usize..7, 0usize..7),
    ) {
        let arcs: Vec<(usize, usize, u32)> =
            arcs.into_iter().map(|(u, v, w)| (u % nodes, v % nodes, w.saturating_sub(2))).collect();
        let t = Topology::custom(
            nodes,
            arcs.iter().map(|&(u, v, _)| (NodeId::new(u), NodeId::new(v), 1.0)),
        )
        .unwrap();
        let weight = |l: LinkId| f64::from(arcs[l.index()].2);
        // About one link in four is filtered out.
        let allowed = |l: LinkId| (mask >> (2 * (l.index() % 32))) & 3 != 0;
        let (a, b) = (NodeId::new(source % nodes), NodeId::new(dest % nodes));

        let all = simple_paths(&t, a, b, &|l| allowed(l).then(|| weight(l)));
        let found = cheapest(&t, a, b, weight, allowed);
        prop_assert_eq!(found.is_none(), all.is_empty(), "{:?} from {} to {}", arcs, a, b);
        if let Some((cost, links)) = found {
            let min_cost = all.iter().map(|&(c, _)| c).fold(f64::INFINITY, f64::min);
            let min_hops =
                all.iter().filter(|&&(c, _)| c == min_cost).map(|&(_, h)| h).min().unwrap();
            prop_assert_eq!(cost, min_cost, "{:?} from {} to {}", arcs, a, b);
            prop_assert_eq!(links.len(), min_hops, "{:?} from {} to {}", arcs, a, b);
            let mut at = a;
            let mut walked = 0.0;
            for &l in &links {
                prop_assert!(allowed(l));
                prop_assert_eq!(t.link(l).src, at);
                walked += weight(l);
                at = t.link(l).dst;
            }
            prop_assert_eq!(at, b);
            prop_assert_eq!(walked, cost);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On random strongly connected digraphs of up to 12 nodes (a one-way
    /// ring plus random arcs, parallel links and self-loops included),
    /// every memoized hop row of a custom topology equals a fresh BFS,
    /// whatever order the rows are first asked for in, and a topology
    /// with filled rows still compares equal to, and prints like, one
    /// that was never queried.
    #[test]
    fn custom_hop_rows_equal_a_fresh_bfs(
        nodes in 1usize..=12,
        arcs in prop::collection::vec((0usize..12, 0usize..12), 0..30),
        first in 0usize..12,
    ) {
        let ring = (0..nodes).map(|u| (u, (u + 1) % nodes));
        let arcs: Vec<(usize, usize)> =
            ring.chain(arcs.into_iter().map(|(u, v)| (u % nodes, v % nodes))).collect();
        let build = || {
            Topology::custom(nodes, arcs.iter().map(|&(u, v)| (NodeId::new(u), NodeId::new(v), 1.0)))
                .unwrap()
        };
        let t = build();
        let unqueried = t.clone();
        prop_assert!(t.is_strongly_connected());
        for a in (0..nodes).map(|i| NodeId::new((i + first) % nodes)) {
            let fresh = bfs_hops(&t, a);
            for b in t.nodes() {
                prop_assert_eq!(Some(t.hop_distance(a, b)), fresh[b.index()], "{:?}: {} to {}", arcs, a, b);
            }
        }
        prop_assert_eq!(&t, &build());
        prop_assert_eq!(format!("{t:?}"), format!("{unqueried:?}"));
    }
}

//! Differential oracle for the single-path router.
//!
//! `oracle` holds the router that `noc_graph::PathSearch` replaced: a
//! Dijkstra that allocates its buffers per query, settles nodes in
//! `(cost, node id)` order and relaxes a link when it strictly lowers
//! the cost, driven by the greedy loop of `shortestpath()` that called it
//! once per commodity. The searcher settles in `(cost, hops, node id)`
//! order instead; inside a quadrant DAG every path to a node has the same
//! hop count, so the routes cannot move. [`nmap::routing::route_min_paths`]
//! must return equal paths and bit-identical loads, and
//! [`nmap::EvalContext::route_min_loads`] bit-identical loads, on the paper
//! apps, the DSP filter and seeded random 9–40-core graphs, placed on a
//! fitted mesh, torus and 3-D mesh and on an asymmetric custom ring, at
//! the `initialize` placement and at seeded random swaps of it.

use nmap::routing::{route_min_paths, LinkLoads};
use nmap::{initialize, EvalContext, Mapping, MappingProblem};
use noc_apps::App;
use noc_graph::{CoreGraph, Grid, NodeId, RandomGraphConfig, RandomGraphFamily, Topology};

mod oracle {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use nmap::routing::{CommodityPath, LinkLoads};
    use nmap::{MapError, Mapping, MappingProblem};
    use noc_graph::{LinkId, NodeId, QuadrantDag, Topology};

    /// Total weight of a path found by [`dijkstra`].
    pub type PathCost = f64;

    /// Result of a successful [`dijkstra`] query.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DijkstraOutcome {
        /// Links of the path from source to destination, in travel order.
        pub links: Vec<LinkId>,
        /// Nodes visited, starting at the source and ending at the destination.
        pub nodes: Vec<NodeId>,
        /// Sum of the link weights along the path.
        pub cost: PathCost,
    }

    /// Heap entry ordered as a min-heap on `cost`, tie-broken on node id for
    /// determinism across runs.
    #[derive(Debug, PartialEq)]
    struct HeapEntry {
        cost: f64,
        node: NodeId,
    }

    impl Eq for HeapEntry {}

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse: BinaryHeap is a max-heap, we need the smallest cost first.
            other
                .cost
                .partial_cmp(&self.cost)
                .expect("link weights are finite")
                .then_with(|| other.node.cmp(&self.node))
        }
    }

    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// Dijkstra shortest path from `source` to `dest` using `weight(link)` as
    /// the cost of each directed link, considering only links for which
    /// `allowed(link)` is true.
    pub fn dijkstra<W, A>(
        topology: &Topology,
        source: NodeId,
        dest: NodeId,
        mut weight: W,
        mut allowed: A,
    ) -> Option<DijkstraOutcome>
    where
        W: FnMut(LinkId) -> f64,
        A: FnMut(LinkId) -> bool,
    {
        let n = topology.node_count();
        debug_assert!(source.index() < n && dest.index() < n);
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<LinkId>> = vec![None; n];
        let mut done = vec![false; n];
        dist[source.index()] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry { cost: 0.0, node: source });

        while let Some(HeapEntry { cost, node }) = heap.pop() {
            if done[node.index()] {
                continue;
            }
            done[node.index()] = true;
            if node == dest {
                break;
            }
            for (id, link) in topology.out_links(node) {
                if !allowed(id) {
                    continue;
                }
                let w = weight(id);
                debug_assert!(w.is_finite() && w >= 0.0, "invalid link weight {w}");
                let cand = cost + w;
                if cand < dist[link.dst.index()] {
                    dist[link.dst.index()] = cand;
                    prev[link.dst.index()] = Some(id);
                    heap.push(HeapEntry { cost: cand, node: link.dst });
                }
            }
        }

        if !dist[dest.index()].is_finite() {
            return None;
        }

        // Reconstruct.
        let mut links = Vec::new();
        let mut nodes = vec![dest];
        let mut cursor = dest;
        while cursor != source {
            let via = prev[cursor.index()].expect("path exists");
            links.push(via);
            cursor = topology.link(via).src;
            nodes.push(cursor);
        }
        links.reverse();
        nodes.reverse();
        Some(DijkstraOutcome { links, nodes, cost: dist[dest.index()] })
    }

    /// The greedy loop of `shortestpath()` as it called [`dijkstra`]:
    /// each commodity in decreasing bandwidth order takes the Dijkstra
    /// path of its quadrant DAG under link weight `1 + load`, and that
    /// path's links then gain its bandwidth.
    pub fn route_min_paths(
        problem: &MappingProblem,
        mapping: &Mapping,
    ) -> nmap::Result<(Vec<CommodityPath>, LinkLoads)> {
        let topology = problem.topology();
        let commodities = problem.commodities(mapping);
        let mut loads = LinkLoads::zeros(topology.link_count());
        let mut paths: Vec<Option<CommodityPath>> = vec![None; commodities.len()];
        for edge in problem.commodity_order() {
            let c = commodities[edge.index()];
            if c.source == c.dest {
                paths[edge.index()] =
                    Some(CommodityPath { edge, links: Vec::new(), nodes: vec![c.source] });
                continue;
            }
            let quadrant = QuadrantDag::new(topology, c.source, c.dest);
            let outcome = dijkstra(
                topology,
                c.source,
                c.dest,
                |l| 1.0 + loads.get(l),
                |l| quadrant.contains(l),
            )
            .ok_or(MapError::Unroutable { commodity: edge.index() })?;
            for &l in &outcome.links {
                loads.add(l, c.value.to_f64());
            }
            paths[edge.index()] =
                Some(CommodityPath { edge, links: outcome.links, nodes: outcome.nodes });
        }
        Ok((paths.into_iter().map(|p| p.expect("all commodities routed")).collect(), loads))
    }
}

/// Placements checked per problem: `initialize`, then this many more,
/// each a few seeded random swaps away from the last.
const SWAPPED_PLACEMENTS: usize = 5;

/// SplitMix64: the swap stream, a pure function of its seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn placements(problem: &MappingProblem, seed: u64) -> Vec<Mapping> {
    let n = problem.topology().node_count() as u64;
    let mut state = seed;
    let mut all = vec![initialize(problem)];
    for _ in 0..SWAPPED_PLACEMENTS {
        let mut next = all.last().expect("non-empty").clone();
        for _ in 0..3 {
            let a = NodeId::new((splitmix(&mut state) % n) as usize);
            let b = NodeId::new((splitmix(&mut state) % n) as usize);
            next.swap_nodes(a, b);
        }
        all.push(next);
    }
    all
}

fn bits(loads: &LinkLoads) -> Vec<u64> {
    loads.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Both routers agree on every placement of `graph` on `fabric`.
fn assert_identical(label: &str, graph: CoreGraph, fabric: Topology, seed: u64) {
    let problem = MappingProblem::new(graph, fabric).expect("the fabric fits");
    let mut ctx = EvalContext::new(&problem);
    for (i, mapping) in placements(&problem, seed).iter().enumerate() {
        let (want_paths, want_loads) = oracle::route_min_paths(&problem, mapping).unwrap();
        let (paths, loads) = route_min_paths(&problem, mapping).unwrap();
        assert_eq!(paths, want_paths, "{label}, placement {i}: paths differ");
        assert_eq!(bits(&loads), bits(&want_loads), "{label}, placement {i}: loads differ");
        let cached = ctx.route_min_loads(mapping).unwrap();
        assert_eq!(bits(cached), bits(&want_loads), "{label}, placement {i}: cached loads differ");
    }
}

/// The fitted fabrics every graph is placed on: mesh, torus and 3-D mesh.
fn fabrics(cores: usize) -> Vec<Topology> {
    let (w, h) = Topology::fit_mesh_dims(cores);
    vec![
        Topology::mesh_nd(&[w, h], 1e9).expect("mesh"),
        Topology::torus_nd(&[w, h], 1e9).expect("torus"),
        Topology::mesh_nd(&Grid::fit_dims(cores, 3), 1e9).expect("3-D mesh"),
    ]
}

/// A directed `nodes`-ring with a one-way chord `i → i + 3` from every
/// even node: hop distances differ by direction, and several minimal
/// paths tie.
fn asymmetric_ring(nodes: usize) -> Topology {
    let ring = (0..nodes).map(|i| (i, (i + 1) % nodes));
    let chords = (0..nodes).step_by(2).map(|i| (i, (i + 3) % nodes));
    Topology::custom(nodes, ring.chain(chords).map(|(u, v)| (NodeId::new(u), NodeId::new(v), 1e9)))
        .expect("a valid custom topology")
}

fn graphs() -> Vec<(String, CoreGraph)> {
    let mut graphs: Vec<(String, CoreGraph)> =
        App::all().into_iter().map(|app| (app.name().to_string(), app.core_graph())).collect();
    graphs.push(("DSP".to_string(), noc_apps::dsp_filter()));
    for (i, cores) in [9usize, 14, 20, 27, 33, 40].into_iter().enumerate() {
        let config = RandomGraphConfig { cores, ..RandomGraphConfig::default() };
        let seed = RandomGraphFamily::instance_seed(cores, i as u64);
        graphs.push((format!("rand{cores}"), config.generate(seed)));
    }
    graphs
}

#[test]
fn searcher_routes_equal_the_dijkstra_router_on_grids() {
    for (g, (label, graph)) in graphs().into_iter().enumerate() {
        for (f, fabric) in fabrics(graph.core_count()).into_iter().enumerate() {
            let label = format!("{label}@{}", fabric.kind().describe());
            assert_identical(&label, graph.clone(), fabric, (g * 3 + f) as u64);
        }
    }
}

#[test]
fn searcher_routes_equal_the_dijkstra_router_on_an_asymmetric_ring() {
    for (g, (label, graph)) in graphs().into_iter().enumerate() {
        let fabric = asymmetric_ring(graph.core_count() + 2);
        assert_identical(&format!("{label}@ring"), graph, fabric, 100 + g as u64);
    }
}

//! Differential suite for the greedy constructive placements: NMAP's
//! `initialize()`, PMAP and GMAP against the loops they replaced, kept
//! verbatim in [`oracle`]. Those loops re-summed every candidate's
//! traffic to the placed cores through `CoreGraph::comm_between`, two
//! hash lookups a pair; the production placements keep each core's
//! traffic to the placed set up to date through `nmap::GreedyPlacement`
//! and sum only the next core's placed neighbours. Every case must give
//! the same `Mapping`.
//!
//! Inputs: the six paper applications; random graphs of 2–65 cores over
//! several seeds, with fractional and with whole-number bandwidths (the
//! latter tie often); graphs with an isolated core, with two components
//! (every unplaced core's traffic to the placed set is zero once the
//! first component is down), with zero-bandwidth edges and with
//! two-way pairs. Fabrics: a fitted mesh, a torus, a fitted 3-D mesh and
//! a `custom` copy of the mesh. Release builds run every size 2–65 at six
//! seeds (about 20 s on two cores); debug builds, which tier-1 runs, a
//! spread of sizes up to 45 at two.

use nmap::MappingProblem;
use noc_apps::App;
use noc_baselines::{gmap, pmap};
use noc_graph::{CoreGraph, Grid, RandomGraphConfig, Topology};
use noc_units::Mbps;

/// The replaced placements, verbatim but for their `use` paths and the
/// rewrapping of two lines.
mod oracle {
    use nmap::{Mapping, MappingProblem};
    use noc_graph::{CoreId, NodeId};
    use noc_units::Mbps;

    pub fn initialize(problem: &MappingProblem) -> Mapping {
        let cores = problem.cores();
        let topology = problem.topology();
        let mut mapping = Mapping::new(topology.node_count());

        let mut unmapped: Vec<CoreId> = cores.cores().collect();
        let mut mapped: Vec<CoreId> = Vec::with_capacity(unmapped.len());

        // Seed: max-communication core onto the max-degree (most central) node.
        let seed = cores.max_comm_core().expect("non-empty problem");
        let seed_node = topology.max_degree_node();
        mapping.place(seed, seed_node);
        unmapped.retain(|&c| c != seed);
        mapped.push(seed);

        while let Some(next) = select_next_core(problem, &unmapped, &mapped) {
            // Evaluate every free node; pick the min-cost one (ties → lowest id).
            let mut best_node = None;
            let mut best_cost = f64::INFINITY;
            for node in topology.nodes() {
                if mapping.core_at(node).is_some() {
                    continue;
                }
                let mut cost = 0.0;
                for &w in &mapped {
                    let comm = cores.comm_between(next, w);
                    if comm > Mbps::ZERO {
                        let host = mapping.node_of(w).expect("mapped core has a node");
                        cost += comm.to_f64() * topology.hop_distance(node, host) as f64;
                    }
                }
                if cost < best_cost {
                    best_cost = cost;
                    best_node = Some(node);
                }
            }
            let node = best_node.expect("|V| <= |U| guarantees a free node");
            mapping.place(next, node);
            unmapped.retain(|&c| c != next);
            mapped.push(next);
        }

        debug_assert!(mapping.is_complete(cores));
        mapping
    }

    /// The unmapped core with maximum total communication to the mapped set;
    /// ties break toward the lower core id. Cores with no communication to the
    /// mapped set are still eligible (they are placed last, by id).
    fn select_next_core(
        problem: &MappingProblem,
        unmapped: &[CoreId],
        mapped: &[CoreId],
    ) -> Option<CoreId> {
        let cores = problem.cores();
        unmapped.iter().copied().max_by(|&a, &b| {
            let comm_a: Mbps = mapped.iter().map(|&w| cores.comm_between(a, w)).sum();
            let comm_b: Mbps = mapped.iter().map(|&w| cores.comm_between(b, w)).sum();
            // `Mbps` orders totally (NaN unrepresentable), and `total_cmp`
            // agrees with `partial_cmp` on the finite values both admit.
            comm_a.cmp(&comm_b).then(b.cmp(&a))
            // prefer lower id on ties
        })
    }

    pub fn pmap(problem: &MappingProblem) -> Mapping {
        let cores = problem.cores();
        let topology = problem.topology();
        let mut mapping = Mapping::new(topology.node_count());

        let mut unmapped: Vec<CoreId> = cores.cores().collect();
        let mut mapped: Vec<CoreId> = Vec::with_capacity(unmapped.len());

        // Seed as in the paper: heaviest cluster onto the best-connected node.
        let seed = cores.max_comm_core().expect("non-empty problem");
        mapping.place(seed, topology.max_degree_node());
        unmapped.retain(|&c| c != seed);
        mapped.push(seed);

        while !unmapped.is_empty() {
            // Next cluster: max communication with the mapped set (ties: id).
            let next = *unmapped
                .iter()
                .max_by(|&&a, &&b| {
                    let ca: noc_units::Mbps =
                        mapped.iter().map(|&w| cores.comm_between(a, w)).sum();
                    let cb: noc_units::Mbps =
                        mapped.iter().map(|&w| cores.comm_between(b, w)).sum();
                    ca.cmp(&cb).then(b.cmp(&a))
                })
                .expect("non-empty");

            // Candidate set: free nodes adjacent to the mapped region.
            let mut candidates: Vec<NodeId> = Vec::new();
            for &w in &mapped {
                let host = mapping.node_of(w).expect("placed");
                for (_, link) in topology.out_links(host) {
                    if mapping.core_at(link.dst).is_none() && !candidates.contains(&link.dst) {
                        candidates.push(link.dst);
                    }
                }
            }
            if candidates.is_empty() {
                candidates = topology.nodes().filter(|&n| mapping.core_at(n).is_none()).collect();
            }
            candidates.sort();

            let node = candidates
                .into_iter()
                .min_by(|&a, &b| {
                    let cost = |n: NodeId| -> f64 {
                        mapped
                            .iter()
                            .map(|&w| {
                                let comm = cores.comm_between(next, w);
                                if comm > noc_units::Mbps::ZERO {
                                    let host = mapping.node_of(w).expect("placed");
                                    comm.to_f64() * topology.hop_distance(n, host) as f64
                                } else {
                                    0.0
                                }
                            })
                            .sum()
                    };
                    cost(a).partial_cmp(&cost(b)).expect("finite").then(a.cmp(&b))
                })
                .expect("candidate exists");

            mapping.place(next, node);
            unmapped.retain(|&c| c != next);
            mapped.push(next);
        }
        mapping
    }

    pub fn gmap(problem: &MappingProblem) -> Mapping {
        let cores = problem.cores();
        let topology = problem.topology();
        let mut mapping = Mapping::new(topology.node_count());

        // Static order: decreasing total communication demand.
        let mut order: Vec<CoreId> = cores.cores().collect();
        order.sort_by(|&a, &b| cores.total_comm(b).cmp(&cores.total_comm(a)).then(a.cmp(&b)));

        let mut placed: Vec<CoreId> = Vec::with_capacity(order.len());
        for core in order {
            let mut best_node = None;
            let mut best_cost = f64::INFINITY;
            for node in topology.nodes() {
                if mapping.core_at(node).is_some() {
                    continue;
                }
                let mut cost = 0.0;
                for &w in &placed {
                    let comm = cores.comm_between(core, w);
                    if comm > noc_units::Mbps::ZERO {
                        let host = mapping.node_of(w).expect("placed");
                        cost += comm.to_f64() * topology.hop_distance(node, host) as f64;
                    }
                }
                // First core: bias toward the centre like the other mappers, so
                // differences in results come from the algorithms, not seeds.
                if placed.is_empty() {
                    cost = topology.hop_distance(node, topology.max_degree_node()) as f64;
                }
                if cost < best_cost {
                    best_cost = cost;
                    best_node = Some(node);
                }
            }
            mapping.place(core, best_node.expect("free node exists"));
            placed.push(core);
        }
        mapping
    }
}

const CAPACITY: f64 = 1e9;

/// Asserts that all three placements equal their oracles on `graph`
/// over every fabric of [`fabrics`].
fn assert_identical(graph: &CoreGraph, what: &str) {
    for (fabric, topology) in fabrics(graph.core_count()) {
        let problem = MappingProblem::new(graph.clone(), topology).unwrap();
        let at = format!("{what} on {fabric}");
        assert_eq!(nmap::initialize(&problem), oracle::initialize(&problem), "initialize: {at}");
        assert_eq!(pmap(&problem), oracle::pmap(&problem), "pmap: {at}");
        assert_eq!(gmap(&problem), oracle::gmap(&problem), "gmap: {at}");
    }
}

/// A fitted mesh, the torus of the same extents, a fitted 3-D mesh and
/// a `custom` fabric with the mesh's links, each holding `cores` cores.
fn fabrics(cores: usize) -> [(&'static str, Topology); 4] {
    let (w, h) = Topology::fit_mesh_dims(cores);
    let mesh = Topology::mesh(w, h, CAPACITY);
    let links: Vec<_> = mesh.links().map(|(_, l)| (l.src, l.dst, CAPACITY)).collect();
    let custom = Topology::custom(mesh.node_count(), links).unwrap();
    let mesh3d = Topology::mesh_nd(&Grid::fit_dims(cores, 3), CAPACITY).unwrap();
    [
        ("mesh", mesh),
        ("torus", Topology::torus(w, h, CAPACITY)),
        ("3-D mesh", mesh3d),
        ("custom", custom),
    ]
}

/// Random graph sizes and seeds: every size at six seeds in release,
/// a spread up to 45 cores at two in debug.
fn sizes_and_seeds() -> (Vec<usize>, Vec<u64>) {
    if cfg!(debug_assertions) {
        (vec![2, 3, 4, 5, 6, 7, 9, 12, 16, 20, 25, 33, 45], vec![1, 2])
    } else {
        ((2..=65).collect(), (1..=6).collect())
    }
}

fn random_graph(cores: usize, seed: u64) -> CoreGraph {
    RandomGraphConfig { cores, ..Default::default() }.generate(seed)
}

/// `graph` with each bandwidth mapped through `bandwidth(edge index, value)`.
fn reweighted(graph: &CoreGraph, bandwidth: impl Fn(usize, f64) -> f64) -> CoreGraph {
    let mut out = CoreGraph::new();
    let ids: Vec<_> = graph.cores().map(|core| out.add_core(graph.name(core))).collect();
    for (id, e) in graph.edges() {
        let value = bandwidth(id.index(), e.bandwidth.to_f64());
        out.add_comm(ids[e.src.index()], ids[e.dst.index()], value).unwrap();
    }
    out
}

/// A random graph whose bandwidths are whole numbers from 1 to 8 MB/s,
/// so that many cores and nodes tie.
fn whole_number_graph(cores: usize, seed: u64) -> CoreGraph {
    let random = RandomGraphConfig {
        cores,
        min_bandwidth: Mbps::raw(1.0),
        max_bandwidth: Mbps::raw(8.0),
        ..Default::default()
    }
    .generate(seed);
    reweighted(&random, |_, bw| bw.round())
}

/// The disjoint union of `a` and `b`, `b`'s cores numbered after `a`'s.
fn union(a: &CoreGraph, b: &CoreGraph) -> CoreGraph {
    let mut out = reweighted(a, |_, bw| bw);
    let ids: Vec<_> = b.cores().map(|core| out.add_core(b.name(core))).collect();
    for (_, e) in b.edges() {
        out.add_comm(ids[e.src.index()], ids[e.dst.index()], e.bandwidth.to_f64()).unwrap();
    }
    out
}

#[test]
fn paper_apps_match_the_oracle() {
    for app in App::all() {
        assert_identical(&app.core_graph(), app.name());
    }
}

#[test]
fn random_graphs_match_the_oracle() {
    let (sizes, seeds) = sizes_and_seeds();
    for &cores in &sizes {
        for &seed in &seeds {
            assert_identical(&random_graph(cores, seed), &format!("{cores} cores seed {seed}"));
            let whole = whole_number_graph(cores, seed);
            assert_identical(&whole, &format!("{cores} whole-number cores seed {seed}"));
        }
    }
}

#[test]
fn isolated_cores_and_components_match_the_oracle() {
    let (sizes, seeds) = sizes_and_seeds();
    for &cores in sizes.iter().filter(|&&cores| cores >= 3) {
        for &seed in &seeds {
            let mut isolated = random_graph(cores - 1, seed);
            isolated.add_core("isolated");
            assert_identical(&isolated, &format!("{cores} cores, one isolated, seed {seed}"));

            let half = cores / 2;
            let pair = union(&random_graph(half, seed), &whole_number_graph(cores - half, seed));
            assert_identical(&pair, &format!("{cores} cores in two components, seed {seed}"));
        }
    }
}

#[test]
fn zero_bandwidth_and_two_way_edges_match_the_oracle() {
    let (sizes, seeds) = sizes_and_seeds();
    for &cores in &sizes {
        for &seed in &seeds {
            let random = whole_number_graph(cores, seed);
            // Every third edge carries nothing: listed in the view with
            // weight 0, skipped by every sum.
            let zeros = reweighted(&random, |i, bw| if i % 3 == 0 { 0.0 } else { bw });
            assert_identical(&zeros, &format!("{cores} cores with zero edges, seed {seed}"));

            // Every edge gets its reverse, so each pair's weight is `ab + ba`.
            let mut two_way = reweighted(&random_graph(cores, seed), |_, bw| bw);
            let edges: Vec<_> = two_way.edges().map(|(_, e)| e).collect();
            for (i, e) in edges.iter().enumerate() {
                if two_way.find_edge(e.dst, e.src).is_none() {
                    two_way.add_comm(e.dst, e.src, 0.5 + i as f64 * 0.3).unwrap();
                }
            }
            assert_identical(&two_way, &format!("{cores} cores with two-way pairs, seed {seed}"));
        }
    }
}

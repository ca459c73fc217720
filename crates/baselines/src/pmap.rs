//! PMAP: the physical-mapping phase of Koziris et al. (Euro-PDP 2000).
//!
//! PMAP maps clustered task graphs onto processor grids by growing a
//! contiguous region: the next cluster (the one communicating most with
//! the mapped set, like NMAP's `initialize()`) may only be placed on a
//! free node **adjacent to the already-mapped region**, choosing the
//! neighbour with the lowest accumulated communication distance. The
//! adjacency restriction keeps the region compact but can wedge heavy
//! late-arriving clusters into poor corners — the behaviour NMAP's global
//! candidate scan plus swap refinement avoids.
//!
//! When the mapped region has no free neighbour (fully enclosed), the scan
//! falls back to all free nodes, keeping the mapper total.

use nmap::{GreedyPlacement, Mapping, MappingProblem};

/// Runs the PMAP region-growing mapper, returning a complete placement.
pub fn pmap(problem: &MappingProblem) -> Mapping {
    let topology = problem.topology();
    let mut greedy = GreedyPlacement::new(problem);
    // `bordering[n]`: a link leads to node `n` from a node of the region.
    let mut bordering = vec![false; topology.node_count()];

    // Seed as in the paper: heaviest cluster onto the best-connected node.
    let seed = problem.cores().max_comm_core().expect("non-empty problem");
    let mut step = Some((seed, topology.max_degree_node()));
    while let Some((core, node)) = step {
        greedy.place(core, node);
        for (_, link) in topology.out_links(node) {
            bordering[link.dst.index()] = true;
        }
        // Next cluster: max communication with the mapped set (ties: id),
        // onto the cheapest free node adjacent to the mapped region, or
        // of all free nodes when the region has none.
        step = greedy.most_attached().map(|next| {
            let region = topology.nodes().filter(|n| bordering[n.index()]);
            let node = greedy
                .cheapest_node(next, region)
                .or_else(|| greedy.cheapest_node(next, topology.nodes()))
                .expect("a free node exists");
            (next, node)
        });
    }
    greedy.into_mapping()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_graph::{CoreGraph, CoreId, Topology};

    fn problem(edges: &[(usize, usize, f64)], n: usize, w: usize, h: usize) -> MappingProblem {
        let mut g = CoreGraph::new();
        let ids: Vec<CoreId> = (0..n).map(|i| g.add_core(format!("c{i}"))).collect();
        for &(a, b, bw) in edges {
            g.add_comm(ids[a], ids[b], bw).unwrap();
        }
        MappingProblem::new(g, Topology::mesh(w, h, 1e9)).unwrap()
    }

    #[test]
    fn produces_complete_injective_mapping() {
        let p = problem(
            &[(0, 1, 100.0), (1, 2, 50.0), (2, 3, 25.0), (3, 4, 10.0), (4, 5, 5.0)],
            6,
            3,
            2,
        );
        let m = pmap(&p);
        assert!(m.is_complete(p.cores()));
        let mut nodes: Vec<_> = m.assignments().map(|(_, n)| n).collect();
        nodes.sort();
        nodes.dedup();
        assert_eq!(nodes.len(), 6);
    }

    #[test]
    fn region_grows_contiguously() {
        // With the adjacency restriction, each placed core (after the
        // seed) must touch at least one other placed core.
        let p = problem(&[(0, 1, 100.0), (1, 2, 90.0), (2, 3, 80.0), (3, 4, 70.0)], 5, 3, 3);
        let m = pmap(&p);
        for (core, node) in m.assignments() {
            let has_neighbour =
                p.topology().out_links(node).any(|(_, l)| m.core_at(l.dst).is_some());
            assert!(
                has_neighbour || p.cores().core_count() == 1,
                "core {core} is isolated at {node}"
            );
        }
    }

    #[test]
    fn deterministic() {
        let p = problem(&[(0, 1, 70.0), (1, 2, 362.0), (2, 3, 49.0)], 4, 3, 3);
        assert_eq!(pmap(&p), pmap(&p));
    }

    #[test]
    fn isolated_cores_fall_back_gracefully() {
        // Disconnected second component still gets placed.
        let p = problem(&[(0, 1, 100.0), (2, 3, 90.0)], 4, 2, 2);
        let m = pmap(&p);
        assert!(m.is_complete(p.cores()));
    }

    #[test]
    fn full_mesh_placement_works() {
        // |V| == |U|: every node ends up occupied.
        let p = problem(&[(0, 1, 10.0), (1, 2, 20.0), (2, 3, 30.0), (3, 0, 40.0)], 4, 2, 2);
        let m = pmap(&p);
        assert_eq!(m.placed_count(), 4);
    }
}

//! GMAP: the greedy upper-bound-cost mapper of Hu & Marculescu.
//!
//! Cores are sorted by total communication demand (descending, ties by
//! id). Each core in turn is placed on the free node minimizing the
//! communication cost to the cores already placed. Unlike NMAP's
//! `initialize()`, the *order* is fixed up-front from static demands — it
//! does not adapt to what has been placed — which is the characteristic
//! weakness NMAP improves on.

use nmap::{GreedyPlacement, Mapping, MappingProblem};
use noc_graph::CoreId;

/// Runs the GMAP greedy mapper, returning a complete placement.
pub fn gmap(problem: &MappingProblem) -> Mapping {
    let cores = problem.cores();
    let topology = problem.topology();

    // Static order: decreasing total communication demand.
    let mut order: Vec<CoreId> = cores.cores().collect();
    order.sort_by(|&a, &b| cores.total_comm(b).cmp(&cores.total_comm(a)).then(a.cmp(&b)));

    let mut greedy = GreedyPlacement::new(problem);
    let mut order = order.into_iter();
    // First core: onto the centre like the other mappers, so differences
    // in results come from the algorithms, not seeds.
    if let Some(first) = order.next() {
        greedy.place(first, topology.max_degree_node());
    }
    for core in order {
        let node = greedy.cheapest_node(core, topology.nodes()).expect("free node exists");
        greedy.place(core, node);
    }
    greedy.into_mapping()
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
    fn produces_complete_injective_mapping() {
        let p = problem(&[(0, 1, 100.0), (1, 2, 50.0), (2, 3, 25.0)], 4, 2, 2);
        let m = gmap(&p);
        assert!(m.is_complete(p.cores()));
        let mut nodes: Vec<_> = m.assignments().map(|(_, n)| n).collect();
        nodes.sort();
        nodes.dedup();
        assert_eq!(nodes.len(), 4);
    }

    #[test]
    fn heaviest_core_is_placed_first_at_center() {
        let p = problem(&[(2, 0, 500.0), (2, 1, 500.0), (2, 3, 500.0), (0, 1, 1.0)], 4, 3, 3);
        let m = gmap(&p);
        let hub = m.node_of(CoreId::new(2)).unwrap();
        assert_eq!(hub, p.topology().max_degree_node());
    }

    #[test]
    fn adjacent_pairs_get_adjacent_nodes_when_possible() {
        let p = problem(&[(0, 1, 900.0)], 2, 2, 2);
        let m = gmap(&p);
        let a = m.node_of(CoreId::new(0)).unwrap();
        let b = m.node_of(CoreId::new(1)).unwrap();
        assert_eq!(p.topology().hop_distance(a, b), 1);
    }

    #[test]
    fn deterministic() {
        let p = problem(&[(0, 1, 70.0), (1, 2, 362.0), (2, 3, 49.0)], 4, 2, 2);
        assert_eq!(gmap(&p), gmap(&p));
    }

    #[test]
    fn cost_is_at_least_lower_bound() {
        // Cost can never be below total bandwidth (every edge >= 1 hop).
        let p = problem(&[(0, 1, 100.0), (1, 2, 100.0), (0, 2, 100.0)], 3, 2, 2);
        let m = gmap(&p);
        assert!(p.comm_cost(&m).to_f64() >= p.cores().total_bandwidth().to_f64());
    }
}

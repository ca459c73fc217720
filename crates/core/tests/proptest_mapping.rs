//! Property-based tests for the mapping pipeline: placement invariants,
//! routing invariants and LP cross-checks on random problem instances.

use nmap::{
    initialize, map_single_path, mcf::solve_mcf, routing, Mapping, MappingProblem, McfKind,
    PathScope, SinglePathOptions,
};
use noc_graph::{NodeId, RandomGraphConfig, Topology};
use proptest::prelude::*;

/// A random problem: `cores` cores on the smallest fitting mesh.
fn random_problem(cores: usize, seed: u64, capacity: f64) -> MappingProblem {
    let graph = RandomGraphConfig {
        cores,
        avg_degree: 2.0,
        min_bandwidth: noc_units::Mbps::raw(10.0),
        max_bandwidth: noc_units::Mbps::raw(300.0),
    }
    .generate(seed);
    let (w, h) = Topology::fit_mesh_dims(cores);
    MappingProblem::new(graph, Topology::mesh(w, h, capacity)).expect("fits")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `initialize()` always yields a complete, injective placement.
    #[test]
    fn initialize_is_complete_and_injective(cores in 2usize..14, seed in 0u64..100) {
        let problem = random_problem(cores, seed, 1e9);
        let mapping = initialize(&problem);
        prop_assert!(mapping.is_complete(problem.cores()));
        let mut nodes: Vec<_> = mapping.assignments().map(|(_, n)| n).collect();
        nodes.sort();
        nodes.dedup();
        prop_assert_eq!(nodes.len(), cores);
    }

    /// The greedy router emits minimal contiguous paths whose aggregated
    /// loads match an independent recount, and the routed volume equals
    /// bandwidth × hop-distance per commodity.
    #[test]
    fn router_invariants(cores in 2usize..12, seed in 0u64..100) {
        let problem = random_problem(cores, seed, 1e9);
        let mapping = initialize(&problem);
        let (paths, loads) = routing::route_min_paths(&problem, &mapping).expect("mesh");
        let commodities = problem.commodities(&mapping);

        let mut recount = vec![0.0f64; problem.topology().link_count()];
        for path in &paths {
            let c = commodities[path.edge.index()];
            // Minimality.
            prop_assert_eq!(
                path.hops(),
                problem.topology().hop_distance(c.source, c.dest)
            );
            // Contiguity.
            prop_assert_eq!(path.nodes.first().copied(), Some(c.source));
            prop_assert_eq!(path.nodes.last().copied(), Some(c.dest));
            for (i, &l) in path.links.iter().enumerate() {
                prop_assert_eq!(problem.topology().link(l).src, path.nodes[i]);
                prop_assert_eq!(problem.topology().link(l).dst, path.nodes[i + 1]);
                recount[l.index()] += c.value.to_f64();
            }
        }
        for (id, _) in problem.topology().links() {
            prop_assert!((loads.get(id) - recount[id.index()]).abs() < 1e-9);
        }
    }

    /// Pairwise swaps preserve completeness and injectivity through long
    /// random swap sequences.
    #[test]
    fn swap_sequences_preserve_injectivity(
        cores in 2usize..10,
        seed in 0u64..50,
        swaps in prop::collection::vec((0usize..16, 0usize..16), 1..40),
    ) {
        let problem = random_problem(cores, seed, 1e9);
        let mut mapping = initialize(&problem);
        let n = problem.topology().node_count();
        for (a, b) in swaps {
            mapping.swap_nodes(NodeId::new(a % n), NodeId::new(b % n));
        }
        prop_assert!(mapping.is_complete(problem.cores()));
        let mut nodes: Vec<_> = mapping.assignments().map(|(_, n)| n).collect();
        nodes.sort();
        nodes.dedup();
        prop_assert_eq!(nodes.len(), cores);
    }

    /// The full single-path NMAP never returns a worse cost than its own
    /// initial placement, and its outcome is internally consistent.
    #[test]
    fn nmap_improves_on_initialize(cores in 3usize..10, seed in 0u64..50) {
        let problem = random_problem(cores, seed, 1e9);
        let init_cost = problem.comm_cost(&initialize(&problem));
        let out = map_single_path(&problem, &SinglePathOptions::paper_exact()).expect("maps");
        prop_assert!(out.comm_cost.to_f64() <= init_cost.to_f64() + 1e-9);
        prop_assert_eq!(out.comm_cost, problem.comm_cost(&out.mapping));
        prop_assert!(out.comm_cost.to_f64() >= problem.cores().total_bandwidth().to_f64() - 1e-9);
    }

    /// The min-max-load LP (fractional optimum) is a lower bound on the
    /// greedy single-path router's max load, under both scopes.
    #[test]
    fn lp_bounds_greedy_router(cores in 2usize..8, seed in 0u64..30) {
        let problem = random_problem(cores, seed, 1e9);
        let mapping = initialize(&problem);
        let (_, loads) = routing::route_min_paths(&problem, &mapping).expect("mesh");
        for scope in [PathScope::Quadrant, PathScope::AllPaths] {
            let lp = solve_mcf(&problem, &mapping, McfKind::MinMaxLoad, scope).expect("lp");
            prop_assert!(
                lp.objective <= loads.max() + 1e-6,
                "scope {scope:?}: bound {} > greedy {}",
                lp.objective,
                loads.max()
            );
        }
    }

    /// With unlimited capacities MCF2's optimal total flow equals the
    /// Equation-7 communication cost (all flow on shortest paths) — an
    /// exact cross-check between the LP pipeline and the combinatorial
    /// cost function.
    #[test]
    fn mcf2_matches_comm_cost_uncapacitated(cores in 2usize..7, seed in 0u64..30) {
        let problem = random_problem(cores, seed, 1e9);
        let mapping = initialize(&problem);
        let sol = solve_mcf(&problem, &mapping, McfKind::FlowMin, PathScope::AllPaths)
            .expect("uncapacitated MCF2 is feasible");
        let cost = problem.comm_cost(&mapping).to_f64();
        prop_assert!(
            (sol.objective - cost).abs() < 1e-4 * (1.0 + cost),
            "MCF2 {} vs Eq7 {}",
            sol.objective,
            cost
        );
    }

    /// MCF routing tables: route fractions per commodity sum to 1 and the
    /// link loads rebuilt from them match the LP's path flows.
    #[test]
    fn mcf_decomposition_is_consistent(cores in 2usize..7, seed in 0u64..30) {
        let problem = random_problem(cores, seed, 1e9);
        let mapping = initialize(&problem);
        let sol = solve_mcf(&problem, &mapping, McfKind::MinMaxLoad, PathScope::Quadrant)
            .expect("lp");
        let commodities = problem.commodities(&mapping);
        for c in &commodities {
            if !c.value.is_zero() {
                let total: f64 =
                    sol.tables.routes_of(c.edge).iter().map(|r| r.fraction).sum();
                prop_assert!((total - 1.0).abs() < 1e-4, "fractions sum to {total}");
            }
        }
        let recomputed = sol.tables.link_loads(problem.topology(), &commodities);
        for (id, _) in problem.topology().links() {
            prop_assert!(
                (sol.link_loads.get(id) - recomputed.get(id)).abs()
                    < 1e-3 * (1.0 + sol.link_loads.get(id)),
                "link {id}: {} vs {}",
                sol.link_loads.get(id),
                recomputed.get(id)
            );
        }
    }

    /// MCF1 slack is zero whenever the greedy single-path routing already
    /// fits the capacities (splitting can only do better), and the
    /// feasibility flag of the single-path mapper is consistent with its
    /// own loads.
    #[test]
    fn mcf1_slack_consistent_with_feasibility(cores in 2usize..7, seed in 0u64..30) {
        let problem = random_problem(cores, seed, 400.0);
        let mapping = initialize(&problem);
        let (_, loads) = routing::route_min_paths(&problem, &mapping).expect("mesh");
        let slack = solve_mcf(&problem, &mapping, McfKind::SlackMin, PathScope::AllPaths)
            .expect("lp")
            .objective;
        if loads.within_capacity(problem.topology()) {
            prop_assert!(slack < 1e-4, "greedy fits but MCF1 slack = {slack}");
        }
        prop_assert!(slack >= -1e-9);
    }
}

/// Regression guard: an empty mapping refuses to produce commodities.
#[test]
#[should_panic(expected = "mapping must place every core")]
fn incomplete_mapping_panics_in_commodities() {
    let problem = random_problem(4, 0, 1e9);
    let empty = Mapping::new(problem.topology().node_count());
    let _ = problem.commodities(&empty);
}

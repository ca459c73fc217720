//! Cross-crate integration tests: application graphs → mapping algorithms
//! → routing → LP cross-checks → simulation.

use nmap_suite::apps::{self, App};
use nmap_suite::baselines::{gmap, pbb, pmap, PbbOptions};
use nmap_suite::dse::flows_from_tables;
use nmap_suite::graph::Topology;
use nmap_suite::nmap::{
    map_single_path, map_with_splitting, mcf::solve_mcf, routing, MappingProblem, McfKind,
    PathScope, SinglePathOptions, SplitOptions,
};
use nmap_suite::sim::{SimConfig, Simulator};
use noc_experiments::fig5c::design_dsp;

fn problem_for(app: App, capacity: f64) -> MappingProblem {
    let g = app.core_graph();
    let (w, h) = app.mesh_dims();
    MappingProblem::new(g, Topology::mesh(w, h, capacity)).expect("app fits mesh")
}

#[test]
fn every_app_maps_feasibly_with_generous_links() {
    for app in App::all() {
        let problem = problem_for(app, 2_000.0);
        let out = map_single_path(&problem, &SinglePathOptions::default()).expect("maps");
        assert!(out.feasible, "{app} infeasible at 2 GB/s links");
        assert!(out.mapping.is_complete(problem.cores()));
        // Cost can never be below the 1-hop-per-edge lower bound.
        assert!(out.comm_cost.to_f64() >= problem.cores().total_bandwidth().to_f64() - 1e-9);
    }
}

#[test]
fn all_mappers_produce_valid_injective_mappings() {
    let problem = problem_for(App::Vopd, 2_000.0);
    let mappings = vec![
        pmap(&problem),
        gmap(&problem),
        pbb(&problem, &PbbOptions { max_queue: 500, max_expansions: 5_000 }).mapping,
        map_single_path(&problem, &SinglePathOptions::default()).unwrap().mapping,
    ];
    for mapping in mappings {
        assert!(mapping.is_complete(problem.cores()));
        let mut hosts: Vec<_> = mapping.assignments().map(|(_, n)| n).collect();
        hosts.sort();
        hosts.dedup();
        assert_eq!(hosts.len(), problem.cores().core_count(), "mapping not injective");
    }
}

#[test]
fn split_mapping_beats_or_ties_single_path_bandwidth_on_pip() {
    let problem = problem_for(App::Pip, 1e9);
    let single = map_single_path(&problem, &SinglePathOptions::default()).unwrap();
    let split = map_with_splitting(&problem, &SplitOptions::default()).unwrap();
    assert!(split.feasible);
    // The split flow's worst link can never exceed the single-path one
    // computed on the same-cost placement family.
    assert!(
        split.link_loads.max() <= single.link_loads.max() + 1e-6,
        "split max load {} > single-path {}",
        split.link_loads.max(),
        single.link_loads.max()
    );
}

#[test]
fn mcf2_equals_comm_cost_when_uncapacitated() {
    // With unlimited capacities, the minimal total flow routes every
    // commodity over shortest paths, so the MCF2 objective must equal the
    // Equation-7 cost — the LP and the combinatorial metric cross-check
    // each other.
    let problem = problem_for(App::Pip, 1e9);
    let out = map_single_path(&problem, &SinglePathOptions::default()).unwrap();
    let mcf2 = solve_mcf(&problem, &out.mapping, McfKind::FlowMin, PathScope::AllPaths).unwrap();
    assert!(
        (mcf2.objective - out.comm_cost.to_f64()).abs() < 1e-4,
        "MCF2 {} vs Eq7 {}",
        mcf2.objective,
        out.comm_cost
    );
}

#[test]
fn min_max_lp_is_a_lower_bound_for_the_greedy_router() {
    for app in [App::Pip, App::Mwa] {
        let problem = problem_for(app, 1e9);
        let out = map_single_path(&problem, &SinglePathOptions::default()).unwrap();
        let lp =
            solve_mcf(&problem, &out.mapping, McfKind::MinMaxLoad, PathScope::Quadrant).unwrap();
        assert!(
            lp.objective <= out.link_loads.max() + 1e-6,
            "{app}: LP bound {} above greedy max load {}",
            lp.objective,
            out.link_loads.max()
        );
    }
}

#[test]
fn routed_tables_reproduce_link_loads_for_all_apps() {
    for app in App::all() {
        let problem = problem_for(app, 1e9);
        let out = map_single_path(&problem, &SinglePathOptions::default()).unwrap();
        let commodities = problem.commodities(&out.mapping);
        let recomputed = out.tables.link_loads(problem.topology(), &commodities);
        for (id, _) in problem.topology().links() {
            assert!(
                (out.link_loads.get(id) - recomputed.get(id)).abs() < 1e-9,
                "{app}: link {id} load mismatch"
            );
        }
    }
}

#[test]
fn xy_and_min_path_agree_on_hop_counts() {
    // Both routings are minimal, so per-commodity hop counts must match
    // the Manhattan distance even though the paths may differ.
    let problem = problem_for(App::Dsd, 1e9);
    let mapping = gmap(&problem);
    let (xy_paths, _) = routing::route_xy(&problem, &mapping).unwrap();
    let (mp_paths, _) = routing::route_min_paths(&problem, &mapping).unwrap();
    for (xy, mp) in xy_paths.iter().zip(&mp_paths) {
        assert_eq!(xy.hops(), mp.hops(), "non-minimal route for edge {:?}", xy.edge);
    }
}

#[test]
fn dsp_design_simulates_end_to_end() {
    let design = design_dsp();
    let topology = Topology::mesh(3, 2, 1_600.0);
    for tables in [&design.minpath_tables, &design.split_tables] {
        let flows = flows_from_tables(&design.problem, &design.mapping, tables);
        let config = SimConfig {
            warmup_cycles: 1_000,
            measure_cycles: 20_000,
            drain_cycles: 10_000,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&topology, flows, config);
        let report = sim.run();
        assert!(report.delivered_packets > 100, "too few packets simulated");
        assert_eq!(report.dropped_packets, 0, "deadlock recovery fired");
        assert!(report.avg_latency_cycles().to_f64() > 0.0);
    }
}

#[test]
fn torus_mapping_is_no_worse_than_mesh() {
    // A torus strictly extends the mesh's link set, so NMAP must find a
    // mapping at least as cheap (the future-work topology exploration).
    let app = apps::mpeg4();
    let mesh = MappingProblem::new(app.clone(), Topology::mesh(4, 4, 1e9)).unwrap();
    let torus = MappingProblem::new(app, Topology::torus(4, 4, 1e9)).unwrap();
    let mesh_cost = map_single_path(&mesh, &SinglePathOptions::default()).unwrap().comm_cost;
    let torus_cost = map_single_path(&torus, &SinglePathOptions::default()).unwrap().comm_cost;
    assert!(
        torus_cost.to_f64() <= mesh_cost.to_f64() + 1e-9,
        "torus {torus_cost} worse than mesh {mesh_cost}"
    );
}

#[test]
fn quadrant_split_never_beats_all_path_split() {
    let problem = problem_for(App::Pip, 1e9);
    let out = map_single_path(&problem, &SinglePathOptions::default()).unwrap();
    let tm = solve_mcf(&problem, &out.mapping, McfKind::MinMaxLoad, PathScope::Quadrant)
        .unwrap()
        .objective;
    let ta = solve_mcf(&problem, &out.mapping, McfKind::MinMaxLoad, PathScope::AllPaths)
        .unwrap()
        .objective;
    assert!(ta <= tm + 1e-6, "all-path split {ta} worse than quadrant {tm}");
}

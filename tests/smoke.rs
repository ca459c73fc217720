//! Umbrella-crate smoke test: the re-export surface promised by
//! `src/lib.rs` must resolve, and a trivial end-to-end map must succeed
//! through the re-exported paths alone.

use nmap_suite::nmap::{map_single_path, MappingProblem, SinglePathOptions};

/// Every re-exported module path resolves and exposes its flagship type.
/// (This is a compile-time guarantee; the trivial uses keep it honest.)
#[test]
fn reexported_paths_resolve() {
    // nmap_suite::graph -> noc_graph
    let mesh: nmap_suite::graph::Topology = nmap_suite::graph::Topology::mesh(2, 2, 1_000.0);
    assert_eq!(mesh.node_count(), 4);

    // nmap_suite::lp -> noc_lp
    let mut lp = nmap_suite::lp::LinearProgram::new(nmap_suite::lp::Sense::Minimize);
    let x = lp.add_variable("x", 1.0);
    lp.add_ge(&[(x, 1.0)], 2.0);
    let sol = lp.solve().expect("a one-variable LP solves");
    assert!((sol.objective - 2.0).abs() < 1e-9);

    // nmap_suite::apps -> noc_apps
    assert_eq!(nmap_suite::apps::App::all().len(), 6);

    // nmap_suite::sim -> noc_sim
    let config = nmap_suite::sim::SimConfig::default();
    assert!(config.measure_cycles > 0);

    // nmap_suite::baselines -> noc_baselines
    let opts = nmap_suite::baselines::PbbOptions::default();
    assert!(opts.max_expansions > 0);

    // nmap_suite::dse -> noc_dse
    let set = nmap_suite::dse::ScenarioSet::builder()
        .app(nmap_suite::apps::App::Pip)
        .mapper(nmap_suite::dse::MapperSpec::NmapInit)
        .build();
    let records = nmap_suite::dse::run_scenarios(set.scenarios(), 1);
    assert_eq!(records.len(), 1);
    assert!(records[0].is_ok());

    // nmap_suite::nmap -> nmap (the core crate)
    let _: fn(&MappingProblem) -> nmap_suite::nmap::Mapping = nmap_suite::nmap::initialize;
}

/// A four-core pipeline maps onto a 2x2 mesh feasibly with the obvious
/// minimal cost: every pipeline edge spans exactly one mesh link.
#[test]
fn trivial_end_to_end_map_succeeds() {
    let mut app = nmap_suite::graph::CoreGraph::new();
    let cores: Vec<_> = (0..4).map(|i| app.add_core(format!("core{i}"))).collect();
    app.add_comm(cores[0], cores[1], 400.0).expect("valid edge");
    app.add_comm(cores[1], cores[2], 300.0).expect("valid edge");
    app.add_comm(cores[2], cores[3], 200.0).expect("valid edge");

    let mesh = nmap_suite::graph::Topology::mesh(2, 2, 1_000.0);
    let problem = MappingProblem::new(app, mesh).expect("4 cores fit a 2x2 mesh");
    let outcome = map_single_path(&problem, &SinglePathOptions::default()).expect("maps");

    assert!(outcome.feasible, "a light pipeline must satisfy 1 GB/s links");
    assert!(outcome.mapping.is_complete(problem.cores()));
    assert_eq!(outcome.comm_cost.to_f64(), 400.0 + 300.0 + 200.0);
    assert_eq!(outcome.comm_cost, problem.comm_cost(&outcome.mapping));
}

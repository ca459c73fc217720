//! Reproducibility: every algorithm in the workspace is deterministic —
//! the same inputs always give byte-identical outputs, across mappers,
//! LPs, routing, random generators and the simulator.

use nmap_suite::apps::App;
use nmap_suite::baselines::{gmap, pbb, pmap, PbbOptions};
use nmap_suite::graph::{RandomGraphConfig, Topology};
use nmap_suite::nmap::{
    map_single_path, map_with_splitting, mcf::solve_mcf, MappingProblem, McfKind, PathScope,
    SinglePathOptions, SplitOptions,
};
use nmap_suite::sim::{FlowSpec, SimConfig, Simulator};
use nmap_suite::units::mbps;

fn problem() -> MappingProblem {
    let g = App::Pip.core_graph();
    MappingProblem::new(g, Topology::mesh(3, 3, 1_000.0)).unwrap()
}

#[test]
fn mappers_are_deterministic() {
    let p = problem();
    assert_eq!(pmap(&p), pmap(&p));
    assert_eq!(gmap(&p), gmap(&p));
    let opts = PbbOptions { max_queue: 1_000, max_expansions: 10_000 };
    assert_eq!(pbb(&p, &opts).mapping, pbb(&p, &opts).mapping);
    let a = map_single_path(&p, &SinglePathOptions::default()).unwrap();
    let b = map_single_path(&p, &SinglePathOptions::default()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn split_mapper_is_deterministic() {
    let p = problem();
    let opts = SplitOptions { scope: PathScope::Quadrant, passes: 1 };
    let a = map_with_splitting(&p, &opts).unwrap();
    let b = map_with_splitting(&p, &opts).unwrap();
    assert_eq!(a.mapping, b.mapping);
    assert_eq!(a.solution.objective, b.solution.objective);
    assert_eq!(a.solution.tables, b.solution.tables);
}

#[test]
fn lp_solutions_are_deterministic() {
    let p = problem();
    let m = map_single_path(&p, &SinglePathOptions::default()).unwrap().mapping;
    let a = solve_mcf(&p, &m, McfKind::FlowMin, PathScope::AllPaths).unwrap();
    let b = solve_mcf(&p, &m, McfKind::FlowMin, PathScope::AllPaths).unwrap();
    assert_eq!(a, b);
}

#[test]
fn random_graphs_reproduce_from_seeds() {
    let cfg = RandomGraphConfig::default();
    assert_eq!(cfg.generate(99), cfg.generate(99));
    assert_ne!(cfg.generate(99), cfg.generate(100));
}

#[test]
fn simulator_reproduces_from_seed() {
    let t = Topology::mesh(2, 2, 800.0);
    let link =
        t.find_link(nmap_suite::graph::NodeId::new(0), nmap_suite::graph::NodeId::new(1)).unwrap();
    let mk = || {
        vec![FlowSpec::single_path(
            nmap_suite::graph::NodeId::new(0),
            nmap_suite::graph::NodeId::new(1),
            mbps(300.0),
            vec![link],
        )]
    };
    let config = SimConfig {
        warmup_cycles: 500,
        measure_cycles: 5_000,
        drain_cycles: 2_000,
        ..SimConfig::default()
    };
    let a = Simulator::new(&t, mk(), config.clone()).run();
    let b = Simulator::new(&t, mk(), config.clone()).run();
    assert_eq!(a, b);
    // A different seed changes the burst timing and thus the exact stats.
    let other = SimConfig { seed: 1, ..config };
    let c = Simulator::new(&t, mk(), other).run();
    assert_ne!(a.latency, c.latency);
}

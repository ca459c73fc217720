//! The warm-start entry point `solve_mcf_warm` is now a cold wrapper kept
//! for callers that still chain an `McfWarmState` along a capacity sweep.
//! Chained that way, it must reproduce `solve_mcf_for` exactly — routing
//! tables included — on all six bundled apps.

use nmap::mcf::{solve_mcf_for, solve_mcf_warm};
use nmap::{McfKind, McfWarmState, PathScope};
use noc_apps::App;
use noc_dse::{AppSpec, MapperSpec, RoutingSpec, Scenario, TopologySpec};
use noc_units::mbps;

#[test]
fn warm_chain_reproduces_cold_tables_on_all_six_apps() {
    // The routing tables are the part of the route stage the simulator
    // consumes, so the tables — not just objectives — must be identical
    // chained vs cold, on every bundled app, at every point of a
    // descending capacity sweep.
    for app in App::all() {
        let mut chain: Option<McfWarmState> = None;
        for cap in [1_600.0, 1_100.0, 800.0, 550.0, 350.0] {
            let scenario = Scenario {
                label: app.name().to_string(),
                app: AppSpec::Bundled(app),
                seed: 0,
                topology: TopologySpec::FitMesh,
                capacity: mbps(cap),
                mapper: MapperSpec::NmapInit,
                routing: RoutingSpec::McfQuadrant,
                simulate: None,
            };
            let problem = scenario.problem().expect("bundled apps fit their fitted mesh");
            let mapping = nmap::initialize(&problem);
            let commodities = problem.commodities(&mapping);
            let cold = solve_mcf_for(
                problem.topology(),
                &commodities,
                McfKind::FlowMin,
                PathScope::Quadrant,
            );
            let warm = solve_mcf_warm(
                problem.topology(),
                &commodities,
                McfKind::FlowMin,
                PathScope::Quadrant,
                chain.take(),
            );
            match (cold, warm) {
                (Ok(c), Ok((w, next, stats))) => {
                    assert_eq!(c.tables, w.tables, "{app} at {cap} MB/s: tables diverged");
                    assert_eq!(c, w, "{app} at {cap} MB/s: solutions diverged");
                    assert!(!stats.warm_hit, "{app} at {cap} MB/s: the wrapper solves cold");
                    chain = Some(next);
                }
                (Err(c), Err(w)) => {
                    assert_eq!(c.to_string(), w.to_string(), "{app} at {cap} MB/s");
                }
                (c, w) => panic!(
                    "{app} at {cap} MB/s: cold {:?} vs warm {:?} disagree on feasibility",
                    c.map(|s| s.kind),
                    w.map(|(s, ..)| s.kind)
                ),
            }
        }
    }
}

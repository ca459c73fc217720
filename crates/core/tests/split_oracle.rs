//! Differential oracle for the §6 split mapper: `map_with_splitting`,
//! which scores every placement with one `solve_mcf_or_slack` call and
//! keeps the winner's solution, against the loop it replaced, kept here
//! verbatim: MCF1 slack until a placement is feasible, MCF2 flow after
//! that, and a final re-solve of the winner.
//!
//! Both must return the same placement, Equation-7 cost, feasibility
//! verdict, objective bits, link loads and routing tables. The runs are
//! PIP, MPEG4 and MWA on their own meshes at 2000/400/250/180 MB/s, and
//! four seeded 9-core graphs on a 3×3 mesh and torus at 2000/300/150
//! MB/s, each under both path scopes: 72 runs, some feasible from the
//! start, some infeasible to the end, some turning feasible mid-search.
//! The old loop solved the placement that first turned feasible twice
//! (MCF1, then MCF2), so its LP-solve count is the new evaluation count
//! plus one for every feasible outcome.

use nmap::mcf::{solve_mcf, SLACK_EPSILON};
use nmap::{
    initialize, map_with_splitting, LinkLoads, Mapping, MappingProblem, McfKind, McfSolution,
    PathScope, RoutingTables, SplitOptions, SplitOutcome,
};
use noc_apps::App;
use noc_graph::{CoreGraph, NodeId, RandomGraphConfig, Topology};
use noc_units::HopMbps;

/// The result of the replaced loop, with the fields its `SplitOutcome`
/// had.
struct OracleOutcome {
    mapping: Mapping,
    comm_cost: HopMbps,
    total_flow: f64,
    slack: f64,
    feasible: bool,
    tables: RoutingTables,
    link_loads: LinkLoads,
    lp_solves: usize,
}

/// The split mapper as it was before every placement went through
/// `solve_mcf_or_slack`.
fn oracle_map_with_splitting(
    problem: &MappingProblem,
    options: &SplitOptions,
) -> nmap::Result<OracleOutcome> {
    let node_count = problem.topology().node_count();
    let mut lp_solves = 0usize;

    let mut placed = initialize(problem);
    let mut best = placed.clone();

    let mut feasible = false;
    let mut best_slack = mcf1(problem, &placed, options.scope, &mut lp_solves)?;
    let mut best_flow = f64::INFINITY;

    if best_slack <= SLACK_EPSILON {
        feasible = true;
        best_flow = mcf2(problem, &placed, options.scope, &mut lp_solves)?;
        best = placed.clone();
    }

    for _ in 0..options.passes {
        for i in 0..node_count {
            for j in (i + 1)..node_count {
                let a = NodeId::new(i);
                let b = NodeId::new(j);
                if placed.core_at(a).is_none() && placed.core_at(b).is_none() {
                    continue;
                }
                let mut candidate = placed.clone();
                candidate.swap_nodes(a, b);

                if !feasible {
                    let slack = mcf1(problem, &candidate, options.scope, &mut lp_solves)?;
                    if slack <= SLACK_EPSILON {
                        feasible = true;
                        best_flow = mcf2(problem, &candidate, options.scope, &mut lp_solves)?;
                        best = candidate.clone();
                        placed = candidate;
                    } else if slack < best_slack {
                        best_slack = slack;
                        best = candidate;
                    }
                } else {
                    let flow = mcf2(problem, &candidate, options.scope, &mut lp_solves)?;
                    if flow < best_flow {
                        best_flow = flow;
                        best = candidate;
                    }
                }
            }
            placed = best.clone();
        }
    }

    // Final flow extraction on the winning mapping.
    let final_solution: McfSolution = if feasible {
        solve_mcf(problem, &best, McfKind::FlowMin, options.scope)?
    } else {
        solve_mcf(problem, &best, McfKind::SlackMin, options.scope)?
    };
    let slack = if feasible { 0.0 } else { final_solution.objective };
    let total_flow = if feasible { final_solution.objective } else { f64::INFINITY };

    Ok(OracleOutcome {
        comm_cost: problem.comm_cost(&best),
        mapping: best,
        total_flow,
        slack,
        feasible,
        tables: final_solution.tables,
        link_loads: final_solution.link_loads,
        lp_solves,
    })
}

fn mcf1(
    problem: &MappingProblem,
    mapping: &Mapping,
    scope: PathScope,
    lp_solves: &mut usize,
) -> nmap::Result<f64> {
    *lp_solves += 1;
    Ok(solve_mcf(problem, mapping, McfKind::SlackMin, scope)?.objective)
}

fn mcf2(
    problem: &MappingProblem,
    mapping: &Mapping,
    scope: PathScope,
    lp_solves: &mut usize,
) -> nmap::Result<f64> {
    *lp_solves += 1;
    match solve_mcf(problem, mapping, McfKind::FlowMin, scope) {
        Ok(sol) => Ok(sol.objective),
        // A capacity-infeasible candidate scores `maxvalue`, mirroring the
        // single-path algorithm's treatment.
        Err(nmap::MapError::Lp(noc_lp::SolveError::Infeasible)) => Ok(f64::INFINITY),
        Err(e) => Err(e),
    }
}

/// How a run's search went, for the coverage checks.
#[derive(Debug, Default, PartialEq)]
struct Coverage {
    /// Runs whose start placement was already feasible.
    feasible_at_start: usize,
    /// Runs that turned feasible mid-search.
    turned_feasible: usize,
    /// Runs that ended infeasible.
    infeasible: usize,
}

/// Runs both mappers on `graph` over `fabric` (its capacity replaced by
/// each of `capacities`) under both scopes, asserts equal outcomes, and
/// tallies how each search went.
fn check(label: &str, graph: &CoreGraph, fabric: &Topology, capacities: &[f64]) -> Coverage {
    let mut coverage = Coverage::default();
    for &capacity in capacities {
        let grid = fabric.grid_structure().expect("oracle fabrics are grids").clone();
        let topology = Topology::grid(grid, capacity).expect("a valid grid");
        let problem = MappingProblem::new(graph.clone(), topology).expect("the graph fits");
        for scope in [PathScope::Quadrant, PathScope::AllPaths] {
            let run = format!("{label}@{capacity} {scope:?}");
            let options = SplitOptions { scope, passes: 1 };
            let ours = map_with_splitting(&problem, &options).unwrap();
            let oracle = oracle_map_with_splitting(&problem, &options).unwrap();
            assert_same(&run, &ours, &oracle);
            let start = solve_mcf(&problem, &initialize(&problem), McfKind::SlackMin, scope)
                .unwrap()
                .objective;
            if !oracle.feasible {
                coverage.infeasible += 1;
            } else if start <= SLACK_EPSILON {
                coverage.feasible_at_start += 1;
            } else {
                coverage.turned_feasible += 1;
            }
        }
    }
    coverage
}

fn assert_same(run: &str, ours: &SplitOutcome, oracle: &OracleOutcome) {
    assert_eq!(ours.mapping, oracle.mapping, "{run}: mapping");
    assert_eq!(ours.comm_cost, oracle.comm_cost, "{run}: Equation-7 cost");
    assert_eq!(ours.solution.kind == McfKind::FlowMin, oracle.feasible, "{run}: feasibility");
    let objective = if oracle.feasible { oracle.total_flow } else { oracle.slack };
    assert_eq!(ours.solution.objective.to_bits(), objective.to_bits(), "{run}: objective");
    assert_eq!(ours.solution.link_loads, oracle.link_loads, "{run}: link loads");
    assert_eq!(ours.solution.tables, oracle.tables, "{run}: routing tables");
    assert_eq!(
        oracle.lp_solves,
        ours.evaluations + usize::from(oracle.feasible),
        "{run}: the old loop solved the first feasible placement twice"
    );
    assert!(ours.stats.solves >= ours.evaluations, "{run}: {:?}", ours.stats);
}

#[test]
fn paper_apps_match_the_replaced_loop() {
    let mut total = Coverage::default();
    for app in [App::Pip, App::Mpeg4, App::Mwa] {
        let (w, h) = app.mesh_dims();
        let fabric = Topology::mesh(w, h, 1.0);
        let coverage =
            check(app.name(), &app.core_graph(), &fabric, &[2000.0, 400.0, 250.0, 180.0]);
        total.feasible_at_start += coverage.feasible_at_start;
        total.turned_feasible += coverage.turned_feasible;
        total.infeasible += coverage.infeasible;
    }
    assert_eq!(total, Coverage { feasible_at_start: 18, turned_feasible: 2, infeasible: 4 });
}

#[test]
fn random_graphs_match_the_replaced_loop() {
    let mut total = Coverage::default();
    for seed in 0..4u64 {
        let graph = RandomGraphConfig { cores: 9, ..RandomGraphConfig::default() }.generate(seed);
        for fabric in [Topology::mesh(3, 3, 1.0), Topology::torus(3, 3, 1.0)] {
            let label = format!("rand9/{seed}@{}", fabric.kind().describe());
            let coverage = check(&label, &graph, &fabric, &[2000.0, 300.0, 150.0]);
            total.feasible_at_start += coverage.feasible_at_start;
            total.turned_feasible += coverage.turned_feasible;
            total.infeasible += coverage.infeasible;
        }
    }
    assert_eq!(total, Coverage { feasible_at_start: 18, turned_feasible: 2, infeasible: 28 });
}

/// The smoke sweep's split rows: DSP on its 3×2 mesh at 800 MB/s is
/// feasible from its start under both scopes and scores 16 placements,
/// the start and 15 swaps. The old loop counted 17 LP solves, because it
/// solved the start with MCF1 and then with MCF2.
#[test]
fn dsp_scores_sixteen_placements() {
    let problem = MappingProblem::new(noc_apps::dsp_filter(), Topology::mesh(3, 2, 800.0))
        .expect("DSP fits 3x2");
    for scope in [PathScope::Quadrant, PathScope::AllPaths] {
        let start = solve_mcf(&problem, &initialize(&problem), McfKind::SlackMin, scope).unwrap();
        assert!(start.objective <= SLACK_EPSILON, "{scope:?}: the start is feasible");
        let options = SplitOptions { scope, passes: 1 };
        let out = map_with_splitting(&problem, &options).unwrap();
        assert_eq!(out.evaluations, 16, "{scope:?}");
        assert_eq!(out.solution.kind, McfKind::FlowMin, "{scope:?}");
        assert!(out.stats.solves >= out.evaluations, "{scope:?}: {:?}", out.stats);
        let oracle = oracle_map_with_splitting(&problem, &options).unwrap();
        assert_eq!(oracle.lp_solves, 17, "{scope:?}");
        assert_same(&format!("DSP {scope:?}"), &out, &oracle);
    }
}

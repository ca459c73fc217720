//! The delta-gated swap descent's central guarantee: **bit-identical**
//! outcomes to the ungated descent — same mappings, same cost bits, same
//! routed paths/loads, same evaluation counts and the same winners — on
//! every bundled application, on seeded random graphs and on small
//! pipelines, under generous and tight link capacities alike.
//!
//! `oracle::map_single_path` is that ungated descent: every candidate is
//! scored with the full O(E) [`EvalContext::evaluate`], built from public
//! API only. The production gate may only skip candidates the full
//! `evaluate()` would reject from its threshold comparison without
//! routing; any divergence here means the floating-point safety margin is
//! wrong.

use nmap::{map_single_path, EvalContext, MappingProblem, SinglePathOptions};
use noc_apps::App;
use noc_graph::{CoreGraph, CoreId, RandomGraphConfig, Topology};

mod oracle {
    use nmap::{
        initialize, routing, EvalContext, Mapping, RoutingTables, SinglePathOptions,
        SinglePathOutcome,
    };
    use noc_graph::NodeId;
    use noc_units::Score;

    /// The paper's `mappingwithsinglepath()` with every candidate scored
    /// by the full Equation-7 scan: the same restarts, sweeps, tie-breaks
    /// and evaluation count as the production descent, minus its gate.
    pub fn map_single_path(
        ctx: &mut EvalContext<'_>,
        options: &SinglePathOptions,
    ) -> nmap::Result<SinglePathOutcome> {
        let problem = ctx.problem();
        let node_count = problem.topology().node_count();
        let restarts = options.restarts;
        let mut evaluations = 0usize;
        let seed = initialize(problem);
        let mut best_cost = Score::INFEASIBLE;
        let mut best: Option<Mapping> = None;
        for restart in 0..restarts {
            let mut placed = seed.clone();
            if restart > 0 {
                let anchor = NodeId::new((restart * node_count) / restarts);
                let origin = seed.assignments().next().map(|(_, node)| node).unwrap_or(anchor);
                placed.swap_nodes(origin, anchor);
            }
            let (cost, mapping) = descent(ctx, placed, options.passes, &mut evaluations)?;
            if cost < best_cost || best.is_none() {
                best_cost = cost;
                best = Some(mapping);
            }
        }
        let best = best.expect("at least one restart ran");
        let (paths, link_loads) = routing::route_min_paths(problem, &best)?;
        let feasible = link_loads.within_capacity(problem.topology());
        let comm_cost = ctx.comm_cost(&best);
        let tables = RoutingTables::from_single_paths(&paths);
        Ok(SinglePathOutcome {
            mapping: best,
            comm_cost,
            feasible,
            paths,
            link_loads,
            tables,
            evaluations,
        })
    }

    fn descent(
        ctx: &mut EvalContext<'_>,
        mut placed: Mapping,
        passes: usize,
        evaluations: &mut usize,
    ) -> nmap::Result<(Score, Mapping)> {
        let node_count = ctx.problem().topology().node_count();
        *evaluations += 1;
        let mut best_cost = ctx.evaluate(&placed, Score::INFEASIBLE)?;
        let mut best = placed.clone();
        for _ in 0..passes {
            for i in 0..node_count {
                for j in (i + 1)..node_count {
                    let (a, b) = (NodeId::new(i), NodeId::new(j));
                    if placed.core_at(a).is_none() && placed.core_at(b).is_none() {
                        continue;
                    }
                    *evaluations += 1;
                    let mut candidate = placed.clone();
                    candidate.swap_nodes(a, b);
                    let cost = ctx.evaluate(&candidate, best_cost)?;
                    if cost < best_cost {
                        best_cost = cost;
                        best = candidate;
                    }
                }
                placed = best.clone();
            }
        }
        Ok((best_cost, best))
    }
}

/// Runs the production descent and the ungated oracle on one
/// problem/options pair and demands equality of the entire outcome struct
/// (mapping, cost, feasibility, paths, loads, tables, evaluations).
fn assert_kernels_identical(problem: &MappingProblem, options: &SinglePathOptions, label: &str) {
    let full = oracle::map_single_path(&mut EvalContext::new(problem), options)
        .unwrap_or_else(|e| panic!("{label}: ungated oracle failed: {e}"));
    let gated = map_single_path(problem, options)
        .unwrap_or_else(|e| panic!("{label}: gated descent failed: {e}"));
    assert_eq!(full, gated, "{label}: kernels diverged");
}

#[test]
fn kernels_agree_on_all_six_bundled_apps() {
    for app in App::all() {
        let graph = app.core_graph();
        let (w, h) = app.mesh_dims();
        // Generous capacity: the descent mostly compares costs.
        let generous = MappingProblem::new(graph.clone(), Topology::mesh(w, h, 2_000.0)).unwrap();
        // Tight capacity: infeasible candidates score INFINITY, exercising
        // the incumbent-stays-infinite and feasibility-flip paths.
        let tight = MappingProblem::new(graph, Topology::mesh(w, h, 400.0)).unwrap();
        for (problem, regime) in [(&generous, "generous"), (&tight, "tight")] {
            assert_kernels_identical(
                problem,
                &SinglePathOptions::paper_exact(),
                &format!("{} {regime} paper", app.name()),
            );
        }
        // The default multi-restart configuration on the generous fabric.
        assert_kernels_identical(
            &generous,
            &SinglePathOptions::default(),
            &format!("{} default", app.name()),
        );
    }
}

#[test]
fn kernels_agree_on_seeded_random_graphs() {
    // ≥ 4 seeded instances across sizes, mesh and torus, including a
    // capacity tight enough that feasibility steers the search.
    let cases = [
        (12usize, 0u64, 900.0),
        (16, 1, 2_000.0),
        (20, 2, 600.0),
        (25, 3, 2_000.0),
        (14, 4, 450.0),
    ];
    for (cores, seed, capacity) in cases {
        let graph = RandomGraphConfig { cores, ..Default::default() }.generate(seed);
        let (w, h) = Topology::fit_mesh_dims(cores);
        let mesh = MappingProblem::new(graph.clone(), Topology::mesh(w, h, capacity)).unwrap();
        assert_kernels_identical(
            &mesh,
            &SinglePathOptions::paper_exact(),
            &format!("rand{cores}#{seed} mesh"),
        );
        let torus = MappingProblem::new(graph, Topology::torus(w, h, capacity)).unwrap();
        assert_kernels_identical(
            &torus,
            &SinglePathOptions { passes: 2, restarts: 2 },
            &format!("rand{cores}#{seed} torus"),
        );
    }
}

/// A chain of `n` cores with one `bw` MB/s edge between neighbours.
fn pipeline(n: usize, bw: f64) -> CoreGraph {
    let mut g = CoreGraph::new();
    let ids: Vec<CoreId> = (0..n).map(|i| g.add_core(format!("s{i}"))).collect();
    for w in ids.windows(2) {
        g.add_comm(w[0], w[1], bw).unwrap();
    }
    g
}

#[test]
fn kernels_agree_on_small_pipelines() {
    // Feasible with spare nodes, capacity-constrained, and a torus.
    let problems = [
        ("mesh3x3", MappingProblem::new(pipeline(6, 50.0), Topology::mesh(3, 3, 1e9)).unwrap()),
        ("tight3x2", MappingProblem::new(pipeline(6, 100.0), Topology::mesh(3, 2, 120.0)).unwrap()),
        ("torus3x3", MappingProblem::new(pipeline(6, 100.0), Topology::torus(3, 3, 1e9)).unwrap()),
    ];
    for (label, problem) in &problems {
        for options in [SinglePathOptions::paper_exact(), SinglePathOptions::default()] {
            assert_kernels_identical(problem, &options, &format!("pipeline {label} {options:?}"));
        }
    }
}

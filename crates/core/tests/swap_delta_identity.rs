//! The delta-gated swap descent's central guarantee: **bit-identical**
//! outcomes to the ungated descent — same mappings, same cost bits, same
//! routed paths/loads, same evaluation counts and the same winners — on
//! every bundled application, on seeded random graphs and on small
//! pipelines, under generous and tight link capacities alike.
//!
//! `oracle::map_single_path` is that ungated descent, and it routes
//! every candidate that beats the incumbent: its score is the full O(E)
//! Equation-7 cost, then `route_min_loads` and the capacity check, built
//! from public API only. So the suite checks both shortcuts of the
//! production descent at once. The delta gate may only skip candidates
//! that the threshold comparison would reject without routing, and
//! [`EvalContext::evaluate`] may skip routing only where
//! `MappingProblem::capacity_never_binds` says no routing can overload a
//! link. Any divergence here means a floating-point margin is wrong.

use nmap::{map_single_path_with, EvalContext, MappingProblem, SinglePathOptions};
use noc_apps::App;
use noc_graph::{CoreGraph, CoreId, RandomGraphConfig, RandomGraphFamily, Topology};
use noc_probe::Probe;

mod oracle {
    use nmap::{
        initialize, routing, EvalContext, Mapping, RoutingTables, SinglePathOptions,
        SinglePathOutcome,
    };
    use noc_graph::NodeId;
    use noc_units::Score;

    /// The paper's `mappingwithsinglepath()` with every candidate scored
    /// by [`score`]: the same restarts, sweeps, tie-breaks and evaluation
    /// count as the production descent, minus its gate and its routing
    /// skip.
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

    /// The paper's `shortestpath()` score: infinity when the Equation-7
    /// cost does not beat `threshold`, otherwise the cost if the routed
    /// min-path loads meet every capacity and infinity if not. Always
    /// routes past the threshold test.
    fn score(
        ctx: &mut EvalContext<'_>,
        mapping: &Mapping,
        threshold: Score,
    ) -> nmap::Result<Score> {
        let cost = ctx.comm_cost(mapping);
        if cost.to_f64() >= threshold.to_f64() {
            return Ok(Score::INFEASIBLE);
        }
        let topology = ctx.problem().topology();
        let fits = ctx.route_min_loads(mapping)?.within_capacity(topology);
        Ok(if fits { Score::feasible(cost) } else { Score::INFEASIBLE })
    }

    fn descent(
        ctx: &mut EvalContext<'_>,
        mut placed: Mapping,
        passes: usize,
        evaluations: &mut usize,
    ) -> nmap::Result<(Score, Mapping)> {
        let node_count = ctx.problem().topology().node_count();
        *evaluations += 1;
        let mut best_cost = score(ctx, &placed, Score::INFEASIBLE)?;
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
                    let cost = score(ctx, &candidate, best_cost)?;
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

/// Runs the production descent and the always-routing oracle on one
/// problem/options pair and demands equality of the entire outcome
/// struct (mapping, cost, feasibility, paths, loads, tables,
/// evaluations). Returns how many of the production descent's
/// evaluations skipped routing (`search.capacity_skips`).
fn assert_kernels_identical(
    problem: &MappingProblem,
    options: &SinglePathOptions,
    label: &str,
) -> u64 {
    let full = oracle::map_single_path(&mut EvalContext::new(problem), options)
        .unwrap_or_else(|e| panic!("{label}: ungated oracle failed: {e}"));
    let probe = Probe::new();
    let mut ctx = EvalContext::new(problem);
    ctx.set_probe(&probe);
    let gated = map_single_path_with(&mut ctx, options)
        .unwrap_or_else(|e| panic!("{label}: gated descent failed: {e}"));
    assert_eq!(full, gated, "{label}: kernels diverged");
    probe.counter("search.capacity_skips").get()
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

/// Table 2's generator at its 1e9 MB/s links, which no routing can
/// overload: the production descent scores candidates without routing,
/// on the fitted mesh, a torus and a 3-D mesh.
#[test]
fn kernels_agree_where_routing_is_skipped() {
    let family = RandomGraphFamily::default();
    for cores in [25, 35] {
        let graph = family.graph(cores, 0);
        let (w, h) = Topology::fit_mesh_dims(cores);
        let mut fabrics =
            vec![("mesh", Topology::mesh(w, h, 1e9)), ("torus", Topology::torus(w, h, 1e9))];
        if cores <= 32 {
            fabrics.push(("mesh 4x4x2", Topology::mesh_nd(&[4, 4, 2], 1e9).unwrap()));
        }
        for (fabric, topology) in fabrics {
            let problem = MappingProblem::new(graph.clone(), topology).unwrap();
            assert!(problem.capacity_never_binds());
            let label = format!("table2 {cores} cores, {fabric}");
            let skips =
                assert_kernels_identical(&problem, &SinglePathOptions::paper_exact(), &label);
            assert!(skips > 0, "{label}: no evaluation skipped routing");
        }
    }
}

/// Links exactly as wide as the total traffic: every routing still fits,
/// but the predicate's margin keeps the skip off, so every evaluation
/// routes.
#[test]
fn kernels_agree_when_capacity_equals_the_total_traffic() {
    let graph = RandomGraphFamily::default().graph(25, 1);
    let total = graph.total_bandwidth().to_f64();
    let (w, h) = Topology::fit_mesh_dims(25);
    let problem = MappingProblem::new(graph, Topology::mesh(w, h, total)).unwrap();
    assert!(!problem.capacity_never_binds());
    let skips =
        assert_kernels_identical(&problem, &SinglePathOptions::paper_exact(), "capacity = total");
    assert_eq!(skips, 0);
}

/// The fitted mesh as a custom fabric whose links are all wide except
/// one central link, at half the heaviest flow: routing decides
/// feasibility there, so the skip must not apply, and the narrow link
/// moves the outcome.
#[test]
fn kernels_agree_on_a_fabric_with_one_narrow_link() {
    let graph = RandomGraphFamily::default().graph(25, 2);
    let heaviest = graph.edges().map(|(_, e)| e.bandwidth.to_f64()).fold(0.0, f64::max);
    let (w, h) = Topology::fit_mesh_dims(25);
    let mesh = Topology::mesh(w, h, 1e9);
    let center = mesh.node_at(w / 2, h / 2).unwrap();
    let (narrow, _) = mesh.out_links(center).next().unwrap();
    let fabric = |capacity: f64| {
        let links = mesh
            .links()
            .map(|(id, link)| (link.src, link.dst, if id == narrow { capacity } else { 1e9 }));
        let topology = Topology::custom(mesh.node_count(), links).unwrap();
        MappingProblem::new(graph.clone(), topology).unwrap()
    };
    let problem = fabric(0.5 * heaviest);
    assert!(!problem.capacity_never_binds());
    for options in [SinglePathOptions::paper_exact(), SinglePathOptions::default()] {
        let skips =
            assert_kernels_identical(&problem, &options, &format!("one narrow link {options:?}"));
        assert_eq!(skips, 0);
    }
    let paper = SinglePathOptions::paper_exact();
    let wide = nmap::map_single_path(&fabric(1e9), &paper).unwrap();
    assert_ne!(nmap::map_single_path(&problem, &paper).unwrap().mapping, wide.mapping);
}

//! Differential oracle for the path-based MCF solver: column generation
//! (`nmap::mcf`) against the arc-flow formulation it replaced — one
//! variable per commodity × link in scope, one conservation row per
//! commodity × node — solved directly by the same simplex.
//!
//! For all three objectives under both path scopes, the two must report
//! equal objectives (within 1e-9 relative) and the same infeasibility
//! verdicts, on the six paper applications and seeded random 9–25-core
//! graphs placed on a fitted mesh, torus and 3-D mesh, at capacities of
//! λ × {2, 1.2, 1.0, 0.9, 0.7} where λ is the arc model's min-max load.
//! All-paths cases stop at 12 cores (9 in debug builds): the arc model's
//! tableau grows with commodities × links, and the debug test run must
//! stay short. Every
//! column-generation answer is also checked structurally (routes are
//! source→destination paths inside their scope, fractions sum to 1, link
//! loads are the summed route flows) and for commodity-order invariance.

use std::collections::BTreeMap;

use nmap::mcf::solve_mcf_for;
use nmap::{Commodity, MapError, MappingProblem, McfKind, McfSolution, PathScope};
use noc_apps::App;
use noc_graph::{
    CoreGraph, Grid, LinkId, NodeId, QuadrantDag, RandomGraphConfig, RandomGraphFamily, Topology,
};
use noc_lp::{LinearProgram, Sense, SolveError, VarId};

/// Capacity points as multiples of the arc model's min-max load λ.
const CAP_FACTORS: [f64; 5] = [2.0, 1.2, 1.0, 0.9, 0.7];

/// Largest instance the all-paths cases run on: 12 cores in release
/// builds (CI's oracle step), 9 in the debug test run, where the arc
/// model's 12-core tableaux alone take over a minute.
const ALL_PATHS_MAX_CORES: usize = if cfg!(debug_assertions) { 9 } else { 12 };

/// The arc-flow model: per-commodity link flows with per-node
/// conservation, under the kind's capacity rows. Returns the optimal
/// objective, or the solver's error.
fn arc_objective(
    topology: &Topology,
    commodities: &[Commodity],
    kind: McfKind,
    scope: PathScope,
) -> Result<f64, SolveError> {
    let mut lp = LinearProgram::new(Sense::Minimize);
    let flow_cost = if kind == McfKind::FlowMin { 1.0 } else { 0.0 };
    let mut flow_vars: Vec<Vec<(LinkId, VarId)>> = Vec::with_capacity(commodities.len());
    for c in commodities {
        let mut vars = Vec::new();
        if !c.value.is_zero() && c.source != c.dest {
            let links: Vec<LinkId> = match scope {
                PathScope::AllPaths => topology.links().map(|(id, _)| id).collect(),
                PathScope::Quadrant => {
                    QuadrantDag::new(topology, c.source, c.dest).links().to_vec()
                }
            };
            for link in links {
                vars.push((link, lp.add_variable("", flow_cost)));
            }
        }
        flow_vars.push(vars);
    }
    let mut per_link: Vec<Vec<VarId>> = vec![Vec::new(); topology.link_count()];
    for vars in &flow_vars {
        for &(link, var) in vars {
            per_link[link.index()].push(var);
        }
    }
    let lambda = (kind == McfKind::MinMaxLoad).then(|| lp.add_variable("lambda", 1.0));
    for (id, link) in topology.links() {
        let vars = &per_link[id.index()];
        if vars.is_empty() {
            continue;
        }
        let mut terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
        match kind {
            McfKind::SlackMin => {
                terms.push((lp.add_variable("", 1.0), -1.0));
                lp.add_le(&terms, link.capacity.to_f64());
            }
            McfKind::FlowMin => lp.add_le(&terms, link.capacity.to_f64()),
            McfKind::MinMaxLoad => {
                terms.push((lambda.expect("min-max carries λ"), -1.0));
                lp.add_le(&terms, 0.0);
            }
        }
    }
    // Flow conservation (Equation 5) per commodity and node; the
    // destination row is the negative sum of the others and is dropped.
    for (k, c) in commodities.iter().enumerate() {
        let mut incident: BTreeMap<NodeId, Vec<(VarId, f64)>> = BTreeMap::new();
        for &(link, var) in &flow_vars[k] {
            let l = topology.link(link);
            incident.entry(l.src).or_default().push((var, 1.0));
            incident.entry(l.dst).or_default().push((var, -1.0));
        }
        for (node, terms) in incident {
            if node != c.dest {
                lp.add_eq(&terms, if node == c.source { c.value.to_f64() } else { 0.0 });
            }
        }
    }
    lp.solve().map(|s| s.objective)
}

/// One oracle instance: an application placed by `nmap::initialize` on a
/// fabric. Only the link capacities vary between its points.
struct Case {
    label: String,
    grid: Grid,
    commodities: Vec<Commodity>,
}

impl Case {
    fn new(label: String, graph: CoreGraph, fabric: Topology) -> Self {
        let grid = fabric.grid_structure().expect("oracle fabrics are grids").clone();
        let problem = MappingProblem::new(graph, fabric).expect("fitted fabrics fit");
        let commodities = problem.commodities(&nmap::initialize(&problem));
        Self { label, grid, commodities }
    }

    fn topology(&self, capacity: f64) -> Topology {
        Topology::grid(self.grid.clone(), capacity).expect("a valid grid")
    }
}

/// The fabrics every graph is placed on: fitted mesh, torus and 3-D mesh.
fn fabrics(cores: usize) -> Vec<Topology> {
    let (w, h) = Topology::fit_mesh_dims(cores);
    vec![
        Topology::mesh_nd(&[w, h], 1.0).expect("mesh"),
        Topology::torus_nd(&[w, h], 1.0).expect("torus"),
        Topology::mesh_nd(&Grid::fit_dims(cores, 3), 1.0).expect("3-D mesh"),
    ]
}

fn cases(max_cores: usize) -> Vec<Case> {
    let mut graphs: Vec<(String, CoreGraph)> =
        App::all().into_iter().map(|app| (app.name().to_string(), app.core_graph())).collect();
    for (i, cores) in [9usize, 12, 16, 20, 25].into_iter().enumerate() {
        let config = RandomGraphConfig { cores, ..RandomGraphConfig::default() };
        let seed = RandomGraphFamily::instance_seed(cores, i as u64);
        graphs.push((format!("rand{cores}"), config.generate(seed)));
    }
    let mut out = Vec::new();
    for (label, graph) in graphs {
        if graph.core_count() > max_cores {
            continue;
        }
        for fabric in fabrics(graph.core_count()) {
            let label = format!("{label}@{}", fabric.kind().describe());
            out.push(Case::new(label, graph.clone(), fabric));
        }
    }
    out
}

fn assert_close(label: &str, ours: f64, oracle: f64) {
    let tolerance = 1e-9 * oracle.abs().max(1.0);
    assert!(
        (ours - oracle).abs() <= tolerance,
        "{label}: column generation {ours} vs arc oracle {oracle} (diff {:e})",
        (ours - oracle).abs()
    );
}

/// Routes are source→destination paths inside the scope, fractions sum
/// to 1, and the link loads are the summed route flows.
fn assert_structure(
    label: &str,
    topology: &Topology,
    commodities: &[Commodity],
    scope: PathScope,
    solution: &McfSolution,
) {
    let mut loads = vec![0.0; topology.link_count()];
    for c in commodities {
        let routes = solution.tables.routes_of(c.edge);
        if c.value.is_zero() || c.source == c.dest {
            assert!(routes.is_empty(), "{label}: idle commodity {} routed", c.edge);
            continue;
        }
        assert!(!routes.is_empty(), "{label}: commodity {} unrouted", c.edge);
        let quadrant = QuadrantDag::new(topology, c.source, c.dest);
        let mut total = 0.0;
        for route in routes {
            let mut at = c.source;
            for &link in &route.links {
                let l = topology.link(link);
                assert_eq!(l.src, at, "{label}: commodity {} route breaks at {link}", c.edge);
                if scope == PathScope::Quadrant {
                    assert!(quadrant.contains(link), "{label}: {link} outside the quadrant");
                }
                at = l.dst;
                loads[link.index()] += route.fraction * c.value.to_f64();
            }
            assert_eq!(at, c.dest, "{label}: commodity {} route misses its sink", c.edge);
            assert!(route.fraction > 0.0);
            total += route.fraction;
        }
        assert!((total - 1.0).abs() < 1e-9, "{label}: fractions of {} sum to {total}", c.edge);
    }
    for (id, _) in topology.links() {
        let (ours, summed) = (solution.link_loads.get(id), loads[id.index()]);
        assert!(
            (ours - summed).abs() <= 1e-6 + 1e-9 * summed,
            "{label}: link {id} load {ours} vs summed routes {summed}"
        );
    }
}

fn is_infeasible(e: &MapError) -> bool {
    matches!(e, MapError::Lp(SolveError::Infeasible))
}

/// Solves one (kind, scope) point both ways and checks every contract.
/// Returns whether the oracle found it feasible.
fn check_point(
    label: &str,
    topology: &Topology,
    commodities: &[Commodity],
    kind: McfKind,
    scope: PathScope,
) -> bool {
    let oracle = arc_objective(topology, commodities, kind, scope);
    let ours = solve_mcf_for(topology, commodities, kind, scope);
    match (&ours, &oracle) {
        (Ok(solution), Ok(objective)) => {
            assert_eq!(solution.kind, kind, "{label}");
            assert_close(label, solution.objective, *objective);
            assert_structure(label, topology, commodities, scope, solution);
            let mut reversed = commodities.to_vec();
            reversed.reverse();
            let mut rotated = commodities.to_vec();
            rotated.rotate_left(commodities.len() / 3);
            for permuted in [reversed, rotated] {
                let again = solve_mcf_for(topology, &permuted, kind, scope);
                assert_eq!(again.as_ref(), Ok(solution), "{label}: commodity order changed it");
            }
            true
        }
        (Err(e), Err(SolveError::Infeasible)) if is_infeasible(e) => false,
        _ => panic!("{label}: column generation {ours:?} vs arc oracle {oracle:?}"),
    }
}

fn run_oracle(scope: PathScope, max_cores: usize) -> (usize, usize) {
    let (mut solves, mut infeasible) = (0usize, 0usize);
    for case in cases(max_cores) {
        let commodities = &case.commodities;
        let loose = case.topology(1.0);
        let lambda = arc_objective(&loose, commodities, McfKind::MinMaxLoad, scope)
            .expect("min-max load always solves");
        let label = format!("{} {scope:?} min-max", case.label);
        check_point(&label, &loose, commodities, McfKind::MinMaxLoad, scope);
        solves += 1;
        for factor in CAP_FACTORS {
            let topology = case.topology(lambda * factor);
            for kind in [McfKind::FlowMin, McfKind::SlackMin] {
                let label = format!("{} {scope:?} {kind:?} at {factor}λ", case.label);
                let feasible = check_point(&label, &topology, commodities, kind, scope);
                solves += 1;
                infeasible += usize::from(!feasible);
                // λ is the exact feasibility edge: FlowMin fits from 1.0λ up.
                if kind == McfKind::FlowMin {
                    assert_eq!(feasible, factor >= 1.0, "{label}");
                }
            }
        }
    }
    (solves, infeasible)
}

#[test]
fn quadrant_scope_matches_the_arc_oracle() {
    let (solves, infeasible) = run_oracle(PathScope::Quadrant, usize::MAX);
    assert!(solves > 300 && infeasible > 0, "{solves} solves, {infeasible} infeasible");
}

#[test]
fn all_paths_scope_matches_the_arc_oracle() {
    let (solves, infeasible) = run_oracle(PathScope::AllPaths, ALL_PATHS_MAX_CORES);
    assert!(solves > 60 && infeasible > 0, "{solves} solves, {infeasible} infeasible");
}

//! Routing engines and link-load accounting.
//!
//! * [`route_min_paths`] — the routing half of the paper's
//!   `shortestpath()` routine: commodities are processed in decreasing
//!   bandwidth order and each is routed over the least-loaded minimal path
//!   inside its quadrant graph (a [`PathSearch`] under load-dependent
//!   weights, which grow by `vl(d_k)` after each commodity is committed).
//! * [`route_dor`] — deterministic dimension-ordered routing over the
//!   grid's axes in stride order (X, then Y, then Z, ...), used for the
//!   DPMAP/DGMAP rows of the paper's Figure 4; [`route_xy`] is its
//!   historical 2-D spelling.
//! * [`LinkLoads`] — aggregate per-link traffic, the left-hand side of the
//!   bandwidth constraint (Inequality 3).
//! * [`RoutingTables`] — per-commodity path sets with flow fractions; the
//!   single-path and split-traffic flows share this representation.

use noc_graph::{Axis, EdgeId, LinkId, NodeId, PathSearch, QuadrantDag, Topology};

use crate::{Commodity, MapError, Mapping, MappingProblem, Result};

// lint: allow-file(f64-api) — this module is the routing hot path: link
// loads are a dense per-link `Vec<f64>` accumulator read inside the
// shortest-path step closure, and `SplitRoute::fraction` is dimensionless.
// Values are MB/s by construction (they enter from typed `Mbps`
// commodity values via `to_f64()`), and they re-enter the typed world at
// the report/record seams.

/// Absolute slack (MB/s) tolerated when comparing loads to capacities,
/// compensating LP and floating-point round-off.
pub const CAPACITY_TOLERANCE: f64 = 1e-6;

/// A single-path route for one commodity.
#[derive(Debug, Clone, PartialEq)]
pub struct CommodityPath {
    /// The core-graph edge routed.
    pub edge: EdgeId,
    /// Links traversed, in travel order.
    pub links: Vec<LinkId>,
    /// Nodes visited, source first, destination last.
    pub nodes: Vec<NodeId>,
}

impl CommodityPath {
    /// The path of `edge` from `source` over `links`; its nodes follow
    /// from the links.
    fn new(topology: &Topology, edge: EdgeId, source: NodeId, links: Vec<LinkId>) -> Self {
        let nodes =
            std::iter::once(source).chain(links.iter().map(|&l| topology.link(l).dst)).collect();
        Self { edge, links, nodes }
    }

    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.links.len()
    }
}

/// One routed fraction of a split commodity: a path and the share of the
/// commodity's bandwidth it carries (`0 < fraction ≤ 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct SplitRoute {
    /// Links of the path, in travel order.
    pub links: Vec<LinkId>,
    /// Fraction of the commodity's value carried by this path.
    pub fraction: f64,
}

/// Per-commodity routing tables: each commodity maps to one or more
/// weighted paths. Single-path routings have exactly one entry with
/// fraction 1. This is the data a NoC's source-routing tables would be
/// loaded with (the paper estimates them under 10% of buffer bits).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoutingTables {
    routes: Vec<Vec<SplitRoute>>,
}

impl RoutingTables {
    /// Builds tables from single-path routes (fraction 1 each), indexed by
    /// commodity (core-graph edge) order.
    pub fn from_single_paths(paths: &[CommodityPath]) -> Self {
        let mut routes = vec![Vec::new(); paths.len()];
        for p in paths {
            routes[p.edge.index()] = vec![SplitRoute { links: p.links.clone(), fraction: 1.0 }];
        }
        Self { routes }
    }

    /// Builds tables directly from per-commodity split routes, indexed by
    /// commodity order.
    pub fn from_split_routes(routes: Vec<Vec<SplitRoute>>) -> Self {
        Self { routes }
    }

    /// Number of commodities covered.
    pub fn commodity_count(&self) -> usize {
        self.routes.len()
    }

    /// The weighted paths of commodity `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn routes_of(&self, edge: EdgeId) -> &[SplitRoute] {
        &self.routes[edge.index()]
    }

    /// Largest number of alternative paths any commodity uses (routing
    /// table depth).
    pub fn max_paths_per_commodity(&self) -> usize {
        self.routes.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Recomputes aggregate link loads for these tables given the
    /// commodity values.
    pub fn link_loads(&self, topology: &Topology, commodities: &[Commodity]) -> LinkLoads {
        let mut loads = LinkLoads::zeros(topology.link_count());
        for c in commodities {
            for route in self.routes_of(c.edge) {
                for &l in &route.links {
                    loads.add(l, (c.value * route.fraction).to_f64());
                }
            }
        }
        loads
    }
}

/// Aggregate traffic per directed link: `Σ_k x^k_{i,j}` of Inequality 3.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinkLoads {
    loads: Vec<f64>,
}

impl LinkLoads {
    /// All-zero loads for `link_count` links.
    pub fn zeros(link_count: usize) -> Self {
        Self { loads: vec![0.0; link_count] }
    }

    /// Load on `link` in MB/s.
    pub fn get(&self, link: LinkId) -> f64 {
        self.loads[link.index()]
    }

    /// Adds `amount` MB/s to `link`.
    pub fn add(&mut self, link: LinkId, amount: f64) {
        self.loads[link.index()] += amount;
    }

    /// Zeroes every load in place, keeping the allocation (scratch reuse
    /// in [`crate::EvalContext`]).
    pub fn reset(&mut self) {
        self.loads.fill(0.0);
    }

    /// The heaviest link load — the minimum uniform link capacity that
    /// would make this routing feasible (the paper's Figure 4 metric).
    pub fn max(&self) -> f64 {
        self.loads.iter().copied().fold(0.0, f64::max)
    }

    /// Sum of all link loads — the MCF2 objective (Equation 9) value of
    /// this routing.
    pub fn total(&self) -> f64 {
        self.loads.iter().sum()
    }

    /// True if every link load is within its capacity (Inequality 3),
    /// modulo [`CAPACITY_TOLERANCE`].
    pub fn within_capacity(&self, topology: &Topology) -> bool {
        topology
            .links()
            .all(|(id, link)| self.loads[id.index()] <= link.capacity.to_f64() + CAPACITY_TOLERANCE)
    }

    /// Total capacity violation `Σ max(0, load - capacity)` — comparable
    /// to the MCF1 slack objective (Equation 8).
    pub fn violation(&self, topology: &Topology) -> f64 {
        topology
            .links()
            .map(|(id, link)| (self.loads[id.index()] - link.capacity.to_f64()).max(0.0))
            .sum()
    }

    /// Read-only view of the raw per-link loads.
    pub fn as_slice(&self) -> &[f64] {
        &self.loads
    }
}

/// Routes every commodity over a single minimal path, balancing load
/// greedily (the routing phase of the paper's `shortestpath()` routine).
///
/// Commodities are processed in decreasing bandwidth order. Each takes the
/// cheapest path of its quadrant DAG ([`PathSearch`]) under link weight
/// `1 + (traffic already committed to the link)`; after routing, the
/// path's links gain the commodity's bandwidth. Because every quadrant
/// path is minimal, the result is always a minimum-hop routing.
/// [`crate::EvalContext::route_min_loads`] runs the same loop with cached
/// quadrant DAGs and keeps only the loads.
///
/// # Errors
///
/// [`MapError::Unroutable`] if a commodity's endpoints are disconnected
/// (impossible on meshes/tori, possible on custom topologies).
///
/// # Panics
///
/// Panics if `mapping` is incomplete.
pub fn route_min_paths(
    problem: &MappingProblem,
    mapping: &Mapping,
) -> Result<(Vec<CommodityPath>, LinkLoads)> {
    let topology = problem.topology();
    let commodities = problem.commodities(mapping);
    let mut loads = LinkLoads::zeros(topology.link_count());
    let mut paths: Vec<Option<CommodityPath>> = vec![None; commodities.len()];
    let order = problem.commodity_order();
    let mut search = PathSearch::new(topology);
    route_greedy(&mut search, &commodities, &order, None, &mut loads, Some(&mut paths))?;
    Ok((paths.into_iter().map(|p| p.expect("all commodities routed")).collect(), loads))
}

/// The greedy loop of `shortestpath()`: each commodity of `order` in turn
/// takes `search`'s cheapest path of its quadrant DAG under link weight
/// `1 + load`, and that path's links then gain its bandwidth.
/// `quadrants`, keyed by `source * node_count + dest`, keeps the DAGs
/// across calls; without it each one is built on the fly. `paths`, when
/// given, receives every commodity's path at its edge index.
pub(crate) fn route_greedy(
    search: &mut PathSearch<'_>,
    commodities: &[Commodity],
    order: &[EdgeId],
    mut quadrants: Option<&mut [Option<QuadrantDag>]>,
    loads: &mut LinkLoads,
    mut paths: Option<&mut [Option<CommodityPath>]>,
) -> Result<()> {
    let topology = search.topology();
    for &edge in order {
        let c = commodities[edge.index()];
        if c.source == c.dest {
            // Cannot happen through the public API (mapping is injective and
            // the core graph has no self-loops) but keep the router total.
            if let Some(paths) = paths.as_deref_mut() {
                paths[edge.index()] =
                    Some(CommodityPath::new(topology, edge, c.source, Vec::new()));
            }
            continue;
        }
        let fresh;
        let quadrant = match quadrants.as_deref_mut() {
            Some(cache) => cache[c.source.index() * topology.node_count() + c.dest.index()]
                .get_or_insert_with(|| QuadrantDag::new(topology, c.source, c.dest)),
            None => {
                fresh = QuadrantDag::new(topology, c.source, c.dest);
                &fresh
            }
        };
        let (_, links) = search
            .cheapest(
                c.source,
                c.dest,
                |l| quadrant.contains(l),
                |cost, l| cost + (1.0 + loads.get(l)),
            )
            .ok_or(MapError::Unroutable { commodity: edge.index() })?;
        for &l in links {
            loads.add(l, c.value.to_f64());
        }
        if let Some(paths) = paths.as_deref_mut() {
            paths[edge.index()] =
                Some(CommodityPath::new(topology, edge, c.source, links.to_vec()));
        }
    }
    Ok(())
}

/// Routes every commodity with deterministic **dimension-ordered routing**
/// (DOR): the grid's axes are resolved one at a time in stride order —
/// first along X, then Y, then Z, ... — each along the shorter wrap
/// direction on wrapping axes (ties toward increasing coordinate). On 2-D
/// grids this is exactly the "dimension ordered (XY) routing" used by the
/// DPMAP/DGMAP rows of Figure 4; on a 3-D grid it becomes XYZ routing.
///
/// # Errors
///
/// [`MapError::GridRequired`] for custom topologies (the error names the
/// offending kind).
///
/// # Panics
///
/// Panics if `mapping` is incomplete.
pub fn route_dor(
    problem: &MappingProblem,
    mapping: &Mapping,
) -> Result<(Vec<CommodityPath>, LinkLoads)> {
    let topology = problem.topology();
    let grid = topology
        .grid_structure()
        .ok_or_else(|| MapError::GridRequired { found: topology.kind().describe() })?;

    let commodities = problem.commodities(mapping);
    let mut loads = LinkLoads::zeros(topology.link_count());
    let mut paths = Vec::with_capacity(commodities.len());

    for c in &commodities {
        let mut coords = topology.grid_coords(c.source).to_vec();
        let target = topology.grid_coords(c.dest);
        let mut nodes = vec![c.source];
        let mut links = Vec::new();

        for (axis, &goal) in target.iter().enumerate() {
            let ax = grid.axis(axis);
            while coords[axis] != goal {
                coords[axis] = step_toward(coords[axis], goal, ax);
                let next = topology.node_at_coords(&coords).expect("in range");
                let link = topology
                    .find_link(*nodes.last().expect("non-empty"), next)
                    .expect("grid neighbours are linked");
                links.push(link);
                nodes.push(next);
            }
        }

        for &l in &links {
            loads.add(l, c.value.to_f64());
        }
        paths.push(CommodityPath { edge: c.edge, links, nodes });
    }

    Ok((paths, loads))
}

/// Historical 2-D spelling of [`route_dor`] — X-then-Y on meshes and tori.
/// Works on grids of any rank (it *is* the generic router).
///
/// # Errors
///
/// Same conditions as [`route_dor`].
///
/// # Panics
///
/// Panics if `mapping` is incomplete.
pub fn route_xy(
    problem: &MappingProblem,
    mapping: &Mapping,
) -> Result<(Vec<CommodityPath>, LinkLoads)> {
    route_dor(problem, mapping)
}

/// One dimension-ordered step from `from` toward `to` along `axis`; the
/// torus shortcut is taken when the axis wraps and it is strictly shorter
/// (ties toward increasing coordinate).
fn step_toward(from: usize, to: usize, axis: Axis) -> usize {
    debug_assert_ne!(from, to);
    let extent = axis.extent;
    let forward = (to + extent - from) % extent; // distance going +1 with wrap
    let backward = extent - forward;
    let go_forward = if axis.wraps() {
        forward <= backward // tie → increasing coordinate
    } else {
        to > from
    };
    if go_forward {
        (from + 1) % extent
    } else {
        (from + extent - 1) % extent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_graph::{CoreGraph, CoreId, Topology};

    /// Two parallel heavy flows between opposite mesh corners.
    fn crossing_problem() -> (MappingProblem, Mapping) {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        let c = g.add_core("c");
        let d = g.add_core("d");
        g.add_comm(a, b, 100.0).unwrap();
        g.add_comm(c, d, 100.0).unwrap();
        let t = Topology::mesh(2, 2, 1e9);
        let p = MappingProblem::new(g, t).unwrap();
        let mut m = Mapping::new(4);
        m.place(a, NodeId::new(0)); // (0,0)
        m.place(b, NodeId::new(3)); // (1,1)
        m.place(c, NodeId::new(1)); // (1,0)
        m.place(d, NodeId::new(2)); // (0,1)
        (p, m)
    }

    #[test]
    fn min_path_routes_are_minimal() {
        let (p, m) = crossing_problem();
        let (paths, _) = route_min_paths(&p, &m).unwrap();
        for path in &paths {
            let c = p.commodities(&m)[path.edge.index()];
            assert_eq!(path.hops(), p.topology().hop_distance(c.source, c.dest));
            assert_eq!(path.nodes.first(), Some(&c.source));
            assert_eq!(path.nodes.last(), Some(&c.dest));
        }
    }

    #[test]
    fn min_path_router_balances_crossing_flows() {
        // Two diagonal 100 MB/s flows on a 2x2 mesh: each has two minimal
        // paths; load balancing must keep every link at 100, never 200.
        let (p, m) = crossing_problem();
        let (_, loads) = route_min_paths(&p, &m).unwrap();
        assert_eq!(loads.max(), 100.0, "router failed to balance: {loads:?}");
    }

    #[test]
    fn loads_match_paths() {
        let (p, m) = crossing_problem();
        let (paths, loads) = route_min_paths(&p, &m).unwrap();
        let tables = RoutingTables::from_single_paths(&paths);
        let recomputed = tables.link_loads(p.topology(), &p.commodities(&m));
        for (id, _) in p.topology().links() {
            assert!((loads.get(id) - recomputed.get(id)).abs() < 1e-12);
        }
    }

    #[test]
    fn xy_routing_goes_x_first() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 10.0).unwrap();
        let t = Topology::mesh(3, 3, 1e9);
        let p = MappingProblem::new(g, t).unwrap();
        let mut m = Mapping::new(9);
        m.place(a, NodeId::new(0)); // (0,0)
        m.place(b, NodeId::new(8)); // (2,2)
        let (paths, _) = route_xy(&p, &m).unwrap();
        let coords: Vec<(usize, usize)> =
            paths[0].nodes.iter().map(|&n| p.topology().coords(n)).collect();
        assert_eq!(coords, vec![(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]);
    }

    #[test]
    fn xy_routing_on_torus_takes_wrap() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 10.0).unwrap();
        let t = Topology::torus(5, 5, 1e9);
        let p = MappingProblem::new(g, t).unwrap();
        let mut m = Mapping::new(25);
        m.place(a, NodeId::new(0)); // (0,0)
        m.place(b, NodeId::new(4)); // (4,0)
        let (paths, _) = route_xy(&p, &m).unwrap();
        assert_eq!(paths[0].hops(), 1, "should use the wrap link");
    }

    #[test]
    fn xy_requires_mesh() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 10.0).unwrap();
        let t = Topology::custom(
            2,
            [(NodeId::new(0), NodeId::new(1), 1e9), (NodeId::new(1), NodeId::new(0), 1e9)],
        )
        .unwrap();
        let p = MappingProblem::new(g, t).unwrap();
        let mut m = Mapping::new(2);
        m.place(a, NodeId::new(0));
        m.place(b, NodeId::new(1));
        assert_eq!(
            route_xy(&p, &m).unwrap_err(),
            MapError::GridRequired { found: "custom".into() }
        );
        // ...but the min-path router works on custom topologies.
        assert!(route_min_paths(&p, &m).is_ok());
    }

    #[test]
    fn dor_routing_resolves_axes_in_order_on_3d_grids() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 10.0).unwrap();
        let t = Topology::mesh_nd(&[3, 3, 2], 1e9).unwrap();
        let src = t.node_at_coords(&[0, 0, 0]).unwrap();
        let dst = t.node_at_coords(&[2, 1, 1]).unwrap();
        let p = MappingProblem::new(g, t).unwrap();
        let mut m = Mapping::new(18);
        m.place(a, src);
        m.place(b, dst);
        let (paths, _) = route_dor(&p, &m).unwrap();
        let coords: Vec<Vec<usize>> =
            paths[0].nodes.iter().map(|&n| p.topology().grid_coords(n).to_vec()).collect();
        assert_eq!(
            coords,
            vec![
                vec![0, 0, 0],
                vec![1, 0, 0],
                vec![2, 0, 0], // X resolved first...
                vec![2, 1, 0], // ...then Y...
                vec![2, 1, 1], // ...then Z.
            ]
        );
        assert_eq!(paths[0].hops(), p.topology().hop_distance(src, dst));
    }

    #[test]
    fn dor_routing_takes_wraps_per_axis_on_3d_tori() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 10.0).unwrap();
        let t = Topology::torus_nd(&[4, 4, 4], 1e9).unwrap();
        let src = t.node_at_coords(&[0, 0, 0]).unwrap();
        let dst = t.node_at_coords(&[3, 3, 3]).unwrap();
        let p = MappingProblem::new(g, t).unwrap();
        let mut m = Mapping::new(64);
        m.place(a, src);
        m.place(b, dst);
        let (paths, _) = route_dor(&p, &m).unwrap();
        assert_eq!(paths[0].hops(), 3, "every axis should use its wrap link");
    }

    #[test]
    fn xy_concentrates_load_more_than_min_path() {
        // Many flows from the left column to the right column: XY pushes
        // them all through the same horizontal rows deterministically; the
        // load-balanced router can only do better or equal.
        let mut g = CoreGraph::new();
        let cores: Vec<CoreId> = (0..6).map(|i| g.add_core(format!("c{i}"))).collect();
        g.add_comm(cores[0], cores[1], 100.0).unwrap();
        g.add_comm(cores[2], cores[3], 100.0).unwrap();
        g.add_comm(cores[4], cores[5], 100.0).unwrap();
        let t = Topology::mesh(3, 3, 1e9);
        let p = MappingProblem::new(g, t).unwrap();
        let mut m = Mapping::new(9);
        // sources on column 0, destinations all at (2,1): shared sink.
        m.place(cores[0], NodeId::new(0));
        m.place(cores[2], NodeId::new(3));
        m.place(cores[4], NodeId::new(6));
        m.place(cores[1], NodeId::new(5));
        m.place(cores[3], NodeId::new(4)); // decoy middle
        m.place(cores[5], NodeId::new(8));
        let (_, xy) = route_xy(&p, &m).unwrap();
        let (_, mp) = route_min_paths(&p, &m).unwrap();
        assert!(mp.max() <= xy.max() + 1e-9);
    }

    #[test]
    fn capacity_checks() {
        let (p, m) = crossing_problem();
        let (_, loads) = route_min_paths(&p, &m).unwrap();
        assert!(loads.within_capacity(p.topology()));
        assert_eq!(loads.violation(p.topology()), 0.0);

        // Rebuild with tiny capacities: violations appear.
        let (g, _) = p.into_parts();
        let tight = Topology::mesh(2, 2, 50.0);
        let p2 = MappingProblem::new(g, tight).unwrap();
        let (_, loads2) = route_min_paths(&p2, &m).unwrap();
        assert!(!loads2.within_capacity(p2.topology()));
        assert!(loads2.violation(p2.topology()) > 0.0);
    }

    #[test]
    fn routing_tables_report_path_counts() {
        let (p, m) = crossing_problem();
        let (paths, _) = route_min_paths(&p, &m).unwrap();
        let tables = RoutingTables::from_single_paths(&paths);
        assert_eq!(tables.commodity_count(), 2);
        assert_eq!(tables.max_paths_per_commodity(), 1);
        for (e, _) in p.cores().edges() {
            assert_eq!(tables.routes_of(e).len(), 1);
            assert_eq!(tables.routes_of(e)[0].fraction, 1.0);
        }
    }

    #[test]
    fn step_toward_mesh_and_torus() {
        let mesh5 = Axis { extent: 5, wrap: false };
        let torus5 = Axis { extent: 5, wrap: true };
        assert_eq!(step_toward(0, 3, mesh5), 1);
        assert_eq!(step_toward(3, 0, mesh5), 2);
        // Torus: 0 -> 4 wraps backward (distance 1 vs 4).
        assert_eq!(step_toward(0, 4, torus5), 4);
        // Equidistant (0 -> 2 in extent 4): tie goes forward.
        assert_eq!(step_toward(0, 2, Axis { extent: 4, wrap: true }), 1);
        // Declared wrap on a size-2 axis is not realized: steps stay mesh-like.
        assert_eq!(step_toward(0, 1, Axis { extent: 2, wrap: true }), 1);
    }

    #[test]
    fn link_loads_arithmetic() {
        let mut loads = LinkLoads::zeros(3);
        loads.add(LinkId::new(0), 10.0);
        loads.add(LinkId::new(0), 5.0);
        loads.add(LinkId::new(2), 7.0);
        assert_eq!(loads.get(LinkId::new(0)), 15.0);
        assert_eq!(loads.max(), 15.0);
        assert_eq!(loads.total(), 22.0);
        assert_eq!(loads.as_slice(), &[15.0, 0.0, 7.0]);
    }
}

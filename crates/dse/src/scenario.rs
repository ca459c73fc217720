//! The scenario space: `{application × topology × mapper × routing × seed}`
//! as first-class data, plus the builder that expands cross products into a
//! concrete, ordered [`ScenarioSet`].

use nmap::search::{anneal, tabu_search, SaOptions, TabuOptions};
use nmap::{
    initialize, map_single_path_with, map_with_splitting, EvalContext, Mapping, MappingProblem,
    SinglePathOptions, SplitOptions,
};
use noc_apps::App;
use noc_baselines::{gmap, pbb_checked, pmap, PbbOptions};
use noc_graph::{
    dims_label, CoreGraph, GraphError, Grid, RandomGraphConfig, RandomGraphFamily, Topology,
    TopologyKind,
};
use noc_sim::{LoopKind, SimConfig};
use noc_units::Mbps;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::spec;

/// Which application core graph a scenario maps.
#[derive(Debug, Clone, PartialEq)]
pub enum AppSpec {
    /// One of the six bundled video applications (Section 7.1).
    Bundled(App),
    /// The six-core DSP filter of Section 7.2.
    DspFilter,
    /// A seeded random graph; the generator seed is the scenario's seed.
    Random(RandomGraphConfig),
}

impl AppSpec {
    /// Builds the core graph. `seed` drives [`AppSpec::Random`] generation
    /// and is ignored by the fixed applications.
    pub fn core_graph(&self, seed: u64) -> CoreGraph {
        match self {
            AppSpec::Bundled(app) => app.core_graph(),
            AppSpec::DspFilter => noc_apps::dsp_filter(),
            AppSpec::Random(config) => config.generate(seed),
        }
    }

    /// Short family name: `VOPD`, `DSP`, `rand25`, ...
    pub fn family(&self) -> String {
        match self {
            AppSpec::Bundled(app) => app.name().to_string(),
            AppSpec::DspFilter => "DSP".to_string(),
            AppSpec::Random(config) => format!("rand{}", config.cores),
        }
    }
}

/// Which NoC fabric a scenario maps onto. `Fit*` variants resolve to the
/// smallest square-ish (cube-ish for the 3-D variants) grid holding the
/// application when the scenario runs. Fixed grids carry their per-axis
/// extents, so `dims: vec![4, 4]` is the paper's 2-D mesh and
/// `vec![4, 4, 2]` a 3-D one — the topology-dimension axis of a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologySpec {
    /// Smallest fitting 2-D mesh ([`Topology::fit_mesh_dims`]).
    FitMesh,
    /// Smallest fitting 2-D torus (same dimensions as
    /// [`TopologySpec::FitMesh`]).
    FitTorus,
    /// Smallest fitting 3-D mesh ([`Grid::fit_dims`] at rank 3).
    FitMesh3d,
    /// Smallest fitting 3-D torus (same dimensions as
    /// [`TopologySpec::FitMesh3d`]).
    FitTorus3d,
    /// A fixed mesh with the given per-axis extents (rank ≥ 2).
    Mesh {
        /// Per-axis extents, axis 0 (width) first.
        dims: Vec<usize>,
    },
    /// A fixed torus with the given per-axis extents (rank ≥ 2).
    Torus {
        /// Per-axis extents, axis 0 (width) first.
        dims: Vec<usize>,
    },
}

impl TopologySpec {
    /// Builds the topology for an application with `cores` cores and
    /// uniform link `capacity` (MB/s).
    ///
    /// # Errors
    ///
    /// The grid constructor's [`GraphError`] on a zero extent, an invalid
    /// capacity or an oversized grid. The spec parser and the builder
    /// reject those up front; a hand-built scenario can still carry them.
    pub fn build(&self, cores: usize, capacity: Mbps) -> Result<Topology, GraphError> {
        let capacity = capacity.to_f64();
        match self {
            TopologySpec::FitMesh => {
                let (w, h) = Topology::fit_mesh_dims(cores);
                Topology::mesh_nd(&[w, h], capacity)
            }
            TopologySpec::FitTorus => {
                let (w, h) = Topology::fit_mesh_dims(cores);
                Topology::torus_nd(&[w, h], capacity)
            }
            TopologySpec::FitMesh3d => Topology::mesh_nd(&Grid::fit_dims(cores, 3), capacity),
            TopologySpec::FitTorus3d => Topology::torus_nd(&Grid::fit_dims(cores, 3), capacity),
            TopologySpec::Mesh { dims } => Topology::mesh_nd(dims, capacity),
            TopologySpec::Torus { dims } => Topology::torus_nd(dims, capacity),
        }
    }

    /// Stable display name, the `.dse` spelling: a fitted topology's
    /// keyword from [`spec::FITTED_TOPOLOGIES`], or `mesh 4x4x2`,
    /// `torus 3x3`, ... for a fixed grid.
    pub fn name(&self) -> String {
        match self {
            TopologySpec::Mesh { dims } => format!("mesh {}", dims_label(dims)),
            TopologySpec::Torus { dims } => format!("torus {}", dims_label(dims)),
            fitted => spec::keyword_of(&spec::FITTED_TOPOLOGIES, fitted)
                .expect("every fitted topology has a keyword")
                .to_string(),
        }
    }
}

/// Resolved display label of a built topology, e.g. `mesh4x4` /
/// `torus3x3` / `mesh4x4x2`.
pub fn topology_label(topology: &Topology) -> String {
    match topology.kind() {
        TopologyKind::Grid(grid) => format!("{}{}", grid.kind_keyword(), grid.dims_label()),
        TopologyKind::Custom => format!("custom{}", topology.node_count()),
    }
}

/// Which mapping algorithm places the cores.
///
/// [`MapperSpec::mapper`] binds a spec to a seed, and its
/// [`SeededMapper::place`] runs the algorithm: one `match` over the
/// variants, which the engine and `nmap_cli` both call. The `.dse`
/// spelling comes from the mapper catalogue ([`spec::mapper_catalogue`]),
/// so adding a mapper means one algorithm, one variant here, one arm in
/// that `match` and one catalogue row.
#[derive(Debug, Clone, PartialEq)]
pub enum MapperSpec {
    /// NMAP's greedy constructive placement only (`initialize()`), no
    /// improvement loop — the cheapest baseline in the family.
    NmapInit,
    /// NMAP single-minimum-path mapping (Section 5).
    Nmap(SinglePathOptions),
    /// NMAP with split-traffic routing (Section 6): MCF-driven placement
    /// over quadrant (NMAPTM) or all (NMAPTA) paths.
    NmapSplit(SplitOptions),
    /// The PMAP two-phase baseline.
    Pmap,
    /// The GMAP greedy baseline.
    Gmap,
    /// Truncated branch-and-bound (PBB).
    Pbb(PbbOptions),
    /// Seeded simulated annealing on the swap-delta kernel; the random
    /// stream derives from the scenario seed.
    Sa(SaOptions),
    /// Deterministic tabu-tenure pairwise search on the swap-delta kernel.
    Tabu(TabuOptions),
}

impl MapperSpec {
    /// Binds this spec to `seed`, which feeds the stochastic mappers (the
    /// engine passes the scenario seed, keeping sweep records a pure
    /// function of the scenario); deterministic mappers ignore it.
    pub fn mapper(&self, seed: u64) -> SeededMapper<'_> {
        SeededMapper { spec: self, seed }
    }

    /// Stable display name, the `.dse` spelling: the catalogue keyword
    /// for the named configurations, the family's keyword plus a `[..]`
    /// parameter suffix otherwise ([`spec::mapper_catalogue`]). Every form
    /// parses back to an equal spec ([`crate::spec`] round-trip property,
    /// tested).
    pub fn name(&self) -> String {
        spec::mapper_name(self)
    }

    /// True when the mapper's `place()` never reads link capacities, so
    /// its placement is identical at every bandwidth point: the purely
    /// constructive algorithms (`nmap-init`'s `initialize()`, PMAP,
    /// GMAP) order cores by communication demand alone. The search
    /// mappers all score candidates with a capacity-dependent
    /// feasibility term (NMAP's routed bandwidth checks, PBB's pruning,
    /// sa/tabu's evaluation) and must be treated as capacity-sensitive.
    ///
    /// The stage cache keys on this ([`crate::cache::map_key`]): a
    /// capacity-invariant mapper's map stage is shared across an entire
    /// bandwidth sweep.
    pub fn capacity_invariant(&self) -> bool {
        matches!(self, MapperSpec::NmapInit | MapperSpec::Pmap | MapperSpec::Gmap)
    }
}

/// A [`MapperSpec`] bound to the seed its stochastic mappers draw from
/// ([`MapperSpec::mapper`]).
#[derive(Debug, Clone, Copy)]
pub struct SeededMapper<'a> {
    spec: &'a MapperSpec,
    seed: u64,
}

impl SeededMapper<'_> {
    /// Runs the algorithm on `ctx`'s problem: the placement and the
    /// mapper's work measure (placements scored by the swap searches and
    /// NMAP-split, whose LP work goes to `ctx`'s probe, PBB expansions, 0
    /// for the constructive mappers). The one place that runs a mapper.
    ///
    /// # Errors
    ///
    /// [`nmap::MapError::InvalidOptions`] when the options fail their
    /// `check()` (or PBB's topology is too large); otherwise unroutable
    /// commodities or an LP breakdown.
    pub fn place(self, ctx: &mut EvalContext<'_>) -> nmap::Result<(Mapping, usize)> {
        let problem = ctx.problem();
        match self.spec {
            MapperSpec::NmapInit => Ok((initialize(problem), 0)),
            MapperSpec::Nmap(opts) => {
                map_single_path_with(ctx, opts).map(|o| (o.mapping, o.evaluations))
            }
            MapperSpec::NmapSplit(opts) => map_with_splitting(problem, opts)
                .inspect(|o| o.stats.record(ctx.probe()))
                .map(|o| (o.mapping, o.evaluations)),
            MapperSpec::Pmap => Ok((pmap(problem), 0)),
            MapperSpec::Gmap => Ok((gmap(problem), 0)),
            MapperSpec::Pbb(opts) => pbb_checked(ctx, opts),
            MapperSpec::Sa(opts) => anneal(ctx, opts, self.seed),
            MapperSpec::Tabu(opts) => tabu_search(ctx, opts),
        }
    }
}

/// Configuration of the optional wormhole-simulation stage (the paper's
/// Section 7.2 validation flow): after map → route, the scenario's routing
/// tables are loaded into [`noc_sim::Simulator`] as source routes and the
/// bursty traffic generators replay the core graph's average rates at the
/// scenario's link capacity.
///
/// At the [`ScenarioSetBuilder`] level, `bandwidths_mbps` lists the
/// link-bandwidth sweep points (Figure 5(c)'s x-axis): each point expands
/// into its own scenario whose `capacity` *is* the bandwidth. An empty
/// list simulates at the builder's uniform capacity. Expanded
/// [`Scenario`]s always carry an empty list — the point has been resolved
/// into `Scenario::capacity`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateSpec {
    /// Link-bandwidth sweep points; empty → the builder capacity.
    pub bandwidths_mbps: Vec<Mbps>,
    /// Warm-up cycles excluded from statistics.
    pub warmup_cycles: u64,
    /// Measured cycles after warm-up (must be non-zero).
    pub measure_cycles: u64,
    /// Drain window after measurement.
    pub drain_cycles: u64,
    /// Mean burst length of the on/off sources, in packets.
    pub burst_packets: u32,
    /// Peak-to-mean ratio of the on/off sources.
    // lint: allow(f64-api) — dimensionless peak-to-mean ratio.
    pub burst_intensity: f64,
    /// Simulation seed component; the per-scenario traffic seed mixes this
    /// with the scenario seed (see [`SimulateSpec::sim_seed`]).
    pub seed: u64,
    /// Which simulator main loop the engine runs. Both loop kinds produce
    /// bit-identical reports (pinned by the sim crate's identity suites);
    /// the oracle suites set the full-scan loop here from Rust to
    /// cross-check the default active-set loop end to end. It is no
    /// `.dse` field, so a spec's text never carries it.
    pub loop_kind: LoopKind,
}

impl Default for SimulateSpec {
    /// Windows and burstiness follow [`SimConfig::default`] (the paper's
    /// DSP design parameters); `seed` 0.
    fn default() -> Self {
        let sim = SimConfig::default();
        Self {
            bandwidths_mbps: Vec::new(),
            warmup_cycles: sim.warmup_cycles,
            measure_cycles: sim.measure_cycles,
            drain_cycles: sim.drain_cycles,
            burst_packets: sim.burst_packets,
            burst_intensity: sim.burst_intensity,
            seed: 0,
            loop_kind: LoopKind::default(),
        }
    }
}

/// SplitMix64 finalizer — decorrelates the combined (spec, scenario) seed
/// so neighbouring scenario seeds drive unrelated traffic processes.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimulateSpec {
    /// Checks the spec, returning the first violation as a message: the
    /// bandwidth points must be positive and the materialized
    /// [`SimConfig`] must pass [`SimConfig::check`] (the single source of
    /// truth for window/burst constraints — no duplicated predicates to
    /// drift). The builder and spec parser reject invalid specs up front;
    /// the engine calls this too so a hand-built [`Scenario`] (all fields
    /// are public) becomes an error *record* rather than a panic inside a
    /// pool worker.
    pub fn validate(&self) -> Result<(), String> {
        for &bw in &self.bandwidths_mbps {
            if bw.is_zero() {
                return Err(format!("bandwidth points must be positive, got {bw}"));
            }
        }
        self.sim_config(0).check()
    }

    /// The traffic seed used for a scenario: a pure function of this
    /// spec's `seed` and the scenario's seed, so sim results depend only
    /// on the scenario — never on engine worker identity.
    pub fn sim_seed(&self, scenario_seed: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(scenario_seed))
    }

    /// Materializes the [`SimConfig`] for a scenario. Flit/packet/buffer
    /// and router-pipeline parameters follow [`SimConfig::default`] (the
    /// paper's Table 3 DSP design).
    pub fn sim_config(&self, scenario_seed: u64) -> SimConfig {
        SimConfig {
            warmup_cycles: self.warmup_cycles,
            measure_cycles: self.measure_cycles,
            drain_cycles: self.drain_cycles,
            burst_packets: self.burst_packets,
            burst_intensity: self.burst_intensity,
            seed: self.sim_seed(scenario_seed),
            ..SimConfig::default()
        }
    }
}

/// How the placed traffic is routed and checked against link capacities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingSpec {
    /// Load-balanced single minimum paths (the paper's `shortestpath()`).
    MinPath,
    /// Deterministic dimension-ordered XY routing.
    Xy,
    /// Split traffic over quadrant paths via the MCF LP (NMAPTM regime).
    McfQuadrant,
    /// Split traffic over all paths via the MCF LP (NMAPTA regime).
    McfAllPaths,
}

impl RoutingSpec {
    /// Stable display name, the `.dse` keyword from [`spec::ROUTINGS`].
    pub fn name(&self) -> &'static str {
        spec::keyword_of(&spec::ROUTINGS, self).expect("every routing has a keyword")
    }
}

/// One fully specified experiment: build the app, build the fabric, run
/// the mapper, route the traffic, measure.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Application label shown in reports (e.g. `VOPD`, `rand25#2`).
    pub label: String,
    /// The application.
    pub app: AppSpec,
    /// Per-scenario seed: drives random graph generation; recorded always.
    pub seed: u64,
    /// The fabric.
    pub topology: TopologySpec,
    /// Uniform link capacity.
    pub capacity: Mbps,
    /// The mapping algorithm.
    pub mapper: MapperSpec,
    /// The routing regime evaluating the placement.
    pub routing: RoutingSpec,
    /// Optional wormhole-simulation stage run after map → route. The
    /// simulator uses the scenario's `capacity` as the link bandwidth;
    /// `bandwidths_mbps` is empty here (resolved at set-build time).
    pub simulate: Option<SimulateSpec>,
}

impl Scenario {
    /// Materializes the application graph and the fabric it targets —
    /// the parts of [`Scenario::problem`], available even when the pair
    /// fails validation (the engine reports core/fabric labels for
    /// failed scenarios too).
    ///
    /// # Panics
    ///
    /// Panics when the topology spec is invalid; [`Scenario::problem`]
    /// and the engine report that as an error instead.
    pub fn parts(&self) -> (CoreGraph, Topology) {
        let (graph, topology) = self.try_parts();
        (graph, topology.unwrap_or_else(|e| panic!("invalid topology spec: {e}")))
    }

    /// The application graph, and the fabric it targets or the error
    /// [`TopologySpec::build`] reports.
    pub(crate) fn try_parts(&self) -> (CoreGraph, Result<Topology, GraphError>) {
        let graph = self.app.core_graph(self.seed);
        let topology = self.topology.build(graph.core_count(), self.capacity);
        (graph, topology)
    }

    /// Materializes the mapping problem (graph + topology).
    ///
    /// # Errors
    ///
    /// [`nmap::MapError::Topology`] when the topology spec is invalid,
    /// and [`nmap::MapError`]'s fit errors when the application does not
    /// fit the fabric.
    pub fn problem(&self) -> nmap::Result<MappingProblem> {
        let (graph, topology) = self.try_parts();
        MappingProblem::new(graph, topology?)
    }
}

/// An ordered list of scenarios. The order is the report order and the
/// deterministic-merge order of the parallel engine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioSet {
    scenarios: Vec<Scenario>,
}

impl ScenarioSet {
    /// Starts a builder.
    pub fn builder() -> ScenarioSetBuilder {
        ScenarioSetBuilder::default()
    }

    /// Wraps an explicit scenario list — the seam for hand-built sweeps
    /// (axes the builder cannot express, e.g. a routing-only capacity
    /// sweep) and test harnesses. The list order is the sweep order.
    pub fn from_scenarios(scenarios: Vec<Scenario>) -> Self {
        Self { scenarios }
    }

    /// The scenarios, in sweep order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True when the set holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

/// One application entry of the builder: the spec plus an optional pinned
/// seed (entries without one get a ChaCha-derived seed at build time).
#[derive(Debug, Clone, PartialEq)]
struct AppEntry {
    label: String,
    spec: AppSpec,
    pinned_seed: Option<u64>,
}

/// Builder assembling the cross product
/// `apps × topologies × mappers × routings` into a [`ScenarioSet`].
///
/// Axis defaults when left empty: topology [`TopologySpec::FitMesh`],
/// mapper `nmap` with [`SinglePathOptions::default`], routing
/// [`RoutingSpec::MinPath`]. Per-scenario seeds are derived from
/// [`ScenarioSetBuilder::root_seed`] through a `ChaCha` stream in app
/// order at build time — never from engine worker identity — so a sweep's
/// scenario list is a pure function of the builder calls.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSetBuilder {
    capacity: Mbps,
    root_seed: u64,
    apps: Vec<AppEntry>,
    topologies: Vec<TopologySpec>,
    mappers: Vec<MapperSpec>,
    routings: Vec<RoutingSpec>,
    simulate: Option<SimulateSpec>,
}

impl Default for ScenarioSetBuilder {
    fn default() -> Self {
        Self {
            capacity: Mbps::raw(1_000.0),
            root_seed: 0,
            apps: Vec::new(),
            topologies: Vec::new(),
            mappers: Vec::new(),
            routings: Vec::new(),
            simulate: None,
        }
    }
}

impl ScenarioSetBuilder {
    /// Sets the uniform link capacity (MB/s) of every scenario.
    // lint: allow(f64-api) — checked boundary intake: validated via
    // `Mbps::positive` below.
    pub fn capacity(mut self, capacity: f64) -> Self {
        self.capacity = Mbps::positive(capacity).expect("capacity must be positive");
        self
    }

    /// Sets the root seed from which unpinned per-scenario seeds derive.
    pub fn root_seed(mut self, seed: u64) -> Self {
        self.root_seed = seed;
        self
    }

    /// Adds one bundled application.
    pub fn app(mut self, app: App) -> Self {
        self.apps.push(AppEntry {
            label: app.name().to_string(),
            spec: AppSpec::Bundled(app),
            pinned_seed: None,
        });
        self
    }

    /// Adds all six bundled video applications, in paper order.
    pub fn all_apps(mut self) -> Self {
        for app in App::all() {
            self = self.app(app);
        }
        self
    }

    /// Adds the DSP filter application.
    pub fn dsp(mut self) -> Self {
        self.apps.push(AppEntry {
            label: "DSP".to_string(),
            spec: AppSpec::DspFilter,
            pinned_seed: None,
        });
        self
    }

    /// Adds `instances` random graphs from `config`, with seeds derived
    /// from the root seed at build time.
    pub fn random(mut self, config: RandomGraphConfig, instances: u64) -> Self {
        for i in 0..instances {
            self.apps.push(AppEntry {
                label: format!("rand{}#{i}", config.cores),
                spec: AppSpec::Random(config.clone()),
                pinned_seed: None,
            });
        }
        self
    }

    /// Adds a [`RandomGraphFamily`]-compatible sweep: for every size in
    /// `sizes`, `instances` graphs whose seeds are pinned to
    /// [`RandomGraphFamily::instance_seed`] — the exact graphs the Table 2
    /// harness generates.
    pub fn random_family(
        mut self,
        base: &RandomGraphConfig,
        sizes: &[usize],
        instances: u64,
    ) -> Self {
        for &cores in sizes {
            for instance in 0..instances {
                self.apps.push(AppEntry {
                    label: format!("rand{cores}#{instance}"),
                    spec: AppSpec::Random(RandomGraphConfig { cores, ..base.clone() }),
                    pinned_seed: Some(RandomGraphFamily::instance_seed(cores, instance)),
                });
            }
        }
        self
    }

    /// Adds one topology to the sweep axis.
    pub fn topology(mut self, topology: TopologySpec) -> Self {
        self.topologies.push(topology);
        self
    }

    /// Adds one mapper to the sweep axis.
    pub fn mapper(mut self, mapper: MapperSpec) -> Self {
        self.mappers.push(mapper);
        self
    }

    /// Adds one routing regime to the sweep axis.
    pub fn routing(mut self, routing: RoutingSpec) -> Self {
        self.routings.push(routing);
        self
    }

    /// Enables the wormhole-simulation stage for every scenario. When
    /// `spec.bandwidths_mbps` is non-empty, each bandwidth point becomes
    /// its own scenario (the innermost sweep axis) whose link capacity is
    /// that bandwidth; otherwise scenarios simulate at the builder's
    /// uniform capacity.
    ///
    /// # Panics
    ///
    /// Panics if a bandwidth point is non-positive/non-finite, the
    /// measurement window is empty, or the burst parameters are invalid
    /// (packets 0 or intensity < 1) — the [`SimulateSpec::validate`]
    /// constraints, checked here so a bad spec fails fast at the builder.
    pub fn simulate(mut self, spec: SimulateSpec) -> Self {
        if let Err(message) = spec.validate() {
            panic!("simulate: {message}");
        }
        self.simulate = Some(spec);
        self
    }

    /// Expands the cross product into an ordered [`ScenarioSet`].
    ///
    /// Scenario order is `apps` (insertion order) × `topologies` ×
    /// `mappers` × `routings` (× simulate bandwidth points, innermost).
    /// Every scenario of one app entry shares that entry's seed, so
    /// mappers and routings are compared on identical graph instances.
    pub fn build(self) -> ScenarioSet {
        let topologies =
            if self.topologies.is_empty() { vec![TopologySpec::FitMesh] } else { self.topologies };
        let mappers = if self.mappers.is_empty() {
            vec![MapperSpec::Nmap(SinglePathOptions::default())]
        } else {
            self.mappers
        };
        let routings =
            if self.routings.is_empty() { vec![RoutingSpec::MinPath] } else { self.routings };

        // The simulate stage expands into (capacity, per-scenario spec)
        // points: one per bandwidth, or the builder capacity when no sweep
        // points are named. Expanded specs carry an empty bandwidth list —
        // the point is resolved into the scenario's capacity.
        let sim_points: Vec<(Mbps, Option<SimulateSpec>)> = match &self.simulate {
            None => vec![(self.capacity, None)],
            Some(spec) => {
                let resolved = SimulateSpec { bandwidths_mbps: Vec::new(), ..spec.clone() };
                if spec.bandwidths_mbps.is_empty() {
                    vec![(self.capacity, Some(resolved))]
                } else {
                    spec.bandwidths_mbps.iter().map(|&bw| (bw, Some(resolved.clone()))).collect()
                }
            }
        };

        // Seeds are a pure function of (root_seed, app order): one ChaCha
        // draw per unpinned entry, in entry order.
        let mut rng = ChaCha8Rng::seed_from_u64(self.root_seed);
        let mut scenarios = Vec::new();
        for entry in &self.apps {
            let seed = match entry.pinned_seed {
                Some(s) => s,
                None => rng.next_u64(),
            };
            for topology in &topologies {
                for mapper in &mappers {
                    for routing in &routings {
                        for (capacity, simulate) in &sim_points {
                            scenarios.push(Scenario {
                                label: entry.label.clone(),
                                app: entry.spec.clone(),
                                seed,
                                topology: topology.clone(),
                                capacity: *capacity,
                                mapper: mapper.clone(),
                                routing: *routing,
                                simulate: simulate.clone(),
                            });
                        }
                    }
                }
            }
        }
        ScenarioSet { scenarios }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_units::mbps;

    #[test]
    fn cross_product_order_is_apps_topos_mappers_routings() {
        let set = ScenarioSet::builder()
            .app(App::Pip)
            .app(App::Vopd)
            .topology(TopologySpec::FitMesh)
            .topology(TopologySpec::FitTorus)
            .mapper(MapperSpec::Pmap)
            .routing(RoutingSpec::MinPath)
            .routing(RoutingSpec::Xy)
            .build();
        assert_eq!(set.len(), 8); // 2 apps x 2 topologies x 1 mapper x 2 routings
        let labels: Vec<_> = set
            .scenarios()
            .iter()
            .map(|s| (s.label.as_str(), s.topology.clone(), s.routing))
            .collect();
        assert_eq!(labels[0], ("PIP", TopologySpec::FitMesh, RoutingSpec::MinPath));
        assert_eq!(labels[1], ("PIP", TopologySpec::FitMesh, RoutingSpec::Xy));
        assert_eq!(labels[2], ("PIP", TopologySpec::FitTorus, RoutingSpec::MinPath));
        assert_eq!(labels[4], ("VOPD", TopologySpec::FitMesh, RoutingSpec::MinPath));
    }

    #[test]
    fn axis_defaults_fill_in() {
        let set = ScenarioSet::builder().app(App::Pip).build();
        assert_eq!(set.len(), 1);
        let s = &set.scenarios()[0];
        assert_eq!(s.topology, TopologySpec::FitMesh);
        assert_eq!(s.mapper, MapperSpec::Nmap(SinglePathOptions::default()));
        assert_eq!(s.routing, RoutingSpec::MinPath);
        assert_eq!(s.capacity, mbps(1_000.0));
    }

    #[test]
    fn derived_seeds_are_stable_and_shared_across_axes() {
        let build = || {
            ScenarioSet::builder()
                .root_seed(7)
                .random(RandomGraphConfig::default(), 2)
                .mapper(MapperSpec::Pmap)
                .mapper(MapperSpec::Gmap)
                .build()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same builder calls must give the same set");
        let s = a.scenarios();
        assert_eq!(s.len(), 4);
        // Both mappers of one instance share the seed; instances differ.
        assert_eq!(s[0].seed, s[1].seed);
        assert_eq!(s[2].seed, s[3].seed);
        assert_ne!(s[0].seed, s[2].seed);
        // A different root seed moves every derived seed.
        let c = ScenarioSet::builder()
            .root_seed(8)
            .random(RandomGraphConfig::default(), 2)
            .mapper(MapperSpec::Pmap)
            .mapper(MapperSpec::Gmap)
            .build();
        assert_ne!(c.scenarios()[0].seed, s[0].seed);
    }

    #[test]
    fn family_seeds_match_random_graph_family() {
        let base = RandomGraphConfig::default();
        let set = ScenarioSet::builder().random_family(&base, &[25, 35], 2).build();
        assert_eq!(set.len(), 4);
        let family = RandomGraphFamily::new(base);
        let s = &set.scenarios()[3]; // cores 35, instance 1
        assert_eq!(s.label, "rand35#1");
        assert_eq!(s.app.core_graph(s.seed), family.graph(35, 1));
    }

    #[test]
    fn scenario_problem_respects_fit_and_fixed_topologies() {
        let fit = Scenario {
            label: "VOPD".into(),
            app: AppSpec::Bundled(App::Vopd),
            seed: 0,
            topology: TopologySpec::FitMesh,
            capacity: mbps(500.0),
            mapper: MapperSpec::Pmap,
            routing: RoutingSpec::MinPath,
            simulate: None,
        };
        let p = fit.problem().unwrap();
        assert_eq!(p.topology().node_count(), 16);
        assert_eq!(topology_label(p.topology()), "mesh4x4");

        let tight = Scenario { topology: TopologySpec::Mesh { dims: vec![2, 2] }, ..fit };
        assert!(tight.problem().is_err(), "16 cores cannot fit 4 nodes");
    }

    #[test]
    fn three_d_topology_specs_build_and_label() {
        let base = Scenario {
            label: "VOPD".into(),
            app: AppSpec::Bundled(App::Vopd),
            seed: 0,
            topology: TopologySpec::Mesh { dims: vec![4, 4, 2] },
            capacity: mbps(500.0),
            mapper: MapperSpec::Pmap,
            routing: RoutingSpec::MinPath,
            simulate: None,
        };
        let p = base.problem().unwrap();
        assert_eq!(p.topology().node_count(), 32);
        assert_eq!(topology_label(p.topology()), "mesh4x4x2");

        // VOPD has 16 cores: the fitted 3-D mesh is the 3x3x2 block.
        let fit3d = Scenario { topology: TopologySpec::FitMesh3d, ..base.clone() };
        let p = fit3d.problem().unwrap();
        assert_eq!(p.topology().node_count(), 18);
        assert_eq!(topology_label(p.topology()), "mesh3x3x2");

        let torus3d = Scenario { topology: TopologySpec::FitTorus3d, ..base };
        assert_eq!(topology_label(torus3d.problem().unwrap().topology()), "torus3x3x2");

        // Spec-keyword names (the `.dse` spellings).
        assert_eq!(TopologySpec::FitMesh3d.name(), "fit3d");
        assert_eq!(TopologySpec::FitTorus3d.name(), "fit3d-torus");
        assert_eq!(TopologySpec::Torus { dims: vec![4, 4, 2] }.name(), "torus 4x4x2");
    }

    #[test]
    fn simulate_bandwidths_expand_as_innermost_axis() {
        let set = ScenarioSet::builder()
            .app(App::Pip)
            .routing(RoutingSpec::MinPath)
            .routing(RoutingSpec::Xy)
            .simulate(SimulateSpec {
                bandwidths_mbps: vec![mbps(1_100.0), mbps(1_400.0)],
                ..Default::default()
            })
            .build();
        assert_eq!(set.len(), 4); // 1 app x 2 routings x 2 bandwidths
        let points: Vec<_> = set.scenarios().iter().map(|s| (s.routing, s.capacity)).collect();
        assert_eq!(
            points,
            vec![
                (RoutingSpec::MinPath, mbps(1_100.0)),
                (RoutingSpec::MinPath, mbps(1_400.0)),
                (RoutingSpec::Xy, mbps(1_100.0)),
                (RoutingSpec::Xy, mbps(1_400.0)),
            ]
        );
        for s in set.scenarios() {
            let spec = s.simulate.as_ref().expect("simulate enabled");
            assert!(spec.bandwidths_mbps.is_empty(), "points resolve into capacity");
        }
    }

    #[test]
    fn simulate_without_points_uses_builder_capacity() {
        let set = ScenarioSet::builder()
            .capacity(750.0)
            .app(App::Pip)
            .simulate(SimulateSpec::default())
            .build();
        assert_eq!(set.len(), 1);
        let s = &set.scenarios()[0];
        assert_eq!(s.capacity, mbps(750.0));
        assert!(s.simulate.is_some());
    }

    #[test]
    fn sim_seed_is_a_pure_function_of_spec_and_scenario_seeds() {
        let spec = SimulateSpec::default();
        assert_eq!(spec.sim_seed(7), spec.sim_seed(7));
        assert_ne!(spec.sim_seed(7), spec.sim_seed(8));
        let other = SimulateSpec { seed: 1, ..Default::default() };
        assert_ne!(other.sim_seed(7), spec.sim_seed(7));
        assert_eq!(spec.sim_config(7).seed, spec.sim_seed(7));
    }

    #[test]
    #[should_panic(expected = "bandwidth points must be positive")]
    fn simulate_rejects_bad_bandwidths() {
        let _ = ScenarioSet::builder()
            .app(App::Pip)
            .simulate(SimulateSpec { bandwidths_mbps: vec![Mbps::ZERO], ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "burst length must be non-zero")]
    fn simulate_rejects_zero_burst_packets() {
        // Fail fast at the builder — not from inside a pool worker, which
        // would abort the sweep instead of producing records.
        let _ = ScenarioSet::builder()
            .app(App::Pip)
            .simulate(SimulateSpec { burst_packets: 0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "burst intensity must be >= 1")]
    fn simulate_rejects_sub_one_burst_intensity() {
        let _ = ScenarioSet::builder()
            .app(App::Pip)
            .simulate(SimulateSpec { burst_intensity: 0.5, ..Default::default() });
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(MapperSpec::Nmap(SinglePathOptions::default()).name(), "nmap");
        assert_eq!(MapperSpec::Nmap(SinglePathOptions::paper_exact()).name(), "nmap-paper");
        assert_eq!(
            MapperSpec::Nmap(SinglePathOptions { passes: 4, restarts: 2 }).name(),
            "nmap[p4r2]"
        );
        assert_eq!(MapperSpec::NmapInit.name(), "nmap-init");
        assert_eq!(
            MapperSpec::NmapSplit(SplitOptions { scope: nmap::PathScope::Quadrant, passes: 1 })
                .name(),
            "nmap-split-quadrant"
        );
        assert_eq!(MapperSpec::Pbb(PbbOptions::default()).name(), "pbb");
        assert_eq!(MapperSpec::Sa(SaOptions::default()).name(), "sa");
        assert_eq!(
            MapperSpec::Sa(SaOptions { moves: 100, initial_temp: 0.5, cooling: 0.75 }).name(),
            "sa[m100t0.5c0.75]"
        );
        assert_eq!(MapperSpec::Tabu(TabuOptions::default()).name(), "tabu");
        assert_eq!(
            MapperSpec::Tabu(TabuOptions { iterations: 12, tenure: 3 }).name(),
            "tabu[i12t3]"
        );
        assert_eq!(RoutingSpec::McfAllPaths.name(), "mcf-all");
        assert_eq!(AppSpec::Random(RandomGraphConfig::default()).family(), "rand25");
    }

    #[test]
    fn mapper_materialization_threads_the_seed_into_sa_only() {
        // SA is the one stochastic mapper: its placement must differ
        // by seed (different anneal streams), while the deterministic
        // mappers ignore the seed entirely. 12 cores on a 4x4 mesh leave
        // empty nodes, so different proposal streams visit different
        // empty-pair skips — outcomes (at least their evaluation counts)
        // genuinely depend on the seed.
        let p = Scenario {
            label: "rand12".into(),
            app: AppSpec::Random(RandomGraphConfig { cores: 12, ..Default::default() }),
            seed: 5,
            topology: TopologySpec::Mesh { dims: vec![4, 4] },
            capacity: mbps(2_000.0),
            mapper: MapperSpec::Sa(SaOptions::default()),
            routing: RoutingSpec::MinPath,
            simulate: None,
        }
        .problem()
        .unwrap();
        let spec = MapperSpec::Sa(SaOptions::default());
        let run = |seed: u64| spec.mapper(seed).place(&mut EvalContext::new(&p)).unwrap();
        assert_eq!(run(3), run(3), "same seed, same outcome");
        let baseline = run(0);
        assert!(
            (1..=8).any(|seed| run(seed) != baseline),
            "every seed produced the same SA outcome — the scenario seed is not reaching the \
mapper's random stream"
        );
        let deterministic = MapperSpec::Tabu(TabuOptions::default());
        let a = deterministic.mapper(1).place(&mut EvalContext::new(&p)).unwrap();
        let b = deterministic.mapper(2).place(&mut EvalContext::new(&p)).unwrap();
        assert_eq!(a, b, "tabu ignores the seed");
    }
}

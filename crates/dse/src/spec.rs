//! Plain-text sweep specifications — the `.dse` format.
//!
//! Line-oriented like the `noc-graph` formats; `#` starts a comment.
//! Directives:
//!
//! ```text
//! # VOPD and two random 25-core graphs, on mesh and torus, two mappers.
//! capacity 1000              # uniform link capacity, MB/s (default 1000)
//! seed 42                    # root seed for derived scenario seeds
//! app vopd mpeg4             # mpeg4|vopd|pip|mwa|mwag|dsd|dsp|all
//! random 25 2                # cores instances [avg_degree [min_bw max_bw]]
//! topology mesh 4x4          # fit | fit-torus | fit3d | fit3d-torus |
//! topology mesh 4x4x2        #   mesh WxH[xD...] | torus WxH[xD...]
//! mapper nmap pbb            # nmap|nmap-paper|nmap-init|nmap-split-quadrant|
//!                            #   nmap-split-all|pmap|gmap|pbb|sa|tabu|
//!                            #   all (= nmap pmap gmap pbb only)
//! routing min-path xy        # min-path|xy|mcf-quadrant|mcf-all|all
//! simulate {                 # optional wormhole-simulation stage
//!   bandwidths 1100 1400     # link-bandwidth sweep points, MB/s
//!                            #   (omit to simulate at `capacity`)
//!   warmup 20000             # cycles excluded from statistics
//!   measure 100000           # measured cycles (must be > 0)
//!   drain 30000              # drain window after measurement
//!   burst 8 3                # mean burst packets, peak-to-mean ratio
//!   seed 0                   # traffic-seed component
//! }
//! ```
//!
//! This module is the one place that knows the `.dse` vocabulary: each
//! axis has one keyword table ([`APPS`], [`FITTED_TOPOLOGIES`],
//! [`mapper_catalogue`], [`ROUTINGS`]), and both the
//! parser and the `name()` methods of the scenario types read it.
//!
//! `app`, `mapper` and `routing` accept several names per line and may
//! repeat; `all` expands to the six bundled apps, the four mapper families
//! (`nmap pmap gmap pbb` — deliberately *not* the whole catalogue: the
//! paper's Figure 3 comparison set, cheap enough for wide cross
//! products; name `sa`, `tabu` or the `nmap-split-*` mappers explicitly
//! to sweep them), or all four routing regimes. Axes left out
//! default to the fitted mesh, `nmap`, and `min-path`. Mapper
//! configurations beyond the named defaults use a `[..]` parameter
//! suffix: `nmap[p4r2]` (passes/restarts), `nmap-split-quadrant[p3]`
//! (passes), `pbb[q5000e50000]` (queue/expansion budget),
//! `sa[m20000t0.05c0.9995]` (moves / initial-temperature fraction /
//! cooling), `tabu[i64t8]` (iterations/tenure). Mapper options are
//! validated at parse time with the same `check()` predicates the
//! mappers themselves run — an out-of-range knob (e.g. `nmap[p0r1]`) is
//! a syntax error naming the offending line, never a silent clamp. The
//! `simulate`
//! block (at most one; every field optional, defaulting to
//! [`SimulateSpec::default`]) attaches a simulation stage to every
//! scenario; named `bandwidths` become the innermost sweep axis, one
//! scenario per point with `capacity` = the point. A spec may expand to
//! at most [`MAX_SCENARIOS`] scenarios, and a `random` graph's `max_bw`
//! may not exceed [`noc_graph::parse::MAX_BANDWIDTH`]. [`SweepSpec`]'s
//! `Display` writes the canonical form; parsing it back yields an equal
//! spec for *every* representable configuration (round-trip property,
//! tested).

use std::error::Error;
use std::fmt;

use nmap::search::{SaOptions, TabuOptions};
use nmap::{PathScope, SinglePathOptions, SplitOptions};
use noc_apps::App;
use noc_baselines::PbbOptions;
use noc_graph::parse::MAX_BANDWIDTH;
use noc_graph::RandomGraphConfig;
use noc_sim::MAX_BURST_PACKETS;

use noc_units::Mbps;

use crate::scenario::{MapperSpec, RoutingSpec, ScenarioSet, SimulateSpec, TopologySpec};

/// One application directive of a spec.
#[derive(Debug, Clone, PartialEq)]
pub enum AppDirective {
    /// A bundled video application.
    Bundled(App),
    /// The DSP filter.
    Dsp,
    /// `instances` random graphs from one generator configuration.
    Random {
        /// Generator configuration (cores, degree, bandwidth range).
        config: RandomGraphConfig,
        /// Number of instances (scenario seeds derive from the root seed).
        instances: u64,
    },
}

/// A parsed sweep specification. Feed to [`SweepSpec::scenarios`] to
/// expand into a concrete [`ScenarioSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Uniform link capacity.
    pub capacity: Mbps,
    /// Root seed for derived scenario seeds.
    pub root_seed: u64,
    /// Applications, in directive order.
    pub apps: Vec<AppDirective>,
    /// Topology axis (empty → fitted mesh).
    pub topologies: Vec<TopologySpec>,
    /// Mapper axis (empty → `nmap`).
    pub mappers: Vec<MapperSpec>,
    /// Routing axis (empty → `min-path`).
    pub routings: Vec<RoutingSpec>,
    /// Optional simulation stage; bandwidth points expand as the innermost
    /// sweep axis.
    pub simulate: Option<SimulateSpec>,
}

impl Default for SweepSpec {
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

impl SweepSpec {
    /// Expands the spec into the ordered scenario cross product.
    pub fn scenarios(&self) -> ScenarioSet {
        let mut builder =
            ScenarioSet::builder().capacity(self.capacity.to_f64()).root_seed(self.root_seed);
        for app in &self.apps {
            builder = match app {
                AppDirective::Bundled(a) => builder.app(*a),
                AppDirective::Dsp => builder.dsp(),
                AppDirective::Random { config, instances } => {
                    builder.random(config.clone(), *instances)
                }
            };
        }
        for t in &self.topologies {
            builder = builder.topology(t.clone());
        }
        for m in &self.mappers {
            builder = builder.mapper(m.clone());
        }
        for r in &self.routings {
            builder = builder.routing(*r);
        }
        if let Some(sim) = &self.simulate {
            builder = builder.simulate(sim.clone());
        }
        builder.build()
    }
}

impl fmt::Display for SweepSpec {
    /// Canonical spec form: one directive per line, axes in fixed order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "capacity {}", self.capacity)?;
        writeln!(f, "seed {}", self.root_seed)?;
        for app in &self.apps {
            match app {
                AppDirective::Bundled(a) => {
                    writeln!(f, "app {}", keyword_of(&APPS, a).expect("every app has a keyword"))?
                }
                AppDirective::Dsp => writeln!(f, "app dsp")?,
                AppDirective::Random { config, instances } => writeln!(
                    f,
                    "random {} {} {} {} {}",
                    config.cores,
                    instances,
                    config.avg_degree,
                    config.min_bandwidth,
                    config.max_bandwidth
                )?,
            }
        }
        for t in &self.topologies {
            writeln!(f, "topology {}", t.name())?;
        }
        for m in &self.mappers {
            writeln!(f, "mapper {}", m.name())?;
        }
        for r in &self.routings {
            writeln!(f, "routing {}", r.name())?;
        }
        if let Some(sim) = &self.simulate {
            writeln!(f, "simulate {{")?;
            if !sim.bandwidths_mbps.is_empty() {
                write!(f, "  bandwidths")?;
                for bw in &sim.bandwidths_mbps {
                    write!(f, " {bw}")?;
                }
                writeln!(f)?;
            }
            writeln!(f, "  warmup {}", sim.warmup_cycles)?;
            writeln!(f, "  measure {}", sim.measure_cycles)?;
            writeln!(f, "  drain {}", sim.drain_cycles)?;
            writeln!(f, "  burst {} {}", sim.burst_packets, sim.burst_intensity)?;
            writeln!(f, "  seed {}", sim.seed)?;
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}

/// Errors produced by [`parse_spec`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A line could not be interpreted.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The spec declared no applications.
    Empty,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            SpecError::Empty => write!(f, "spec declares no applications"),
        }
    }
}

impl Error for SpecError {}

/// Parses the spec format described in the [module docs](self).
///
/// # Errors
///
/// [`SpecError::Syntax`] with the offending 1-based line on malformed
/// input; [`SpecError::Empty`] when no `app`/`random` directive appears.
pub fn parse_spec(text: &str) -> Result<SweepSpec, SpecError> {
    let mut spec = SweepSpec::default();
    // `Some` while inside an open `simulate { ... }` block.
    let mut sim_block: Option<SimulateSpec> = None;
    // Entries of the app axis so far (a `random` directive adds one per
    // instance), saturating: past `MAX_SCENARIOS` the exact count is moot.
    let mut app_entries: u64 = 0;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().expect("non-empty line");
        let rest: &[&str] = &parts.collect::<Vec<_>>();
        if let Some(block) = sim_block.as_mut() {
            if keyword == "}" {
                if !rest.is_empty() {
                    return Err(syntax(line_no, "`}` must stand alone".into()));
                }
                block.validate().map_err(|message| syntax(line_no, message))?;
                spec.simulate = sim_block.take();
            } else {
                parse_simulate_field(block, keyword, rest, line_no)?;
            }
            check_scenario_count(&spec, sim_block.as_ref(), app_entries, line_no)?;
            continue;
        }
        match keyword {
            "capacity" => {
                let v: f64 = parse_one(rest, line_no, "capacity")?;
                spec.capacity = Mbps::positive(v)
                    .map_err(|_| syntax(line_no, format!("capacity must be positive, got {v}")))?;
            }
            "seed" => spec.root_seed = parse_one(rest, line_no, "seed")?,
            "app" => {
                if rest.is_empty() {
                    return Err(syntax(line_no, "`app` needs at least one name".into()));
                }
                let before = spec.apps.len();
                for &name in rest {
                    match name {
                        "all" => spec.apps.extend(APPS.map(|(_, app)| AppDirective::Bundled(app))),
                        "dsp" => spec.apps.push(AppDirective::Dsp),
                        _ => spec
                            .apps
                            .push(AppDirective::Bundled(lookup(&APPS, name).ok_or_else(|| {
                                syntax(line_no, format!("unknown app `{name}`"))
                            })?)),
                    }
                }
                app_entries = app_entries.saturating_add((spec.apps.len() - before) as u64);
            }
            "random" => {
                if rest.len() < 2 || rest.len() == 4 || rest.len() > 5 {
                    return Err(syntax(
                        line_no,
                        "`random` takes: cores instances [avg_degree [min_bw max_bw]]".into(),
                    ));
                }
                let cores: usize = parse_field(rest[0], line_no, "cores")?;
                noc_graph::parse::check_node_count("`random` core count", cores)
                    .map_err(|message| syntax(line_no, message))?;
                let instances: u64 = parse_field(rest[1], line_no, "instances")?;
                let mut config = RandomGraphConfig { cores, ..Default::default() };
                if rest.len() >= 3 {
                    config.avg_degree = parse_field(rest[2], line_no, "avg_degree")?;
                }
                if rest.len() == 5 {
                    let min_bw: f64 = parse_field(rest[3], line_no, "min_bw")?;
                    let max_bw: f64 = parse_field(rest[4], line_no, "max_bw")?;
                    let invalid = |_| syntax(line_no, "invalid `random` parameters".into());
                    config.min_bandwidth = Mbps::new(min_bw).map_err(invalid)?;
                    config.max_bandwidth = Mbps::new(max_bw).map_err(invalid)?;
                    if max_bw > MAX_BANDWIDTH {
                        let max_bw = rest[4];
                        let message = format!(
                            "`random` max_bw {max_bw} exceeds the maximum {MAX_BANDWIDTH:e}"
                        );
                        return Err(syntax(line_no, message));
                    }
                }
                if cores == 0
                    || instances == 0
                    || !(config.avg_degree.is_finite() && config.avg_degree > 0.0)
                    || config.max_bandwidth < config.min_bandwidth
                {
                    return Err(syntax(line_no, "invalid `random` parameters".into()));
                }
                spec.apps.push(AppDirective::Random { config, instances });
                app_entries = app_entries.saturating_add(instances);
            }
            "topology" => {
                let t = match rest {
                    [kind @ ("mesh" | "torus"), dims] => {
                        let dims = parse_dims(dims, line_no)?;
                        Some(if *kind == "mesh" {
                            TopologySpec::Mesh { dims }
                        } else {
                            TopologySpec::Torus { dims }
                        })
                    }
                    [name] => lookup(&FITTED_TOPOLOGIES, name),
                    _ => None,
                };
                let t = t.ok_or_else(|| {
                    let fitted = keywords(&FITTED_TOPOLOGIES).join(" | ");
                    syntax(
                        line_no,
                        format!("`topology` takes: {fitted} | mesh WxH[xD] | torus WxH[xD]"),
                    )
                })?;
                spec.topologies.push(t);
            }
            "mapper" => {
                if rest.is_empty() {
                    return Err(syntax(line_no, "`mapper` needs at least one name".into()));
                }
                for &name in rest {
                    if name == "all" {
                        spec.mappers.extend([
                            MapperSpec::Nmap(SinglePathOptions::default()),
                            MapperSpec::Pmap,
                            MapperSpec::Gmap,
                            MapperSpec::Pbb(PbbOptions::default()),
                        ]);
                    } else {
                        spec.mappers
                            .push(parse_mapper(name).map_err(|message| syntax(line_no, message))?);
                    }
                }
            }
            "routing" => {
                if rest.is_empty() {
                    return Err(syntax(line_no, "`routing` needs at least one name".into()));
                }
                for &name in rest {
                    if name == "all" {
                        spec.routings.extend(ROUTINGS.map(|(_, routing)| routing));
                    } else {
                        spec.routings.push(
                            lookup(&ROUTINGS, name).ok_or_else(|| {
                                syntax(line_no, format!("unknown routing `{name}`"))
                            })?,
                        );
                    }
                }
            }
            "simulate" => {
                if rest != ["{"] {
                    return Err(syntax(line_no, "`simulate` takes an opening `{`".into()));
                }
                if spec.simulate.is_some() {
                    return Err(syntax(line_no, "duplicate `simulate` block".into()));
                }
                sim_block = Some(SimulateSpec::default());
            }
            other => {
                return Err(syntax(
                    line_no,
                    format!(
                        "unknown keyword `{other}` (expected capacity/seed/app/random/\
topology/mapper/routing/simulate)"
                    ),
                ));
            }
        }
        check_scenario_count(&spec, sim_block.as_ref(), app_entries, line_no)?;
    }
    if sim_block.is_some() {
        return Err(SpecError::Syntax {
            line: text.lines().count(),
            message: "unclosed `simulate` block (missing `}`)".into(),
        });
    }
    if spec.apps.is_empty() {
        return Err(SpecError::Empty);
    }
    Ok(spec)
}

/// Most scenarios one spec may expand to. [`SweepSpec::scenarios`]
/// materializes every scenario, so a larger sweep belongs in several
/// specs; the cap keeps a typo'd instance count a line-numbered error
/// instead of an aborted allocation.
pub const MAX_SCENARIOS: usize = 1 << 20;

/// Fails on the line that pushes the spec's cross product
/// (app entries × topologies × mappers × routings × bandwidth points, an
/// empty axis counting as 1) past [`MAX_SCENARIOS`].
fn check_scenario_count(
    spec: &SweepSpec,
    sim_block: Option<&SimulateSpec>,
    app_entries: u64,
    line: usize,
) -> Result<(), SpecError> {
    let points = sim_block.or(spec.simulate.as_ref()).map_or(0, |sim| sim.bandwidths_mbps.len());
    let axes = [spec.topologies.len(), spec.mappers.len(), spec.routings.len(), points];
    let count = axes.iter().try_fold(app_entries, |n, &len| n.checked_mul(len.max(1) as u64));
    match count {
        Some(n) if n <= MAX_SCENARIOS as u64 => Ok(()),
        _ => Err(syntax(
            line,
            format!("the sweep's scenario count exceeds the maximum {MAX_SCENARIOS}"),
        )),
    }
}

/// Parses one line inside a `simulate { ... }` block.
fn parse_simulate_field(
    block: &mut SimulateSpec,
    keyword: &str,
    rest: &[&str],
    line_no: usize,
) -> Result<(), SpecError> {
    match keyword {
        "bandwidths" => {
            if rest.is_empty() {
                return Err(syntax(line_no, "`bandwidths` needs at least one value".into()));
            }
            let mut points = Vec::with_capacity(rest.len());
            for text in rest {
                let bw: f64 = parse_field(text, line_no, "bandwidth")?;
                let bw = Mbps::positive(bw).map_err(|_| {
                    syntax(line_no, format!("bandwidth must be positive, got {bw}"))
                })?;
                points.push(bw);
            }
            block.bandwidths_mbps = points;
        }
        "warmup" => block.warmup_cycles = parse_one(rest, line_no, "warmup")?,
        "measure" => {
            let v: u64 = parse_one(rest, line_no, "measure")?;
            if v == 0 {
                return Err(syntax(line_no, "measurement window must be non-empty".into()));
            }
            block.measure_cycles = v;
        }
        "drain" => block.drain_cycles = parse_one(rest, line_no, "drain")?,
        "burst" => {
            let (packets, intensity): (u32, f64) = match rest {
                [p, i] => (
                    parse_field(p, line_no, "burst packets")?,
                    parse_field(i, line_no, "burst intensity")?,
                ),
                _ => {
                    return Err(syntax(line_no, "`burst` takes: packets intensity".into()));
                }
            };
            if packets == 0 || !(intensity.is_finite() && intensity >= 1.0) {
                return Err(syntax(
                    line_no,
                    "burst needs packets ≥ 1 and a finite intensity ≥ 1".into(),
                ));
            }
            if packets > MAX_BURST_PACKETS {
                return Err(syntax(
                    line_no,
                    format!("burst packets must be at most {MAX_BURST_PACKETS}, got {packets}"),
                ));
            }
            block.burst_packets = packets;
            block.burst_intensity = intensity;
        }
        "seed" => block.seed = parse_one(rest, line_no, "seed")?,
        other => {
            return Err(syntax(
                line_no,
                format!(
                    "unknown simulate field `{other}` (expected bandwidths/warmup/measure/\
drain/burst/seed or `}}`)"
                ),
            ));
        }
    }
    Ok(())
}

fn syntax(line: usize, message: String) -> SpecError {
    SpecError::Syntax { line, message }
}

fn parse_one<T: std::str::FromStr>(rest: &[&str], line: usize, what: &str) -> Result<T, SpecError> {
    match rest {
        [one] => parse_field(one, line, what),
        _ => Err(syntax(line, format!("`{what}` takes exactly one value"))),
    }
}

fn parse_field<T: std::str::FromStr>(text: &str, line: usize, what: &str) -> Result<T, SpecError> {
    text.parse().map_err(|_| syntax(line, format!("invalid {what} `{text}`")))
}

fn parse_dims(text: &str, line: usize) -> Result<Vec<usize>, SpecError> {
    let parts: Vec<&str> = text.split('x').collect();
    if parts.len() < 2 || parts.len() > noc_graph::parse::MAX_GRID_RANK {
        return Err(syntax(
            line,
            format!(
                "bad dimensions `{text}`, want 2 to {} `x`-separated extents",
                noc_graph::parse::MAX_GRID_RANK
            ),
        ));
    }
    let mut dims = Vec::with_capacity(parts.len());
    for part in parts {
        let extent: usize = parse_field(part, line, "extent")?;
        if extent == 0 {
            return Err(syntax(line, "dimensions must be non-zero".into()));
        }
        if extent > noc_graph::parse::MAX_GRID_EXTENT {
            return Err(syntax(
                line,
                format!(
                    "extent {extent} exceeds the maximum {}",
                    noc_graph::parse::MAX_GRID_EXTENT
                ),
            ));
        }
        dims.push(extent);
    }
    noc_graph::parse::check_node_count("grid node count", noc_graph::parse::grid_nodes(&dims))
        .map_err(|message| syntax(line, message))?;
    Ok(dims)
}

/// Keyword of every bundled app, in paper order (the order `app all`
/// adds them in). The DSP filter is the separate keyword `dsp`.
pub const APPS: [(&str, App); 6] = [
    ("mpeg4", App::Mpeg4),
    ("vopd", App::Vopd),
    ("pip", App::Pip),
    ("mwa", App::Mwa),
    ("mwag", App::Mwag),
    ("dsd", App::Dsd),
];

/// Keyword of every fitted topology. Fixed grids are spelled
/// `mesh WxH[xD...]` and `torus WxH[xD...]`.
pub const FITTED_TOPOLOGIES: [(&str, TopologySpec); 4] = [
    ("fit", TopologySpec::FitMesh),
    ("fit-torus", TopologySpec::FitTorus),
    ("fit3d", TopologySpec::FitMesh3d),
    ("fit3d-torus", TopologySpec::FitTorus3d),
];

/// Keyword of every routing regime, in the order `routing all` adds them.
pub const ROUTINGS: [(&str, RoutingSpec); 4] = [
    ("min-path", RoutingSpec::MinPath),
    ("xy", RoutingSpec::Xy),
    ("mcf-quadrant", RoutingSpec::McfQuadrant),
    ("mcf-all", RoutingSpec::McfAllPaths),
];

/// The mapper catalogue: every named configuration as a
/// `(keyword, configuration)` row, in listing order — the one table
/// behind the `.dse` `mapper` directive and [`MapperSpec::name`]. Any
/// other configuration of a mapper family is spelled with the keyword of
/// the family's first row plus a `[..]` parameter suffix (see the
/// [module docs](self)), so `nmap[p4r2]`, never `nmap-paper[p4r2]`.
pub fn mapper_catalogue() -> [(&'static str, MapperSpec); 10] {
    let split = |scope| MapperSpec::NmapSplit(SplitOptions { scope, passes: 1 });
    [
        ("nmap-init", MapperSpec::NmapInit),
        ("nmap", MapperSpec::Nmap(SinglePathOptions::default())),
        ("nmap-paper", MapperSpec::Nmap(SinglePathOptions::paper_exact())),
        ("nmap-split-quadrant", split(PathScope::Quadrant)),
        ("nmap-split-all", split(PathScope::AllPaths)),
        ("sa", MapperSpec::Sa(SaOptions::default())),
        ("tabu", MapperSpec::Tabu(TabuOptions::default())),
        ("pmap", MapperSpec::Pmap),
        ("gmap", MapperSpec::Gmap),
        ("pbb", MapperSpec::Pbb(PbbOptions::default())),
    ]
}

/// The value `table` lists under `keyword`.
fn lookup<T: Clone>(table: &[(&str, T)], keyword: &str) -> Option<T> {
    table.iter().find(|(k, _)| *k == keyword).map(|(_, value)| value.clone())
}

/// The keyword `table` lists for `value`.
pub(crate) fn keyword_of<T: PartialEq>(
    table: &[(&'static str, T)],
    value: &T,
) -> Option<&'static str> {
    table.iter().find(|(_, v)| v == value).map(|&(keyword, _)| keyword)
}

/// Every keyword of `table`, in table order.
fn keywords<T>(table: &[(&'static str, T)]) -> Vec<&'static str> {
    table.iter().map(|&(keyword, _)| keyword).collect()
}

/// Parses one mapper spelling: a catalogue keyword, or a family keyword
/// with a `[..]` parameter suffix. The options are validated with the
/// mapper's own `check()` predicate — the single source of the
/// constraints, so `.dse` parsing can never accept a configuration the
/// mapper would reject (or, worse than that, silently clamp) at run time.
/// The `.dse` `mapper` directive and `nmap_cli --algorithm` both read it.
///
/// # Errors
///
/// An unknown spelling, with the accepted ones listed, or options that
/// fail their `check()`.
pub fn parse_mapper(name: &str) -> Result<MapperSpec, String> {
    let catalogue = mapper_catalogue();
    let spec = lookup(&catalogue, name)
        .or_else(|| {
            let (base, rest) = name.split_once('[')?;
            let spec = read_params(&lookup(&catalogue, base)?, rest.strip_suffix(']')?)?;
            (family_keyword(&spec) == base).then_some(spec)
        })
        .ok_or_else(|| {
            format!(
                "unknown mapper `{name}` (expected {}, or a keyword with a `[..]` parameter \
                 suffix such as `nmap[p4r2]`)",
                keywords(&catalogue).join("/")
            )
        })?;
    let checked = match &spec {
        MapperSpec::Nmap(opts) => opts.check(),
        MapperSpec::NmapSplit(opts) => opts.check(),
        MapperSpec::Pbb(opts) => opts.check(),
        MapperSpec::Sa(opts) => opts.check(),
        MapperSpec::Tabu(opts) => opts.check(),
        MapperSpec::NmapInit | MapperSpec::Pmap | MapperSpec::Gmap => Ok(()),
    };
    checked.map_err(|message| format!("mapper `{name}`: {message}"))?;
    Ok(spec)
}

/// The canonical spelling of a mapper configuration, which
/// [`MapperSpec::name`] returns: its catalogue keyword, or its family's
/// keyword plus the `[..]` parameter suffix.
pub(crate) fn mapper_name(spec: &MapperSpec) -> String {
    if let Some(keyword) = keyword_of(&mapper_catalogue(), spec) {
        return keyword.to_string();
    }
    let params = write_params(spec).expect("parameterless mappers are all in the catalogue");
    format!("{}[{params}]", family_keyword(spec))
}

/// Keyword of the first catalogue row of `spec`'s family: the same
/// mapper (and, for the split mapper, the same path scope).
fn family_keyword(spec: &MapperSpec) -> &'static str {
    let same_family = |row: &MapperSpec| match (row, spec) {
        (MapperSpec::NmapSplit(a), MapperSpec::NmapSplit(b)) => a.scope == b.scope,
        _ => std::mem::discriminant(row) == std::mem::discriminant(spec),
    };
    mapper_catalogue()
        .into_iter()
        .find(|(_, row)| same_family(row))
        .map(|(keyword, _)| keyword)
        .expect("every mapper family has a catalogue row")
}

/// The `[..]` parameter suffix of a configuration, without its brackets:
/// `p4r2` (passes, restarts), `p3` (split passes), `q5000e50000` (queue,
/// expansion budget), `m20000t0.05c0.9995` (moves, initial-temperature
/// fraction, cooling) or `i64t8` (iterations, tenure). `None` for the
/// mappers without options.
fn write_params(spec: &MapperSpec) -> Option<String> {
    Some(match spec {
        MapperSpec::Nmap(o) => format!("p{}r{}", o.passes, o.restarts),
        MapperSpec::NmapSplit(o) => format!("p{}", o.passes),
        MapperSpec::Pbb(o) => format!("q{}e{}", o.max_queue, o.max_expansions),
        MapperSpec::Sa(o) => format!("m{}t{}c{}", o.moves, o.initial_temp, o.cooling),
        MapperSpec::Tabu(o) => format!("i{}t{}", o.iterations, o.tenure),
        MapperSpec::NmapInit | MapperSpec::Pmap | MapperSpec::Gmap => return None,
    })
}

/// Reads a [`write_params`] suffix into a configuration of `family`'s
/// mapper (the split mapper keeps `family`'s path scope).
fn read_params(family: &MapperSpec, params: &str) -> Option<MapperSpec> {
    fn pair<A: std::str::FromStr, B: std::str::FromStr>(
        text: &str,
        first: char,
        second: char,
    ) -> Option<(A, B)> {
        let (a, b) = text.strip_prefix(first)?.split_once(second)?;
        Some((a.parse().ok()?, b.parse().ok()?))
    }
    Some(match family {
        MapperSpec::Nmap(_) => {
            let (passes, restarts) = pair(params, 'p', 'r')?;
            MapperSpec::Nmap(SinglePathOptions { passes, restarts })
        }
        MapperSpec::NmapSplit(o) => MapperSpec::NmapSplit(SplitOptions {
            scope: o.scope,
            passes: params.strip_prefix('p')?.parse().ok()?,
        }),
        MapperSpec::Pbb(_) => {
            let (max_queue, max_expansions) = pair(params, 'q', 'e')?;
            MapperSpec::Pbb(PbbOptions { max_queue, max_expansions })
        }
        MapperSpec::Sa(_) => {
            let (moves, rest) = params.strip_prefix('m')?.split_once('t')?;
            let (initial_temp, cooling) = rest.split_once('c')?;
            MapperSpec::Sa(SaOptions {
                moves: moves.parse().ok()?,
                initial_temp: initial_temp.parse().ok()?,
                cooling: cooling.parse().ok()?,
            })
        }
        MapperSpec::Tabu(_) => {
            let (iterations, tenure) = pair(params, 'i', 't')?;
            MapperSpec::Tabu(TabuOptions { iterations, tenure })
        }
        MapperSpec::NmapInit | MapperSpec::Pmap | MapperSpec::Gmap => return None,
    })
}

#[cfg(test)]
mod tests {
    use noc_units::mbps;

    use super::*;

    const FULL: &str = "\
# exercise every directive
capacity 800
seed 9
app vopd mpeg4
app dsp
random 12 2 3 50 60
topology fit
topology mesh 4x4
topology torus 3x3
topology fit-torus
topology mesh 4x4x2
topology fit3d
mapper nmap nmap-paper nmap-init pmap gmap pbb nmap-split-quadrant nmap-split-all
routing min-path xy mcf-quadrant mcf-all
simulate {
  bandwidths 1100 1400
  warmup 1000     # comments work inside the block too
  measure 5000
  drain 2000
  burst 4 2.5
  seed 3
}
";

    #[test]
    fn parses_every_directive() {
        let spec = parse_spec(FULL).unwrap();
        assert_eq!(spec.capacity, mbps(800.0));
        assert_eq!(spec.root_seed, 9);
        assert_eq!(spec.apps.len(), 4);
        assert_eq!(
            spec.apps[3],
            AppDirective::Random {
                config: RandomGraphConfig {
                    cores: 12,
                    avg_degree: 3.0,
                    min_bandwidth: mbps(50.0),
                    max_bandwidth: mbps(60.0),
                },
                instances: 2,
            }
        );
        assert_eq!(spec.topologies.len(), 6);
        assert_eq!(spec.topologies[4], TopologySpec::Mesh { dims: vec![4, 4, 2] });
        assert_eq!(spec.topologies[5], TopologySpec::FitMesh3d);
        assert_eq!(spec.mappers.len(), 8);
        assert_eq!(spec.routings.len(), 4);
        assert_eq!(
            spec.simulate,
            Some(SimulateSpec {
                bandwidths_mbps: vec![mbps(1_100.0), mbps(1_400.0)],
                warmup_cycles: 1_000,
                measure_cycles: 5_000,
                drain_cycles: 2_000,
                burst_packets: 4,
                burst_intensity: 2.5,
                seed: 3,
                ..SimulateSpec::default()
            })
        );
        // 4 app entries + 1 extra random instance = 5 app axis entries;
        // the two simulate bandwidths double the cross product.
        assert_eq!(spec.scenarios().len(), 5 * 6 * 8 * 4 * 2);
    }

    #[test]
    fn canonical_display_round_trips() {
        let spec = parse_spec(FULL).unwrap();
        let reparsed = parse_spec(&spec.to_string()).unwrap();
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn parameterized_mappers_round_trip() {
        // Builder-level configurations must survive Display -> parse.
        let spec = SweepSpec {
            apps: vec![AppDirective::Bundled(App::Pip)],
            mappers: vec![
                MapperSpec::Nmap(SinglePathOptions { passes: 4, restarts: 2 }),
                MapperSpec::NmapSplit(SplitOptions { scope: PathScope::Quadrant, passes: 3 }),
                MapperSpec::NmapSplit(SplitOptions { scope: PathScope::AllPaths, passes: 2 }),
                MapperSpec::Pbb(PbbOptions { max_queue: 123, max_expansions: 456 }),
                MapperSpec::Sa(SaOptions { moves: 5_000, initial_temp: 0.125, cooling: 0.999 }),
                MapperSpec::Tabu(TabuOptions { iterations: 96, tenure: 5 }),
            ],
            ..Default::default()
        };
        let reparsed = parse_spec(&spec.to_string()).unwrap();
        assert_eq!(reparsed.mappers, spec.mappers);
        // And the inline forms parse directly.
        assert_eq!(
            parse_spec("app pip\nmapper nmap[p4r2] pbb[q10e20] sa[m100t0.2c0.9] tabu[i10t2]\n")
                .unwrap()
                .mappers,
            vec![
                MapperSpec::Nmap(SinglePathOptions { passes: 4, restarts: 2 }),
                MapperSpec::Pbb(PbbOptions { max_queue: 10, max_expansions: 20 }),
                MapperSpec::Sa(SaOptions { moves: 100, initial_temp: 0.2, cooling: 0.9 }),
                MapperSpec::Tabu(TabuOptions { iterations: 10, tenure: 2 }),
            ]
        );
        // Malformed parameter suffixes are rejected, not defaulted, and
        // only a family's first keyword takes one.
        for bad in [
            "nmap[p4]",
            "pbb[q10]",
            "nmap-split-all[x2]",
            "gmap[p1]",
            "sa[m10]",
            "tabu[i5]",
            "nmap-paper[p4r2]",
        ] {
            assert!(
                parse_spec(&format!("app pip\nmapper {bad}\n")).is_err(),
                "`{bad}` should not parse"
            );
        }
    }

    #[test]
    fn mapper_options_are_validated_at_parse_time() {
        // The check() predicates run during parsing — an out-of-range
        // knob is a syntax error naming the line, never a silent clamp.
        for (bad, needle) in [
            ("nmap[p0r1]", "passes must be at least 1"),
            ("nmap[p1r0]", "restarts must be at least 1"),
            ("nmap-split-quadrant[p0]", "passes must be at least 1"),
            ("nmap-split-all[p0]", "passes must be at least 1"),
            ("pbb[q0e100]", "queue bound must be at least 1"),
            ("pbb[q10e0]", "expansion budget must be at least 1"),
            ("sa[m0t0.1c0.9]", "moves must be at least 1"),
            ("sa[m10t0.1c1.5]", "cooling must be in (0, 1]"),
            ("tabu[i0t3]", "iterations must be at least 1"),
            ("tabu[i5t0]", "tenure must be at least 1"),
        ] {
            match parse_spec(&format!("app pip\nmapper {bad}\n")) {
                Err(SpecError::Syntax { line, message }) => {
                    assert_eq!(line, 2, "`{bad}`");
                    assert!(message.contains(needle), "`{bad}`: {message}");
                }
                other => panic!("`{bad}` should fail validation, got {other:?}"),
            }
        }
    }

    #[test]
    fn simulate_block_round_trips() {
        // With explicit bandwidth points.
        let with_points = parse_spec(FULL).unwrap();
        assert_eq!(parse_spec(&with_points.to_string()).unwrap(), with_points);

        // Defaults only: an empty block canonicalizes to the default spec.
        let empty = parse_spec("app pip\nsimulate {\n}\n").unwrap();
        assert_eq!(empty.simulate, Some(SimulateSpec::default()));
        assert_eq!(parse_spec(&empty.to_string()).unwrap(), empty);
        assert!(empty.scenarios().scenarios()[0].simulate.is_some());
    }

    #[test]
    fn oversized_burst_length_is_a_line_numbered_error() {
        // Accepting it once panicked the traffic sources' 8x burst cap
        // with a multiply overflow (debug) or wrapped it (release).
        let bad = "app pip\nsimulate {\n  measure 100\n  burst 600000000 2\n}\n";
        match parse_spec(bad) {
            Err(SpecError::Syntax { line: 4, message }) => {
                assert!(message.contains("at most 536870911"), "{message}")
            }
            other => panic!("expected a line-4 syntax error, got {other:?}"),
        }
        let ok = format!("app pip\nsimulate {{\n  burst {MAX_BURST_PACKETS} 2\n}}\n");
        let spec = parse_spec(&ok).expect("the largest burst length parses");
        assert_eq!(spec.simulate.unwrap().burst_packets, MAX_BURST_PACKETS);
    }

    #[test]
    fn simulate_block_errors_carry_line_numbers() {
        for (bad, line) in [
            ("app pip\nsimulate {\n", 2),               // unclosed block
            ("app pip\nsimulate\n", 2),                 // missing `{`
            ("app pip\nsimulate {\nmeasure 0\n}\n", 3), // empty window
            ("app pip\nsimulate {\nbandwidths -5\n}\n", 3),
            ("app pip\nsimulate {\nbandwidths\n}\n", 3),
            ("app pip\nsimulate {\nburst 0 2\n}\n", 3),
            ("app pip\nsimulate {\nburst 4 0.5\n}\n", 3),
            ("app pip\nsimulate {\nloop warp-drive\n}\n", 3),
            ("app pip\nsimulate {\nloop\n}\n", 3),
            // The simulator loop is no `.dse` choice: both loops give the
            // same bytes, and the oracle one is set from Rust.
            ("app pip\nsimulate {\nloop full-scan\n}\n", 3),
            ("app pip\nsimulate {\nfrobnicate 1\n}\n", 3),
            ("app pip\nsimulate {\n} trailing\n", 3),
            ("app pip\nsimulate {\n}\nsimulate {\n}\n", 4), // duplicate
            // A horizon that overflows `u64` fails at the closing `}`, not
            // later in `SweepSpec::scenarios`.
            ("app pip\nsimulate {\nmeasure 18446744073709551615\n}\n", 4),
        ] {
            match parse_spec(bad) {
                Err(SpecError::Syntax { line: l, .. }) => {
                    assert_eq!(l, line, "wrong line for {bad:?}")
                }
                other => panic!("{bad:?} should fail with a syntax error, got {other:?}"),
            }
        }
    }

    #[test]
    fn top_level_seed_is_not_the_simulate_seed() {
        let spec = parse_spec("seed 5\napp pip\nsimulate {\nseed 9\n}\n").unwrap();
        assert_eq!(spec.root_seed, 5);
        assert_eq!(spec.simulate.as_ref().unwrap().seed, 9);
    }

    #[test]
    fn all_keywords_expand() {
        let spec = parse_spec("app all\nmapper all\nrouting all\n").unwrap();
        assert_eq!(spec.apps.len(), 6);
        // `mapper all` is pinned to the Figure-3 comparison families, not
        // the whole catalogue: the split mappers would make a casual
        // `all` cross product explode in LP solves, and sa/tabu are
        // opt-in search strategies. Documented in the module docs.
        let names: Vec<_> = spec.mappers.iter().map(|m| m.name()).collect();
        assert_eq!(names, ["nmap", "pmap", "gmap", "pbb"]);
        assert_eq!(spec.routings.len(), 4);
    }

    #[test]
    fn defaults_apply_when_axes_missing() {
        let spec = parse_spec("app pip\n").unwrap();
        let set = spec.scenarios();
        assert_eq!(set.len(), 1);
        assert_eq!(set.scenarios()[0].capacity, mbps(1_000.0));
        assert_eq!(set.scenarios()[0].routing, RoutingSpec::MinPath);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let spec = parse_spec("# header\n\napp pip # trailing\n").unwrap();
        assert_eq!(spec.apps, vec![AppDirective::Bundled(App::Pip)]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_spec("app pip\nfrobnicate\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2: unknown keyword `frobnicate` (expected capacity/seed/app/random/topology/mapper/routing/simulate)");
        assert!(matches!(
            parse_spec("app nosuch\n").unwrap_err(),
            SpecError::Syntax { line: 1, .. }
        ));
        assert!(matches!(
            parse_spec("mapper warp\napp pip\n").unwrap_err(),
            SpecError::Syntax { line: 1, .. }
        ));
        // A retired spelling is pointed at the keywords that replaced it.
        match parse_spec("app pip\nmapper nmap-split\n") {
            Err(SpecError::Syntax { line: 2, message }) => assert!(
                message.starts_with("unknown mapper `nmap-split` (expected nmap-init/nmap/")
                    && message.contains("/nmap-split-quadrant/nmap-split-all/")
                    && message.contains("`[..]` parameter suffix"),
                "{message}"
            ),
            other => panic!("`mapper nmap-split` should be a syntax error, got {other:?}"),
        }
        assert!(matches!(
            parse_spec("routing teleport\napp pip\n").unwrap_err(),
            SpecError::Syntax { line: 1, .. }
        ));
        assert!(matches!(
            parse_spec("topology blob\napp pip\n").unwrap_err(),
            SpecError::Syntax { line: 1, .. }
        ));
        assert!(matches!(
            parse_spec("topology mesh 0x4\napp pip\n").unwrap_err(),
            SpecError::Syntax { line: 1, .. }
        ));
        assert!(matches!(
            parse_spec("topology mesh 4x4x0\napp pip\n").unwrap_err(),
            SpecError::Syntax { line: 1, .. }
        ));
        assert!(matches!(
            parse_spec("topology mesh 4\napp pip\n").unwrap_err(),
            SpecError::Syntax { line: 1, .. }
        ));
        // Rank and extent caps (shared with the `.noc` parser).
        assert!(matches!(
            parse_spec("topology mesh 2x2x2x2x2\napp pip\n").unwrap_err(),
            SpecError::Syntax { line: 1, .. }
        ));
        assert!(matches!(
            parse_spec("topology mesh 4x4x1000\napp pip\n").unwrap_err(),
            SpecError::Syntax { line: 1, .. }
        ));
        // Node cap (shared with the `.noc` parser): extents within their
        // cap whose product is not, and oversized `random` graphs. Then the
        // scenario cap: an instance count of `u64::MAX` (which once aborted
        // while `scenarios()` allocated it) and a cross product.
        let nodes = "the maximum 65536";
        let scenarios = "the maximum 1048576";
        for (text, message, maximum) in [
            ("topology mesh 512x512x512\napp pip\n", "grid node count 134217728", nodes),
            ("app pip\ntopology torus 512x512\n", "grid node count 262144", nodes),
            ("random 18446744073709551615 1\n", "`random` core count 18446744073709551615", nodes),
            ("random 65537 1\n", "`random` core count 65537", nodes),
            ("random 3 18446744073709551615\n", "the sweep's scenario count", scenarios),
            ("random 25 1048576\nmapper nmap pmap\n", "the sweep's scenario count", scenarios),
        ] {
            let line = if text.starts_with("app") || text.contains("mapper") { 2 } else { 1 };
            match parse_spec(text) {
                Err(SpecError::Syntax { line: l, message: m }) => {
                    assert_eq!(l, line, "{text:?}");
                    assert!(m.starts_with(message) && m.ends_with(maximum), "{m}");
                }
                other => panic!("{text:?} should be a syntax error, got {other:?}"),
            }
        }
        assert!(matches!(
            parse_spec("capacity -5\napp pip\n").unwrap_err(),
            SpecError::Syntax { line: 1, .. }
        ));
        assert!(matches!(
            parse_spec("random 5\napp pip\n").unwrap_err(),
            SpecError::Syntax { line: 1, .. }
        ));
        assert!(matches!(
            parse_spec("random 5 2 0.0\napp pip\n").unwrap_err(),
            SpecError::Syntax { line: 1, .. }
        ));
        // Bandwidth cap (shared with the core-graph parser): a larger
        // `max_bw` overflowed the placement cost and panicked the mappers.
        match parse_spec("random 25 1 3 0 1e308\n") {
            Err(SpecError::Syntax { line: 1, message }) => {
                assert!(message.ends_with("max_bw 1e308 exceeds the maximum 1e12"), "{message}")
            }
            other => panic!("an oversized `max_bw` should be a syntax error, got {other:?}"),
        }
        assert!(parse_spec(&format!("random 25 1 3 0 {MAX_BANDWIDTH}\n")).is_ok());
        assert_eq!(parse_spec("capacity 500\n").unwrap_err(), SpecError::Empty);
        assert_eq!(parse_spec("").unwrap_err(), SpecError::Empty);
    }

    #[test]
    fn scenario_count_is_capped_at_the_line_that_exceeds_it() {
        // Every axis counts, including the simulate bandwidth points.
        for (text, line) in [
            ("app all\nrandom 25 1048571\n", 2),
            ("app pip\nsimulate {\n  bandwidths 1 2\n}\nrandom 3 524288\n", 5),
            ("random 3 524288\nsimulate {\n  bandwidths 1 2 3\n}\n", 3),
            ("routing all\ntopology fit\nrandom 3 262145\n", 3),
        ] {
            match parse_spec(text) {
                Err(SpecError::Syntax { line: l, message }) => {
                    assert_eq!(l, line, "{text:?}");
                    assert_eq!(message, "the sweep's scenario count exceeds the maximum 1048576");
                }
                other => panic!("{text:?} should be a syntax error, got {other:?}"),
            }
        }
        // Exactly at the cap is fine, and an empty axis counts as 1.
        let spec = parse_spec("random 3 524288\nmapper nmap pmap\n").unwrap();
        assert_eq!(spec.mappers.len(), 2);
        assert!(parse_spec("random 3 1048576\ntopology fit\n").is_ok());
    }

    #[test]
    fn every_table_keyword_parses_and_names_itself() {
        for (keyword, app) in APPS {
            let spec = parse_spec(&format!("app {keyword}\n")).unwrap();
            assert_eq!(spec.apps, [AppDirective::Bundled(app)]);
            assert!(spec.to_string().contains(&format!("\napp {keyword}\n")));
        }
        for (keyword, topology) in FITTED_TOPOLOGIES {
            let spec = parse_spec(&format!("app pip\ntopology {keyword}\n")).unwrap();
            assert_eq!(spec.topologies, std::slice::from_ref(&topology));
            assert_eq!(topology.name(), keyword);
        }
        for (keyword, routing) in ROUTINGS {
            let spec = parse_spec(&format!("app pip\nrouting {keyword}\n")).unwrap();
            assert_eq!(spec.routings, [routing]);
            assert_eq!(routing.name(), keyword);
        }
        // The mapper catalogue has its own suite: `tests/registry.rs`.
    }

    #[test]
    fn derived_random_seeds_depend_on_root_seed() {
        let a = parse_spec("seed 1\nrandom 10 1\n").unwrap().scenarios();
        let b = parse_spec("seed 2\nrandom 10 1\n").unwrap().scenarios();
        assert_ne!(a.scenarios()[0].seed, b.scenarios()[0].seed);
    }
}

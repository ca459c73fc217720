//! The four workloads: inputs made from a seed, one engine call per
//! repetition, a canonical form of each output, and correctness checks.

use noc_dse::{
    run_scenarios, MapperSpec, RoutingSpec, RunRecord, Scenario, ScenarioSet, StageTimes,
    SweepReport, TopologySpec,
};
use noc_experiments::dse_bridge::{fig5c_smoke_config, fig5c_via_engine, table2_rows_from_records};
use noc_experiments::fig5c::{design_dsp, Fig5cConfig, Fig5cPoint};
use noc_experiments::mesh3d::{mesh3d_rows_from_records, mesh3d_spec};
use noc_experiments::table2::Table2Config;
use noc_experiments::UNLIMITED_CAPACITY;
use noc_graph::{RandomGraphConfig, RandomGraphFamily};
use noc_units::mbps;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper Fig. 5(c): the DSP design simulated at eight bandwidths under
    /// min-path and split routing (dense simulation).
    Fig5c,
    /// The 2-D vs 3-D mesh study: six apps mapped, routed and simulated
    /// on two fabrics (sparse simulation).
    Mesh3d,
    /// Paper Table 2: PBB vs NMAP on random graphs of 25 to 65 cores
    /// (mapping only).
    Table2,
    /// A synthetic capacity sweep built from the paper's apps and graph
    /// generator: split routing through the MCF linear programs.
    McfSweep,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::Fig5c, Workload::Mesh3d, Workload::Table2, Workload::McfSweep];

    /// Command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5c => "fig5c",
            Workload::Mesh3d => "mesh3d",
            Workload::Table2 => "table2",
            Workload::McfSweep => "mcf-sweep",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the paper's (or the study's) own inputs use.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Fig5c => noc_sim::SimConfig::default().seed,
            Workload::Mesh3d => 7,
            Workload::Table2 => 0,
            Workload::McfSweep => 11,
        }
    }

    /// A seed kept out of development, for confirming a claimed gain on
    /// inputs the change was not tuned on.
    pub fn held_out_seed(self) -> u64 {
        match self {
            Workload::Fig5c => 90_210,
            Workload::Mesh3d => 1_009,
            Workload::Table2 => 9,
            Workload::McfSweep => 4_242,
        }
    }

    /// Timed repetitions a run makes even when one takes longer than the
    /// run's measuring time.
    pub fn min_reps(self) -> usize {
        match self {
            Workload::Fig5c | Workload::Mesh3d | Workload::McfSweep => 5,
            Workload::Table2 => 4,
        }
    }

    /// Builds the workload's inputs from `seed`: the set-up the harness
    /// times as `setup_s`. `smoke` selects the reduced size the tests run.
    pub fn inputs(self, seed: u64, smoke: bool) -> Inputs {
        match self {
            Workload::Fig5c => {
                let mut config = if smoke { fig5c_smoke_config() } else { Fig5cConfig::default() };
                config.sim.seed = seed;
                Inputs::Fig5c(config)
            }
            Workload::Mesh3d => {
                let mut spec = mesh3d_spec(smoke);
                spec.root_seed = seed;
                Inputs::Sweep { set: spec.scenarios(), table2: None }
            }
            Workload::Table2 => {
                let config = Table2Config {
                    sizes: if smoke { vec![9, 12] } else { Table2Config::default().sizes },
                    ..Table2Config::default()
                };
                Inputs::Sweep { set: table2_set(&config, seed), table2: Some(config) }
            }
            Workload::McfSweep => Inputs::Sweep { set: mcf_sweep_set(seed, smoke), table2: None },
        }
    }
}

/// Table 2's scenarios for seed `seed`: instances `3·seed .. 3·seed+2` of
/// [`RandomGraphFamily`] at every size, each mapped by PBB then NMAP on
/// its fitted mesh with unlimited capacity. Seed 0 is the paper table's
/// own scenario set.
fn table2_set(config: &Table2Config, seed: u64) -> ScenarioSet {
    let first = seed.wrapping_mul(config.instances);
    let mut scenarios = Vec::new();
    for &cores in &config.sizes {
        for instance in (0..config.instances).map(|i| first.wrapping_add(i)) {
            for mapper in
                [MapperSpec::Pbb(config.pbb), MapperSpec::Nmap(nmap::SinglePathOptions::default())]
            {
                scenarios.push(Scenario {
                    label: format!("rand{cores}#{instance}"),
                    app: noc_dse::AppSpec::Random(RandomGraphConfig {
                        cores,
                        ..RandomGraphConfig::default()
                    }),
                    seed: RandomGraphFamily::instance_seed(cores, instance),
                    topology: TopologySpec::FitMesh,
                    capacity: mbps(UNLIMITED_CAPACITY),
                    mapper,
                    routing: RoutingSpec::MinPath,
                    simulate: None,
                });
            }
        }
    }
    ScenarioSet::from_scenarios(scenarios)
}

/// Link capacities of the MCF sweep, MB/s, loosest first so each
/// lineage walks toward the binding regime.
const MCF_CAPACITIES: [f64; 4] = [2_400.0, 1_600.0, 1_200.0, 900.0];

/// The smoke sweep's capacities.
const MCF_SMOKE_CAPACITIES: [f64; 2] = [2_400.0, 900.0];

/// Random graphs in the MCF sweep.
const MCF_RANDOM_GRAPHS: u64 = 3;

/// The MCF capacity sweep: the six paper apps under both split scopes,
/// plus seeded 25-core random graphs under the quadrant scope, all placed
/// by `nmap-init` on their fitted mesh, each expanded over the capacity
/// axis (innermost, descending). The smoke sweep keeps the apps only, at
/// two capacities.
///
/// The random graphs stay out of the all-paths scope on purpose: near
/// 900 MB/s a 25-core all-paths solve takes anywhere from 0.1 s to 10 s
/// depending on the graph, so a seed would pick the run time.
fn mcf_sweep_set(seed: u64, smoke: bool) -> ScenarioSet {
    let apps = ScenarioSet::builder()
        .all_apps()
        .mapper(MapperSpec::NmapInit)
        .routing(RoutingSpec::McfQuadrant)
        .routing(RoutingSpec::McfAllPaths)
        .build();
    let random = ScenarioSet::builder()
        .root_seed(seed)
        .random(RandomGraphConfig { cores: 25, ..RandomGraphConfig::default() }, MCF_RANDOM_GRAPHS)
        .mapper(MapperSpec::NmapInit)
        .routing(RoutingSpec::McfQuadrant)
        .build();
    let (bases, capacities): (Vec<&Scenario>, &[f64]) = if smoke {
        (apps.scenarios().iter().collect(), &MCF_SMOKE_CAPACITIES)
    } else {
        (apps.scenarios().iter().chain(random.scenarios()).collect(), &MCF_CAPACITIES)
    };
    ScenarioSet::from_scenarios(
        bases
            .into_iter()
            .flat_map(|base| {
                capacities.iter().map(|&cap| Scenario { capacity: mbps(cap), ..base.clone() })
            })
            .collect(),
    )
}

/// A workload's inputs.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// The Fig. 5(c) sweep configuration.
    Fig5c(Fig5cConfig),
    /// A scenario sweep; Table 2 also carries its fold configuration.
    Sweep {
        /// The scenarios, in sweep order.
        set: ScenarioSet,
        /// Table 2's sizes and budgets, for folding records into rows.
        table2: Option<Table2Config>,
    },
}

impl Inputs {
    /// Units of work per repetition: simulation points for Fig. 5(c),
    /// scenarios otherwise.
    pub fn scenario_count(&self) -> usize {
        match self {
            Inputs::Fig5c(config) => config.bandwidths_mbps.len() * 2,
            Inputs::Sweep { set, .. } => set.len(),
        }
    }
}

/// What one engine call produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Fig. 5(c) points.
    Points(Vec<Fig5cPoint>),
    /// Sweep records, in scenario order.
    Records(Vec<RunRecord>),
}

/// One repetition as a user runs it: a single engine call (its own fresh
/// stage cache included) on `threads` workers.
pub fn run_engine(inputs: &Inputs, threads: usize) -> Output {
    match inputs {
        Inputs::Fig5c(config) => Output::Points(fig5c_via_engine(config, threads)),
        Inputs::Sweep { set, .. } => Output::Records(run_scenarios(set.scenarios(), threads)),
    }
}

impl Output {
    /// The deterministic part of the output as text: the JSONL records
    /// without timing, or the points.
    pub fn canonical(&self) -> String {
        match self {
            Output::Points(points) => format!("{points:?}"),
            Output::Records(records) => SweepReport::new(records.clone()).write_jsonl(false),
        }
    }

    /// FNV-1a hash of [`Output::canonical`].
    pub fn digest(&self) -> u64 {
        self.canonical()
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// The output with its records' stage times cleared: the part the
    /// traced pipeline must reproduce exactly.
    pub fn without_times(self) -> Output {
        match self {
            Output::Records(mut records) => {
                for r in &mut records {
                    r.times = StageTimes::default();
                }
                Output::Records(records)
            }
            points => points,
        }
    }

    /// Records carrying an error.
    pub fn error_count(&self) -> u64 {
        match self {
            Output::Points(_) => 0,
            Output::Records(records) => records.iter().filter(|r| !r.is_ok()).count() as u64,
        }
    }
}

/// One correctness check's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// The values behind the verdict.
    pub detail: String,
}

impl Check {
    /// A check named `name` with outcome `passed`.
    pub fn new(name: &str, passed: bool, detail: String) -> Self {
        Self { name: name.to_string(), passed, detail }
    }
}

/// The workload's paper-claim checks on one output, plus its
/// communication cost (hops·MB/s: the DSP design's for Fig. 5(c), summed
/// over scenarios otherwise).
pub fn verify(workload: Workload, inputs: &Inputs, output: &Output) -> (Vec<Check>, f64) {
    let mut checks = Vec::new();
    let errors = output.error_count();
    checks.push(Check::new("no_error_records", errors == 0, format!("{errors} error records")));
    let comm_cost = match (inputs, output) {
        (Inputs::Fig5c(config), Output::Points(points)) => {
            let design = design_dsp();
            checks.push(Check::new(
                "table3_design_bandwidths",
                design.minpath_bw == 600.0 && (design.split_bw - 200.0).abs() < 1.0,
                format!(
                    "min-path {} MB/s (paper 600), split {} MB/s (paper 200)",
                    design.minpath_bw, design.split_bw
                ),
            ));
            let complete = points.len() == config.bandwidths_mbps.len()
                && points.iter().all(|p| p.minpath_latency > 0.0 && p.split_latency > 0.0);
            checks.push(Check::new(
                "fig5c_points_complete",
                complete,
                format!("{} points with positive latency", points.len()),
            ));
            design.problem.comm_cost(&design.mapping).to_f64()
        }
        (Inputs::Sweep { set, table2 }, Output::Records(records)) => {
            let shaped = records.len() == set.len();
            checks.push(Check::new(
                "one_record_per_scenario",
                shaped,
                format!("{} records for {} scenarios", records.len(), set.len()),
            ));
            if shaped && errors == 0 {
                checks.extend(study_checks(workload, table2.as_ref(), records));
            }
            records.iter().map(|r| r.comm_cost.to_f64()).sum()
        }
        _ => {
            checks.push(Check::new("output_matches_inputs", false, "mismatched kinds".into()));
            0.0
        }
    };
    (checks, comm_cost)
}

/// Table 2 sizes from which NMAP must beat PBB on every seed. Below it
/// the two are close: at 25 cores PBB's average wins on some seeds
/// (instances 12..14, for one), though never on the paper's own graphs,
/// and on the smoke sizes PBB's search is close to exhaustive.
const TABLE2_SCALE_CORES: usize = 35;

/// Checks that read a study's folded rows (run only on complete,
/// error-free records, which the folds require).
fn study_checks(
    workload: Workload,
    table2: Option<&Table2Config>,
    records: &[RunRecord],
) -> Vec<Check> {
    match (workload, table2) {
        (Workload::Table2, Some(config)) => {
            let rows = table2_rows_from_records(config, records);
            let at_scale = rows.iter().filter(|r| r.cores >= TABLE2_SCALE_CORES);
            let losing: Vec<String> = at_scale
                .filter(|r| r.nmap > r.pbb)
                .map(|r| format!("{} cores: nmap {} > pbb {}", r.cores, r.nmap, r.pbb))
                .collect();
            let ratios: Vec<String> =
                rows.iter().map(|r| format!("{}:{:.3}", r.cores, r.ratio)).collect();
            vec![Check::new(
                "table2_nmap_beats_pbb_at_scale",
                losing.is_empty(),
                if losing.is_empty() {
                    format!(
                        "PBB/NMAP cost ratio by size {} (checked from {TABLE2_SCALE_CORES} cores)",
                        ratios.join(" ")
                    )
                } else {
                    losing.join("; ")
                },
            )]
        }
        (Workload::Mesh3d, _) => {
            let rows = mesh3d_rows_from_records(records);
            let measured = rows.iter().all(|r| r.latency_2d > 0.0 && r.latency_3d > 0.0);
            vec![Check::new(
                "mesh3d_latencies_measured",
                measured,
                format!("{} apps simulated on both fabrics", rows.len()),
            )]
        }
        (Workload::McfSweep, _) => {
            let overloaded = records
                .iter()
                .filter(|r| {
                    r.feasible && r.max_link_load.to_f64() > r.capacity.to_f64() * (1.0 + 1e-9)
                })
                .count();
            vec![Check::new(
                "mcf_feasible_loads_within_capacity",
                overloaded == 0,
                format!("{overloaded} feasible records above capacity"),
            )]
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert_ne!(w.default_seed(), w.held_out_seed());
        }
        assert_eq!(Workload::from_name("fig4"), None);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in [Workload::Mesh3d, Workload::Table2, Workload::McfSweep] {
            let canon = |seed| match w.inputs(seed, false) {
                Inputs::Sweep { set, .. } => format!("{:?}", set.scenarios()),
                Inputs::Fig5c(c) => format!("{c:?}"),
            };
            assert_eq!(canon(1), canon(1), "{}", w.name());
            assert_ne!(canon(1), canon(2), "{}", w.name());
        }
        let Inputs::Fig5c(config) = Workload::Fig5c.inputs(5, false) else { panic!("fig5c") };
        assert_eq!(config.sim.seed, 5);
    }

    #[test]
    fn table2_seed_zero_is_the_paper_table() {
        let Inputs::Sweep { set, table2: Some(config) } = Workload::Table2.inputs(0, false) else {
            panic!("table2 inputs carry their config");
        };
        let paper = noc_experiments::dse_bridge::table2_scenario_set(&Table2Config::default());
        assert_eq!(config, Table2Config::default());
        assert_eq!(set, paper);
    }

    #[test]
    fn workload_shapes() {
        let count = |w: Workload, smoke| w.inputs(w.default_seed(), smoke).scenario_count();
        assert_eq!(count(Workload::Fig5c, false), 16);
        assert_eq!(count(Workload::Mesh3d, false), 12);
        assert_eq!(count(Workload::Table2, false), 30);
        assert_eq!(count(Workload::McfSweep, false), 6 * 2 * 4 + 3 * 4);
        assert_eq!(count(Workload::Table2, true), 12);
        assert_eq!(count(Workload::McfSweep, true), 6 * 2 * 2);
        let Inputs::Sweep { set, .. } = Workload::McfSweep.inputs(11, false) else {
            panic!("sweep")
        };
        let caps: Vec<f64> = set.scenarios()[..4].iter().map(|s| s.capacity.to_f64()).collect();
        assert_eq!(caps, MCF_CAPACITIES, "capacity is the innermost axis, loosest first");
    }
}

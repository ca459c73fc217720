//! Ablation of NMAP's search, one engine sweep folded into two tables.
//!
//! The first table asks what NMAP's search knobs (DESIGN.md §6 item 9)
//! buy: how much do extra sweeps and deterministic restarts improve on
//! the paper's literal single-descent configuration, and what do they
//! cost? The second compares whole search strategies, the greedy descent
//! family against simulated annealing and tabu search (the direction
//! Marcon et al., *Exploring NoC Mapping Strategies*, explore), all
//! driving the same O(deg) swap-delta kernel and the same Equation-7
//! cost.
//!
//! [`search_ablation_set`] runs the six mappers both tables need on the
//! six video applications; [`SearchAblation::from_records`] folds both
//! tables from those 36 records, so the `nmap-paper` and `nmap` rows the
//! tables share are computed once. Each row's time is its record's
//! map-stage time.

use std::time::Duration;

use nmap::search::{SaOptions, TabuOptions};
use nmap::SinglePathOptions;
use noc_apps::App;
use noc_dse::{MapperSpec, RoutingSpec, RunRecord, Scenario, ScenarioSet};

use crate::GENEROUS_CAPACITY;

/// Seed of every scenario, so the seeded `sa` rows reproduce.
const SEED: u64 = 42;

/// The NMAP configurations of the first table: label, passes, restarts.
/// The paper's literal setting, passes-only scaling, restarts-only
/// scaling and the crate default.
const KNOBS: [(&str, usize, usize); 4] = [
    ("paper (1 pass, 1 start)", 1, 1),
    ("3 passes, 1 start", 3, 1),
    ("1 pass, 8 starts", 1, 8),
    ("default (2 passes, 8 starts)", 2, 8),
];

/// The second table's strategies, as positions in each application's
/// mapper list: `nmap-paper`, `nmap`, `sa` and `tabu`.
const STRATEGIES: [usize; 4] = [0, 3, 4, 5];

/// Mappers per application: the [`KNOBS`] configurations, then `sa` and
/// `tabu`.
const PER_APP: usize = KNOBS.len() + 2;

/// The sweep behind both tables: the six video applications × the
/// fitted mesh × {`nmap-paper`, `nmap[p3r1]`, `nmap[p1r8]`, `nmap`, `sa`,
/// `tabu`} × min-path at [`GENEROUS_CAPACITY`], 36 scenarios, each
/// seeded 42.
pub fn search_ablation_set() -> ScenarioSet {
    let builder = KNOBS
        .iter()
        .map(|&(_, passes, restarts)| MapperSpec::Nmap(SinglePathOptions { passes, restarts }))
        .chain([MapperSpec::Sa(SaOptions::default()), MapperSpec::Tabu(TabuOptions::default())])
        .fold(ScenarioSet::builder().capacity(GENEROUS_CAPACITY).all_apps(), |b, m| b.mapper(m));
    let scenarios = builder.routing(RoutingSpec::MinPath).build().scenarios().to_vec();
    ScenarioSet::from_scenarios(
        scenarios.into_iter().map(|s| Scenario { seed: SEED, ..s }).collect(),
    )
}

/// One row of either table.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationPoint {
    /// Application.
    pub app: App,
    /// The configuration label (first table) or the mapper's `.dse`
    /// name (second table).
    pub label: String,
    /// Equation-7 cost reached.
    pub comm_cost: f64,
    /// Candidate placements evaluated.
    pub evaluations: usize,
    /// Map-stage wall-clock time.
    pub elapsed: Duration,
}

/// Both tables of the ablation, application-major.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchAblation {
    /// The NMAP search-knob table.
    pub configurations: Vec<AblationPoint>,
    /// The search-strategy table.
    pub strategies: Vec<AblationPoint>,
}

impl SearchAblation {
    /// Folds the engine records of [`search_ablation_set`] into both
    /// tables.
    ///
    /// # Panics
    ///
    /// Panics if `records` does not match the shape of
    /// [`search_ablation_set`] or contains failed scenarios.
    pub fn from_records(records: &[RunRecord]) -> Self {
        assert_eq!(records.len(), App::all().len() * PER_APP, "not the search-ablation set");
        let mut out = Self { configurations: Vec::new(), strategies: Vec::new() };
        for (app, group) in App::all().into_iter().zip(records.chunks_exact(PER_APP)) {
            let point = |r: &RunRecord, label: &str| {
                assert!(r.is_ok(), "{}/{}: {}", r.scenario, r.mapper, r.error);
                assert_eq!(r.scenario, app.name(), "unexpected order");
                AblationPoint {
                    app,
                    label: label.to_string(),
                    comm_cost: r.comm_cost.to_f64(),
                    evaluations: r.evaluations,
                    elapsed: Duration::from_micros(r.times.map_us),
                }
            };
            for ((label, ..), r) in KNOBS.iter().zip(group) {
                out.configurations.push(point(r, label));
            }
            for i in STRATEGIES {
                out.strategies.push(point(&group[i], &group[i].mapper));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app_problem;
    use nmap::map_single_path;

    #[test]
    fn richer_configurations_never_lose_on_pip() {
        let problem = app_problem(App::Pip, GENEROUS_CAPACITY);
        // Configurations are ordered weakest-to-strongest in terms of the
        // search they subsume pairwise with the paper baseline.
        let paper = map_single_path(&problem, &SinglePathOptions::paper_exact()).unwrap().comm_cost;
        let default = map_single_path(&problem, &SinglePathOptions::default()).unwrap().comm_cost;
        assert!(default.to_f64() <= paper.to_f64() + 1e-9);
    }

    #[test]
    fn strategy_sweep_covers_every_pair_and_stays_feasible() {
        let set = search_ablation_set();
        let records = noc_dse::run_scenarios(set.scenarios(), 0);
        for r in &records {
            assert!(r.feasible, "{}/{} infeasible at generous capacity", r.scenario, r.mapper);
        }
        let ablation = SearchAblation::from_records(&records);
        assert_eq!(ablation.configurations.len(), App::all().len() * KNOBS.len());
        assert_eq!(ablation.strategies.len(), App::all().len() * STRATEGIES.len());
        for p in &ablation.strategies {
            assert!(p.comm_cost > 0.0);
        }
        // Deterministic: the stochastic strategies are pinned by seed.
        let again = SearchAblation::from_records(&noc_dse::run_scenarios(set.scenarios(), 1));
        for (a, b) in ablation.strategies.iter().zip(&again.strategies) {
            assert_eq!(a.comm_cost, b.comm_cost, "{}/{:?}", a.label, a.app);
        }
    }

    #[test]
    fn evaluations_scale_with_knobs() {
        let problem = app_problem(App::Pip, GENEROUS_CAPACITY);
        let one = map_single_path(&problem, &SinglePathOptions::paper_exact()).unwrap().evaluations;
        let eight = map_single_path(&problem, &SinglePathOptions { passes: 1, restarts: 8 })
            .unwrap()
            .evaluations;
        assert!(eight > one * 4, "restarts barely increased work: {one} -> {eight}");
    }
}

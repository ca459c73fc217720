//! Ablation of NMAP's search knobs (the design choices DESIGN.md §6
//! items 9 calls out): how much do extra sweeps and deterministic
//! restarts improve on the paper's literal single-descent configuration,
//! and what do they cost?
//!
//! A second axis ([`run_strategies`]) compares whole *search strategies*
//! through the [`nmap::search::Mapper`] trait — the greedy descent family
//! against simulated annealing and tabu search, the direction Marcon et
//! al. (*Exploring NoC Mapping Strategies*) explore — all driving the
//! same O(deg) swap-delta kernel and the same Equation-7 cost.

use std::time::{Duration, Instant};

use nmap::search::{SaOptions, TabuOptions};
use nmap::{map_single_path_with, EvalContext, SinglePathOptions};
use noc_apps::App;
use noc_dse::MapperSpec;
use noc_probe::Probe;

use crate::{app_problem, GENEROUS_CAPACITY};

/// One (configuration × application) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationPoint {
    /// Configuration label.
    pub config: &'static str,
    /// Application.
    pub app: App,
    /// Equation-7 cost reached.
    pub comm_cost: f64,
    /// Candidate placements evaluated.
    pub evaluations: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// The configurations compared: the paper's literal setting, passes-only
/// scaling, restarts-only scaling, and the crate default.
pub fn configurations() -> Vec<(&'static str, SinglePathOptions)> {
    vec![
        ("paper (1 pass, 1 start)", SinglePathOptions::paper_exact()),
        ("3 passes, 1 start", SinglePathOptions { passes: 3, restarts: 1 }),
        ("1 pass, 8 starts", SinglePathOptions { passes: 1, restarts: 8 }),
        ("default (2 passes, 8 starts)", SinglePathOptions::default()),
    ]
}

/// Runs every configuration on every video application. Each
/// configuration runs through a fresh [`EvalContext`], exactly like
/// [`nmap::map_single_path`], with `probe` attached (evaluation and
/// delta-gate counters); a live probe observes only, so outcomes are
/// identical to a disabled one.
pub fn run_all(probe: &Probe) -> Vec<AblationPoint> {
    let mut out = Vec::new();
    for app in App::all() {
        let problem = app_problem(app, GENEROUS_CAPACITY);
        for (config, options) in configurations() {
            let mut ctx = EvalContext::new(&problem);
            ctx.set_probe(probe);
            let start = Instant::now();
            let result = map_single_path_with(&mut ctx, &options).expect("mesh routing succeeds");
            out.push(AblationPoint {
                config,
                app,
                comm_cost: result.comm_cost.to_f64(),
                evaluations: result.evaluations,
                elapsed: start.elapsed(),
            });
        }
    }
    out
}

/// One (search strategy × application) measurement through the
/// [`nmap::search::Mapper`] trait.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyPoint {
    /// `.dse` name of the strategy (`nmap-paper`, `sa`, ...).
    pub mapper: String,
    /// Application.
    pub app: App,
    /// Equation-7 cost reached.
    pub comm_cost: f64,
    /// Whether the strategy's own regime found the placement feasible.
    pub feasible: bool,
    /// Candidate placements examined.
    pub evaluations: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// Seed for the stochastic strategies — fixed so the table reproduces.
const STRATEGY_SEED: u64 = 42;

/// The strategies compared by [`run_strategies`]: the descent family
/// (`nmap-paper`, `nmap`) plus the two kernel-powered searches (`sa`,
/// `tabu`). The constructive baselines are covered by Figure 3; the split
/// mappers by Table 3.
pub fn strategies() -> [MapperSpec; 4] {
    [
        MapperSpec::Nmap(SinglePathOptions::paper_exact()),
        MapperSpec::Nmap(SinglePathOptions::default()),
        MapperSpec::Sa(SaOptions::default()),
        MapperSpec::Tabu(TabuOptions::default()),
    ]
}

/// Runs every search strategy on every video application. Each strategy
/// gets a fresh [`EvalContext`] so every timed region pays its own
/// quadrant-DAG cache builds — the time column compares strategies, not
/// cache-warming order (outcomes are context-independent either way).
/// With a live `probe` the search counters and the
/// `sa.sample`/`tabu.sample` trajectory events land in the profile;
/// outcomes are identical to a disabled one.
pub fn run_strategies(probe: &Probe) -> Vec<StrategyPoint> {
    let mut out = Vec::new();
    for app in App::all() {
        let problem = app_problem(app, GENEROUS_CAPACITY);
        for spec in strategies() {
            let mapper = spec.mapper(STRATEGY_SEED);
            let mut ctx = EvalContext::new(&problem);
            ctx.set_probe(probe);
            let start = Instant::now();
            let outcome = mapper.map(&mut ctx).expect("mesh mapping succeeds");
            out.push(StrategyPoint {
                mapper: spec.name(),
                app,
                comm_cost: outcome.comm_cost.to_f64(),
                feasible: outcome.feasible,
                evaluations: outcome.evaluations,
                elapsed: start.elapsed(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmap::map_single_path;

    #[test]
    fn richer_configurations_never_lose_on_pip() {
        let problem = app_problem(App::Pip, GENEROUS_CAPACITY);
        let mut last = f64::INFINITY;
        // Configurations are ordered weakest-to-strongest in terms of the
        // search they subsume pairwise with the paper baseline.
        let paper = map_single_path(&problem, &SinglePathOptions::paper_exact()).unwrap().comm_cost;
        let default = map_single_path(&problem, &SinglePathOptions::default()).unwrap().comm_cost;
        assert!(default.to_f64() <= paper.to_f64() + 1e-9);
        let _ = &mut last;
    }

    #[test]
    fn strategy_sweep_covers_every_pair_and_stays_feasible() {
        let points = run_strategies(&Probe::disabled());
        assert_eq!(points.len(), App::all().len() * strategies().len());
        for p in &points {
            assert!(p.feasible, "{:?}/{} infeasible at generous capacity", p.app, p.mapper);
            assert!(p.comm_cost > 0.0);
        }
        // Deterministic: the stochastic strategies are pinned by seed.
        let again = run_strategies(&Probe::disabled());
        for (a, b) in points.iter().zip(&again) {
            assert_eq!(a.comm_cost, b.comm_cost, "{}/{:?}", a.mapper, a.app);
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

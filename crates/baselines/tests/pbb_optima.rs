//! The proven Equation-7 optima of the six paper apps, each on its own
//! mesh at Fig. 3's 2000 MB/s.
//!
//! PBB's bound is admissible, so a run that neither drops a queue entry
//! nor runs out of expansions (`truncated == false`) has proven its
//! placement optimal, subject to PBB's capacity check. Every optimum here
//! is also feasible, and equals that of an unconstrained run. The budgets
//! below never bind on these inputs.
//!
//! PIP, VOPD, MPEG4 and DSD take about a second or less in a debug build
//! and run in every `cargo test`. MWA and MWAG are `#[ignore]`d there and
//! run in release, with the others, in the CI step "PBB proven optima
//! (release)":
//! `cargo test --locked --release -p noc-baselines --test pbb_optima -- --include-ignored`.

use nmap::MappingProblem;
use noc_apps::App;
use noc_baselines::{pbb, PbbOptions};
use noc_graph::Topology;

/// Budgets too large to bind on any paper app.
const UNBOUNDED: PbbOptions = PbbOptions { max_queue: 30_000_000, max_expansions: 100_000_000 };

fn assert_proven_optimum(app: App, optimum: f64) {
    let (w, h) = app.mesh_dims();
    let problem = MappingProblem::new(app.core_graph(), Topology::mesh(w, h, 2000.0)).unwrap();
    let out = pbb(&problem, &UNBOUNDED);
    let name = app.name();
    assert!(!out.truncated, "{name}: a budget bound, so the placement is not proven optimal");
    assert!(out.feasible, "{name}: the optimum overloads a link");
    assert_eq!(out.comm_cost.to_f64(), optimum, "{name}: optimum moved");
}

#[test]
fn pip_optimum_is_704() {
    assert_proven_optimum(App::Pip, 704.0);
}

#[test]
fn vopd_optimum_is_3731() {
    assert_proven_optimum(App::Vopd, 3731.0);
}

#[test]
fn mpeg4_optimum_is_4168() {
    assert_proven_optimum(App::Mpeg4, 4168.0);
}

#[test]
fn dsd_optimum_is_1568() {
    assert_proven_optimum(App::Dsd, 1568.0);
}

#[test]
#[ignore = "about 4 s in a debug build; the CI step \"PBB proven optima (release)\" runs it"]
fn mwa_optimum_is_1472() {
    assert_proven_optimum(App::Mwa, 1472.0);
}

#[test]
#[ignore = "about 4-5 s and 0.6 GB in release; the CI step \"PBB proven optima (release)\" runs it"]
fn mwag_optimum_is_1856() {
    assert_proven_optimum(App::Mwag, 1856.0);
}

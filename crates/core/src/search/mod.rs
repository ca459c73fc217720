//! Two search strategies beyond the paper, riding on the cheap
//! swap-delta kernel and following the strategy axis explored by Marcon
//! et al. (*Exploring NoC Mapping Strategies*): seeded simulated
//! annealing ([`anneal`]) and deterministic tabu search
//! ([`tabu_search`]).
//!
//! Both return the placement and the number of candidate placements they
//! examined, the call shape `noc_dse::MapperSpec` dispatches every
//! algorithm to. The stochastic one takes its seed from the scenario
//! that runs it — never from worker identity — keeping parallel sweeps
//! byte-identical.

mod sa;
mod tabu;

pub use sa::{anneal, SaOptions};
pub use tabu::{tabu_search, TabuOptions};

use noc_units::Score;

use crate::Mapping;

/// The placement a swap search reports: the best *feasible* one (its
/// evaluate() score is its exact cost), or the best-cost placement seen
/// when nothing feasible was found.
fn search_outcome(best_score: Score, best: Mapping, best_any: Mapping) -> Mapping {
    if best_score.cost().is_some() {
        best
    } else {
        best_any
    }
}

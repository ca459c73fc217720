//! Table 2: communication-cost scaling on random graphs — PBB vs NMAP as
//! the core count grows from 25 to 65.
//!
//! The paper generated the graphs with LEDA; we use the seeded generator
//! of [`noc_graph::random`] (DESIGN.md substitution table). For each size
//! several instances are generated and the costs averaged, which smooths
//! instance-to-instance noise without changing the trend the table shows:
//! PBB's bounded search degrades as the tree widens, NMAP keeps winning
//! by larger factors. The study runs through the engine in
//! [`crate::dse_bridge::table2_via_engine`]; this module holds its
//! configuration and row types.

use noc_baselines::PbbOptions;

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Number of cores.
    pub cores: usize,
    /// Mean PBB communication cost over the instances.
    pub pbb: f64,
    /// Mean NMAP (single-path) communication cost.
    pub nmap: f64,
    /// `pbb / nmap`.
    pub ratio: f64,
}

/// Parameters of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Config {
    /// Core counts to sweep (paper: 25, 35, 45, 55, 65).
    pub sizes: Vec<usize>,
    /// Random instances per size (averaged).
    pub instances: u64,
    /// PBB search budget.
    pub pbb: PbbOptions,
}

impl Default for Table2Config {
    /// The PBB budget stands in for the paper's setting, where PBB "ran
    /// for few minutes": 50 000 expansions with a 5 000-entry queue. The
    /// budget is counted in expansions, not time, so the table does not
    /// depend on the machine. (With today's full default budget PBB
    /// narrows the gap; see EXPERIMENTS.md for both readings.)
    fn default() -> Self {
        Self {
            sizes: vec![25, 35, 45, 55, 65],
            instances: 3,
            pbb: PbbOptions { max_queue: 5_000, max_expansions: 50_000 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nmap_beats_truncated_pbb_on_a_25_core_instance() {
        // A single small-size spot check with a reduced PBB budget so the
        // test stays fast; the full sweep runs in the binary/bench.
        let config = Table2Config {
            sizes: vec![25],
            instances: 1,
            pbb: PbbOptions { max_queue: 2_000, max_expansions: 20_000 },
        };
        let rows = crate::dse_bridge::table2_via_engine(&config, 1);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].ratio >= 1.0, "ratio {} — NMAP should win at scale", rows[0].ratio);
        assert!(rows[0].nmap > 0.0);
    }
}

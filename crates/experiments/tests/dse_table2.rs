//! The acceptance check for Table 2 through the `noc-dse` engine: a
//! reduced configuration's rows must equal golden values bit for bit at
//! any worker count — same random-graph seeds, same mapper budgets, same
//! floating-point accumulation order.

use noc_baselines::PbbOptions;
use noc_experiments::dse_bridge::{table2_scenario_set, table2_via_engine};
use noc_experiments::table2::Table2Config;

/// A reduced configuration so the test stays fast; the full-size study
/// runs in `table2_scaling` and `nmap_dse --table2`.
fn small_config() -> Table2Config {
    Table2Config {
        sizes: vec![12, 16],
        instances: 2,
        pbb: PbbOptions { max_queue: 500, max_expansions: 5_000 },
    }
}

/// `(cores, PBB mean bits, NMAP mean bits, ratio bits)` of
/// `small_config()`, captured while a sequential harness still
/// cross-checked the engine (both agreed on every bit).
const GOLDEN: [(usize, u64, u64, u64); 2] = [
    (12, 0x40ba_669e_2fe3_0bc8, 0x40bc_456e_2592_4508, 0x3fed_e209_128f_df70),
    (16, 0x40c0_a6e2_8d08_d17e, 0x40c0_d322_aec6_c49a, 0x3fef_abd6_5847_c637),
];

#[test]
fn engine_reproduces_table2_exactly() {
    let config = small_config();
    for threads in [1usize, 4] {
        let rows: Vec<_> = table2_via_engine(&config, threads)
            .iter()
            .map(|r| (r.cores, r.pbb.to_bits(), r.nmap.to_bits(), r.ratio.to_bits()))
            .collect();
        assert_eq!(rows, GOLDEN, "threads={threads}");
    }
}

#[test]
fn scenario_set_carries_the_pbb_budget() {
    let config = small_config();
    let set = table2_scenario_set(&config);
    assert_eq!(set.len(), config.sizes.len() * config.instances as usize * 2);
    // Budgets ride inside the mapper spec, not a side channel.
    let has_budget = set
        .scenarios()
        .iter()
        .any(|s| matches!(&s.mapper, noc_dse::MapperSpec::Pbb(o) if *o == config.pbb));
    assert!(has_budget);
}

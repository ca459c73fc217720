//! The engine-backed Figure 5(c) sweep must reproduce the sequential
//! harness exactly: same DSP design, same simulator seeds, same points —
//! at any worker count. This is the simulation counterpart of the
//! `dse_table2` mutual check. The sweep also cross-checks the simulator
//! loops: the active-set default and the full-scan oracle must produce
//! identical Figure 5(c) points.

use noc_experiments::dse_bridge::{fig5c_smoke_config, fig5c_via_engine};
use noc_experiments::fig5c::{self, Fig5cConfig};
use noc_sim::LoopKind;

#[test]
fn engine_fig5c_matches_sequential_harness_at_1_and_4_threads() {
    let config = fig5c_smoke_config();
    let reference = fig5c::run(&config);
    assert_eq!(reference.len(), config.bandwidths_mbps.len());
    for point in &reference {
        assert!(point.minpath_latency > 0.0 && point.split_latency > 0.0);
    }
    for threads in [1usize, 4] {
        let engine = fig5c_via_engine(&config, threads);
        assert_eq!(engine, reference, "threads={threads}");
    }
}

#[test]
fn fig5c_points_are_identical_under_every_loop_kind() {
    // The figure the paper plots must not depend on which simulator main
    // loop produced it: diff the whole sweep (sequential harness *and*
    // engine pool) between the default loop and the full-scan oracle.
    let with_kind = |loop_kind| Fig5cConfig { loop_kind, ..fig5c_smoke_config() };
    let oracle = fig5c::run(&with_kind(LoopKind::FullScan));
    let config = with_kind(LoopKind::ActiveSet);
    assert_eq!(fig5c::run(&config), oracle, "sequential active-set diverged");
    assert_eq!(fig5c_via_engine(&config, 4), oracle, "engine active-set diverged");
}

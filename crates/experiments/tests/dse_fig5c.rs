//! The engine-backed Figure 5(c) sweep, pinned: the reduced
//! `fig5c_smoke_config()` points must equal golden values bit for bit at
//! any worker count and under both simulator loops — the active-set
//! default and the full-scan oracle.

use noc_experiments::dse_bridge::{fig5c_smoke_config, fig5c_via_engine};
use noc_experiments::fig5c::{Fig5cConfig, Fig5cPoint};
use noc_sim::LoopKind;

/// One point as `(bandwidth MB/s, minpath, split, minpath network, split
/// network latency bits, minpath saturated, split saturated)`.
type PointBits = (f64, u64, u64, u64, u64, bool, bool);

/// The smoke points, captured while a sequential harness still
/// cross-checked the engine (both agreed on every bit).
const GOLDEN: [PointBits; 2] = [
    (
        1_200.0,
        0x4060_23e8_6142_583a,
        0x4052_e158_9347_3525,
        0x404a_e32b_6b55_1a0d,
        0x404f_afc2_dd9c_a81f,
        false,
        false,
    ),
    (
        1_600.0,
        0x4051_78f7_50ee_faca,
        0x404b_c258_3a5b_01bd,
        0x4044_7005_8ec3_3689,
        0x4047_7a9d_b2e3_2b6b,
        false,
        false,
    ),
];

fn bits(points: &[Fig5cPoint]) -> Vec<PointBits> {
    points
        .iter()
        .map(|p| {
            (
                p.bandwidth_mbps,
                p.minpath_latency.to_bits(),
                p.split_latency.to_bits(),
                p.minpath_network_latency.to_bits(),
                p.split_network_latency.to_bits(),
                p.minpath_saturated,
                p.split_saturated,
            )
        })
        .collect()
}

#[test]
fn engine_fig5c_matches_golden_points_at_1_and_4_threads() {
    let config = fig5c_smoke_config();
    for threads in [1usize, 4] {
        assert_eq!(bits(&fig5c_via_engine(&config, threads)), GOLDEN, "threads={threads}");
    }
}

#[test]
fn fig5c_points_are_identical_under_every_loop_kind() {
    // The figure the paper plots must not depend on which simulator main
    // loop produced it: diff the whole sweep between the default loop
    // and the full-scan oracle, which must itself hit the golden points.
    let with_kind = |loop_kind| Fig5cConfig { loop_kind, ..fig5c_smoke_config() };
    let oracle = fig5c_via_engine(&with_kind(LoopKind::FullScan), 4);
    assert_eq!(bits(&oracle), GOLDEN, "full-scan oracle moved");
    assert_eq!(fig5c_via_engine(&with_kind(LoopKind::ActiveSet), 4), oracle, "active-set diverged");
}

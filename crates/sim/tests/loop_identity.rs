//! Differential oracle harness for the simulator's main loop.
//!
//! The default loop ([`LoopKind::ActiveSet`]: active index set plus the
//! empty-network fast-forward) must be **bit-identical** to the naive
//! reference loop ([`LoopKind::FullScan`]), retained for exactly this
//! purpose: every field of the [`SimReport`] — including every `f64`,
//! compared exactly, never with a tolerance — has to match on every
//! workload. This suite drives both loops over the paper's six benchmark
//! applications plus the DSP filter design, over seeded random traffic,
//! a watchdog-dropping cyclic deadlock and a mostly idle run, across
//! warm-up/measure/drain window shapes from degenerate (zero warm-up,
//! zero drain) to contended (saturating bandwidth).
//!
//! Style follows the repo's oracle-retention convention (`nmap`'s
//! `swap_delta_identity` and `dor_xy_equivalence` suites): the old
//! implementation is kept alive as the spec of the new one.
//!
//! The loop kinds share the simulator's whole per-cycle state, so
//! agreeing with each other cannot catch a change to that shared state.
//! Every case therefore also checks the oracle report against a pinned
//! digest ([`PINNED`]) of its `Debug` rendering, captured before the flat
//! hot-state rewrite (static route table, dense input ids, active index
//! set; the idle case: before the empty-network fast-forward). A
//! legitimate model change must re-pin the table and say why.

use noc_apps::{dsp_filter, App};
use noc_graph::{CoreGraph, NodeId, Topology};
use noc_sim::{FlowSpec, LoopKind, SimConfig, SimReport, Simulator};
use noc_units::mbps;

/// Builds an XY path between two nodes of a mesh (always valid).
fn xy_path(t: &Topology, from: NodeId, to: NodeId) -> Vec<noc_graph::LinkId> {
    let (mut x, mut y) = t.coords(from);
    let (tx, ty) = t.coords(to);
    let mut links = Vec::new();
    let mut at = from;
    while x != tx {
        let nx = if tx > x { x + 1 } else { x - 1 };
        let next = t.node_at(nx, y).expect("in range");
        links.push(t.find_link(at, next).expect("mesh link"));
        at = next;
        x = nx;
    }
    while y != ty {
        let ny = if ty > y { y + 1 } else { y - 1 };
        let next = t.node_at(x, ny).expect("in range");
        links.push(t.find_link(at, next).expect("mesh link"));
        at = next;
        y = ny;
    }
    links
}

/// Identity placement (core `i` on node `i`) of an application graph onto
/// a mesh, XY-routed: one simulator flow per core-graph edge at the
/// edge's average bandwidth. The placement is deliberately naive — the
/// identity suite tests the simulator, not the mapper, and a naive
/// placement produces *more* link contention, which is exactly where the
/// active index set's bookkeeping can go wrong.
fn app_flows(t: &Topology, graph: &CoreGraph) -> Vec<FlowSpec> {
    assert!(graph.core_count() <= t.node_count(), "app must fit the mesh");
    graph
        .edges()
        .map(|(_, e)| {
            let from = NodeId::new(e.src.index());
            let to = NodeId::new(e.dst.index());
            FlowSpec::single_path(from, to, e.bandwidth, xy_path(t, from, to))
        })
        .collect()
}

/// FNV-1a-64 digest of a report's `Debug` rendering, which prints every
/// field (each `f64` in its shortest round-trip form).
fn digest(report: &SimReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Asserts that `report` matches the digest pinned for `label`.
fn assert_pinned(label: &str, report: &SimReport) {
    let Some(&(_, want)) = PINNED.iter().find(|(l, _)| *l == label) else {
        panic!("{label}: no pinned digest (got {:#018x})", digest(report));
    };
    assert_eq!(digest(report), want, "{label}: report differs from the pinned digest");
}

/// Runs `flows` on `t` under both loop kinds, asserts the reports are
/// bit-identical and that the oracle report matches its pinned digest,
/// and returns the oracle report with the active-set simulator, whose
/// executed-cycle count the idle case checks.
fn assert_identical(
    t: &Topology,
    flows: &[FlowSpec],
    config: &SimConfig,
    label: &str,
) -> (SimReport, Simulator) {
    let run = |kind: LoopKind| {
        let mut sim = Simulator::new(t, flows.to_vec(), config.clone());
        sim.set_loop_kind(kind);
        (sim.run(), sim)
    };
    let (oracle, _) = run(LoopKind::FullScan);
    assert_pinned(label, &oracle);
    let (report, active) = run(LoopKind::ActiveSet);
    assert_eq!(report, oracle, "{label}: active-set diverged from the full-scan oracle");
    (oracle, active)
}

/// Window shapes the loops must agree on: the steady-state default-style
/// window, a zero-warm-up window (statistics from cycle 0), and a
/// zero-drain window (in-flight measured packets left unfinished — the
/// report's `unfinished_measured_packets` path).
fn window_configs(seed: u64) -> [SimConfig; 3] {
    let base = SimConfig { seed, ..SimConfig::default() };
    [
        SimConfig {
            warmup_cycles: 1_000,
            measure_cycles: 8_000,
            drain_cycles: 4_000,
            ..base.clone()
        },
        SimConfig { warmup_cycles: 0, measure_cycles: 6_000, drain_cycles: 3_000, ..base.clone() },
        SimConfig { warmup_cycles: 800, measure_cycles: 5_000, drain_cycles: 0, ..base },
    ]
}

#[test]
fn six_paper_apps_are_bit_identical_across_loops() {
    for app in App::all() {
        let graph = app.core_graph();
        let (w, h) = app.mesh_dims();
        // Two bandwidth regimes per app: comfortable (light contention)
        // and tight (heavy blocking, the hard case for the active index
        // set). The tight capacity still clears each flow's own rate so
        // the sources are not trivially saturated at injection.
        let max_rate = graph.edges().map(|(_, e)| e.bandwidth.to_f64()).fold(0.0, f64::max);
        for capacity in [max_rate * 4.0, max_rate * 1.25] {
            let t = Topology::mesh(w, h, capacity);
            let flows = app_flows(&t, &graph);
            for (w, config) in window_configs(0xA0C0_FFEE ^ capacity.to_bits()).iter().enumerate() {
                let (report, _) = assert_identical(
                    &t,
                    &flows,
                    config,
                    &format!("{} @ {capacity} MB/s, window {w}", app.name()),
                );
                assert!(report.generated_packets > 0, "{}: silent run proves nothing", app.name());
            }
        }
    }
}

#[test]
fn dsp_filter_design_is_bit_identical_across_loops() {
    // The DSP filter is the paper's simulation workload (Figure 5); sweep
    // it across the Figure 5(c) bandwidth range endpoints plus a
    // saturating point below Table 3's 600 MB/s min-path requirement.
    let graph = dsp_filter();
    let t_dims = Topology::fit_mesh_dims(graph.core_count());
    for bw in [550.0, 1_100.0, 1_800.0] {
        let t = Topology::mesh(t_dims.0, t_dims.1, bw);
        let flows = app_flows(&t, &graph);
        for (w, config) in window_configs(7).iter().enumerate() {
            assert_identical(&t, &flows, config, &format!("dsp @ {bw} MB/s, window {w}"));
        }
    }
}

#[test]
fn dense_dsp_load_is_bit_identical_across_loops() {
    // A saturating DSP-filter load keeps the network busy nearly every
    // cycle, so the empty-network fast-forward rarely fires. The digest
    // stays pinned under the label it was captured with.
    let graph = dsp_filter();
    let (w, h) = Topology::fit_mesh_dims(graph.core_count());
    let t = Topology::mesh(w, h, 550.0);
    let flows = app_flows(&t, &graph);
    let config = SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 8_000,
        drain_cycles: 4_000,
        seed: 7,
        ..SimConfig::default()
    };
    assert_identical(&t, &flows, &config, "dsp @ 550 MB/s, hybrid fall-back");
}

/// Tiny deterministic generator for the random-traffic leg (no RNG crate
/// in the test: the identity property must not depend on rand internals).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn seeded_random_traffic_is_bit_identical_across_loops() {
    for seed in 0u64..6 {
        let mut state = 0xDEAD_BEEF ^ seed;
        let w = 2 + (splitmix64(&mut state) % 3) as usize; // 2..=4
        let h = 2 + (splitmix64(&mut state) % 3) as usize;
        let t = Topology::mesh(w, h, 900.0);
        let n = t.node_count();
        let flow_count = 2 + (splitmix64(&mut state) % 5) as usize;
        let mut flows = Vec::new();
        while flows.len() < flow_count {
            let from = NodeId::new((splitmix64(&mut state) as usize) % n);
            let to = NodeId::new((splitmix64(&mut state) as usize) % n);
            if from == to {
                continue;
            }
            let rate = 40.0 + (splitmix64(&mut state) % 400) as f64;
            flows.push(FlowSpec::single_path(from, to, mbps(rate), xy_path(&t, from, to)));
        }
        // Vary the traffic-process shape too: burstier sources stress the
        // source-fire scheduling, longer bursts the back-to-back case.
        let burst_packets = 1 + (splitmix64(&mut state) % 16) as u32;
        let burst_intensity = 1.0 + (splitmix64(&mut state) % 50) as f64 / 10.0;
        for (w, mut config) in window_configs(seed.wrapping_mul(0x51_7C_C1)).into_iter().enumerate()
        {
            config.burst_packets = burst_packets;
            config.burst_intensity = burst_intensity;
            assert_identical(
                &t,
                &flows,
                &config,
                &format!("random traffic seed {seed}, window {w}"),
            );
        }
    }
}

#[test]
fn split_flows_are_bit_identical_across_loops() {
    // Split routing multiplexes one source over several paths — the
    // Figure 5(c) split design's traffic shape.
    let t = Topology::mesh(3, 2, 700.0);
    let from = NodeId::new(0);
    let to = NodeId::new(5);
    let p1 = xy_path(&t, from, to);
    let mid = NodeId::new(3);
    let mut p2 = xy_path(&t, from, mid);
    p2.extend(xy_path(&t, mid, to));
    let flows = vec![
        FlowSpec::split(from, to, mbps(600.0), vec![(p1, 2.0), (p2, 1.0)]),
        FlowSpec::single_path(
            NodeId::new(4),
            NodeId::new(1),
            mbps(150.0),
            xy_path(&t, NodeId::new(4), NodeId::new(1)),
        ),
    ];
    for (w, config) in window_configs(42).iter().enumerate() {
        assert_identical(&t, &flows, config, &format!("split flow, window {w}"));
    }
}

#[test]
fn cyclic_deadlock_drops_are_bit_identical_across_loops() {
    // Four 3-hop flows chase each other around the ring 0→1→3→2→0 of a
    // 2×2 mesh, each holding one link while it waits for the next. With
    // two-flit buffers the wormholes close the cycle, nothing moves for
    // the stall window and the watchdog drops the oldest packet: the one
    // place the simulator rebuilds its whole per-front bookkeeping.
    let t = Topology::mesh(2, 2, 1_000.0);
    let ring = [0, 1, 3, 2];
    let flows: Vec<FlowSpec> = (0..ring.len())
        .map(|k| {
            let hops: Vec<NodeId> = (0..4).map(|j| NodeId::new(ring[(k + j) % 4])).collect();
            let path = hops.windows(2).map(|w| t.find_link(w[0], w[1]).expect("ring link"));
            FlowSpec::single_path(hops[0], hops[3], mbps(600.0), path.collect())
        })
        .collect();
    let config = SimConfig {
        warmup_cycles: 2_000,
        measure_cycles: 20_000,
        drain_cycles: 10_000,
        buffer_flits: 2,
        seed: 5,
        ..SimConfig::default()
    };
    let (report, _) = assert_identical(&t, &flows, &config, "2x2 ring deadlock");
    assert!(report.dropped_packets > 0, "the ring never deadlocked");
}

#[test]
fn idle_network_fast_forwards_bit_identically() {
    // One 5 MB/s flow on 1 GB/s links sends four packets in 81,000
    // cycles, so the network sits empty across some 16 watchdog
    // deadlines. The active-set loop jumps over the empty stretches —
    // stopping at every source fire and watchdog deadline — and must
    // still match the full scan, which steps through every cycle.
    let t = Topology::mesh(3, 3, 1_000.0);
    let (from, to) = (NodeId::new(0), NodeId::new(2));
    let flows = vec![FlowSpec::single_path(from, to, mbps(5.0), xy_path(&t, from, to))];
    let config = SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 20_000,
        drain_cycles: 60_000,
        seed: 3,
        ..SimConfig::default()
    };
    let (report, active) = assert_identical(&t, &flows, &config, "3x3 idle, 5 MB/s");
    assert!(report.delivered_packets > 0, "the idle case must still move packets");
    assert!(
        active.executed_cycles() < report.cycles / 10,
        "executed {} of {} cycles: the empty network was not fast-forwarded",
        active.executed_cycles(),
        report.cycles
    );
}

/// FNV-1a-64 digests of each case's oracle report, captured before the
/// flat hot-state rewrite of the simulator (the idle case: before the
/// empty-network fast-forward).
const PINNED: &[(&str, u64)] = &[
    ("2x2 ring deadlock", 0x1302_937f_5ebc_a4dc),
    ("3x3 idle, 5 MB/s", 0x52c0_3677_b368_bc12),
    ("dsp @ 550 MB/s, window 0", 0x53a4_da64_ce81_9c3b),
    ("dsp @ 550 MB/s, window 1", 0x7505_1cc9_2e3d_4ff6),
    ("dsp @ 550 MB/s, window 2", 0x5f32_3ad8_e913_067e),
    ("dsp @ 1100 MB/s, window 0", 0x6cdf_f42a_e7d6_2bec),
    ("dsp @ 1100 MB/s, window 1", 0x45d1_06e5_f9a2_be3e),
    ("dsp @ 1100 MB/s, window 2", 0x0598_93ff_d127_5fc0),
    ("dsp @ 1800 MB/s, window 0", 0x9801_e79b_e82a_0825),
    ("dsp @ 1800 MB/s, window 1", 0x4a8f_ed21_3ad5_200d),
    ("dsp @ 1800 MB/s, window 2", 0xd11e_d3c6_80e2_ea82),
    ("dsp @ 550 MB/s, hybrid fall-back", 0x53a4_da64_ce81_9c3b),
    ("random traffic seed 0, window 0", 0x74a9_e517_936f_f735),
    ("random traffic seed 0, window 1", 0x13d1_a67f_0bf9_95c6),
    ("random traffic seed 0, window 2", 0x8d1e_55a1_9c6a_86d8),
    ("random traffic seed 1, window 0", 0x00d9_25ae_634d_52e7),
    ("random traffic seed 1, window 1", 0x6454_202c_0f41_651a),
    ("random traffic seed 1, window 2", 0x4c17_1286_9610_0e0c),
    ("random traffic seed 2, window 0", 0xf4f1_1198_7e19_cbc8),
    ("random traffic seed 2, window 1", 0x8dca_068e_8c23_5561),
    ("random traffic seed 2, window 2", 0xc55e_2a1e_32b4_7b99),
    ("random traffic seed 3, window 0", 0x2d06_d23f_7002_b5d2),
    ("random traffic seed 3, window 1", 0xb12e_326e_c074_e852),
    ("random traffic seed 3, window 2", 0xd372_f5b2_20a6_4bb9),
    ("random traffic seed 4, window 0", 0x6c49_e944_34f4_c7d0),
    ("random traffic seed 4, window 1", 0x99ef_ea69_e847_5ed0),
    ("random traffic seed 4, window 2", 0x3908_154b_11c9_92da),
    ("random traffic seed 5, window 0", 0x05ea_ac0e_0ef9_296c),
    ("random traffic seed 5, window 1", 0x756b_91f0_de1f_44e9),
    ("random traffic seed 5, window 2", 0xd28b_39dd_b331_95e1),
    ("MPEG4 @ 2000 MB/s, window 0", 0x967b_6e0a_7564_b689),
    ("MPEG4 @ 2000 MB/s, window 1", 0xcb2c_c937_844a_2bc9),
    ("MPEG4 @ 2000 MB/s, window 2", 0x5a62_e320_ae3b_08fa),
    ("MPEG4 @ 625 MB/s, window 0", 0xb8d0_1dc0_031d_0e01),
    ("MPEG4 @ 625 MB/s, window 1", 0xd50c_9515_1cb3_c74f),
    ("MPEG4 @ 625 MB/s, window 2", 0x2e5a_8fc2_a5a2_f5ed),
    ("VOPD @ 2000 MB/s, window 0", 0xea65_5198_6b50_0918),
    ("VOPD @ 2000 MB/s, window 1", 0xea16_205b_8bea_9188),
    ("VOPD @ 2000 MB/s, window 2", 0xff05_c921_6647_7e73),
    ("VOPD @ 625 MB/s, window 0", 0xf477_3e59_70d0_0c71),
    ("VOPD @ 625 MB/s, window 1", 0x14a8_4a81_b817_55bd),
    ("VOPD @ 625 MB/s, window 2", 0x39b8_88fe_e179_e9ba),
    ("PIP @ 512 MB/s, window 0", 0x2144_fba8_374d_8cae),
    ("PIP @ 512 MB/s, window 1", 0x04c1_47d5_2806_9983),
    ("PIP @ 512 MB/s, window 2", 0x15dc_ce37_cf9e_122d),
    ("PIP @ 160 MB/s, window 0", 0x1271_28d7_ef68_cbce),
    ("PIP @ 160 MB/s, window 1", 0xab22_8296_e7c5_3352),
    ("PIP @ 160 MB/s, window 2", 0x1127_bfaa_6458_f653),
    ("MWA @ 768 MB/s, window 0", 0xbe34_c3ac_ca40_ad27),
    ("MWA @ 768 MB/s, window 1", 0xae4b_6dff_0e86_e545),
    ("MWA @ 768 MB/s, window 2", 0x67e2_7051_8da0_6870),
    ("MWA @ 240 MB/s, window 0", 0xfcdf_2f2b_a632_0eac),
    ("MWA @ 240 MB/s, window 1", 0x384a_7357_c8c3_3cf9),
    ("MWA @ 240 MB/s, window 2", 0xa052_14a4_ac03_b6f7),
    ("MWAG @ 768 MB/s, window 0", 0xf701_ac0a_ffc3_210f),
    ("MWAG @ 768 MB/s, window 1", 0xb7f6_2490_64cc_f589),
    ("MWAG @ 768 MB/s, window 2", 0x457c_b3a9_b1e3_0050),
    ("MWAG @ 240 MB/s, window 0", 0x3a8e_a299_81fc_4a2c),
    ("MWAG @ 240 MB/s, window 1", 0x7ccb_9392_9ca5_70d3),
    ("MWAG @ 240 MB/s, window 2", 0x1557_6dbe_6729_4657),
    ("DSD @ 640 MB/s, window 0", 0xc189_545b_575e_1921),
    ("DSD @ 640 MB/s, window 1", 0x2317_272a_b74e_12d3),
    ("DSD @ 640 MB/s, window 2", 0xc528_2889_ab65_b43a),
    ("DSD @ 200 MB/s, window 0", 0xc3e1_b1c9_8170_69a0),
    ("DSD @ 200 MB/s, window 1", 0xe652_a859_73bd_059a),
    ("DSD @ 200 MB/s, window 2", 0x56fb_d3f4_3390_b83e),
    ("split flow, window 0", 0x38af_c5f7_e99a_b115),
    ("split flow, window 1", 0xfc06_c2e9_9369_d597),
    ("split flow, window 2", 0x7865_0e23_7c34_e4e8),
];

//! Property-based differential tests for the simulator's main loop:
//! random topologies, burst configurations, bandwidth points and loads
//! must all produce active-set reports bit-identical to the full-scan
//! oracle, and both loops must terminate at exactly the configured
//! horizon.
//!
//! The empty-network fast-forward carries debug assertions that it jumps
//! only while every buffer is empty and never into the past, and these
//! tests run unoptimized: a bad jump panics the property rather than
//! silently skipping a cycle that mattered.

use noc_graph::{NodeId, Topology};
use noc_sim::{FlowSpec, LoopKind, SimConfig, Simulator};
use proptest::prelude::*;

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

fn run_kind(
    t: &Topology,
    flows: &[FlowSpec],
    config: &SimConfig,
    kind: LoopKind,
) -> noc_sim::SimReport {
    let mut sim = Simulator::new(t, flows.to_vec(), config.clone());
    sim.set_loop_kind(kind);
    sim.run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mesh + random flows + random burst shape + random link
    /// bandwidth: the active-set report equals the full-scan oracle field
    /// for field (delivered, latency sums, saturation, per-link flit
    /// counts — everything `SimReport` carries), and both loops terminate
    /// at the same configured horizon.
    #[test]
    fn active_set_matches_oracle_on_random_workloads(
        (w, h) in (2usize..=4, 2usize..=4),
        pairs in prop::collection::vec((0usize..16, 0usize..16, 20.0..400.0f64), 1..6),
        bandwidth in 150.0..1_500.0f64,
        burst_packets in 1u32..=16,
        burst_intensity in 1.0..6.0f64,
        (warmup, measure, drain) in (0u64..1_500, 1_000u64..6_000, 0u64..4_000),
        seed in 0u64..100,
    ) {
        let t = Topology::mesh(w, h, bandwidth);
        let n = t.node_count();
        let flows: Vec<FlowSpec> = pairs
            .into_iter()
            .filter_map(|(a, b, rate)| {
                let from = NodeId::new(a % n);
                let to = NodeId::new(b % n);
                (from != to).then(|| {
                    FlowSpec::single_path(from, to, noc_units::mbps(rate), xy_path(&t, from, to))
                })
            })
            .collect();
        prop_assume!(!flows.is_empty());
        let config = SimConfig {
            warmup_cycles: warmup,
            measure_cycles: measure,
            drain_cycles: drain,
            burst_packets,
            burst_intensity,
            seed,
            ..SimConfig::default()
        };
        let oracle = run_kind(&t, &flows, &config, LoopKind::FullScan);
        let active = run_kind(&t, &flows, &config, LoopKind::ActiveSet);
        // Termination at the exact horizon, not merely "eventually".
        prop_assert_eq!(oracle.cycles, warmup + measure + drain);
        prop_assert_eq!(active.cycles, oracle.cycles);
        // The headline statistics the paper plots...
        prop_assert_eq!(active.delivered_packets, oracle.delivered_packets);
        prop_assert!(active.avg_latency_cycles() == oracle.avg_latency_cycles());
        prop_assert_eq!(active.saturated(), oracle.saturated());
        // ...and then every other field, exactly.
        prop_assert_eq!(active, oracle);
    }

    /// An idle network (all sources silent) is the degenerate case for the
    /// fast-forward: it jumps from watchdog deadline to watchdog deadline,
    /// and the run must still cover the full horizon with an all-zero
    /// report identical to the oracle's.
    #[test]
    fn silent_network_terminates_and_matches(
        (w, h) in (2usize..=3, 2usize..=3),
        (warmup, measure, drain) in (0u64..500, 100u64..2_000, 0u64..500),
        seed in 0u64..20,
    ) {
        let t = Topology::mesh(w, h, 500.0);
        let to = NodeId::new(t.node_count() - 1);
        let flows = vec![FlowSpec::single_path(
            NodeId::new(0), to, noc_units::Mbps::ZERO, xy_path(&t, NodeId::new(0), to),
        )];
        let config = SimConfig {
            warmup_cycles: warmup,
            measure_cycles: measure,
            drain_cycles: drain,
            seed,
            ..SimConfig::default()
        };
        let oracle = run_kind(&t, &flows, &config, LoopKind::FullScan);
        let active = run_kind(&t, &flows, &config, LoopKind::ActiveSet);
        prop_assert_eq!(active.generated_packets, 0);
        prop_assert_eq!(active.cycles, warmup + measure + drain);
        prop_assert_eq!(active, oracle);
    }

    /// Deep saturation (offered load far above capacity) exercises the
    /// watchdog-recovery path and long blocking chains; the loops must
    /// still agree bit for bit.
    #[test]
    fn saturated_network_matches_oracle(
        rate in 500.0..2_000.0f64,
        bandwidth in 100.0..300.0f64,
        seed in 0u64..30,
    ) {
        let t = Topology::mesh(2, 2, bandwidth);
        let flows = vec![
            FlowSpec::single_path(
                NodeId::new(0), NodeId::new(3), noc_units::mbps(rate),
                xy_path(&t, NodeId::new(0), NodeId::new(3)),
            ),
            FlowSpec::single_path(
                NodeId::new(1), NodeId::new(2), noc_units::mbps(rate),
                xy_path(&t, NodeId::new(1), NodeId::new(2)),
            ),
        ];
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 4_000,
            drain_cycles: 1_000,
            seed,
            ..SimConfig::default()
        };
        let oracle = run_kind(&t, &flows, &config, LoopKind::FullScan);
        let active = run_kind(&t, &flows, &config, LoopKind::ActiveSet);
        prop_assert!(oracle.saturated(), "workload chosen to saturate");
        prop_assert_eq!(active, oracle);
    }

    /// Light load with a long drain: the network empties between packets
    /// and stays empty through the drain, across several watchdog
    /// deadlines, so the active-set loop fast-forwards — and must still
    /// match the oracle, which steps through every cycle.
    #[test]
    fn light_load_fast_forwards_and_matches_oracle(
        (w, h) in (2usize..=4, 2usize..=4),
        pairs in prop::collection::vec((0usize..16, 0usize..16, 1.0..30.0f64), 1..4),
        bandwidth in 150.0..1_500.0f64,
        burst_packets in 1u32..=8,
        (warmup, measure, drain) in (0u64..1_000, 1_000u64..8_000, 15_000u64..40_000),
        seed in 0u64..100,
    ) {
        let t = Topology::mesh(w, h, bandwidth);
        let n = t.node_count();
        let flows: Vec<FlowSpec> = pairs
            .into_iter()
            .filter_map(|(a, b, rate)| {
                let from = NodeId::new(a % n);
                let to = NodeId::new(b % n);
                (from != to).then(|| {
                    FlowSpec::single_path(from, to, noc_units::mbps(rate), xy_path(&t, from, to))
                })
            })
            .collect();
        prop_assume!(!flows.is_empty());
        let config = SimConfig {
            warmup_cycles: warmup,
            measure_cycles: measure,
            drain_cycles: drain,
            burst_packets,
            seed,
            ..SimConfig::default()
        };
        let oracle = run_kind(&t, &flows, &config, LoopKind::FullScan);
        let mut sim = Simulator::new(&t, flows.clone(), config.clone());
        sim.set_loop_kind(LoopKind::ActiveSet);
        let active = sim.run();
        prop_assert!(
            sim.executed_cycles() < active.cycles,
            "nothing fast-forwarded: executed {} of {}", sim.executed_cycles(), active.cycles
        );
        prop_assert_eq!(active, oracle);
    }
}

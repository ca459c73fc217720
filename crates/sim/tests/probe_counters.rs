//! Acceptance invariants for the simulator's cycle counters.
//!
//! The counters are strictly out-of-band, so their correctness is pinned
//! here against the quantities the simulator itself reports:
//!
//! * executed + skipped cycles sum exactly to the simulated window under
//!   both [`LoopKind`]s, and the executed counter equals
//!   [`Simulator::executed_cycles`];
//! * the full scan executes every cycle;
//! * the active-set loop fast-forwards over an empty network, so a mostly
//!   idle run skips cycles.

use noc_graph::{NodeId, Topology};
use noc_probe::{Probe, Profile};
use noc_sim::{FlowSpec, LoopKind, SimConfig, SimReport, Simulator};
use noc_units::mbps;

/// A 3×3 mesh with one light 0→1→2 flow and a long drain: the network
/// sits empty across several watchdog deadlines.
fn idle_workload() -> (Topology, Vec<FlowSpec>, SimConfig) {
    let t = Topology::mesh(3, 3, 1_000.0);
    let path = [(0, 1), (1, 2)]
        .iter()
        .map(|&(a, b)| t.find_link(NodeId::new(a), NodeId::new(b)).expect("link"))
        .collect();
    let flows = vec![FlowSpec::single_path(NodeId::new(0), NodeId::new(2), mbps(5.0), path)];
    let config = SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 20_000,
        drain_cycles: 60_000,
        seed: 3,
        ..SimConfig::default()
    };
    (t, flows, config)
}

/// Runs the idle workload under `kind` with a live probe attached,
/// returning the profile, the report and the executed-cycle accessor.
fn run_probed(kind: LoopKind) -> (Profile, SimReport, u64) {
    let (t, flows, config) = idle_workload();
    let mut sim = Simulator::new(&t, flows, config);
    sim.set_loop_kind(kind);
    let probe = Probe::new();
    sim.set_probe(&probe);
    let report = sim.run();
    (probe.snapshot(), report, sim.executed_cycles())
}

fn counter(profile: &Profile, name: &str) -> u64 {
    profile.counter(name).unwrap_or(0)
}

#[test]
fn executed_plus_skipped_covers_the_window_on_both_loops() {
    for kind in [LoopKind::FullScan, LoopKind::ActiveSet] {
        let (profile, report, executed_cycles) = run_probed(kind);
        let executed = counter(&profile, "sim.cycles_executed");
        let skipped = counter(&profile, "sim.cycles_skipped");
        assert_eq!(executed, executed_cycles, "{kind:?}: counter vs accessor");
        assert_eq!(executed + skipped, report.cycles, "{kind:?}: window");
        assert!(executed > 0, "{kind:?}: nothing executed");
    }
}

#[test]
fn full_scan_skips_nothing() {
    let (profile, report, executed) = run_probed(LoopKind::FullScan);
    assert_eq!(counter(&profile, "sim.cycles_skipped"), 0);
    assert_eq!(executed, report.cycles);
}

#[test]
fn active_set_fast_forwards_the_idle_network() {
    let (profile, report, _) = run_probed(LoopKind::ActiveSet);
    let skipped = counter(&profile, "sim.cycles_skipped");
    assert!(skipped > report.cycles / 2, "only {skipped} of {} cycles skipped", report.cycles);
}

//! PR 7's hard invariant, pinned differentially: every JSONL/CSV/summary
//! output of the engine is **byte-identical** with a live probe, a
//! disabled probe, and no probe at all — at 1, 2 and 8 worker threads.
//!
//! The sweep covers all six bundled applications plus a simulated leg
//! (tabu + wormhole stage), so the search counters, trajectory events
//! and simulator counters are all exercised on the probed side; the
//! Figure 5(c) engine sweep is compared point-for-point as well.

use noc_dse::{
    run_sweep, run_sweep_probed, EngineOptions, MapperSpec, RoutingSpec, ScenarioSet, SimulateSpec,
    StageTimes, SweepReport, TopologySpec,
};
use noc_experiments::dse_bridge::{fig5c_smoke_config, fig5c_via_engine, fig5c_via_engine_probed};
use noc_probe::Probe;

/// All six bundled applications, two mappers (constructive + tabu, the
/// latter exercising swap-delta and trajectory probes), min-path routing.
fn app_set() -> ScenarioSet {
    ScenarioSet::builder()
        .root_seed(7)
        .all_apps()
        .topology(TopologySpec::FitMesh)
        .mapper(MapperSpec::NmapInit)
        .mapper(MapperSpec::Tabu(Default::default()))
        .routing(RoutingSpec::MinPath)
        .build()
}

/// A small simulated leg so the engine's simulate stage (and therefore
/// the simulator's probe counters) runs on the probed side too.
fn sim_set() -> ScenarioSet {
    ScenarioSet::builder()
        .root_seed(7)
        .dsp()
        .topology(TopologySpec::FitMesh)
        .mapper(MapperSpec::NmapInit)
        .routing(RoutingSpec::MinPath)
        .simulate(SimulateSpec {
            warmup_cycles: 1_000,
            measure_cycles: 5_000,
            drain_cycles: 2_000,
            ..Default::default()
        })
        .build()
}

/// The wall-clock stage times legitimately differ between runs; zero
/// them so every remaining byte must match.
fn strip_times(mut report: SweepReport) -> SweepReport {
    for r in &mut report.records {
        r.times = StageTimes::default();
    }
    report
}

fn assert_outputs_identical(set: &ScenarioSet, label: &str) {
    for threads in [1usize, 2, 8] {
        let options = EngineOptions { threads, ..Default::default() };
        let unprobed = strip_times(run_sweep(set, &options));
        let live_probe = Probe::new();
        let live = strip_times(run_sweep_probed(set, &options, &live_probe));
        let disabled = strip_times(run_sweep_probed(set, &options, &Probe::disabled()));

        for (probed, which) in [(&live, "live"), (&disabled, "disabled")] {
            assert_eq!(
                probed.write_jsonl(false),
                unprobed.write_jsonl(false),
                "{label}: JSONL diverged ({which} probe, {threads} threads)"
            );
            assert_eq!(
                probed.write_csv(false),
                unprobed.write_csv(false),
                "{label}: CSV diverged ({which} probe, {threads} threads)"
            );
            assert_eq!(
                probed.summary().to_string(),
                unprobed.summary().to_string(),
                "{label}: summary diverged ({which} probe, {threads} threads)"
            );
        }

        // Sanity on the instrument itself: a live probe collects data.
        assert!(
            !live_probe.snapshot().is_empty(),
            "{label}: a live probe must collect ({threads} threads)"
        );
        assert!(
            Probe::disabled().snapshot().is_empty(),
            "{label}: a disabled probe must never collect"
        );
    }
}

#[test]
fn app_sweep_outputs_are_byte_identical_across_probe_states() {
    assert_outputs_identical(&app_set(), "six-app sweep");
}

#[test]
fn simulated_sweep_outputs_are_byte_identical_across_probe_states() {
    assert_outputs_identical(&sim_set(), "simulated sweep");
}

#[test]
fn fig5c_points_are_identical_across_probe_states() {
    let config = fig5c_smoke_config();
    for threads in [1usize, 2, 8] {
        let unprobed = fig5c_via_engine(&config, threads);
        let live = fig5c_via_engine_probed(&config, threads, &Probe::new());
        let disabled = fig5c_via_engine_probed(&config, threads, &Probe::disabled());
        assert_eq!(live, unprobed, "fig5c diverged with a live probe ({threads} threads)");
        assert_eq!(disabled, unprobed, "fig5c diverged with a disabled probe ({threads} threads)");
    }
}

/// A profiled fig5c run must satisfy the cycle accounting: executed +
/// skipped cycles sum to the same simulated window the full scan executes
/// in full, and the engine's scenario probes tally real work.
#[test]
fn fig5c_profile_reports_consistent_windows_across_loop_kinds() {
    use noc_dse::LoopKind;

    let mut windows = Vec::new();
    for kind in [LoopKind::ActiveSet, LoopKind::FullScan] {
        let mut config = fig5c_smoke_config();
        config.loop_kind = kind;
        let probe = Probe::new();
        let _ = fig5c_via_engine_probed(&config, 2, &probe);
        let profile = probe.snapshot();
        let executed = profile.counter("sim.cycles_executed").unwrap_or(0);
        let skipped = profile.counter("sim.cycles_skipped").unwrap_or(0);
        assert!(executed > 0, "{kind:?}: nothing executed");
        if kind == LoopKind::FullScan {
            assert_eq!(skipped, 0, "the full scan executes every cycle");
        }
        assert_eq!(
            profile.counter("dse.tasks"),
            Some(config.bandwidths_mbps.len() as u64 * 2),
            "{kind:?}: every pool task counted"
        );
        windows.push(executed + skipped);
    }
    assert_eq!(windows[0], windows[1], "active-set vs full-scan window");
}

//! The 3-D pipeline end-to-end: a `.dse` spec with `topology mesh 4x4x2`
//! must flow through map → route → simulate, deterministically at every
//! worker count, with real simulation statistics on the 3-D fabric.

use noc_dse::{run_scenarios, LoopKind, SweepReport};
use noc_experiments::mesh3d::{mesh3d_rows_from_records, mesh3d_spec, MESH3D_SMOKE_SPEC};

#[test]
fn mesh3d_smoke_sweep_is_deterministic_and_sim_backed() {
    assert!(
        MESH3D_SMOKE_SPEC.contains("topology mesh 4x4x2"),
        "the study must exercise the 3-D grammar spelling"
    );
    let set = mesh3d_spec(true).scenarios();
    let reference = SweepReport::new(run_scenarios(set.scenarios(), 1));
    // Byte-identical records at higher worker counts (the engine merges
    // in scenario order; nothing may depend on worker identity).
    for threads in [2usize, 4] {
        let parallel = SweepReport::new(run_scenarios(set.scenarios(), threads));
        assert_eq!(parallel.write_jsonl(false), reference.write_jsonl(false), "threads={threads}");
        assert_eq!(parallel.write_csv(false), reference.write_csv(false), "threads={threads}");
    }
    // Every 3-D record ran the whole pipeline: mapped (cost), routed
    // (feasible at the study capacity) and simulated (delivered traffic).
    let cube_records: Vec<_> =
        reference.records.iter().filter(|r| r.topology == "mesh4x4x2").collect();
    assert_eq!(cube_records.len(), 6, "one 3-D record per bundled app");
    for record in cube_records {
        assert!(record.is_ok(), "{}: {}", record.scenario, record.error);
        assert!(record.comm_cost.to_f64() > 0.0);
        assert!(record.feasible, "{} infeasible on the 3-D mesh", record.scenario);
        let sim = record.sim.as_ref().expect("simulate stage enabled");
        assert!(sim.avg_latency_cycles.to_f64() > 0.0);
        assert!(sim.delivered_mbps.to_f64() > 0.0);
    }
    // And the folded study rows are well-formed.
    let rows = mesh3d_rows_from_records(&reference.records);
    assert_eq!(rows.len(), 6);
    for row in rows {
        assert!(row.cost_gain.is_finite() && row.cost_gain > 0.0);
    }
}

/// The full-scan simulator loop visits every router and link every
/// cycle, so byte-equal records under it check the default active-set
/// loop's active index set and empty-network fast-forward end to end.
#[test]
fn mesh3d_smoke_sweep_is_identical_under_the_full_scan_loop() {
    let default = mesh3d_spec(true);
    assert_eq!(
        default.simulate.as_ref().expect("the study simulates").loop_kind,
        LoopKind::ActiveSet
    );
    let active = SweepReport::new(run_scenarios(default.scenarios().scenarios(), 2));
    let mut full_scan = default;
    full_scan.simulate.as_mut().expect("the study simulates").loop_kind = LoopKind::FullScan;
    let oracle = SweepReport::new(run_scenarios(full_scan.scenarios().scenarios(), 2));
    assert_eq!(active.write_jsonl(false), oracle.write_jsonl(false));
    assert_eq!(active.write_csv(false), oracle.write_csv(false));
}

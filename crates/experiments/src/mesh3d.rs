//! 2-D vs 3-D mapping study (`nmap_dse --mesh3d`): what stacking the
//! fabric into a third dimension buys each bundled application.
//!
//! 3-D NoCs are the canonical next workload for mapping algorithms (Jha
//! et al., *Estimation of Optimized Energy and Latency Constraints for
//! Task Allocation in 3D Network on Chip* and the companion homogeneous
//! 3-D NoC mapping paper): shorter average hop distances at equal node
//! count, at the price of vertical (TSV) links. With the dimension-generic
//! grid abstraction the whole pipeline — NMAP placement, minimum-path
//! routing over orthant DAGs, and the wormhole simulator — runs on 3-D
//! grids unchanged, so the study is a plain `.dse` sweep: every bundled
//! application on its fitted 2-D mesh and on a `4x4x2` 3-D mesh, mapped
//! by NMAP, routed min-path, then simulated to measure packet latency.
//!
//! The spec is text (see [`MESH3D_SPEC`]) rather than builder calls on
//! purpose: it doubles as an end-to-end test that a 3-D scenario flows
//! from the `.dse` grammar through map → route → simulate.

use noc_dse::{parse_spec, RunRecord, SweepSpec};

/// The full study: six bundled applications × {fitted 2-D mesh, 4x4x2
/// 3-D mesh}, NMAP + min-path, simulation at the spec's capacity.
pub const MESH3D_SPEC: &str = "\
# nmap_dse --mesh3d: 2-D vs 3-D mapping cost and latency
capacity 2000
seed 7
app all
topology fit
topology mesh 4x4x2
mapper nmap
routing min-path
simulate {
  warmup 20000
  measure 100000
  drain 30000
}
";

/// The reduced CI configuration (`--mesh3d --smoke`): same scenario
/// shape, shorter simulation windows.
pub const MESH3D_SMOKE_SPEC: &str = "\
# nmap_dse --mesh3d --smoke
capacity 2000
seed 7
app all
topology fit
topology mesh 4x4x2
mapper nmap
routing min-path
simulate {
  warmup 1000
  measure 5000
  drain 2000
}
";

/// Parses the (smoke or full) study spec.
///
/// # Panics
///
/// Panics if the embedded spec text stops parsing — a build-time bug,
/// caught by the tests below.
pub fn mesh3d_spec(smoke: bool) -> SweepSpec {
    let text = if smoke { MESH3D_SMOKE_SPEC } else { MESH3D_SPEC };
    parse_spec(text).expect("embedded mesh3d spec parses")
}

/// One application's 2-D vs 3-D comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Mesh3dRow {
    /// Application name.
    pub app: String,
    /// Number of cores.
    pub cores: usize,
    /// NMAP communication cost on the fitted 2-D mesh.
    pub cost_2d: f64,
    /// NMAP communication cost on the 4x4x2 3-D mesh.
    pub cost_3d: f64,
    /// `cost_2d / cost_3d` (> 1 when the third dimension helps).
    pub cost_gain: f64,
    /// Mean simulated packet latency on the 2-D mesh (cycles).
    pub latency_2d: f64,
    /// Mean simulated packet latency on the 3-D mesh (cycles).
    pub latency_3d: f64,
    /// Either fabric saturated during measurement (latency not meaningful).
    pub saturated: bool,
}

/// Folds the engine records of [`mesh3d_spec`] into study rows (2-D/3-D
/// record pairs in scenario order).
///
/// # Panics
///
/// Panics if `records` does not match the shape of [`mesh3d_spec`] or
/// contains failed or simulation-less scenarios.
pub fn mesh3d_rows_from_records(records: &[RunRecord]) -> Vec<Mesh3dRow> {
    assert_eq!(records.len() % 2, 0, "records must be 2-D/3-D pairs");
    records
        .chunks_exact(2)
        .map(|pair| {
            let (flat, cube) = (&pair[0], &pair[1]);
            assert!(flat.is_ok() && cube.is_ok(), "bundled apps always fit both fabrics");
            assert_eq!(
                flat.topology.matches('x').count(),
                1,
                "unexpected order: {} should be the 2-D record",
                flat.topology
            );
            assert_eq!(cube.topology, "mesh4x4x2", "unexpected order: {}", cube.topology);
            let flat_sim = flat.sim.as_ref().expect("simulate stage enabled");
            let cube_sim = cube.sim.as_ref().expect("simulate stage enabled");
            Mesh3dRow {
                app: flat.scenario.clone(),
                cores: flat.cores,
                cost_2d: flat.comm_cost.to_f64(),
                cost_3d: cube.comm_cost.to_f64(),
                cost_gain: flat.comm_cost.to_f64() / cube.comm_cost.to_f64(),
                latency_2d: flat_sim.avg_latency_cycles.to_f64(),
                latency_3d: cube_sim.avg_latency_cycles.to_f64(),
                saturated: flat_sim.saturated || cube_sim.saturated,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_dse::TopologySpec;

    #[test]
    fn specs_parse_and_have_the_expected_shape() {
        for smoke in [false, true] {
            let spec = mesh3d_spec(smoke);
            assert_eq!(spec.apps.len(), 6, "all six bundled applications");
            assert_eq!(
                spec.topologies,
                vec![TopologySpec::FitMesh, TopologySpec::Mesh { dims: vec![4, 4, 2] }],
            );
            assert!(spec.simulate.is_some(), "latency needs the simulate stage");
            let set = spec.scenarios();
            assert_eq!(set.len(), 12, "6 apps x 2 fabrics");
        }
    }

    #[test]
    fn smoke_study_runs_end_to_end() {
        // The full map -> route -> simulate pipeline on a 3-D fabric from
        // `.dse` text, through the engine pool.
        let records = noc_dse::run_scenarios(mesh3d_spec(true).scenarios().scenarios(), 0);
        let rows = mesh3d_rows_from_records(&records);
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.cost_2d > 0.0 && row.cost_3d > 0.0);
            assert!(
                row.latency_3d > 0.0 && row.latency_2d > 0.0,
                "{}: simulation produced no latency",
                row.app
            );
        }
    }
}

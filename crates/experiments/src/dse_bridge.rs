//! The paper's engine-backed experiments: each study expressed once, as
//! a `noc-dse` scenario set (or pool fan-out) plus a fold of its records.
//! `nmap_dse` runs every study through these functions.
//!
//! Table 2 is a [`table2_scenario_set`] sweep folded by
//! [`table2_rows_from_records`]; the `dse_table2` integration test pins
//! its values. [`fig5c_via_engine`] runs the Figure 5(c) simulation
//! sweep: the per-point wormhole runs fan out over the engine's
//! deterministic [`noc_dse::pool_map`], and the `dse_fig5c` integration
//! test pins the points bit for bit at 1 and 4 threads. The torus-vs-mesh
//! study ([`torus_vs_mesh_set`]) is an engine-only study: how much of
//! each application's communication cost the wrap-around links of a
//! torus recover over a mesh of the same radix.

use noc_dse::{
    flows_from_tables, pool_map, MapperSpec, RoutingSpec, RunContext, RunRecord, ScenarioSet,
    TopologySpec,
};
use noc_graph::{RandomGraphConfig, Topology};
use noc_sim::Simulator;

use crate::fig5c::{design_dsp, Fig5cConfig, Fig5cPoint};
use crate::table2::{Table2Config, Table2Row};
use crate::{GENEROUS_CAPACITY, UNLIMITED_CAPACITY};

use nmap::SinglePathOptions;

/// Expands a Table 2 configuration into the equivalent scenario set:
/// for every `(size, instance)` random graph (identical seeds to
/// [`noc_graph::RandomGraphFamily`]), one PBB and one NMAP scenario on
/// the fitted mesh with unlimited capacity.
pub fn table2_scenario_set(config: &Table2Config) -> ScenarioSet {
    ScenarioSet::builder()
        .capacity(UNLIMITED_CAPACITY)
        .random_family(&RandomGraphConfig::default(), &config.sizes, config.instances)
        .mapper(MapperSpec::Pbb(config.pbb))
        .mapper(MapperSpec::Nmap(SinglePathOptions::default()))
        .routing(RoutingSpec::MinPath)
        .build()
}

/// Folds the engine records of [`table2_scenario_set`] back into Table 2
/// rows: per size, the mean cost of each mapper over the instances,
/// summed in instance order.
///
/// # Panics
///
/// Panics if `records` does not match the shape of
/// `table2_scenario_set(config)` or contains failed scenarios.
pub fn table2_rows_from_records(config: &Table2Config, records: &[RunRecord]) -> Vec<Table2Row> {
    let instances = config.instances as usize;
    assert_eq!(
        records.len(),
        config.sizes.len() * instances * 2,
        "record count does not match the Table 2 scenario shape"
    );
    let pbb_name = MapperSpec::Pbb(config.pbb).name();
    config
        .sizes
        .iter()
        .enumerate()
        .map(|(size_idx, &cores)| {
            let mut pbb_sum = 0.0;
            let mut nmap_sum = 0.0;
            for instance in 0..instances {
                // Scenario order: app entries (size-major, then instance),
                // each expanded to [pbb, nmap].
                let base = (size_idx * instances + instance) * 2;
                let (pbb, nmap) = (&records[base], &records[base + 1]);
                assert!(pbb.is_ok() && nmap.is_ok(), "Table 2 scenarios cannot fail");
                assert_eq!(pbb.mapper, pbb_name, "unexpected order");
                assert_eq!(pbb.cores, cores);
                pbb_sum += pbb.comm_cost.to_f64();
                nmap_sum += nmap.comm_cost.to_f64();
            }
            let pbb_avg = pbb_sum / config.instances as f64;
            let nmap_avg = nmap_sum / config.instances as f64;
            Table2Row { cores, pbb: pbb_avg, nmap: nmap_avg, ratio: pbb_avg / nmap_avg }
        })
        .collect()
}

/// Runs the Figure 5(c) simulation sweep through the engine's
/// deterministic worker pool under `ctx` (a [`RunContext`] or a bare
/// thread count, `0` = available parallelism). The DSP design
/// (placement + both routing-table sets) is built once; each
/// `(bandwidth, table-set)` wormhole simulation is an independent pool
/// task whose seed comes from `config.sim` alone — so the points are
/// identical at every thread count. A live `ctx.probe` reaches each
/// point's simulator (executed/skipped-cycle counters) and the pool
/// (per-worker utilization); it observes only, so the points are
/// byte-identical to an unprobed run.
pub fn fig5c_via_engine(config: &Fig5cConfig, ctx: impl Into<RunContext>) -> Vec<Fig5cPoint> {
    let ctx = ctx.into();
    let design = design_dsp();
    // Task order: [minpath(bw0), split(bw0), minpath(bw1), split(bw1), …].
    let tasks = config.bandwidths_mbps.len() * 2;
    let runs = pool_map(tasks, ctx.clone(), |i| {
        let bw = config.bandwidths_mbps[i / 2];
        let tables = if i % 2 == 0 { &design.minpath_tables } else { &design.split_tables };
        let topology = Topology::mesh(3, 2, bw);
        let flows = flows_from_tables(&design.problem, &design.mapping, tables);
        let mut sim = Simulator::new(&topology, flows, config.sim.clone());
        sim.set_loop_kind(config.loop_kind);
        sim.set_probe(&ctx.probe);
        let report = sim.run();
        (
            report.avg_latency_cycles().to_f64(),
            report.avg_network_latency_cycles().to_f64(),
            report.saturated(),
        )
    });
    runs.chunks_exact(2)
        .zip(&config.bandwidths_mbps)
        .map(|(pair, &bandwidth_mbps)| {
            let (minpath_latency, minpath_network_latency, minpath_saturated) = pair[0];
            let (split_latency, split_network_latency, split_saturated) = pair[1];
            Fig5cPoint {
                bandwidth_mbps,
                minpath_latency,
                split_latency,
                minpath_network_latency,
                split_network_latency,
                minpath_saturated,
                split_saturated,
            }
        })
        .collect()
}

/// The reduced Figure 5(c) configuration behind `nmap_dse --fig5c
/// --smoke`: two bandwidth points and short windows, sized for CI.
pub fn fig5c_smoke_config() -> Fig5cConfig {
    Fig5cConfig {
        bandwidths_mbps: vec![1_200.0, 1_600.0],
        sim: noc_sim::SimConfig {
            warmup_cycles: 2_000,
            measure_cycles: 20_000,
            drain_cycles: 8_000,
            ..Default::default()
        },
        ..Fig5cConfig::default()
    }
}

/// One row of the torus-vs-mesh study.
#[derive(Debug, Clone, PartialEq)]
pub struct TorusVsMeshRow {
    /// Application name.
    pub app: String,
    /// NMAP communication cost on the fitted mesh.
    pub mesh_cost: f64,
    /// NMAP communication cost on the torus of the same radix.
    pub torus_cost: f64,
    /// `mesh_cost / torus_cost` (≥ 1 when the wrap links help).
    pub gain: f64,
}

/// The torus-vs-mesh study's scenario set: all six video applications
/// on their fitted mesh and the torus of the same radix, mapped by NMAP
/// under min-path routing with the experiments' generous capacity.
pub fn torus_vs_mesh_set() -> ScenarioSet {
    ScenarioSet::builder()
        .capacity(GENEROUS_CAPACITY)
        .all_apps()
        .topology(TopologySpec::FitMesh)
        .topology(TopologySpec::FitTorus)
        .mapper(MapperSpec::Nmap(SinglePathOptions::default()))
        .routing(RoutingSpec::MinPath)
        .build()
}

/// Folds the engine records of [`torus_vs_mesh_set`] into study rows
/// (mesh/torus record pairs in scenario order).
///
/// # Panics
///
/// Panics if `records` does not match the shape of [`torus_vs_mesh_set`]
/// or contains failed scenarios.
pub fn torus_vs_mesh_rows_from_records(records: &[RunRecord]) -> Vec<TorusVsMeshRow> {
    assert_eq!(records.len() % 2, 0, "records must be mesh/torus pairs");
    records
        .chunks_exact(2)
        .map(|pair| {
            let (mesh, torus) = (&pair[0], &pair[1]);
            assert!(mesh.is_ok() && torus.is_ok(), "bundled apps always fit");
            assert!(mesh.topology.starts_with("mesh"), "unexpected order: {}", mesh.topology);
            assert!(torus.topology.starts_with("torus"), "unexpected order: {}", torus.topology);
            TorusVsMeshRow {
                app: mesh.scenario.clone(),
                mesh_cost: mesh.comm_cost.to_f64(),
                torus_cost: torus.comm_cost.to_f64(),
                gain: mesh.comm_cost.to_f64() / torus.comm_cost.to_f64(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_set_shape_matches_config() {
        let config = Table2Config {
            sizes: vec![9, 12],
            instances: 2,
            pbb: noc_baselines::PbbOptions { max_queue: 100, max_expansions: 500 },
        };
        let set = table2_scenario_set(&config);
        assert_eq!(set.len(), 2 * 2 * 2);
        assert_eq!(set.scenarios()[0].mapper.name(), "pbb[q100e500]");
        assert_eq!(set.scenarios()[1].mapper.name(), "nmap");
    }

    #[test]
    fn torus_never_loses_to_mesh() {
        // The mesh embedding is always available on the torus, so with
        // NMAP's multi-restart search the torus cost should not exceed
        // the mesh cost by more than search noise; the gain stays >= ~1.
        let records = noc_dse::run_scenarios(torus_vs_mesh_set().scenarios(), 0);
        let rows = torus_vs_mesh_rows_from_records(&records);
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.torus_cost > 0.0);
            assert!(
                row.gain >= 0.95,
                "{}: torus ({}) much worse than mesh ({})",
                row.app,
                row.torus_cost,
                row.mesh_cost
            );
        }
    }
}

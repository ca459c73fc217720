//! Wormhole-simulator benchmarks: cycles/second on the DSP design (the
//! cost of the Figure 5(c) sweep), the full-scan vs active-set cycle
//! loops, and the sequential vs pooled engine-backed Figure 5(c) sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use noc_experiments::dse_bridge::fig5c_via_engine;
use noc_experiments::fig5c::{design_dsp, flows_from_tables, Fig5cConfig};
use noc_graph::Topology;
use noc_sim::{LoopKind, SimConfig, Simulator};

fn bench_config() -> SimConfig {
    SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 20_000,
        drain_cycles: 4_000,
        ..SimConfig::default()
    }
}

fn bench_simulator(c: &mut Criterion) {
    let design = design_dsp();
    let topology = Topology::mesh(3, 2, 1_400.0);
    let config = bench_config();
    let total_cycles = config.warmup_cycles + config.measure_cycles + config.drain_cycles;

    let mut group = c.benchmark_group("simulator_dsp");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total_cycles));
    group.bench_function("minpath_25k_cycles", |b| {
        b.iter(|| {
            let flows = flows_from_tables(&design.problem, &design.mapping, &design.minpath_tables);
            let mut sim = Simulator::new(&topology, flows, config.clone());
            black_box(sim.run())
        })
    });
    group.bench_function("split_25k_cycles", |b| {
        b.iter(|| {
            let flows = flows_from_tables(&design.problem, &design.mapping, &design.split_tables);
            let mut sim = Simulator::new(&topology, flows, config.clone());
            black_box(sim.run())
        })
    });
    group.finish();
}

/// The cycle-loop comparison on the Figure 5(c) workload: the original
/// full scan (every router and link visited every cycle) against the
/// active-set loop (idle routers/links skipped, token accrual replayed
/// lazily, empty-network stretches jumped). Both produce bit-identical
/// reports — asserted by the `noc-sim` identity suites — so any gap here
/// is pure overhead removed.
fn bench_loop_kinds(c: &mut Criterion) {
    let design = design_dsp();
    let topology = Topology::mesh(3, 2, 1_400.0);
    let config = bench_config();
    let total_cycles = config.warmup_cycles + config.measure_cycles + config.drain_cycles;

    let mut group = c.benchmark_group("simulator_loop_kind");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total_cycles));
    for (name, kind) in [("full_scan", LoopKind::FullScan), ("active_set", LoopKind::ActiveSet)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let flows =
                    flows_from_tables(&design.problem, &design.mapping, &design.split_tables);
                let mut sim = Simulator::new(&topology, flows, config.clone());
                sim.set_loop_kind(kind);
                black_box(sim.run())
            })
        });
    }
    group.finish();
}

/// The engine-backed Figure 5(c) sweep, sequential vs pooled: 8 bandwidth
/// points × 2 table sets = 16 independent simulations fanned out over the
/// deterministic worker pool. Results are identical at every thread count
/// (asserted by the `dse_fig5c` integration test); only wall time moves.
fn bench_fig5c_sweep(c: &mut Criterion) {
    let config = Fig5cConfig {
        sim: SimConfig {
            warmup_cycles: 500,
            measure_cycles: 5_000,
            drain_cycles: 2_000,
            ..SimConfig::default()
        },
        ..Fig5cConfig::default()
    };
    let parallelism = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let mut thread_counts: Vec<usize> =
        [1usize, 2, parallelism].into_iter().filter(|&t| t <= parallelism).collect();
    thread_counts.dedup();

    let mut group = c.benchmark_group("fig5c_sweep");
    group.sample_size(10);
    for threads in thread_counts {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &threads| {
            b.iter(|| black_box(fig5c_via_engine(&config, threads)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulator, bench_loop_kinds, bench_fig5c_sweep);
criterion_main!(benches);

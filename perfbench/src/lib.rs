//! The pipeline benchmark of the NMAP reproduction: four paper workloads
//! measured end to end, plus a traced run that splits each one across
//! the layers it passes through.
//!
//! # Workloads
//!
//! | name        | inputs (seed → inputs)                                                  | where host time goes        |
//! |-------------|-------------------------------------------------------------------------|-----------------------------|
//! | `fig5c`     | Paper Fig. 5(c): DSP filter on a 3×2 mesh, 8 bandwidths × {min-path, split}, 16 simulations; seed = `SimConfig.seed` | `sim`, dense traffic |
//! | `mesh3d`    | Six apps × {fitted 2-D, 4x4x2} mesh, NMAP, min-path, 150k-cycle simulation; seed = spec root seed | `sim`, sparse traffic |
//! | `table2`    | Paper Table 2: 25–65-core random graphs × 3 instances × {PBB, NMAP}; seed S = instances 3S..3S+2 | `map` (PBB) |
//! | `mcf-sweep` | Synthetic sweep of the paper's apps and generator: MCF split routing at 2400/1600/1200/900 MB/s; seed = random-graph root seed | `route`/LP |
//!
//! Each workload has a default seed (its study's own) and a held-out seed
//! for confirming a claimed gain; see [`workload::Workload`].
//!
//! # Runs
//!
//! `noc_bench` measures each workload in child processes of its own with
//! two worker threads:
//!
//! * the **timed** child ([`run::timed_run`]) times the set-up (input
//!   construction from the seed), makes one discarded warm-up engine
//!   call, then repeats fresh engine calls for the measuring time and
//!   reports the end-to-end metrics ([`metrics::END_TO_END`]);
//! * the **traced** child ([`run::traced_run`]) drives the layers itself
//!   through their public functions with a span around each call
//!   ([`layers`]), checks that it reproduces the engine's output exactly,
//!   and reports the per-layer metrics ([`metrics::PER_LAYER`]).
//!
//! Simulated statistics are the wormhole model's; the model has not been
//! validated against hardware, so no accuracy figure is given. Every host
//! time is wall or CPU time of the machine the benchmark runs on, scaled
//! to a reference host speed by kernel bursts timed while the run
//! measures ([`calibration`]).
//!
//! # Layers
//!
//! | layer   | calls traced                                  | should move                 | exercised on   |
//! |---------|-----------------------------------------------|-----------------------------|----------------|
//! | `dse`   | engine, `StageCache`, worker pool             | `scenarios_per_s`           | mcf-sweep      |
//! | `build` | `Scenario::parts`, `MappingProblem::new`      | `setup_s`, `scenarios_per_s`| none (<1%)     |
//! | `map`   | `Mapper::place` (NMAP, PBB)                   | `scenarios_per_s`, `cpu_ms_per_scenario` | table2 |
//! | `route` | `route_min_paths`, `route_xy`, `solve_mcf`    | `scenarios_per_s`           | mcf-sweep      |
//! | `lp`    | `solve_mcf_warm` replays (counts only)        | `scenarios_per_s`           | mcf-sweep      |
//! | `sim`   | `flows_from_tables`, `Simulator::run`         | `scenarios_per_s`           | fig5c, mesh3d  |
//!
//! # Commands
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--smoke] \
//!     [--out PATH] [--compare OLD]
//! ```
//!
//! The traced child writes its spans to `<target>/bench/trace-<workload>.jsonl`
//! ([`trace::to_jsonl`]); `README.md` explains how to read them. This
//! benchmark supersedes the `nmap_dse --bench-json`/`--bench-mcf`
//! snapshots, the `loop_timing` example and the criterion shims as the
//! source of performance evidence.
//!
//! A new workload or counter is its own change that alters no other code
//! and claims no gain; the baseline is measured again once it lands.

pub mod calibration;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;

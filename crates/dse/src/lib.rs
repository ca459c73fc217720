//! **noc-dse** — parallel design-space exploration over the NMAP suite.
//!
//! The paper (and the `noc-experiments` crate mirroring it) evaluates one
//! `{application, topology, mapper, routing}` point at a time. This crate
//! treats that tuple as a first-class **scenario** and sweeps whole
//! scenario spaces:
//!
//! * [`Scenario`] / [`ScenarioSet`] — the data model, built either through
//!   [`ScenarioSet::builder`] or from the plain-text spec format of
//!   [`parse_spec`] (see [`spec`] for the grammar). Applications cover the
//!   six bundled video apps, the DSP filter and seeded random graphs;
//!   fabrics cover fitted/fixed meshes and tori; mappers cover every
//!   row of the mapper catalogue ([`spec::mapper_catalogue`]) — NMAP
//!   (init/single-path/split), PMAP, GMAP, PBB, and the `sa`/`tabu`
//!   searches built on the swap-delta kernel ([`MapperSpec::mapper`]
//!   runs each of them from one `match`); routing
//!   regimes cover load-balanced min-path, dimension-ordered XY and the
//!   MCF splits. [`spec`] holds the one keyword table of every axis,
//!   which both the parser and the `name()` methods read.
//! * [`run_scenarios`] / [`pool_map`] / [`run_sweep`] — the three entry
//!   points. A deterministic `std::thread` worker pool runs scenarios (or,
//!   through [`pool_map`], any per-index task): scenarios carry their own
//!   seeds (derived from a root seed at build time, never from worker
//!   identity) and records merge in scenario order, so output is
//!   byte-identical for 1 or N threads. [`run_sweep`] runs a whole
//!   [`ScenarioSet`] under a [`SweepConfig`] as ordered shards.
//! * [`RunContext`] — what an engine call runs with: the worker count and
//!   a [`noc_probe::Probe`] (stage-time histograms, per-worker
//!   utilization, search/simulator counters and a structured per-scenario
//!   run log, all strictly out-of-band — records stay byte-identical; see
//!   `DESIGN.md` §16). A bare thread count converts into a default
//!   context.
//! * [`RunRecord`] / [`SweepReport`] — the aggregation layer: JSON-lines
//!   and CSV writers plus summary statistics (feasibility rate, cost
//!   quantiles, per-stage wall time).
//! * [`StageCache`] / [`shard`] — map-stage memoization and sharded,
//!   checkpointed, resumable sweeps: the engine's in-memory,
//!   content-addressed cache computes each shared map stage exactly once
//!   (the route stage is not memoized: its key pins the capacity, which
//!   every bandwidth point changes), shards checkpoint to disk as they
//!   complete, and an interrupted sweep resumes by replaying finished
//!   shards — all without breaking the byte-identical-output contract
//!   (see `DESIGN.md` §18). The checkpoint is the engine's only on-disk
//!   state.
//!
//! # Example
//!
//! ```
//! use noc_dse::{run_scenarios, run_sweep, MapperSpec, RoutingSpec, ScenarioSet, SweepConfig};
//! use noc_apps::App;
//! use noc_probe::Probe;
//!
//! let set = ScenarioSet::builder()
//!     .app(App::Pip)
//!     .mapper(MapperSpec::NmapInit)
//!     .mapper(MapperSpec::Gmap)
//!     .routing(RoutingSpec::MinPath)
//!     .routing(RoutingSpec::Xy)
//!     .build();
//! let outcome = run_sweep(&set, &SweepConfig::default(), &Probe::disabled(), &mut |_, _| {})
//!     .expect("no checkpoint to fail");
//! let report = outcome.report;
//! assert_eq!(report.records.len(), 4);
//! assert!(report.records.iter().all(|r| r.is_ok()));
//! println!("{}", report.summary());
//!
//! // The same records from a plain scenario list on two workers.
//! let records = run_scenarios(set.scenarios(), 2);
//! assert_eq!(records.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod engine;
mod report;
mod scenario;
pub mod shard;
pub mod spec;

pub use cache::{CacheStats, Lookup, StageCache};
pub use engine::{
    flows_from_tables, pool_map, run_scenarios, run_sweep, RunContext, SweepConfig, SweepOutcome,
    DEFAULT_SHARD_SIZE,
};
pub use noc_sim::LoopKind;
pub use report::{parse_record_json, RunRecord, SimStats, StageTimes, SweepReport, SweepSummary};
pub use scenario::{
    topology_label, AppSpec, MapperSpec, RoutingSpec, Scenario, ScenarioSet, ScenarioSetBuilder,
    SeededMapper, SimulateSpec, TopologySpec,
};
pub use shard::{set_fingerprint, Checkpoint, ShardPlan};
pub use spec::{parse_spec, AppDirective, SpecError, SweepSpec};

//! Flit-level wormhole NoC simulator — the substitute for the paper's
//! cycle-accurate SystemC/×pipes validation flow (Section 7.2).
//!
//! The paper builds the NoC for its DSP filter design out of ×pipes macro
//! components and simulates it cycle-accurately to obtain Figure 5(c)
//! (average packet latency vs. link bandwidth, single-path vs. split
//! routing). This crate reproduces that measurement with a discrete,
//! cycle-driven model of the same mechanisms:
//!
//! * **wormhole flow control** — a packet's head flit allocates each
//!   output channel; body flits stream behind it; the channel frees only
//!   when the tail passes. Blocked heads block the whole chain upstream
//!   (the "domino effect" the paper cites for the non-linear latency
//!   increase).
//! * **input-buffered routers** with credit-based backpressure and
//!   round-robin output arbitration, plus a configurable pipeline delay
//!   per hop (Table 3: switch delay 7 cycles).
//! * **link bandwidth** modeled by flit serialization: a link running at
//!   `B` MB/s with `f`-byte flits forwards at most one flit every `f/B`
//!   nanoseconds (token-bucket accounting at 1 GHz).
//! * **source routing** — each (flow, path) pair's route is fixed when the
//!   simulator is built, and every flit follows the route of the
//!   injection queue it entered by; this is how the mapping algorithms'
//!   routing tables (single-path or split) are injected into the network.
//!   Split flows distribute packets over their paths by deficit-weighted
//!   round-robin.
//! * **bursty traffic generators** — on/off sources reproducing "as the
//!   traffic is bursty in nature, we have contention even when bandwidth
//!   constraints are satisfied".
//!
//! # Example
//!
//! ```
//! use noc_graph::Topology;
//! use noc_sim::{FlowSpec, SimConfig, Simulator};
//!
//! let mesh = Topology::mesh(2, 2, 1_000.0);
//! let path = vec![mesh.find_link(noc_graph::NodeId::new(0), noc_graph::NodeId::new(1)).unwrap()];
//! let flow = FlowSpec::single_path(
//!     noc_graph::NodeId::new(0),
//!     noc_graph::NodeId::new(1),
//!     noc_units::mbps(400.0),
//!     path,
//! );
//! let mut sim = Simulator::new(&mesh, vec![flow], SimConfig::default());
//! let report = sim.run();
//! assert!(report.delivered_packets > 0);
//! assert!(report.avg_latency_cycles().to_f64() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod network;
mod packet;
mod router;
mod stats;
mod traffic;

pub use config::{SimConfig, MAX_BURST_PACKETS};
pub use network::{LoopKind, SimReport, Simulator};
pub use stats::LatencyStats;
pub use traffic::{FlowSpec, WeightedPath};

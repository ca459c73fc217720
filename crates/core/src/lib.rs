//! **NMAP** — bandwidth-constrained mapping of cores onto NoC architectures.
//!
//! This crate implements the primary contribution of Murali & De Micheli,
//! *"Bandwidth-Constrained Mapping of Cores onto NoC Architectures"*
//! (DATE 2004): a fast heuristic that assigns the cores of an application
//! (a [`noc_graph::CoreGraph`]) to the nodes of a mesh/torus NoC
//! (a [`noc_graph::Topology`]) such that link bandwidth constraints are
//! satisfied and the average communication delay
//! `Σ_k vl(d_k) · dist(src_k, dst_k)` (Equation 7) is minimized.
//!
//! Two routing regimes are provided:
//!
//! * [`map_single_path`] — Section 5: minimum-path routing. Commodities are
//!   routed one-by-one (in decreasing bandwidth order) over the least-loaded
//!   minimal path inside their *quadrant graph*; the placement is improved
//!   by pairwise swaps.
//! * [`map_with_splitting`] — Section 6: split-traffic routing. Feasibility
//!   and cost of each candidate placement are evaluated by the
//!   multi-commodity-flow programs **MCF1** (minimize capacity-violation
//!   slack, Equation 8) and **MCF2** (minimize total flow, Equation 9),
//!   solved with the [`noc_lp`] simplex. Restricting flow to the quadrant
//!   ([`PathScope::Quadrant`]) yields the low-jitter NMAPTM variant
//!   (Equation 10); [`PathScope::AllPaths`] yields NMAPTA.
//!
//! The building blocks (greedy [`initialize`] placement, the
//! [`routing`] module's load-balanced min-path and dimension-ordered XY
//! routers, link-load accounting, and the MCF model builder) are public so
//! baseline mappers and experiment harnesses can recombine them.
//!
//! The [`search`] module adds two strategies built on the O(deg)
//! [`EvalContext::swap_delta`] kernel: seeded simulated annealing
//! ([`search::anneal`]) and deterministic tabu search
//! ([`search::tabu_search`]). `noc_dse::MapperSpec` runs every
//! placement algorithm, these and the baselines included, from one
//! `match`, and the `.dse` keywords that name them live in
//! `noc_dse::spec`.
//!
//! # Quickstart
//!
//! ```
//! use noc_graph::{CoreGraph, Topology};
//! use nmap::{MappingProblem, map_single_path, SinglePathOptions};
//!
//! // A four-core pipeline onto a 2x2 mesh with 1 GB/s links.
//! let mut app = CoreGraph::new();
//! let cores: Vec<_> = (0..4).map(|i| app.add_core(format!("c{i}"))).collect();
//! app.add_comm(cores[0], cores[1], 400.0)?;
//! app.add_comm(cores[1], cores[2], 300.0)?;
//! app.add_comm(cores[2], cores[3], 200.0)?;
//!
//! let problem = MappingProblem::new(app, Topology::mesh(2, 2, 1000.0))?;
//! let outcome = map_single_path(&problem, &SinglePathOptions::default())?;
//! assert!(outcome.feasible);
//! // A pipeline embeds perfectly: every hot edge spans exactly one link.
//! assert_eq!(outcome.comm_cost.to_f64(), 400.0 + 300.0 + 200.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod display;
mod error;
mod eval;
mod init;
mod mapping;
pub mod mcf;
mod problem;
pub mod routing;
pub mod search;
mod single_path;
mod split;

pub use display::{render_mapping_grid, summarize};
pub use error::MapError;
pub use eval::EvalContext;
pub use init::initialize;
pub use mapping::Mapping;
pub use mcf::{McfKind, McfSolution, McfSolveStats, McfWarmState, PathScope};
pub use problem::{Commodity, MappingProblem};
pub use routing::{CommodityPath, LinkLoads, RoutingTables, SplitRoute};
pub use single_path::{
    map_single_path, map_single_path_with, SinglePathOptions, SinglePathOutcome,
};
pub use split::{map_with_splitting, SplitOptions, SplitOutcome};

/// Convenience alias for fallible NMAP operations.
pub type Result<T> = std::result::Result<T, MapError>;

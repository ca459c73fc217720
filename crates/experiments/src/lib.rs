//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each module reproduces one study of Section 7 (or a design-space
//! study beyond it) and returns plain data structs; the `nmap_dse`
//! binary runs and prints every study from one table (`nmap_dse --all`
//! runs them all). The studies whose numbers a `noc-dse` record carries
//! are engine sweeps plus folds of their records; the rest keep hand
//! pipelines. See `EXPERIMENTS.md` at the workspace root for
//! paper-vs-measured records.
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`mapper_comparison`] | Figure 3, Figure 4 and Table 1 — PMAP/GMAP/PBB/NMAP cost, bandwidth and ratios on six video apps, one sweep |
//! | [`table2`] | Table 2 — PBB vs NMAP on random graphs (25–65 cores): configuration and rows |
//! | [`fig5c`] | Figure 5(c) — packet latency vs link bandwidth, DSP NoC: the design and points |
//! | [`table3`] | Table 3 — DSP NoC design parameters |
//! | [`routing_ablation`] | §5 claim — heuristic routing vs LP bound |
//! | [`search_ablation`] | NMAP's search knobs and search strategies, one sweep |
//! | [`topology_selection`] | §8 future work — fabric design-space exploration |
//! | [`mesh3d`] | 2-D vs 3-D meshes, one `.dse` sweep |
//! | [`dse_bridge`] | Table 2, Figure 5(c) and a torus-vs-mesh study through the `noc-dse` engine |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dse_bridge;
pub mod fig5c;
pub mod mapper_comparison;
pub mod mesh3d;
pub mod report;
pub mod routing_ablation;
pub mod search_ablation;
pub mod table2;
pub mod table3;
pub mod topology_selection;

use nmap::MappingProblem;
use noc_apps::App;
use noc_graph::Topology;

/// Uniform link capacity (MB/s) used when the experiment wants all
/// algorithms to be bandwidth-feasible ("same bandwidth constraints for
/// all algorithms"), so costs compare placement quality only.
pub const GENEROUS_CAPACITY: f64 = 2_000.0;

/// Effectively unlimited capacity for minimum-bandwidth measurements.
pub const UNLIMITED_CAPACITY: f64 = 1e9;

/// Builds the mapping problem for `app` on its paper-sized mesh with the
/// given uniform link capacity.
///
/// # Panics
///
/// Panics only if the built-in application graphs are malformed (bug).
pub fn app_problem(app: App, capacity: f64) -> MappingProblem {
    let graph = app.core_graph();
    let (w, h) = app.mesh_dims();
    MappingProblem::new(graph, Topology::mesh(w, h, capacity)).expect("application fits its mesh")
}

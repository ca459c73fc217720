//! Graph substrate for the NMAP reproduction.
//!
//! This crate provides the two graph families from Section 4 of the paper
//! *Bandwidth-Constrained Mapping of Cores onto NoC Architectures*
//! (Murali & De Micheli, DATE 2004):
//!
//! * the **core graph** `G(V, E)` — a directed graph whose vertices are IP
//!   cores and whose edge weights `comm_{i,j}` are average communication
//!   bandwidths in MB/s ([`CoreGraph`]), and
//! * the **NoC topology graph** `P(U, F)` — a directed graph whose vertices
//!   are network nodes (mesh cross-points) and whose edge weights `bw_{i,j}`
//!   are link capacities ([`Topology`]).
//!
//! On top of the data model it implements the graph machinery the mapping
//! algorithms need: dimension-generic grid constructors ([`Grid`]: 2-D
//! and 3-D meshes/tori are the `dims = [w, h]` / `[w, h, d]` special
//! cases), hop-distance metrics, the *quadrant graph* of a commodity (the
//! DAG of minimal-path links — an orthant DAG on higher-rank grids — used
//! by both the single-path router and the jitter-constrained split
//! router), BFS hop counts (one loop, run over out-links or in-links), one
//! reusable Dijkstra searcher ([`PathSearch`]) with caller-supplied link
//! filters and step costs, and a seeded random core-graph generator
//! standing in for the LEDA graphs of the paper's Table 2.
//!
//! # Example
//!
//! ```
//! use noc_graph::{CoreGraph, Topology};
//!
//! let mut app = CoreGraph::new();
//! let producer = app.add_core("producer");
//! let consumer = app.add_core("consumer");
//! app.add_comm(producer, consumer, 400.0).unwrap();
//!
//! let mesh = Topology::mesh(2, 2, 1_000.0);
//! assert_eq!(mesh.node_count(), 4);
//! assert!(app.core_count() <= mesh.node_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algo;
mod core_graph;
mod dot;
mod error;
mod grid;
mod ids;
pub mod parse;
mod quadrant;
pub mod random;
mod topology;

pub use algo::{bfs_hops, PathSearch};
pub use core_graph::{CoreEdge, CoreGraph};
pub use dot::{core_graph_dot, mapping_dot, topology_dot};
pub use error::GraphError;
pub use grid::{dims_label, Axis, Grid};
pub use ids::{CoreId, EdgeId, LinkId, NodeId};
pub use parse::{parse_core_graph, parse_topology, write_core_graph, ParseError};
pub use quadrant::{quadrant_links, QuadrantDag};
pub use random::{RandomGraphConfig, RandomGraphFamily};
pub use topology::{Link, Topology, TopologyKind};

/// Convenience alias: results returned by fallible graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;

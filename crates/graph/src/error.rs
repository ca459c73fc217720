//! Error type for graph construction and queries.

use std::error::Error;
use std::fmt;

use crate::parse::MAX_BANDWIDTH;
use crate::{CoreId, NodeId};

/// Errors produced by graph construction and lookups.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A core id referenced a vertex that does not exist in the core graph.
    UnknownCore(CoreId),
    /// A node id referenced a vertex that does not exist in the topology.
    UnknownNode(NodeId),
    /// A communication edge was given a non-finite or negative bandwidth,
    /// or one above [`crate::parse::MAX_BANDWIDTH`].
    InvalidBandwidth(f64),
    /// A link was given a non-finite or non-positive capacity.
    InvalidCapacity(f64),
    /// A self-loop `(v, v)` was requested; the core graph forbids them
    /// because a core does not communicate with itself over the NoC.
    SelfLoop(CoreId),
    /// A duplicate directed edge `(src, dst)` was inserted; bandwidths of
    /// parallel requests must be accumulated by the caller instead.
    DuplicateEdge(CoreId, CoreId),
    /// A topology was requested with no nodes (or a grid with no axes).
    EmptyTopology,
    /// A grid axis was declared with extent 0.
    ZeroExtent {
        /// Index of the offending axis.
        axis: usize,
    },
    /// No link connects the two nodes in the topology graph.
    NoSuchLink(NodeId, NodeId),
    /// Source and destination of a path query are disconnected.
    Disconnected(NodeId, NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownCore(id) => write!(f, "unknown core {id}"),
            GraphError::UnknownNode(id) => write!(f, "unknown topology node {id}"),
            GraphError::InvalidBandwidth(bw) => {
                write!(
                    f,
                    "communication bandwidth {bw:?} is not a finite non-negative value of at \
most {MAX_BANDWIDTH:e} MB/s"
                )
            }
            GraphError::InvalidCapacity(cap) => {
                write!(f, "link capacity {cap} is not a finite positive value")
            }
            GraphError::SelfLoop(id) => write!(f, "self-loop on core {id} is not allowed"),
            GraphError::DuplicateEdge(s, d) => {
                write!(f, "duplicate communication edge ({s}, {d})")
            }
            GraphError::EmptyTopology => {
                write!(f, "topology must have at least one node (and a grid at least one axis)")
            }
            GraphError::ZeroExtent { axis } => {
                write!(f, "grid axis {axis} has zero extent")
            }
            GraphError::NoSuchLink(s, d) => write!(f, "no link between {s} and {d}"),
            GraphError::Disconnected(s, d) => {
                write!(f, "no path between {s} and {d} in the topology")
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let msg = GraphError::UnknownCore(CoreId::new(4)).to_string();
        assert_eq!(msg, "unknown core v4");
        let msg = GraphError::NoSuchLink(NodeId::new(1), NodeId::new(5)).to_string();
        assert_eq!(msg, "no link between u1 and u5");
        let msg = GraphError::InvalidBandwidth(f64::NAN).to_string();
        assert!(msg.contains("not a finite non-negative value"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: Error>(_: E) {}
        takes_error(GraphError::EmptyTopology);
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}

//! Error type shared by the mapping algorithms.

use std::error::Error;
use std::fmt;

use noc_graph::GraphError;
use noc_lp::SolveError;

/// Errors produced by problem construction and the mapping algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum MapError {
    /// The application has more cores than the topology has nodes; the
    /// one-to-one mapping function of Equation 1 requires `|V| ≤ |U|`.
    TooManyCores {
        /// Number of cores in the application.
        cores: usize,
        /// Number of nodes in the topology.
        nodes: usize,
    },
    /// The application graph has no cores.
    EmptyProblem,
    /// A commodity's endpoints are disconnected in the topology, so no
    /// route exists regardless of the placement.
    Unroutable {
        /// Index of the offending commodity (core-graph edge index).
        commodity: usize,
    },
    /// The topology is not a grid (mesh/torus of any rank), but a
    /// grid-only routine (e.g. dimension-ordered routing) was requested.
    /// Carries the offending topology kind's description (e.g. `custom`)
    /// so the message can tell a custom fabric from a future unsupported
    /// family. Replaces the old `MeshRequired` variant, which could not.
    GridRequired {
        /// [`noc_graph::TopologyKind::describe`] of the offending topology.
        found: String,
    },
    /// Mapper options failed their `check()` (e.g.
    /// [`crate::SinglePathOptions::check`]): the entry points validate
    /// instead of silently clamping.
    InvalidOptions(String),
    /// An MCF linear program failed to solve.
    Lp(SolveError),
    /// The topology could not be built (a zero grid extent, an invalid
    /// link capacity, ...).
    Topology(GraphError),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::TooManyCores { cores, nodes } => {
                write!(f, "application has {cores} cores but the topology only has {nodes} nodes")
            }
            MapError::EmptyProblem => write!(f, "application core graph is empty"),
            MapError::Unroutable { commodity } => {
                write!(f, "commodity d{commodity} has no route in the topology")
            }
            MapError::GridRequired { found } => {
                write!(f, "this routine requires a grid (mesh/torus) topology, got {found}")
            }
            MapError::InvalidOptions(message) => {
                write!(f, "invalid mapper options: {message}")
            }
            MapError::Lp(e) => write!(f, "multi-commodity flow LP failed: {e}"),
            MapError::Topology(e) => write!(f, "invalid topology: {e}"),
        }
    }
}

impl Error for MapError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MapError::Lp(e) => Some(e),
            MapError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for MapError {
    fn from(e: SolveError) -> Self {
        MapError::Lp(e)
    }
}

impl From<GraphError> for MapError {
    fn from(e: GraphError) -> Self {
        MapError::Topology(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MapError::TooManyCores { cores: 20, nodes: 16 };
        assert_eq!(e.to_string(), "application has 20 cores but the topology only has 16 nodes");
        assert!(MapError::Lp(SolveError::Infeasible).to_string().contains("infeasible"));
        let e = MapError::GridRequired { found: "custom".into() };
        assert_eq!(e.to_string(), "this routine requires a grid (mesh/torus) topology, got custom");
    }

    #[test]
    fn lp_errors_convert_and_chain() {
        let e: MapError = SolveError::Unbounded.into();
        assert_eq!(e, MapError::Lp(SolveError::Unbounded));
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&MapError::EmptyProblem).is_none());
        let e: MapError = GraphError::ZeroExtent { axis: 0 }.into();
        assert_eq!(e.to_string(), "invalid topology: grid axis 0 has zero extent");
        assert!(Error::source(&e).is_some());
    }
}

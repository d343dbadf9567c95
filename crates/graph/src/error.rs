use std::error::Error;
use std::fmt;

use crate::NodeId;

/// Errors produced while constructing or editing a [`crate::Topology`].
///
/// # Examples
///
/// ```
/// use mwn_graph::{GraphError, Topology};
///
/// let err = Topology::from_edges(2, &[(0, 5)]).unwrap_err();
/// assert!(matches!(err, GraphError::NodeOutOfRange { .. }));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphError {
    /// An edge referenced a node index outside `0..n`.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// The number of nodes in the graph.
        len: usize,
    },
    /// An edge connected a node to itself; the paper's model has
    /// `p ∉ N_p`, so self-loops are rejected.
    SelfLoop {
        /// The node with the self-loop.
        node: NodeId,
    },
    /// A non-positive or non-finite radio range was supplied.
    InvalidRadius {
        /// The rejected radius value.
        radius: f64,
    },
    /// A node's position has no grid cell a unit-disk build can use: a
    /// coordinate is infinite or NaN, or lies more than 2⁶² radio
    /// ranges from the origin.
    InvalidPosition {
        /// The first node with such a position.
        node: NodeId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GraphError::NodeOutOfRange { node, len } => {
                write!(f, "node {node} out of range for graph of {len} nodes")
            }
            GraphError::SelfLoop { node } => {
                write!(f, "self-loop on node {node} (the model requires p ∉ N_p)")
            }
            GraphError::InvalidRadius { radius } => {
                write!(
                    f,
                    "invalid radio range {radius}; must be finite and positive"
                )
            }
            GraphError::InvalidPosition { node } => {
                write!(
                    f,
                    "invalid position for node {node}; coordinates must be finite and within 2^62 radio ranges of the origin"
                )
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_cause() {
        let err = GraphError::NodeOutOfRange {
            node: NodeId::new(9),
            len: 4,
        };
        assert!(err.to_string().contains("out of range"));
        let err = GraphError::SelfLoop {
            node: NodeId::new(1),
        };
        assert!(err.to_string().contains("self-loop"));
        let err = GraphError::InvalidRadius { radius: -1.0 };
        assert!(err.to_string().contains("invalid radio range"));
        let err = GraphError::InvalidPosition {
            node: NodeId::new(3),
        };
        assert!(err.to_string().contains("invalid position for node n3"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<GraphError>();
    }
}

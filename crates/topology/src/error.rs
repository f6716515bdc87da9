//! Error types for the `topology` crate.

use core::fmt;

use mixedradix::MixedRadixError;

/// Errors produced when constructing or querying interconnection-network
/// graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// An underlying mixed-radix error (invalid shape, index out of range, …).
    Radix(MixedRadixError),
    /// A node index was outside `[0, size)`.
    NodeOutOfRange {
        /// The offending node index.
        node: u64,
        /// The number of nodes in the graph.
        size: u64,
    },
    /// A coordinate list did not belong to the graph.
    InvalidCoordinate {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// The requested operation needs graphs of equal size.
    SizeMismatch {
        /// Size of the first graph.
        left: u64,
        /// Size of the second graph.
        right: u64,
    },
    /// A hypercube was requested with an invalid dimension.
    InvalidHypercube {
        /// The requested dimension.
        dimension: usize,
    },
    /// A ring or line was requested with fewer than 2 nodes.
    GraphTooSmall {
        /// The requested size.
        size: u64,
    },
    /// The dense link index space `d · n` of a shape does not fit in `u64`,
    /// so [`crate::Grid::link_index`] arithmetic would silently wrap.
    /// Returned by [`crate::Grid::try_link_count`] instead of wrapping.
    EdgeSpaceTooLarge {
        /// The number of nodes `n`.
        nodes: u64,
        /// The dimension `d`.
        dim: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Radix(e) => write!(f, "shape error: {e}"),
            TopologyError::NodeOutOfRange { node, size } => {
                write!(f, "node index {node} is outside [0, {size})")
            }
            TopologyError::InvalidCoordinate { reason } => {
                write!(f, "invalid coordinate: {reason}")
            }
            TopologyError::SizeMismatch { left, right } => {
                write!(f, "graphs must have equal size, got {left} and {right}")
            }
            TopologyError::InvalidHypercube { dimension } => {
                write!(f, "invalid hypercube dimension {dimension}")
            }
            TopologyError::GraphTooSmall { size } => {
                write!(f, "a ring or line needs at least 2 nodes, got {size}")
            }
            TopologyError::EdgeSpaceTooLarge { nodes, dim } => {
                write!(f, "link index space {dim} * {nodes} overflows u64")
            }
        }
    }
}

impl std::error::Error for TopologyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TopologyError::Radix(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MixedRadixError> for TopologyError {
    fn from(value: MixedRadixError) -> Self {
        TopologyError::Radix(value)
    }
}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TopologyError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = TopologyError::NodeOutOfRange { node: 9, size: 6 };
        assert!(e.to_string().contains("node index 9"));
        let e = TopologyError::SizeMismatch { left: 4, right: 8 };
        assert!(e.to_string().contains("equal size"));
        let e: TopologyError = MixedRadixError::EmptyBase.into();
        assert!(e.to_string().contains("shape error"));
        assert!(std::error::Error::source(&e).is_some());
    }
}

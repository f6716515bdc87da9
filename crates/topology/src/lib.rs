//! Interconnection-network graphs: toruses, meshes, hypercubes, rings, lines.
//!
//! This crate provides the graph substrate of
//! *Ma & Tao, "Embeddings Among Toruses and Meshes"* (ICPP 1987):
//!
//! * [`Grid`] — an `(l_1, …, l_d)`-torus or `(l_1, …, l_d)`-mesh
//!   (Definitions 2 and 3), with rings, lines and hypercubes as special cases;
//! * [`Shape`] / [`Coord`] — shapes and node coordinates (re-exported from the
//!   `mixedradix` crate: a shape *is* a radix base, a coordinate *is* a
//!   radix-`L` number);
//! * [`bfs`] — an independent shortest-path oracle for validating the
//!   closed-form distance formulas;
//! * [`hamiltonian`] — the Hamiltonian-circuit predicates of Corollaries 18,
//!   25 and 29, plus a checker and an exhaustive search for tiny instances;
//! * [`csr`] — materialized adjacency for cache-friendly traversals;
//! * [`families`] — shape/graph family iterators (every torus or mesh of a
//!   given size), the substrate of `explab`'s sweep generators;
//! * [`metrics`] — closed-form network figures of merit (links per dimension,
//!   degree distribution, mean distance, bisection width);
//! * [`parallel`] — crossbeam-based fork–join helpers used for edge sweeps;
//! * [`routing`] — the dimension-ordered next-hop rule shared by the
//!   congestion model, the annealing objectives and the network simulator:
//!   one walk over two digit rows, lowest dimension first, batched per
//!   dimension, with dense link indexing for flat-array load accounting;
//! * [`DigitTable`] — every node's coordinates in one node-major table
//!   ([`Grid::digit_table`]), the rows those walks and distances read.
//!
//! Whatever visits nodes in index order (edge lists, adjacency, the digit
//! table) steps a digit odometer instead of decoding each index;
//! [`Grid::coord`] decodes one node for random access.
//!
//! # Example
//!
//! ```
//! use topology::{Grid, Shape};
//!
//! let torus = Grid::torus(Shape::new(vec![4, 2, 3]).unwrap());
//! assert_eq!(torus.size(), 24);
//! assert_eq!(torus.num_edges(), 24 + 12 + 24);
//! assert_eq!(torus.diameter(), 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bfs;
pub mod csr;
pub mod edges;
pub mod error;
pub mod families;
pub mod grid;
pub mod hamiltonian;
pub mod metrics;
pub mod parallel;
pub mod routing;

/// The shape `(l_1, …, l_d)` of a torus or mesh — identical to a mixed-radix
/// base (Definition 7 of the paper equips shapes with weights, which is all a
/// shape needs).
pub type Shape = mixedradix::RadixBase;

/// A node coordinate `(i_1, …, i_d)` — identical to a radix-`L` number.
pub type Coord = mixedradix::Digits;

pub use error::{Result, TopologyError};
pub use grid::{DigitTable, GraphKind, Grid};

/// Commonly used items.
pub mod prelude {
    pub use crate::bfs::{bfs, BfsDistances};
    pub use crate::csr::CsrAdjacency;
    pub use crate::error::TopologyError;
    pub use crate::grid::{GraphKind, Grid};
    pub use crate::hamiltonian::{admits_hamiltonian_circuit, is_hamiltonian_circuit};
    pub use crate::metrics::GridMetrics;
    pub use crate::routing::{for_each_hop, next_hop_toward};
    pub use crate::{Coord, Shape};
}

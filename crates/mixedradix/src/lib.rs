//! Mixed-radix numbering systems and generalized Gray-code machinery.
//!
//! This crate implements the numbering-system substrate of
//! *Ma & Tao, "Embeddings Among Toruses and Meshes"* (ICPP 1987):
//!
//! * [`RadixBase`] — a radix base `L = (l_1, …, l_d)` with its weights
//!   (Definition 7), doubling as the *shape* of a torus or mesh; its
//!   decode divides by precomputed multiply–shift reciprocals;
//! * [`Digits`] — radix-`L` representations / node coordinates, stored inline;
//! * [`distance`] — the δ_m (mesh) and δ_t (torus) distance measures of
//!   Lemmas 5 and 6;
//! * [`sequence`] — acyclic and cyclic sequences of radix-`L` numbers and
//!   their spreads (Definition 8), the quantity that becomes *dilation cost*
//!   once a sequence is read as an embedding;
//! * [`gray`] — the classic binary reflected Gray code, the radix-2 special
//!   case that the paper generalizes;
//! * [`Permutation`] — dimension permutations used to reorder shapes;
//! * [`enumerate`] — every radix base of a given size (ordered and distinct
//!   factorizations), the generator behind `explab`'s shape families.
//!
//! The actual embedding functions (`f_L`, `g_L`, `h_L`, …) live in the
//! `embeddings` crate; this crate provides the arithmetic they are built from.
//!
//! # Example
//!
//! ```
//! use mixedradix::{RadixBase, distance};
//!
//! // The paper's running example: L = (4, 2, 3), n = 24.
//! let base = RadixBase::new(vec![4, 2, 3]).unwrap();
//! assert_eq!(base.size(), 24);
//!
//! // Node (0,0,1) and node (3,0,0) are at torus distance 2 but mesh distance 4.
//! let a = base.to_digits(1).unwrap();
//! let b = base.to_digits(18).unwrap();
//! assert_eq!(a.as_slice(), &[0, 0, 1]);
//! assert_eq!(b.as_slice(), &[3, 0, 0]);
//! assert_eq!(distance::delta_t(&base, &a, &b).unwrap(), 2);
//! assert_eq!(distance::delta_m(&base, &a, &b).unwrap(), 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod base;
pub mod digits;
pub mod distance;
pub mod enumerate;
pub mod error;
pub mod gray;
pub mod iter;
pub mod perm;
pub mod sequence;

pub use base::RadixBase;
pub use digits::{Digits, MAX_DIM};
pub use error::{MixedRadixError, Result};
pub use perm::Permutation;
pub use sequence::{ExplicitSequence, FnSequence, NaturalSequence, RadixSequence};

/// Commonly used items.
pub mod prelude {
    pub use crate::base::RadixBase;
    pub use crate::digits::{Digits, MAX_DIM};
    pub use crate::distance::{delta_m, delta_m_index, delta_t, delta_t_index};
    pub use crate::error::MixedRadixError;
    pub use crate::gray::{binary_gray, binary_gray_inverse, BinaryGraySequence};
    pub use crate::perm::Permutation;
    pub use crate::sequence::{ExplicitSequence, FnSequence, NaturalSequence, RadixSequence};
}

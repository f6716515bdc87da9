//! The high-level planner: `embed(G, H)` picks the paper's construction for
//! an arbitrary pair of toruses/meshes of the same size.
//!
//! The decision procedure mirrors the structure of the paper:
//!
//! 1. dimension-1 guests → basic embeddings (Section 3);
//! 2. equal shapes (up to dimension order) → same-shape embeddings
//!    (Lemma 36), composed with a dimension permutation if needed;
//! 3. `dim G < dim H` → increasing-dimension embeddings when the shapes
//!    satisfy expansion (Theorem 32), else the square construction
//!    (Theorems 52/53) when both graphs are square;
//! 4. `dim G > dim H` → simple reduction (Theorem 39), general reduction
//!    (Theorem 43), or the square chain (Theorems 48/51), in that order.
//!
//! Pairs outside every case return [`EmbeddingError::Unsupported`] — exactly
//! the cases the paper leaves open.
//!
//! When a pair is covered by *more than one* construction with the same
//! predicted dilation (e.g. a hypercube into a square mesh satisfies both
//! the simple-reduction and the square conditions), [`embed`] keeps the
//! paper's fixed precedence.

use std::sync::Arc;

use mixedradix::Permutation;
use topology::{Grid, Shape};

use crate::basic::{
    embed_line_in, embed_ring_in, predicted_line_dilation, predicted_ring_dilation,
};
use crate::embedding::Embedding;
use crate::error::{EmbeddingError, Result};
use crate::expansion::is_expansion;
use crate::general_reduction::{
    embed_general_reduction, find_general_reduction, predicted_dilation_general_reduction,
};
use crate::increase::{embed_increasing, predicted_dilation_increasing};
use crate::reduction::{
    embed_simple_reduction, is_simple_reduction, predicted_dilation_simple_reduction,
};
use crate::same_shape::{embed_same_shape, predicted_dilation_same_shape};
use crate::square::{embed_square, predicted_dilation_square};

/// Embeds `guest` in `host` using the construction the paper prescribes for
/// the pair, together with a guarantee on its dilation cost.
///
/// # Errors
///
/// * [`EmbeddingError::SizeMismatch`] if the graphs differ in size;
/// * [`EmbeddingError::Unsupported`] if the pair falls outside the cases the
///   paper covers (shapes satisfying neither expansion, reduction, equality,
///   nor squareness).
pub fn embed(guest: &Grid, host: &Grid) -> Result<Embedding> {
    if guest.size() != host.size() {
        return Err(EmbeddingError::SizeMismatch {
            guest: guest.size(),
            host: host.size(),
        });
    }

    // Dimension-1 guests: the basic embeddings of Section 3.
    if guest.dim() == 1 {
        return if guest.is_torus() && !guest.is_hypercube() {
            if host.dim() == 1 && guest.shape() == host.shape() {
                // Ring into ring (or the degenerate 2-node cases).
                embed_same_shape(guest, host)
            } else {
                embed_ring_in(host).map(|e| retarget_guest(e, guest))
            }
        } else {
            embed_line_in(host).map(|e| retarget_guest(e, guest))
        };
    }

    // Equal dimension: identical shapes or a permutation of dimensions.
    if guest.dim() == host.dim() {
        if guest.shape() == host.shape() {
            return embed_same_shape(guest, host);
        }
        if let Some(perm) = Permutation::mapping(guest.shape().radices(), host.shape().radices()) {
            // G -> G_perm (same node set, permuted dimension order) -> H.
            let mid = Grid::new(guest.kind(), host.shape().clone());
            let first = permute_dimensions(guest, &mid, &perm)?;
            let second = embed_same_shape(&mid, host)?;
            return first.compose(&second);
        }
        return Err(EmbeddingError::Unsupported {
            details: format!(
                "equal-dimension embedding of {} in {} is outside the paper's constructions",
                guest.shape(),
                host.shape()
            ),
        });
    }

    if guest.dim() < host.dim() {
        // Increasing dimension.
        if is_expansion(guest.shape(), host.shape()) {
            return embed_increasing(guest, host);
        }
        if guest.is_square() && host.is_square() {
            return embed_square(guest, host);
        }
        return Err(EmbeddingError::Unsupported {
            details: format!(
                "{} is not an expansion of {} and the graphs are not square",
                host.shape(),
                guest.shape()
            ),
        });
    }

    // Lowering dimension.
    if is_simple_reduction(guest.shape(), host.shape()) {
        return embed_simple_reduction(guest, host);
    }
    if find_general_reduction(guest.shape(), host.shape()).is_some() {
        return embed_general_reduction(guest, host);
    }
    if guest.is_square() && host.is_square() {
        return embed_square(guest, host);
    }
    Err(EmbeddingError::Unsupported {
        details: format!(
            "{} is neither a simple nor a general reduction of {} and the graphs are not square",
            host.shape(),
            guest.shape()
        ),
    })
}

/// The dilation cost [`embed`] guarantees for the pair, without constructing
/// the embedding.
///
/// # Errors
///
/// Same error cases as [`embed`].
pub fn predicted_dilation(guest: &Grid, host: &Grid) -> Result<u64> {
    if guest.size() != host.size() {
        return Err(EmbeddingError::SizeMismatch {
            guest: guest.size(),
            host: host.size(),
        });
    }
    if guest.dim() == 1 {
        return Ok(if guest.is_torus() && !guest.is_hypercube() {
            if host.dim() == 1 && guest.shape() == host.shape() {
                predicted_dilation_same_shape(guest, host)
            } else {
                predicted_ring_dilation(host)
            }
        } else {
            predicted_line_dilation(host)
        });
    }
    if guest.dim() == host.dim() {
        if Permutation::mapping(guest.shape().radices(), host.shape().radices()).is_some() {
            return Ok(predicted_dilation_same_shape(guest, host));
        }
        return Err(EmbeddingError::Unsupported {
            details: "equal-dimension shapes that are not permutations of each other".into(),
        });
    }
    if guest.dim() < host.dim() {
        if is_expansion(guest.shape(), host.shape()) {
            return predicted_dilation_increasing(guest, host);
        }
        if guest.is_square() && host.is_square() {
            return predicted_dilation_square(guest, host);
        }
        return Err(EmbeddingError::Unsupported {
            details: "increasing dimension without expansion or squareness".into(),
        });
    }
    if is_simple_reduction(guest.shape(), host.shape()) {
        return predicted_dilation_simple_reduction(guest, host);
    }
    if let Some(reduction) = find_general_reduction(guest.shape(), host.shape()) {
        return Ok(predicted_dilation_general_reduction(
            guest, host, &reduction,
        ));
    }
    if guest.is_square() && host.is_square() {
        return predicted_dilation_square(guest, host);
    }
    Err(EmbeddingError::Unsupported {
        details: "lowering dimension without reduction or squareness".into(),
    })
}

/// Replaces the guest graph of `embedding` by an equal-size dimension-1 guest
/// of the caller's choosing (used so that `embed(ring, host)` reports the
/// caller's ring rather than the internally constructed one).
fn retarget_guest(embedding: Embedding, guest: &Grid) -> Embedding {
    // `embed_line_in` / `embed_ring_in` build their own guest of the same
    // size; substituting the caller's guest is sound because dimension-1
    // graphs of equal size and kind are identical.
    Embedding::new(
        guest.clone(),
        embedding.host().clone(),
        embedding.name().to_string(),
        Arc::new(move |x| embedding.map(x)),
    )
    .expect("sizes already checked")
}

/// Embeds `guest` in a graph of the same kind whose shape is `perm` applied
/// to the guest's shape: node `(x_1, …, x_d)` maps to `perm((x_1, …, x_d))`.
fn permute_dimensions(guest: &Grid, host: &Grid, perm: &Permutation) -> Result<Embedding> {
    let guest_shape: Shape = guest.shape().clone();
    let perm = perm.clone();
    // Sanity: the permuted guest shape must equal the host shape.
    if &guest_shape.permute(&perm)? != host.shape() {
        return Err(EmbeddingError::InvalidFactor {
            details: "permutation does not map the guest shape onto the host shape".into(),
        });
    }
    let p = perm.clone();
    Embedding::new(
        guest.clone(),
        host.clone(),
        "π (dimension permutation)",
        Arc::new(move |x| {
            let digits = guest_shape.to_digits(x).expect("index in range");
            p.apply_digits(&digits).expect("dimension matches")
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::GraphKind;

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    fn check(guest: Grid, host: Grid) {
        let predicted = predicted_dilation(&guest, &host).unwrap();
        let e = embed(&guest, &host).unwrap();
        assert!(e.is_injective(), "injective for {guest} -> {host}");
        assert!(
            e.dilation() <= predicted,
            "dilation {} exceeds prediction {predicted} for {guest} -> {host} ({})",
            e.dilation(),
            e.name()
        );
    }

    #[test]
    fn planner_covers_basic_cases() {
        check(Grid::ring(24).unwrap(), Grid::mesh(shape(&[4, 2, 3])));
        check(Grid::ring(24).unwrap(), Grid::torus(shape(&[4, 2, 3])));
        check(Grid::line(24).unwrap(), Grid::mesh(shape(&[4, 2, 3])));
        check(Grid::ring(9).unwrap(), Grid::mesh(shape(&[3, 3])));
        check(Grid::line(8).unwrap(), Grid::hypercube(3).unwrap());
        check(Grid::ring(6).unwrap(), Grid::line(6).unwrap());
        check(Grid::ring(6).unwrap(), Grid::ring(6).unwrap());
        check(Grid::line(6).unwrap(), Grid::ring(6).unwrap());
    }

    #[test]
    fn planner_covers_equal_dimension_cases() {
        check(Grid::torus(shape(&[3, 4])), Grid::mesh(shape(&[3, 4])));
        check(Grid::torus(shape(&[3, 4])), Grid::mesh(shape(&[4, 3])));
        check(Grid::mesh(shape(&[3, 4])), Grid::torus(shape(&[4, 3])));
        check(Grid::mesh(shape(&[2, 6])), Grid::mesh(shape(&[6, 2])));
    }

    #[test]
    fn planner_covers_increasing_dimension_cases() {
        check(Grid::mesh(shape(&[4, 6])), Grid::mesh(shape(&[2, 2, 2, 3])));
        check(
            Grid::torus(shape(&[4, 6])),
            Grid::mesh(shape(&[2, 2, 2, 3])),
        );
        check(
            Grid::torus(shape(&[9, 15])),
            Grid::mesh(shape(&[3, 3, 3, 5])),
        );
        check(Grid::mesh(shape(&[8, 8])), Grid::hypercube(6).unwrap());
        // Square, non-expansion case (Theorem 53).
        check(
            Grid::new(GraphKind::Mesh, Shape::square(8, 2).unwrap()),
            Grid::new(GraphKind::Mesh, Shape::square(4, 3).unwrap()),
        );
    }

    #[test]
    fn planner_covers_lowering_dimension_cases() {
        check(Grid::mesh(shape(&[4, 2, 3])), Grid::mesh(shape(&[4, 6])));
        check(Grid::torus(shape(&[4, 2, 3])), Grid::mesh(shape(&[4, 6])));
        check(Grid::mesh(shape(&[3, 3, 6])), Grid::mesh(shape(&[6, 9])));
        check(Grid::hypercube(4).unwrap(), Grid::mesh(shape(&[4, 4])));
        check(Grid::hypercube(4).unwrap(), Grid::ring(16).unwrap());
        // Square chain (Theorem 51).
        check(
            Grid::new(GraphKind::Mesh, Shape::square(4, 3).unwrap()),
            Grid::new(GraphKind::Mesh, Shape::square(8, 2).unwrap()),
        );
    }

    #[test]
    fn planner_rejects_unsupported_pairs() {
        // Equal size, equal dimension, but shapes are not permutations.
        let a = Grid::mesh(shape(&[4, 9]));
        let b = Grid::mesh(shape(&[6, 6]));
        assert!(matches!(
            embed(&a, &b),
            Err(EmbeddingError::Unsupported { .. })
        ));
        assert!(predicted_dilation(&a, &b).is_err());
        // Size mismatch.
        let c = Grid::mesh(shape(&[2, 2]));
        assert!(matches!(
            embed(&c, &b),
            Err(EmbeddingError::SizeMismatch { .. })
        ));
        // Increasing dimension, not an expansion, not square.
        let d = Grid::mesh(shape(&[6, 6]));
        let e = Grid::mesh(shape(&[4, 3, 3]));
        assert!(matches!(
            embed(&d, &e),
            Err(EmbeddingError::Unsupported { .. })
        ));
        assert!(predicted_dilation(&d, &e).is_err());
    }

    #[test]
    fn ring_guest_reports_the_callers_graph() {
        let guest = Grid::ring(12).unwrap();
        let host = Grid::mesh(shape(&[4, 3]));
        let e = embed(&guest, &host).unwrap();
        assert!(e.guest().is_ring());
        assert_eq!(e.guest().size(), 12);
        assert_eq!(e.dilation(), 1);
    }

    #[test]
    fn dimension_permutation_embedding_is_exact() {
        let guest = Grid::mesh(shape(&[2, 6]));
        let host = Grid::mesh(shape(&[6, 2]));
        let e = embed(&guest, &host).unwrap();
        assert!(e.is_injective());
        assert_eq!(e.dilation(), 1);
    }

    #[test]
    fn predicted_dilation_matches_paper_table_for_selected_cases() {
        // A compact version of the paper's summary table.
        let cases: Vec<(Grid, Grid, u64)> = vec![
            (Grid::line(24).unwrap(), Grid::mesh(shape(&[4, 2, 3])), 1),
            (Grid::ring(24).unwrap(), Grid::mesh(shape(&[4, 2, 3])), 1),
            (Grid::ring(9).unwrap(), Grid::mesh(shape(&[3, 3])), 2),
            (Grid::ring(24).unwrap(), Grid::torus(shape(&[4, 2, 3])), 1),
            (
                Grid::torus(shape(&[9, 15])),
                Grid::mesh(shape(&[3, 3, 3, 5])),
                2,
            ),
            (
                Grid::torus(shape(&[4, 6])),
                Grid::torus(shape(&[2, 2, 2, 3])),
                1,
            ),
            (Grid::hypercube(4).unwrap(), Grid::mesh(shape(&[4, 4])), 2),
            (Grid::mesh(shape(&[3, 3, 6])), Grid::mesh(shape(&[6, 9])), 3),
        ];
        for (guest, host, expected) in cases {
            assert_eq!(
                predicted_dilation(&guest, &host).unwrap(),
                expected,
                "prediction for {guest} -> {host}"
            );
        }
    }
}

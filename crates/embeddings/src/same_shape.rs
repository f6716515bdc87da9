//! Embeddings between a torus and a mesh of the same shape
//! (Definition 35, Lemma 36).
//!
//! With identical shapes the identity map has unit dilation except in one
//! case: a (non-hypercube) torus cannot be embedded in a mesh of the same
//! shape with unit dilation, because boundary mesh nodes have smaller degree
//! than any torus node. The function `T_L` — applying `t_{l_i}` independently
//! in every dimension — achieves the optimal dilation cost 2 in that case.

use std::sync::Arc;

use mixedradix::{Digits, RadixBase};
use topology::Grid;

use crate::basic::t_n;
use crate::embedding::Embedding;
use crate::error::{EmbeddingError, Result};

/// Evaluates `T_L((x_1, …, x_d)) = (t_{l_1}(x_1), …, t_{l_d}(x_d))`
/// (Definition 35).
///
/// # Panics
///
/// Panics if `digits` is not a valid radix-`L` number.
pub fn t_l(base: &RadixBase, digits: &Digits) -> Digits {
    assert!(
        base.contains(digits),
        "T_L argument {digits} is not a radix-{base} number"
    );
    let mut out = Digits::zero(base.dim()).expect("dimension within bounds");
    for j in 0..base.dim() {
        out.set(j, t_n(base.radix(j) as u64, digits.get(j) as u64) as u32);
    }
    out
}

/// The dilation cost guaranteed by Lemma 36 for a same-shape embedding.
pub fn predicted_dilation_same_shape(guest: &Grid, host: &Grid) -> u64 {
    if guest.is_torus() && host.is_mesh() && !guest.is_hypercube() {
        2
    } else {
        1
    }
}

/// Embeds `guest` in a `host` of the same shape (Lemma 36): the identity map
/// unless the guest is a (non-hypercube) torus and the host a mesh, in which
/// case `T_L` is used with dilation 2.
///
/// # Errors
///
/// Returns an error if the shapes differ.
pub fn embed_same_shape(guest: &Grid, host: &Grid) -> Result<Embedding> {
    if guest.shape() != host.shape() {
        return Err(EmbeddingError::Unsupported {
            details: format!(
                "same-shape embedding requires equal shapes, got {} and {}",
                guest.shape(),
                host.shape()
            ),
        });
    }
    if guest.is_torus() && host.is_mesh() && !guest.is_hypercube() {
        let shape = host.shape().clone();
        // Host digit j is t_{l_j} of guest digit j alone: separable.
        Embedding::new_separable(
            guest.clone(),
            host.clone(),
            "T_L",
            Arc::new(move |x| {
                let digits = shape.to_digits(x).expect("index in range");
                t_l(&shape, &digits)
            }),
        )
    } else {
        Embedding::identity(guest.clone(), host.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::Shape;

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    #[test]
    fn t_l_applies_t_n_per_dimension() {
        let base = shape(&[6, 5]);
        let digits = Digits::from_slice(&[3, 4]).unwrap();
        // t_6(3) = 5, t_5(4) = 1.
        assert_eq!(t_l(&base, &digits).as_slice(), &[5, 1]);
    }

    #[test]
    fn torus_in_mesh_same_shape_dilation_two() {
        for radices in [vec![3u32, 3], vec![4, 2, 3], vec![5, 5], vec![3, 4, 2]] {
            let guest = Grid::torus(shape(&radices));
            let host = Grid::mesh(shape(&radices));
            let e = embed_same_shape(&guest, &host).unwrap();
            assert_eq!(e.name(), "T_L");
            assert!(e.is_injective());
            assert_eq!(e.dilation(), 2);
            assert_eq!(e.dilation(), predicted_dilation_same_shape(&guest, &host));
        }
    }

    #[test]
    fn mesh_in_torus_same_shape_is_identity_with_unit_dilation() {
        let guest = Grid::mesh(shape(&[4, 3]));
        let host = Grid::torus(shape(&[4, 3]));
        let e = embed_same_shape(&guest, &host).unwrap();
        assert_eq!(e.name(), "identity");
        assert_eq!(e.dilation(), 1);
        assert_eq!(predicted_dilation_same_shape(&guest, &host), 1);
    }

    #[test]
    fn torus_in_torus_and_mesh_in_mesh_are_identity() {
        for (guest, host) in [
            (Grid::torus(shape(&[3, 5])), Grid::torus(shape(&[3, 5]))),
            (Grid::mesh(shape(&[3, 5])), Grid::mesh(shape(&[3, 5]))),
        ] {
            let e = embed_same_shape(&guest, &host).unwrap();
            assert_eq!(e.dilation(), 1);
        }
    }

    #[test]
    fn hypercube_torus_to_mesh_is_identity() {
        // A hypercube is both a torus and a mesh; the identity suffices.
        let guest = Grid::torus(shape(&[2, 2, 2]));
        let host = Grid::mesh(shape(&[2, 2, 2]));
        let e = embed_same_shape(&guest, &host).unwrap();
        assert_eq!(e.name(), "identity");
        assert_eq!(e.dilation(), 1);
        assert_eq!(predicted_dilation_same_shape(&guest, &host), 1);
    }

    #[test]
    fn different_shapes_are_rejected() {
        let guest = Grid::torus(shape(&[3, 4]));
        let host = Grid::mesh(shape(&[4, 3]));
        assert!(embed_same_shape(&guest, &host).is_err());
    }
}

//! Basic embeddings: a line or a ring in a mesh or a torus (Section 3).
//!
//! | Guest | Host | Function | Dilation | Reference |
//! |---|---|---|---|---|
//! | line | mesh or torus | `f_L` | 1 | Theorem 13 |
//! | ring | torus | `h_L` | 1 | Theorem 28 |
//! | ring (even size) | mesh of dim ≥ 2 | `π ∘ h_{L*}` | 1 | Theorem 24 |
//! | ring (odd size, or host is a line) | mesh | `g_L` | 2 (optimal) | Theorem 17 |
//!
//! The raw sequence functions live in the submodules ([`f_l`], [`t_n`],
//! [`g_l`], [`r_l`], [`h_l`]); [`embed_line_in`] and [`embed_ring_in`] wrap
//! them as [`Embedding`] values, choosing the construction the paper
//! prescribes for the host at hand.

pub mod fl;
pub mod gl;
pub mod hl;
pub mod rl;
pub mod tn;
pub mod walk;

use std::sync::Arc;

use mixedradix::Permutation;
use topology::{Grid, Shape};

pub use fl::{f_l, f_l_inverse};
pub use gl::g_l;
pub use hl::h_l;
pub use rl::r_l;
pub use tn::t_n;
pub use walk::{SnakeStep, SnakeWalk};

use crate::embedding::Embedding;
use crate::error::{EmbeddingError, Result};

/// Embeds a line of the same size in `host` with unit dilation using `f_L`
/// (Theorem 13).
///
/// # Errors
///
/// Returns an error if a line of the host's size cannot be built (host of
/// size < 2 never occurs for valid shapes).
pub fn embed_line_in(host: &Grid) -> Result<Embedding> {
    let guest = Grid::line(host.size())?;
    let shape = host.shape().clone();
    Embedding::new(
        guest,
        host.clone(),
        "f_L",
        Arc::new(move |x| f_l(&shape, x)),
    )
}

/// Embeds a ring of the same size in `host`, choosing the construction of
/// Theorems 17, 24 or 28:
///
/// * host torus → `h_L`, dilation 1;
/// * host mesh of even size and dimension ≥ 2 → `π ∘ h_{L*}`, dilation 1;
/// * otherwise (odd-size mesh, or a line) → `g_L`, dilation 2 (optimal).
///
/// # Errors
///
/// Returns an error if the ring guest cannot be built.
pub fn embed_ring_in(host: &Grid) -> Result<Embedding> {
    let guest = Grid::ring(host.size())?;
    let shape = host.shape().clone();
    if host.is_torus() {
        return Embedding::new(
            guest,
            host.clone(),
            "h_L",
            Arc::new(move |x| h_l(&shape, x)),
        );
    }
    // Host is a mesh.
    if host.dim() >= 2 && host.size().is_multiple_of(2) {
        let (star, perm) = even_first_permutation(&shape)?;
        return Embedding::new(
            guest,
            host.clone(),
            "π ∘ h_{L*}",
            Arc::new(move |x| {
                perm.apply_digits(&h_l(&star, x))
                    .expect("permutation matches dimension")
            }),
        );
    }
    Embedding::new(
        guest,
        host.clone(),
        "g_L",
        Arc::new(move |x| g_l(&shape, x)),
    )
}

/// The dilation cost the paper guarantees for [`embed_ring_in`] on `host`.
pub fn predicted_ring_dilation(host: &Grid) -> u64 {
    let even_mesh = host.dim() >= 2 && host.size().is_multiple_of(2);
    // The 2-node case is degenerate: both nodes are adjacent in any host.
    if host.is_torus() || even_mesh || host.size() == 2 {
        1
    } else {
        2
    }
}

/// The dilation cost the paper guarantees for [`embed_line_in`] on any host.
pub fn predicted_line_dilation(_host: &Grid) -> u64 {
    1
}

/// Builds a shape `L*` that is a reordering of `shape` with an even first
/// component, together with the permutation `π` such that `π(L*) = L`
/// (Theorem 24).
///
/// # Errors
///
/// Returns [`EmbeddingError::ConditionNotSatisfied`] if the shape has no even
/// component (i.e. the size is odd).
pub fn even_first_permutation(shape: &Shape) -> Result<(Shape, Permutation)> {
    let even = shape
        .first_even_component()
        .ok_or(EmbeddingError::ConditionNotSatisfied {
            condition: "even size",
            details: format!("shape {shape} has no even component"),
        })?;
    let mut reordered = Vec::with_capacity(shape.dim());
    reordered.push(shape.radix(even));
    for (i, &l) in shape.radices().iter().enumerate() {
        if i != even {
            reordered.push(l);
        }
    }
    let star = Shape::new(reordered)?;
    let perm = Permutation::mapping(star.radices(), shape.radices()).ok_or(
        EmbeddingError::InvalidFactor {
            details: "reordered shape is not a permutation of the original".into(),
        },
    )?;
    Ok((star, perm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::Shape;

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    #[test]
    fn theorem_13_line_in_mesh_and_torus_unit_dilation() {
        for host in [
            Grid::mesh(shape(&[4, 2, 3])),
            Grid::torus(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[3, 3, 3])),
            Grid::torus(shape(&[5, 7])),
            Grid::hypercube(5).unwrap(),
            Grid::line(17).unwrap(),
            Grid::ring(17).unwrap(),
        ] {
            let e = embed_line_in(&host).unwrap();
            assert!(e.is_injective(), "injective into {host}");
            assert_eq!(e.dilation(), 1, "dilation into {host}");
            assert_eq!(e.dilation(), predicted_line_dilation(&host));
        }
    }

    #[test]
    fn theorem_28_ring_in_torus_unit_dilation() {
        for host in [
            Grid::torus(shape(&[4, 2, 3])),
            Grid::torus(shape(&[3, 3, 3])),
            Grid::torus(shape(&[5, 7])),
            Grid::torus(shape(&[2, 2, 2])),
            Grid::ring(9).unwrap(),
        ] {
            let e = embed_ring_in(&host).unwrap();
            assert!(e.is_injective(), "injective into {host}");
            assert_eq!(e.dilation(), 1, "dilation into {host}");
            assert_eq!(e.name(), "h_L");
        }
    }

    #[test]
    fn theorem_24_ring_in_even_mesh_unit_dilation() {
        for host in [
            Grid::mesh(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[3, 4])),    // even component not first
            Grid::mesh(shape(&[3, 3, 2])), // even component last
            Grid::mesh(shape(&[2, 2, 2, 2])),
            Grid::mesh(shape(&[5, 6, 3])),
        ] {
            let e = embed_ring_in(&host).unwrap();
            assert!(e.is_injective(), "injective into {host}");
            assert_eq!(e.dilation(), 1, "dilation into {host}");
            assert_eq!(e.dilation(), predicted_ring_dilation(&host));
        }
    }

    #[test]
    fn theorem_17_ring_in_odd_mesh_or_line_dilation_two() {
        for host in [
            Grid::mesh(shape(&[3, 3])),
            Grid::mesh(shape(&[3, 5, 3])),
            Grid::line(10).unwrap(),
            Grid::line(9).unwrap(),
        ] {
            let e = embed_ring_in(&host).unwrap();
            assert!(e.is_injective(), "injective into {host}");
            assert_eq!(e.dilation(), 2, "dilation into {host}");
            assert_eq!(e.name(), "g_L");
            assert_eq!(e.dilation(), predicted_ring_dilation(&host));
        }
    }

    #[test]
    fn even_first_permutation_reorders_correctly() {
        let (star, perm) = even_first_permutation(&shape(&[3, 5, 4, 2])).unwrap();
        assert_eq!(star.radices(), &[4, 3, 5, 2]);
        assert_eq!(perm.apply_slice(star.radices()).unwrap(), vec![3, 5, 4, 2]);
        assert!(even_first_permutation(&shape(&[3, 5, 7])).is_err());
    }

    #[test]
    fn ring_embeddings_trace_hamiltonian_circuits() {
        // A unit-dilation ring embedding is exactly a Hamiltonian circuit of
        // the host (Corollaries 25 and 29).
        use topology::hamiltonian::is_hamiltonian_circuit;
        for host in [
            Grid::torus(shape(&[3, 3, 3])),
            Grid::mesh(shape(&[4, 2, 3])),
            Grid::torus(shape(&[5, 3])),
            Grid::mesh(shape(&[2, 3])),
        ] {
            let e = embed_ring_in(&host).unwrap();
            assert_eq!(e.dilation(), 1);
            let circuit: Vec<u64> = (0..e.size()).map(|x| e.map_index(x)).collect();
            assert!(
                is_hamiltonian_circuit(&host, &circuit),
                "embedding of ring in {host} is not a Hamiltonian circuit"
            );
        }
    }

    #[test]
    fn line_embedding_images_cover_all_nodes() {
        let host = Grid::mesh(shape(&[3, 4]));
        let e = embed_line_in(&host).unwrap();
        let mut images: Vec<u64> = (0..12).map(|x| e.map_index(x)).collect();
        images.sort_unstable();
        assert_eq!(images, (0..12).collect::<Vec<u64>>());
    }
}

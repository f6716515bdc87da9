//! Simple reduction: lowering dimension by collapsing groups of dimensions
//! (Section 4.2.1, Definitions 37–38, Theorem 39, Corollary 40).
//!
//! A shape `M = (m_1, …, m_c)` is a *simple reduction* of `L = (l_1, …, l_d)`
//! (`d > c`) when `L` is an expansion of `M`: the components of `L` can be
//! partitioned into lists `V_1, …, V_c` with `Π V_k = m_k`. The embedding
//! `U_V` collapses each group of guest coordinates into a single host
//! coordinate by reading it as a mixed-radix number. With each `V_k` sorted in
//! non-increasing order the dilation cost is `max_k m_k / l_{v_k}` (the first
//! component of `V_k`), doubled when a (non-hypercube) torus is embedded in a
//! mesh.

use std::sync::Arc;

use mixedradix::{Digits, Permutation};
use topology::{Coord, Grid, Shape};

use crate::embedding::Embedding;
use crate::error::{EmbeddingError, Result};
use crate::expansion::{find_expansion_factor, ExpansionFactor};
use crate::same_shape::t_l;

/// Finds a reduction factor of `l` into `m` — an expansion factor of `m` into
/// `l` (Definition 37) with each list sorted in non-increasing order, as
/// Theorem 39 requires.
pub fn find_reduction_factor(l: &Shape, m: &Shape) -> Option<ExpansionFactor> {
    let factor = find_expansion_factor(m, l)?;
    let mut lists = factor.lists().to_vec();
    for list in &mut lists {
        list.sort_unstable_by(|a, b| b.cmp(a));
    }
    ExpansionFactor::new(lists).ok()
}

/// Whether `m` is a simple reduction of `l` (Definition 37).
pub fn is_simple_reduction(l: &Shape, m: &Shape) -> bool {
    l.dim() > m.dim() && find_reduction_factor(l, m).is_some()
}

/// Evaluates `U_V` (Definition 38): collapses a coordinate of the intermediate
/// shape `V̄ = V_1 ∘ … ∘ V_c` into a coordinate of `M` by reading each group
/// of digits as a mixed-radix number.
///
/// # Panics
///
/// Panics if the coordinate's dimension does not match the factor.
pub fn u_v(factor: &ExpansionFactor, coord: &Coord) -> Digits {
    let total: usize = factor.lists().iter().map(Vec::len).sum();
    assert_eq!(
        coord.dim(),
        total,
        "coordinate dimension must match the reduction factor"
    );
    let mut out = Digits::empty();
    let mut offset = 0usize;
    for list in factor.lists() {
        let sub = Shape::new(list.clone()).expect("factor lists are valid shapes");
        let chunk = coord.slice(offset, offset + list.len());
        let value = sub.to_index(&chunk).expect("digits within their radices");
        out.push(value as u32).expect("dimension within bounds");
        offset += list.len();
    }
    out
}

/// The dilation cost Theorem 39 guarantees for [`embed_simple_reduction`], or
/// an error if the shapes do not satisfy the condition of simple reduction.
pub fn predicted_dilation_simple_reduction(guest: &Grid, host: &Grid) -> Result<u64> {
    let factor = find_reduction_factor(guest.shape(), host.shape()).ok_or(
        EmbeddingError::ConditionNotSatisfied {
            condition: "simple reduction",
            details: format!(
                "{} is not a simple reduction of {}",
                host.shape(),
                guest.shape()
            ),
        },
    )?;
    Ok(predicted_dilation_for_factor(guest, host, &factor))
}

fn predicted_dilation_for_factor(guest: &Grid, host: &Grid, factor: &ExpansionFactor) -> u64 {
    let base = (0..factor.len())
        .map(|k| factor.product(k) / factor.lists()[k][0] as u64)
        .max()
        .unwrap_or(1);
    if guest.is_torus() && host.is_mesh() && !guest.is_hypercube() {
        2 * base
    } else {
        base
    }
}

/// Embeds `guest` in `host` under simple reduction with an explicit factor.
///
/// # Errors
///
/// Returns an error if the factor is not a reduction factor of the shapes.
pub fn embed_simple_reduction_with(
    guest: &Grid,
    host: &Grid,
    factor: &ExpansionFactor,
) -> Result<Embedding> {
    // The factor must be an expansion factor of M into L.
    factor.validate(host.shape(), guest.shape())?;
    let vbar = Shape::new(factor.flattened())?;
    // α : reorder the guest's dimensions into V̄ order.
    let alpha = Permutation::mapping(guest.shape().radices(), vbar.radices()).ok_or(
        EmbeddingError::InvalidFactor {
            details: format!(
                "{} is not a permutation of the flattened factor",
                guest.shape()
            ),
        },
    )?;
    let use_t = guest.is_torus() && host.is_mesh() && !guest.is_hypercube();
    let name = if use_t {
        "U_V ∘ T_L ∘ π"
    } else {
        "U_V ∘ π"
    };
    let guest_shape = guest.shape().clone();
    let factor = factor.clone();
    // Host digit k reads group V_k as one mixed-radix number, a weighted sum
    // of single (T_L-mapped) guest digits: separable.
    Embedding::new_separable(
        guest.clone(),
        host.clone(),
        name,
        Arc::new(move |x| {
            let coord = guest_shape.to_digits(x).expect("index in range");
            let mut reordered = alpha
                .apply_digits(&coord)
                .expect("permutation matches dimension");
            if use_t {
                reordered = t_l(&vbar, &reordered);
            }
            u_v(&factor, &reordered)
        }),
    )
}

/// Embeds `guest` in `host` for the simple-reduction case (Theorem 39).
///
/// # Errors
///
/// Returns [`EmbeddingError::ConditionNotSatisfied`] if the host's shape is
/// not a simple reduction of the guest's shape.
pub fn embed_simple_reduction(guest: &Grid, host: &Grid) -> Result<Embedding> {
    if guest.size() != host.size() {
        return Err(EmbeddingError::SizeMismatch {
            guest: guest.size(),
            host: host.size(),
        });
    }
    let factor = find_reduction_factor(guest.shape(), host.shape()).ok_or(
        EmbeddingError::ConditionNotSatisfied {
            condition: "simple reduction",
            details: format!(
                "{} is not a simple reduction of {}",
                host.shape(),
                guest.shape()
            ),
        },
    )?;
    embed_simple_reduction_with(guest, host, &factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    fn check_at_most(guest: Grid, host: Grid, bound: u64) -> u64 {
        let e = embed_simple_reduction(&guest, &host).unwrap();
        assert!(e.is_injective(), "injective: {guest} -> {host}");
        let dilation = e.dilation();
        assert!(
            dilation <= bound,
            "dilation {dilation} of {} exceeds the Theorem 39 bound {bound} for {guest} -> {host}",
            e.name()
        );
        assert_eq!(
            predicted_dilation_simple_reduction(&guest, &host).unwrap(),
            bound
        );
        dilation
    }

    #[test]
    fn reduction_factor_roundtrip() {
        let l = shape(&[2, 3, 2, 10, 6]);
        let m = shape(&[12, 60]);
        assert!(is_simple_reduction(&l, &m));
        let factor = find_reduction_factor(&l, &m).unwrap();
        assert_eq!(factor.len(), 2);
        assert_eq!(factor.product(0), 12);
        assert_eq!(factor.product(1), 60);
        // Lists are sorted in non-increasing order.
        for list in factor.lists() {
            for pair in list.windows(2) {
                assert!(pair[0] >= pair[1]);
            }
        }
        assert!(!is_simple_reduction(&m, &l), "roles are not symmetric");
    }

    #[test]
    fn theorem_39_mesh_to_mesh() {
        // (4,2,3)-mesh into (4,6)-mesh: V_1 = (4), V_2 = (3,2); bound
        // max{4/4, 6/3} = 2.
        check_at_most(Grid::mesh(shape(&[4, 2, 3])), Grid::mesh(shape(&[4, 6])), 2);
        // (2,2,2,2)-mesh into (4,4)-mesh: bound 4/2 = 2.
        check_at_most(
            Grid::mesh(shape(&[2, 2, 2, 2])),
            Grid::mesh(shape(&[4, 4])),
            2,
        );
        // (3,3,3)-mesh into (9,3)-mesh: bound 9/3 = 3.
        check_at_most(Grid::mesh(shape(&[3, 3, 3])), Grid::mesh(shape(&[9, 3])), 3);
    }

    #[test]
    fn theorem_39_other_type_combinations() {
        // Mesh into torus and torus into torus share the same bound.
        check_at_most(
            Grid::mesh(shape(&[4, 2, 3])),
            Grid::torus(shape(&[4, 6])),
            2,
        );
        check_at_most(
            Grid::torus(shape(&[4, 2, 3])),
            Grid::torus(shape(&[4, 6])),
            2,
        );
        // Torus into mesh doubles the bound.
        check_at_most(
            Grid::torus(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[4, 6])),
            4,
        );
        check_at_most(
            Grid::torus(shape(&[3, 3, 3])),
            Grid::mesh(shape(&[9, 3])),
            6,
        );
    }

    #[test]
    fn corollary_40_hypercube_into_meshes_and_toruses() {
        // A hypercube of size 2^4 into a (4,4)-mesh or torus: dilation
        // max{4,4}/2 = 2.
        let hypercube = Grid::hypercube(4).unwrap();
        check_at_most(hypercube.clone(), Grid::mesh(shape(&[4, 4])), 2);
        check_at_most(hypercube.clone(), Grid::torus(shape(&[4, 4])), 2);
        // Into a (8,2)-mesh: dilation max{8,2}/2 = 4.
        check_at_most(hypercube, Grid::mesh(shape(&[8, 2])), 4);
        // A hypercube of size 2^6 into an (8,8)-mesh: dilation 4.
        check_at_most(Grid::hypercube(6).unwrap(), Grid::mesh(shape(&[8, 8])), 4);
    }

    #[test]
    fn u_v_collapses_digit_groups() {
        let factor = ExpansionFactor::new(vec![vec![4], vec![3, 2]]).unwrap();
        let coord = Coord::from_slice(&[3, 2, 1]).unwrap();
        // Group 2 reads (2,1) in radix (3,2): value 2*2 + 1 = 5.
        assert_eq!(u_v(&factor, &coord).as_slice(), &[3, 5]);
    }

    #[test]
    fn unsupported_shapes_are_rejected() {
        // (3,3,3) cannot be simply reduced to (27) with... it can (V=(3,3,3));
        // but (2,3,5) cannot be reduced to (10, 3) because 2·5 = 10 requires
        // grouping the non-adjacent 2 and 5 — which IS allowed; pick a truly
        // impossible pair instead: (4, 9) from (2,2,3,3,?) … use size mismatch
        // and a non-divisible case.
        let guest = Grid::mesh(shape(&[2, 3, 5]));
        let host = Grid::mesh(shape(&[6, 5, 2]));
        // Same dimension count mismatch: d must exceed c.
        assert!(embed_simple_reduction(&guest, &host).is_err());

        let guest = Grid::mesh(shape(&[6, 6]));
        let host = Grid::mesh(shape(&[36]));
        assert!(embed_simple_reduction(&guest, &host).is_ok());

        let guest = Grid::mesh(shape(&[2, 2]));
        let host = Grid::mesh(shape(&[2, 3]));
        assert!(matches!(
            embed_simple_reduction(&guest, &host),
            Err(EmbeddingError::SizeMismatch { .. })
        ));

        // Equal size, but no grouping of (4, 9) produces (6, 6).
        let guest = Grid::mesh(shape(&[4, 9]));
        let host = Grid::mesh(shape(&[6, 6]));
        assert!(embed_simple_reduction(&host, &guest).is_err());
    }

    #[test]
    fn hypercube_into_ring_and_line() {
        // A hypercube of size 2^3 into a ring or line of size 8:
        // dilation 8/2 = 4 (×2 for the line would be 8, but a hypercube is
        // also a mesh so no doubling applies).
        let hypercube = Grid::hypercube(3).unwrap();
        check_at_most(hypercube.clone(), Grid::ring(8).unwrap(), 4);
        check_at_most(hypercube, Grid::line(8).unwrap(), 4);
    }
}

//! Shape and graph families: every torus/mesh of a given size.
//!
//! The experiment-sweep engine (`explab`) evaluates the paper's constructions
//! over *families* of shape pairs rather than single hand-picked instances.
//! This module turns the factorization enumeration of
//! [`mixedradix::enumerate`] into graph-level iterators: all shapes of a
//! size, and all grids of a size and kind.

use crate::{GraphKind, Grid, Shape};

/// All shapes of size `n` with dimension at most `max_dim`, one per *ordered*
/// factorization of `n` into radices `≥ 2` (so `(2, 12)` and `(12, 2)` are
/// both listed), in lexicographic order.
pub fn shapes_of_size(n: u64, max_dim: usize) -> Vec<Shape> {
    mixedradix::enumerate::bases_of_size(n, max_dim)
}

/// All shapes of size `n` up to dimension reordering: one canonical
/// representative (radices non-increasing) per multiset of radices. Shapes
/// that differ only by a dimension permutation denote isomorphic graphs, so
/// sweeping this family avoids re-measuring isomorphic pairs.
pub fn distinct_shapes_of_size(n: u64, max_dim: usize) -> Vec<Shape> {
    mixedradix::enumerate::distinct_factorizations(n, max_dim.min(mixedradix::MAX_DIM))
        .into_iter()
        .map(|radices| Shape::new(radices).expect("factors >= 2 form a valid shape"))
        .collect()
}

/// All grids of the given kind and size `n` with dimension at most `max_dim`,
/// one per canonical shape of [`distinct_shapes_of_size`].
pub fn grids_of_size(kind: GraphKind, n: u64, max_dim: usize) -> Vec<Grid> {
    distinct_shapes_of_size(n, max_dim)
        .into_iter()
        .map(|shape| Grid::new(kind, shape))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_of_size_cover_all_factorizations() {
        let shapes = shapes_of_size(12, 3);
        assert_eq!(shapes.len(), 8);
        assert!(shapes.iter().all(|s| s.size() == 12 && s.dim() <= 3));
    }

    #[test]
    fn distinct_shapes_deduplicate_permutations() {
        let shapes = distinct_shapes_of_size(12, 3);
        // {12}, {6,2}, {4,3}, {3,2,2}.
        assert_eq!(shapes.len(), 4);
        for shape in &shapes {
            let mut radices = shape.radices().to_vec();
            radices.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(radices.as_slice(), shape.radices(), "canonical order");
        }
    }

    #[test]
    fn grids_of_size_carry_the_kind() {
        let toruses = grids_of_size(GraphKind::Torus, 8, 3);
        let meshes = grids_of_size(GraphKind::Mesh, 8, 3);
        assert_eq!(toruses.len(), meshes.len());
        assert!(toruses.iter().all(|g| g.is_torus() && g.size() == 8));
        assert!(meshes.iter().all(|g| g.is_mesh() && g.size() == 8));
        // {8}, {4,2}, {2,2,2}.
        assert_eq!(toruses.len(), 3);
    }
}

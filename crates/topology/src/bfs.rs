//! Breadth-first search — an independent shortest-path oracle.
//!
//! The closed-form distance formulas of Lemmas 5 and 6 are the workhorse of
//! the embeddings crate; BFS provides an implementation-independent way of
//! validating them (and of measuring distances in graphs that are *not*
//! toruses or meshes, such as the image of an embedding restricted to a
//! subgraph).

use std::collections::VecDeque;

use crate::error::{Result, TopologyError};
use crate::grid::Grid;

/// Single-source shortest-path distances computed by BFS.
///
/// `u64::MAX` marks unreachable nodes (never the case in a connected torus or
/// mesh, but kept for generality).
#[derive(Clone, Debug)]
pub struct BfsDistances {
    distances: Vec<u64>,
}

impl BfsDistances {
    /// The distance from the source to `node`.
    ///
    /// # Errors
    ///
    /// Returns an error if `node` is out of range.
    pub fn distance(&self, node: u64) -> Result<u64> {
        self.distances
            .get(node as usize)
            .copied()
            .ok_or(TopologyError::NodeOutOfRange {
                node,
                size: self.distances.len() as u64,
            })
    }

    /// All distances, indexed by node.
    pub fn as_slice(&self) -> &[u64] {
        &self.distances
    }
}

/// Runs BFS from `source` over `grid`.
///
/// # Errors
///
/// Returns an error if `source` is out of range.
pub fn bfs(grid: &Grid, source: u64) -> Result<BfsDistances> {
    if source >= grid.size() {
        return Err(TopologyError::NodeOutOfRange {
            node: source,
            size: grid.size(),
        });
    }
    let n = usize::try_from(grid.size()).expect("graph fits in memory for BFS");
    let mut distances = vec![u64::MAX; n];
    let mut queue = VecDeque::new();
    distances[source as usize] = 0;
    queue.push_back(source);
    while let Some(x) = queue.pop_front() {
        let dx = distances[x as usize];
        for y in grid.neighbors(x)? {
            let dy = &mut distances[y as usize];
            if *dy == u64::MAX {
                *dy = dx + 1;
                queue.push_back(y);
            }
        }
    }
    Ok(BfsDistances { distances })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    #[test]
    fn bfs_agrees_with_closed_form_distances() {
        for grid in [
            Grid::torus(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[4, 2, 3])),
            Grid::torus(shape(&[5, 3])),
            Grid::mesh(shape(&[5, 3])),
            Grid::hypercube(4).unwrap(),
            Grid::ring(9).unwrap(),
            Grid::line(9).unwrap(),
            Grid::torus(shape(&[2, 2, 3])),
        ] {
            for source in grid.nodes() {
                let formula: Vec<u64> = grid
                    .nodes()
                    .map(|t| grid.distance_index(source, t).unwrap())
                    .collect();
                let walked = bfs(&grid, source).unwrap();
                assert_eq!(
                    walked.as_slice(),
                    formula,
                    "distances in {grid} from {source}"
                );
            }
        }
    }

    #[test]
    fn bfs_diameter_matches_formula() {
        for grid in [
            Grid::torus(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[4, 2, 3])),
            Grid::torus(shape(&[3, 3])),
            Grid::mesh(shape(&[2, 5])),
            Grid::hypercube(3).unwrap(),
        ] {
            let walked = grid
                .nodes()
                .flat_map(|source| bfs(&grid, source).unwrap().as_slice().to_vec())
                .max();
            assert_eq!(walked, Some(grid.diameter()), "diameter of {grid}");
        }
    }

    #[test]
    fn toruses_and_meshes_are_connected() {
        for grid in [
            Grid::torus(shape(&[3, 4])),
            Grid::mesh(shape(&[3, 4])),
            Grid::hypercube(5).unwrap(),
        ] {
            let d = bfs(&grid, 0).unwrap();
            assert!(d.as_slice().iter().all(|&x| x != u64::MAX));
        }
    }

    #[test]
    fn source_out_of_range_is_an_error() {
        let grid = Grid::ring(4).unwrap();
        assert!(bfs(&grid, 4).is_err());
        let d = bfs(&grid, 0).unwrap();
        assert!(d.distance(10).is_err());
        assert_eq!(d.as_slice(), &[0, 1, 2, 1]);
    }
}

//! Compressed sparse row (CSR) adjacency.
//!
//! Toruses and meshes are implicit graphs — neighbors are computed, not
//! stored — which is what the embedding machinery uses. Downstream consumers
//! such as the `netsim` routing simulator, however, iterate adjacencies in
//! tight per-cycle loops where a flat, cache-friendly CSR layout pays off
//! (see the repository's hpc guidance on allocation-free hot loops).

use crate::error::{Result, TopologyError};
use crate::grid::Grid;

/// A compressed-sparse-row adjacency structure for a [`Grid`].
#[derive(Clone, Debug)]
pub struct CsrAdjacency {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl CsrAdjacency {
    /// Builds the CSR adjacency of `grid`, each node's neighbors in
    /// [`Grid::neighbors`] order.
    ///
    /// Neighbors are written from the dimension strides while a digit
    /// odometer walks the nodes in index order, so no index is decoded and
    /// no per-node list is allocated.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph has more than `u32::MAX` nodes or edges
    /// (CSR is intended for graphs small enough to materialize).
    pub fn build(grid: &Grid) -> Result<Self> {
        let n = grid.size();
        if n > u32::MAX as u64 {
            return Err(TopologyError::InvalidCoordinate {
                reason: format!("graph with {n} nodes is too large to materialize as CSR"),
            });
        }
        if 2 * grid.num_edges() > u32::MAX as u64 {
            return Err(TopologyError::InvalidCoordinate {
                reason: "edge count exceeds u32::MAX".to_string(),
            });
        }
        let shape = grid.shape();
        let torus = grid.is_torus();
        let mut offsets = Vec::with_capacity(n as usize + 1);
        let mut targets = Vec::with_capacity(2 * grid.num_edges() as usize);
        let mut digits = vec![0u32; shape.dim()];
        offsets.push(0u32);
        for x in 0..n as u32 {
            for (j, &i) in digits.iter().enumerate() {
                let l = shape.radix(j);
                let w = shape.weight(j + 1) as u32;
                // `x` with digit j at 0: a neighbor with digit j at v is
                // `row + v · w`. The lower neighbor comes first, and a
                // torus dimension whose two neighbors coincide has one.
                let row = x - i * w;
                if torus {
                    let lower = if i == 0 { l - 1 } else { i - 1 };
                    let upper = if i + 1 == l { 0 } else { i + 1 };
                    targets.push(row + lower * w);
                    if upper != lower {
                        targets.push(row + upper * w);
                    }
                } else {
                    if i > 0 {
                        targets.push(row + (i - 1) * w);
                    }
                    if i + 1 < l {
                        targets.push(row + (i + 1) * w);
                    }
                }
            }
            offsets.push(targets.len() as u32);
            for (j, digit) in digits.iter_mut().enumerate().rev() {
                *digit += 1;
                if *digit < shape.radix(j) {
                    break;
                }
                *digit = 0;
            }
        }
        Ok(CsrAdjacency { offsets, targets })
    }

    /// The number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The neighbors of `node` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn neighbors(&self, node: usize) -> &[u32] {
        let start = self.offsets[node] as usize;
        let end = self.offsets[node + 1] as usize;
        &self.targets[start..end]
    }

    /// The degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn degree(&self, node: usize) -> usize {
        (self.offsets[node + 1] - self.offsets[node]) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    #[test]
    fn csr_matches_implicit_adjacency() {
        for grid in [
            Grid::torus(shape(&[4, 2, 3])),
            Grid::torus(shape(&[2, 5, 2])),
            Grid::mesh(shape(&[4, 5])),
            Grid::mesh(shape(&[2, 3, 2])),
            Grid::hypercube(5).unwrap(),
            Grid::ring(11).unwrap(),
            Grid::ring(2).unwrap(),
            Grid::line(5).unwrap(),
        ] {
            let csr = CsrAdjacency::build(&grid).unwrap();
            assert_eq!(csr.num_nodes() as u64, grid.size());
            for x in grid.nodes() {
                // The same neighbors, in the same order.
                let expected = grid.neighbors(x).unwrap();
                let actual: Vec<u64> = csr
                    .neighbors(x as usize)
                    .iter()
                    .map(|&y| y as u64)
                    .collect();
                assert_eq!(expected, actual, "adjacency of node {x} in {grid}");
                assert_eq!(csr.degree(x as usize), expected.len());
            }
        }
    }

    #[test]
    fn degrees_sum_to_entries() {
        let grid = Grid::mesh(shape(&[6, 7]));
        let csr = CsrAdjacency::build(&grid).unwrap();
        let total: usize = (0..csr.num_nodes()).map(|x| csr.degree(x)).sum();
        assert_eq!(total as u64, 2 * grid.num_edges());
    }
}

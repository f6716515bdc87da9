//! Edge iteration for toruses and meshes.

use crate::grid::{GraphKind, Grid};

/// Iterates over every undirected edge of a [`Grid`] exactly once, yielding
/// pairs of linear node indices `(x, y)`.
///
/// For each node and each dimension the iterator emits the edge obtained by
/// *increasing* the coordinate in that dimension (modulo the length for
/// toruses). This enumerates every mesh edge once; for torus dimensions of
/// length 2 the wrap-around edge coincides with the increasing edge, and is
/// emitted only from the node whose coordinate is 0.
///
/// The nodes are walked in index order by a digit odometer kept in place,
/// so no node index is ever decoded. (`Shape::iter` hands out a copy of
/// its 132-byte `Digits` per node, which measured about six times slower
/// per edge.)
pub struct EdgeIter<'a> {
    grid: &'a Grid,
    node: u64,
    coord: mixedradix::Digits,
    dim: usize,
}

impl<'a> EdgeIter<'a> {
    /// Creates an iterator over all edges of `grid`.
    pub fn new(grid: &'a Grid) -> Self {
        EdgeIter {
            grid,
            node: 0,
            coord: mixedradix::Digits::zero(grid.dim()).expect("grid dimension within bounds"),
            dim: 0,
        }
    }

    /// Moves to the next node: the odometer steps the last digit and
    /// carries into the ones before it.
    fn advance_node(&mut self) {
        self.node += 1;
        self.dim = 0;
        let shape = self.grid.shape();
        for j in (0..shape.dim()).rev() {
            let digit = self.coord.get(j) + 1;
            if digit < shape.radix(j) {
                self.coord.set(j, digit);
                return;
            }
            self.coord.set(j, 0);
        }
    }
}

impl<'a> Iterator for EdgeIter<'a> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        let shape = self.grid.shape();
        loop {
            if self.node >= self.grid.size() {
                return None;
            }
            if self.dim >= shape.dim() {
                self.advance_node();
                continue;
            }
            let j = self.dim;
            self.dim += 1;

            let l = shape.radix(j);
            let i = self.coord.get(j);
            // Weight of digit j: increasing digit j by one adds weight(j+1).
            let w = shape.weight(j + 1);
            match self.grid.kind() {
                GraphKind::Mesh => {
                    if i < l - 1 {
                        return Some((self.node, self.node + w));
                    }
                }
                GraphKind::Torus => {
                    if l == 2 {
                        if i == 0 {
                            return Some((self.node, self.node + w));
                        }
                    } else if i < l - 1 {
                        return Some((self.node, self.node + w));
                    } else {
                        // Wrap-around edge from the last coordinate back to 0.
                        return Some((self.node, self.node - (l as u64 - 1) * w));
                    }
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // A cheap upper bound; exact counting would require scanning.
        let upper = (self.grid.num_edges()) as usize;
        (0, Some(upper))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;
    use std::collections::HashSet;

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    fn edge_set(grid: &Grid) -> HashSet<(u64, u64)> {
        grid.edges().map(|(a, b)| (a.min(b), a.max(b))).collect()
    }

    #[test]
    fn edge_count_matches_num_edges() {
        for grid in [
            Grid::torus(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[4, 2, 3])),
            Grid::torus(shape(&[2, 2, 2])),
            Grid::mesh(shape(&[2, 2, 2])),
            Grid::ring(8).unwrap(),
            Grid::line(8).unwrap(),
            Grid::torus(shape(&[3, 5])),
        ] {
            let edges: Vec<(u64, u64)> = grid.edges().collect();
            assert_eq!(edges.len() as u64, grid.num_edges(), "count for {grid}");
            // No duplicates (as unordered pairs) and no self-loops.
            let set = edge_set(&grid);
            assert_eq!(set.len(), edges.len(), "duplicates for {grid}");
            assert!(edges.iter().all(|&(a, b)| a != b));
        }
    }

    #[test]
    fn every_edge_joins_adjacent_nodes() {
        for grid in [
            Grid::torus(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[3, 3, 3])),
            Grid::hypercube(4).unwrap(),
        ] {
            for (a, b) in grid.edges() {
                assert_eq!(
                    grid.distance_index(a, b).unwrap(),
                    1,
                    "edge ({a},{b}) in {grid}"
                );
            }
        }
    }

    #[test]
    fn edges_cover_all_adjacencies() {
        for grid in [
            Grid::torus(shape(&[4, 3])),
            Grid::mesh(shape(&[4, 3])),
            Grid::torus(shape(&[2, 4])),
        ] {
            let set = edge_set(&grid);
            for x in grid.nodes() {
                for y in grid.neighbors(x).unwrap() {
                    assert!(
                        set.contains(&(x.min(y), x.max(y))),
                        "missing edge ({x},{y}) in {grid}"
                    );
                }
            }
        }
    }

    #[test]
    fn ring_and_line_edges() {
        let ring = Grid::ring(5).unwrap();
        let edges = edge_set(&ring);
        assert_eq!(edges.len(), 5);
        assert!(edges.contains(&(0, 4)), "ring wrap-around edge");

        let line = Grid::line(5).unwrap();
        let edges = edge_set(&line);
        assert_eq!(edges.len(), 4);
        assert!(!edges.contains(&(0, 4)));
    }

    /// The enumeration the odometer replaces: decode every node, then take
    /// the edge that increases each dimension's coordinate.
    fn decoded_edges(grid: &Grid) -> Vec<(u64, u64)> {
        let shape = grid.shape();
        let mut edges = Vec::new();
        for x in grid.nodes() {
            let coord = grid.coord(x).unwrap();
            for j in 0..grid.dim() {
                let (l, i) = (shape.radix(j), coord.get(j));
                let mut next = coord;
                if i + 1 < l {
                    next.set(j, i + 1);
                } else if grid.is_torus() && l > 2 {
                    next.set(j, 0);
                } else {
                    continue;
                }
                edges.push((x, grid.index(&next).unwrap()));
            }
        }
        edges
    }

    #[test]
    fn edges_match_a_decode_based_enumeration() {
        for grid in [
            Grid::torus(shape(&[4, 2, 3])),
            Grid::torus(shape(&[2, 5, 2])),
            Grid::torus(shape(&[3, 3, 3, 2])),
            Grid::mesh(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[7, 5])),
            Grid::hypercube(5).unwrap(),
            Grid::ring(9).unwrap(),
            Grid::line(6).unwrap(),
        ] {
            let edges: Vec<(u64, u64)> = grid.edges().collect();
            assert_eq!(edges, decoded_edges(&grid), "edges of {grid}");
        }
    }

    #[test]
    fn ring_of_size_two_has_one_edge() {
        let ring = Grid::ring(2).unwrap();
        let edges: Vec<_> = ring.edges().collect();
        assert_eq!(edges, vec![(0, 1)]);
    }
}

//! Toruses and meshes as graphs (Definitions 2 and 3 of the paper).
//!
//! A single type, [`Grid`], represents both families: an
//! `(l_1, …, l_d)`-torus or an `(l_1, …, l_d)`-mesh, depending on its
//! [`GraphKind`]. Rings, lines and hypercubes are the usual special cases
//! (dimension-1 torus, dimension-1 mesh, and all-lengths-2 graphs
//! respectively).
//!
//! Nodes are addressed interchangeably by their coordinate list
//! ([`Coord`], the paper's `(i_1, …, i_d)`) or by their linear index in
//! `[0, n)` (the mixed-radix value of the coordinate list). All per-node
//! operations cost `O(d)`.

use core::fmt;

use mixedradix::distance::{
    delta_m_unchecked, delta_t_unchecked, digit_distance_mesh, digit_distance_torus, mesh_diameter,
    torus_diameter,
};

use crate::error::{Result, TopologyError};
use crate::routing::{self, HopTaken};
use crate::{Coord, Shape};

/// Whether a [`Grid`] has wrap-around edges (torus) or boundaries (mesh).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphKind {
    /// Every node has two neighbors in every dimension (Definition 2).
    Torus,
    /// Boundary nodes have a single neighbor in the boundary dimension
    /// (Definition 3).
    Mesh,
}

impl GraphKind {
    /// `true` for [`GraphKind::Torus`].
    pub fn is_torus(self) -> bool {
        matches!(self, GraphKind::Torus)
    }

    /// `true` for [`GraphKind::Mesh`].
    pub fn is_mesh(self) -> bool {
        matches!(self, GraphKind::Mesh)
    }
}

impl fmt::Display for GraphKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphKind::Torus => write!(f, "torus"),
            GraphKind::Mesh => write!(f, "mesh"),
        }
    }
}

/// An `(l_1, …, l_d)`-torus or `(l_1, …, l_d)`-mesh.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Grid {
    kind: GraphKind,
    shape: Shape,
}

impl Grid {
    /// Creates a torus of the given shape.
    pub fn torus(shape: Shape) -> Grid {
        Grid {
            kind: GraphKind::Torus,
            shape,
        }
    }

    /// Creates a mesh of the given shape.
    pub fn mesh(shape: Shape) -> Grid {
        Grid {
            kind: GraphKind::Mesh,
            shape,
        }
    }

    /// Creates a graph of the given kind and shape.
    pub fn new(kind: GraphKind, shape: Shape) -> Grid {
        Grid { kind, shape }
    }

    /// Creates a ring of `n` nodes (a 1-dimensional torus).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::GraphTooSmall`] if `n < 2`.
    pub fn ring(n: u64) -> Result<Grid> {
        if n < 2 {
            return Err(TopologyError::GraphTooSmall { size: n });
        }
        let n32 = u32::try_from(n).map_err(|_| TopologyError::GraphTooSmall { size: n })?;
        Ok(Grid::torus(Shape::new(vec![n32])?))
    }

    /// Creates a line of `n` nodes (a 1-dimensional mesh).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::GraphTooSmall`] if `n < 2`.
    pub fn line(n: u64) -> Result<Grid> {
        if n < 2 {
            return Err(TopologyError::GraphTooSmall { size: n });
        }
        let n32 = u32::try_from(n).map_err(|_| TopologyError::GraphTooSmall { size: n })?;
        Ok(Grid::mesh(Shape::new(vec![n32])?))
    }

    /// Creates a hypercube of size `2^d` (Definition 4).
    ///
    /// A hypercube is simultaneously a `d`-dimensional torus and a
    /// `d`-dimensional mesh in which every dimension has length 2; the two
    /// readings produce the same graph, so the kind returned here
    /// ([`GraphKind::Mesh`]) is only a label. Use [`Grid::is_hypercube`] to
    /// test for hypercube-ness independently of the label.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidHypercube`] if `d` is 0 or too large.
    pub fn hypercube(d: usize) -> Result<Grid> {
        if d == 0 || d > mixedradix::MAX_DIM {
            return Err(TopologyError::InvalidHypercube { dimension: d });
        }
        Ok(Grid::mesh(Shape::binary(d)?))
    }

    /// The graph kind (torus or mesh).
    pub fn kind(&self) -> GraphKind {
        self.kind
    }

    /// The shape `(l_1, …, l_d)`.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension `d`.
    pub fn dim(&self) -> usize {
        self.shape.dim()
    }

    /// The number of nodes `n = Π l_j`.
    pub fn size(&self) -> u64 {
        self.shape.size()
    }

    /// Whether the graph is a torus.
    pub fn is_torus(&self) -> bool {
        self.kind.is_torus()
    }

    /// Whether the graph is a mesh.
    pub fn is_mesh(&self) -> bool {
        self.kind.is_mesh()
    }

    /// Whether the graph is a hypercube (every dimension has length 2).
    ///
    /// Such a graph is both a torus and a mesh regardless of its
    /// [`GraphKind`] label.
    pub fn is_hypercube(&self) -> bool {
        self.shape.is_binary()
    }

    /// Whether all dimensions have equal length (the paper's *square*).
    pub fn is_square(&self) -> bool {
        self.shape.is_square()
    }

    /// Whether the graph is a ring (1-dimensional torus).
    pub fn is_ring(&self) -> bool {
        self.dim() == 1 && self.is_torus()
    }

    /// The coordinate list of the node with linear index `x`.
    ///
    /// # Errors
    ///
    /// Returns an error if `x >= self.size()`.
    pub fn coord(&self, x: u64) -> Result<Coord> {
        Ok(self.shape.to_digits(x)?)
    }

    /// The linear index of a coordinate list.
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinate does not belong to the graph.
    pub fn index(&self, coord: &Coord) -> Result<u64> {
        Ok(self.shape.to_index(coord)?)
    }

    /// Whether a coordinate list denotes a node of this graph.
    pub fn contains(&self, coord: &Coord) -> bool {
        self.shape.contains(coord)
    }

    /// An iterator over all node indices `0, 1, …, n−1`.
    pub fn nodes(&self) -> impl Iterator<Item = u64> {
        0..self.size()
    }

    /// An iterator over all node coordinates in index order.
    pub fn coords(&self) -> impl Iterator<Item = Coord> + '_ {
        self.shape.iter()
    }

    /// Every node's coordinates as one node-major [`DigitTable`], filled
    /// without decoding a node index. Rows come in runs of `l_d` nodes that
    /// share every digit but the last. A run's first row steps the odometer
    /// of the row before it: the last digit that does not wrap goes up by
    /// one, the digits after it stay zero and the ones before it are
    /// copied. Every later row of the run copies the first row's leading
    /// digits and counts its last digit up, so no row waits on the store of
    /// the row before it.
    ///
    /// # Panics
    ///
    /// Panics if the table does not fit in memory.
    pub fn digit_table(&self) -> DigitTable {
        let d = self.dim();
        let radices = self.shape.radices();
        let last = d - 1;
        let run = radices[last] as usize * d;
        let mut digits = vec![0u32; self.size() as usize * d];
        for at in (0..digits.len()).step_by(run) {
            if at > 0 {
                let (prev, row) = digits[at - d..at + d].split_at_mut(d);
                for j in (0..last).rev() {
                    let digit = prev[j] + 1;
                    if digit < radices[j] {
                        row[j] = digit;
                        row[..j].copy_from_slice(&prev[..j]);
                        break;
                    }
                }
            }
            let (first, rest) = digits[at..at + run].split_at_mut(d);
            for (v, row) in (1..).zip(rest.chunks_exact_mut(d)) {
                // Not `copy_from_slice`: a `memcpy` call per short row
                // measured twice as slow on two-dimensional grids.
                for (to, &from) in row.iter_mut().zip(&first[..last]) {
                    *to = from;
                }
                row[last] = v;
            }
        }
        DigitTable {
            grid: self.clone(),
            digits,
        }
    }

    /// The degree of the node with index `x`.
    ///
    /// # Errors
    ///
    /// Returns an error if `x >= self.size()`.
    pub fn degree(&self, x: u64) -> Result<usize> {
        let coord = self.coord(x)?;
        Ok(self.degree_coord(&coord))
    }

    /// The degree of a node given by its coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate has the wrong dimension.
    pub fn degree_coord(&self, coord: &Coord) -> usize {
        assert_eq!(coord.dim(), self.dim(), "coordinate dimension mismatch");
        let mut deg = 0usize;
        for j in 0..self.dim() {
            let l = self.shape.radix(j);
            match self.kind {
                GraphKind::Torus => deg += if l > 2 { 2 } else { 1 },
                GraphKind::Mesh => {
                    let i = coord.get(j);
                    if i > 0 {
                        deg += 1;
                    }
                    if i < l - 1 {
                        deg += 1;
                    }
                }
            }
        }
        deg
    }

    /// The maximum node degree of the graph.
    pub fn max_degree(&self) -> usize {
        (0..self.dim())
            .map(|j| {
                let l = self.shape.radix(j);
                match self.kind {
                    GraphKind::Torus => {
                        if l > 2 {
                            2
                        } else {
                            1
                        }
                    }
                    GraphKind::Mesh => {
                        if l > 2 {
                            2
                        } else {
                            1
                        }
                    }
                }
            })
            .sum()
    }

    /// The neighbors of the node with index `x`, as linear indices.
    ///
    /// Every neighbor appears exactly once even when the left and the right
    /// neighbor in a length-2 torus dimension coincide.
    ///
    /// # Errors
    ///
    /// Returns an error if `x >= self.size()`.
    pub fn neighbors(&self, x: u64) -> Result<Vec<u64>> {
        let coord = self.coord(x)?;
        Ok(self
            .neighbors_coord(&coord)
            .iter()
            .map(|c| self.shape.to_index(c).expect("neighbor is a valid node"))
            .collect())
    }

    /// The neighbors of a node given by its coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate has the wrong dimension.
    pub fn neighbors_coord(&self, coord: &Coord) -> Vec<Coord> {
        assert_eq!(coord.dim(), self.dim(), "coordinate dimension mismatch");
        let mut out = Vec::with_capacity(2 * self.dim());
        for j in 0..self.dim() {
            let l = self.shape.radix(j);
            let i = coord.get(j);
            match self.kind {
                GraphKind::Torus => {
                    let left = (i + l - 1) % l;
                    let right = (i + 1) % l;
                    let mut a = *coord;
                    a.set(j, left);
                    out.push(a);
                    if right != left {
                        let mut b = *coord;
                        b.set(j, right);
                        out.push(b);
                    }
                }
                GraphKind::Mesh => {
                    if i > 0 {
                        let mut a = *coord;
                        a.set(j, i - 1);
                        out.push(a);
                    }
                    if i < l - 1 {
                        let mut b = *coord;
                        b.set(j, i + 1);
                        out.push(b);
                    }
                }
            }
        }
        out
    }

    /// Whether two nodes (given by index) are adjacent.
    ///
    /// # Errors
    ///
    /// Returns an error if either index is out of range.
    pub fn adjacent(&self, x: u64, y: u64) -> Result<bool> {
        // Adjacent iff distance 1 (toruses and meshes are simple graphs).
        Ok(x != y && self.distance_index(x, y)? == 1)
    }

    /// The shortest-path distance between two nodes given by coordinates
    /// (Lemma 5 for toruses, Lemma 6 for meshes).
    ///
    /// # Panics
    ///
    /// Panics if either coordinate has the wrong dimension.
    pub fn distance(&self, a: &Coord, b: &Coord) -> u64 {
        match self.kind {
            GraphKind::Torus => delta_t_unchecked(&self.shape, a, b),
            GraphKind::Mesh => delta_m_unchecked(a, b),
        }
    }

    /// The shortest-path distance between two nodes given by linear index.
    ///
    /// # Errors
    ///
    /// Returns an error if either index is out of range.
    pub fn distance_index(&self, x: u64, y: u64) -> Result<u64> {
        let a = self.coord(x)?;
        let b = self.coord(y)?;
        Ok(self.distance(&a, &b))
    }

    /// The diameter of the graph (maximum distance between any two nodes).
    pub fn diameter(&self) -> u64 {
        match self.kind {
            GraphKind::Torus => torus_diameter(&self.shape),
            GraphKind::Mesh => mesh_diameter(&self.shape),
        }
    }

    /// The number of (undirected) edges.
    pub fn num_edges(&self) -> u64 {
        let n = self.size();
        let mut edges = 0u64;
        for j in 0..self.dim() {
            let l = self.shape.radix(j) as u64;
            edges += match self.kind {
                GraphKind::Torus => {
                    if l > 2 {
                        n
                    } else {
                        n / 2
                    }
                }
                GraphKind::Mesh => n / l * (l - 1),
            };
        }
        edges
    }

    /// An iterator over all undirected edges, each yielded exactly once as a
    /// pair of linear indices.
    pub fn edges(&self) -> crate::edges::EdgeIter<'_> {
        crate::edges::EdgeIter::new(self)
    }

    /// The number of slots in the dense *undirected*-link indexing scheme:
    /// `d · n`, one slot per (tail node, dimension) pair; netsim's engine
    /// claims a link in one direction as slot `2 × link_index + direction`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the count fits in `u64`; use
    /// [`Grid::try_link_count`] when the shape is not already known to be
    /// small enough.
    pub fn link_count(&self) -> u64 {
        debug_assert!(
            self.try_link_count().is_ok(),
            "link index space overflows u64; use try_link_count"
        );
        self.dim() as u64 * self.size()
    }

    /// [`Grid::link_count`] without silent wrapping: `d · n`, or
    /// [`TopologyError::EdgeSpaceTooLarge`] when that overflows `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::EdgeSpaceTooLarge`] on overflow.
    pub fn try_link_count(&self) -> Result<u64> {
        (self.dim() as u64)
            .checked_mul(self.size())
            .ok_or(TopologyError::EdgeSpaceTooLarge {
                nodes: self.size(),
                dim: self.dim(),
            })
    }

    /// The dense index of the undirected link whose canonical *tail* is
    /// `tail` along dimension `dim`: `tail · d + dim`, in
    /// `[0, link_count())`. The canonical tail of a link is the endpoint
    /// whose forward step reaches the other endpoint (see
    /// [`crate::routing::link_slot_of_hop`]).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    #[inline]
    pub fn link_index(&self, tail: u64, dim: usize) -> u64 {
        assert!(dim < self.dim(), "dimension {dim} out of range");
        tail * self.dim() as u64 + dim as u64
    }
}

/// A grid with every node's coordinates in one node-major table, built by
/// [`Grid::digit_table`]: digit `j` of node `x` at `[x · d + j]`, `d · n`
/// entries. Distances and dimension-ordered routes between two nodes read
/// their two rows, so neither decodes a node index. Every method panics on
/// a node index outside the grid.
#[derive(Clone, Debug)]
pub struct DigitTable {
    grid: Grid,
    digits: Vec<u32>,
}

impl DigitTable {
    /// The grid whose nodes the table holds.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The coordinates of node `x`, one digit per dimension.
    #[inline]
    pub fn row(&self, x: u64) -> &[u32] {
        let d = self.grid.dim();
        &self.digits[x as usize * d..][..d]
    }

    /// The distance between nodes `x` and `y` (Lemmas 5 and 6): the
    /// per-dimension `|Δ|` of their rows, each taken as `min(Δ, l − Δ)` on
    /// toruses, summed — what [`Grid::distance_index`] computes after
    /// decoding both indices.
    #[inline]
    pub fn distance(&self, x: u64, y: u64) -> u64 {
        let (p, q) = (self.row(x), self.row(y));
        if self.grid.is_torus() {
            p.iter()
                .zip(q)
                .zip(self.grid.shape().radices())
                .map(|((&u, &v), &l)| digit_distance_torus(u, v, l))
                .sum()
        } else {
            p.iter()
                .zip(q)
                .map(|(&u, &v)| digit_distance_mesh(u, v))
                .sum()
        }
    }

    /// Emits every hop of the dimension-ordered route from node `from` to
    /// node `to`, as [`routing::for_each_hop`] does for their rows.
    #[inline]
    pub fn for_each_hop<F>(&self, from: u64, to: u64, emit: F)
    where
        F: FnMut(HopTaken, u64, u64),
    {
        routing::for_each_hop(&self.grid, self.row(from), from, self.row(to), emit);
    }
}

impl fmt::Debug for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.shape, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    fn coord(digits: &[u32]) -> Coord {
        Coord::from_slice(digits).unwrap()
    }

    #[test]
    fn huge_shapes_are_rejected_by_the_checked_edge_paths() {
        // (2³²−1)² ≈ 2⁶⁴ nodes fits in u64, but d·n does not: the unchecked
        // count would silently wrap.
        let huge = shape(&[u32::MAX, u32::MAX]);
        let grid = Grid::torus(huge.clone());
        assert_eq!(
            grid.try_link_count(),
            Err(TopologyError::EdgeSpaceTooLarge {
                nodes: huge.size(),
                dim: 2,
            })
        );

        // (2³¹, 2³¹) has n = 2⁶² and d·n = 2⁶³, which still fits.
        let grid = Grid::mesh(shape(&[1 << 31, 1 << 31]));
        assert_eq!(grid.try_link_count(), Ok(1u64 << 63));

        // Ordinary shapes agree with the unchecked count.
        let ok = Grid::torus(shape(&[4, 2, 3]));
        assert_eq!(ok.try_link_count(), Ok(ok.link_count()));
    }

    #[test]
    fn figure_1_and_2_distances() {
        // Figure 1: (4,2,3)-torus; Figure 2: (4,2,3)-mesh. Distance between
        // (0,0,1) and (3,0,0) is 2 in the torus and 4 in the mesh.
        let torus = Grid::torus(shape(&[4, 2, 3]));
        let mesh = Grid::mesh(shape(&[4, 2, 3]));
        let a = coord(&[0, 0, 1]);
        let b = coord(&[3, 0, 0]);
        assert_eq!(torus.distance(&a, &b), 2);
        assert_eq!(mesh.distance(&a, &b), 4);
    }

    #[test]
    fn sizes_and_dimensions() {
        let torus = Grid::torus(shape(&[4, 2, 3]));
        assert_eq!(torus.size(), 24);
        assert_eq!(torus.dim(), 3);
        assert!(torus.is_torus());
        assert!(!torus.is_mesh());
        assert!(!torus.is_hypercube());
        assert!(!torus.is_square());
        assert_eq!(torus.to_string(), "(4, 2, 3)-torus");
    }

    #[test]
    fn ring_line_hypercube_constructors() {
        let ring = Grid::ring(6).unwrap();
        assert!(ring.is_ring());
        assert!(ring.is_torus());
        assert_eq!(ring.size(), 6);

        let line = Grid::line(6).unwrap();
        assert!(line.is_mesh());

        let hc = Grid::hypercube(4).unwrap();
        assert!(hc.is_hypercube());
        assert!(hc.is_square());
        assert_eq!(hc.size(), 16);
        assert_eq!(hc.dim(), 4);

        assert!(Grid::ring(1).is_err());
        assert!(Grid::line(0).is_err());
        assert!(Grid::hypercube(0).is_err());
        assert!(Grid::hypercube(1000).is_err());
    }

    #[test]
    fn torus_degrees_are_uniform() {
        let torus = Grid::torus(shape(&[4, 2, 3]));
        // Dimensions of length > 2 contribute 2 neighbors, length-2 dimensions 1.
        for x in torus.nodes() {
            assert_eq!(torus.degree(x).unwrap(), 2 + 1 + 2);
        }
        assert_eq!(torus.max_degree(), 5);
    }

    #[test]
    fn mesh_degrees_depend_on_boundaries() {
        let mesh = Grid::mesh(shape(&[3, 3]));
        // Corner nodes have degree 2, edge nodes 3, the center 4.
        assert_eq!(mesh.degree_coord(&coord(&[0, 0])), 2);
        assert_eq!(mesh.degree_coord(&coord(&[0, 1])), 3);
        assert_eq!(mesh.degree_coord(&coord(&[1, 1])), 4);
    }

    #[test]
    fn neighbors_are_symmetric_and_at_distance_one() {
        for grid in [
            Grid::torus(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[4, 2, 3])),
            Grid::hypercube(4).unwrap(),
            Grid::ring(7).unwrap(),
            Grid::line(5).unwrap(),
        ] {
            for x in grid.nodes() {
                let neighbors = grid.neighbors(x).unwrap();
                assert_eq!(neighbors.len(), grid.degree(x).unwrap());
                for &y in &neighbors {
                    assert_ne!(x, y, "no self loops");
                    assert_eq!(grid.distance_index(x, y).unwrap(), 1);
                    assert!(grid.neighbors(y).unwrap().contains(&x), "symmetry");
                    assert!(grid.adjacent(x, y).unwrap());
                }
                // Neighbor lists contain no duplicates.
                let mut sorted = neighbors.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), neighbors.len());
            }
        }
    }

    #[test]
    fn length_two_torus_dimension_has_single_neighbor() {
        let torus = Grid::torus(shape(&[2, 3]));
        let n: Vec<u64> = torus.neighbors(0).unwrap();
        // Dimension 1 (length 2) contributes one neighbor, dimension 2 two.
        assert_eq!(n.len(), 3);
    }

    #[test]
    fn edge_counts_match_formula_and_handshake() {
        for grid in [
            Grid::torus(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[4, 2, 3])),
            Grid::torus(shape(&[2, 2, 2])),
            Grid::mesh(shape(&[5, 5])),
            Grid::ring(9).unwrap(),
            Grid::line(9).unwrap(),
        ] {
            let degree_sum: usize = grid.nodes().map(|x| grid.degree(x).unwrap()).sum();
            assert_eq!(
                degree_sum as u64,
                2 * grid.num_edges(),
                "handshake for {grid}"
            );
        }
    }

    #[test]
    fn hypercube_matches_definition_4() {
        let hc = Grid::hypercube(3).unwrap();
        // Neighbors differ in exactly one position.
        for x in hc.nodes() {
            for y in hc.neighbors(x).unwrap() {
                let a = hc.coord(x).unwrap();
                let b = hc.coord(y).unwrap();
                let diff = (0..3).filter(|&j| a.get(j) != b.get(j)).count();
                assert_eq!(diff, 1);
            }
            assert_eq!(hc.degree(x).unwrap(), 3);
        }
        assert_eq!(hc.num_edges(), 3 * 8 / 2);
    }

    #[test]
    fn diameters() {
        assert_eq!(Grid::torus(shape(&[4, 2, 3])).diameter(), 2 + 1 + 1);
        assert_eq!(Grid::mesh(shape(&[4, 2, 3])).diameter(), 3 + 1 + 2);
        assert_eq!(Grid::ring(10).unwrap().diameter(), 5);
        assert_eq!(Grid::line(10).unwrap().diameter(), 9);
    }

    #[test]
    fn index_coord_round_trip() {
        let grid = Grid::mesh(shape(&[3, 4, 5]));
        for x in grid.nodes() {
            let c = grid.coord(x).unwrap();
            assert!(grid.contains(&c));
            assert_eq!(grid.index(&c).unwrap(), x);
        }
        assert!(grid.coord(grid.size()).is_err());
    }

    #[test]
    fn link_indexing_is_dense() {
        for grid in [
            Grid::torus(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[5, 3])),
            Grid::hypercube(4).unwrap(),
        ] {
            let d = grid.dim();
            assert_eq!(grid.link_count(), d as u64 * grid.size());
            let mut seen = std::collections::HashSet::new();
            for tail in grid.nodes() {
                for dim in 0..d {
                    let slot = grid.link_index(tail, dim);
                    assert!(slot < grid.link_count());
                    assert!(seen.insert(slot), "duplicate slot {slot}");
                }
            }
            assert_eq!(seen.len() as u64, grid.link_count());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn link_index_rejects_bad_dimension() {
        let grid = Grid::torus(shape(&[3, 3]));
        let _ = grid.link_index(0, 2);
    }

    #[test]
    fn digit_table_rows_match_coords() {
        // Rings are one run of rows; the other shapes have many short runs
        // and carries through every leading digit. Every row is its node's
        // coordinates, and the distance between two rows is the grid's.
        for grid in [
            Grid::torus(shape(&[4, 5, 7])),
            Grid::mesh(shape(&[2, 3, 2, 2, 2, 2])),
            Grid::ring(9).unwrap(),
            Grid::torus(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[3, 5])),
            Grid::hypercube(4).unwrap(),
            Grid::ring(2).unwrap(),
            Grid::torus(shape(&[2, 2])),
            Grid::ring(8).unwrap(),
        ] {
            let table = grid.digit_table();
            assert_eq!(table.grid(), &grid);
            for x in grid.nodes() {
                assert_eq!(
                    table.row(x),
                    grid.coord(x).unwrap().as_slice(),
                    "row {x} of {grid}"
                );
                for y in grid.nodes() {
                    assert_eq!(
                        table.distance(x, y),
                        grid.distance_index(x, y).unwrap(),
                        "{x} -> {y} in {grid}"
                    );
                }
            }
        }
    }

    #[test]
    fn coords_iterator_matches_indices() {
        let grid = Grid::torus(shape(&[3, 2]));
        let coords: Vec<Coord> = grid.coords().collect();
        assert_eq!(coords.len(), 6);
        for (x, c) in coords.iter().enumerate() {
            assert_eq!(grid.coord(x as u64).unwrap(), *c);
        }
    }
}

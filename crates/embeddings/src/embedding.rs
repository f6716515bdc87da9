//! The [`Embedding`] type: an injection of the nodes of a guest graph `G`
//! into the nodes of a host graph `H`, together with its dilation cost
//! (Definition 1 of the paper).
//!
//! # Batched evaluation
//!
//! Every construction in the paper evaluates in `O(dimension of H)` time per
//! node, so consumers should sweep embeddings rather than materialize them.
//! Two API tiers support this:
//!
//! * **Per-call**: [`Embedding::map`] / [`Embedding::map_index`] evaluate one
//!   node. Convenient for spot checks, but a sweep built on them pays one
//!   dynamic call per lookup plus (for neighbor enumeration through
//!   [`Grid::neighbors`]) a `Vec` allocation per node.
//! * **Batched**: [`Embedding::for_each_mapped`] walks a contiguous range
//!   of guest nodes with a digit odometer, visiting every node and every
//!   incident guest edge exactly once with both endpoint images already
//!   evaluated — no division and no allocation in the loop after its first
//!   chunk. `verify`, `congestion` and [`Embedding::dilation`] are all
//!   built on this path; prefer it whenever you touch more than a handful
//!   of nodes, and hand disjoint chunks to the crossbeam fork–join pool (as
//!   [`crate::verify::verify`] does) to scale with memory bandwidth.
//!
//! When a table is wanted, [`Embedding::to_table`] sums the table of a
//! separable construction from per-digit terms, evaluating `map` only on
//! the guest's axes, and calls `map` once per node for every other one.
//!
//! Evaluation never trusts the mapping function: [`Embedding::try_map_index`]
//! reports images outside the host as [`EmbeddingError::InvalidImage`], and
//! the sweeps above degrade to failure reports instead of panicking.

use std::ops::Range;
use std::sync::Arc;

use topology::{Coord, Grid};

use crate::error::{EmbeddingError, Result};

/// The mapping function of an embedding: guest node index → host coordinate.
pub type MapFn = Arc<dyn Fn(u64) -> Coord + Send + Sync>;

/// An embedding `f : V_G → V_H` of a guest torus/mesh `G` in a host
/// torus/mesh `H` of the same size.
///
/// The mapping is stored as a function of the guest node *index*, returning a
/// host *coordinate*; every construction in the paper evaluates in
/// `O(dimension of H)` time per node, so embeddings of multi-million-node
/// graphs never need to be materialized. Use [`Embedding::to_table`] when an
/// explicit table is wanted.
#[derive(Clone)]
pub struct Embedding {
    guest: Grid,
    host: Grid,
    name: String,
    map: MapFn,
    /// Whether the image index is a sum of one term per guest digit (see
    /// [`Embedding::new_separable`]), which lets [`Embedding::to_table`]
    /// evaluate `map` only on the guest's axes.
    separable: bool,
}

impl Embedding {
    /// Creates an embedding from a mapping function.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::SizeMismatch`] if the graphs differ in size.
    /// The injectivity of `map` is *not* checked here (use
    /// [`Embedding::is_injective`] or [`crate::verify::verify`]).
    pub fn new(guest: Grid, host: Grid, name: impl Into<String>, map: MapFn) -> Result<Self> {
        if guest.size() != host.size() {
            return Err(EmbeddingError::SizeMismatch {
                guest: guest.size(),
                host: host.size(),
            });
        }
        Ok(Embedding {
            guest,
            host,
            name: name.into(),
            map,
            separable: false,
        })
    }

    /// [`Embedding::new`] for a *separable* construction: one whose image
    /// index is a sum of one term per guest digit,
    /// `index(map(x)) = Σ_k τ_k(x_k)`. That holds when every host digit is
    /// a sum of functions of single guest digits, as in the general
    /// reduction (Theorem 43), the increasing maps (Theorem 32), the simple
    /// reduction (Theorem 39), `T_L` and the identity, because the host
    /// index is linear in the host digits.
    /// [`Embedding::to_table`] then evaluates `map` only at the guest's
    /// axis nodes `v · w_k`.
    pub(crate) fn new_separable(
        guest: Grid,
        host: Grid,
        name: impl Into<String>,
        map: MapFn,
    ) -> Result<Self> {
        let mut embedding = Embedding::new(guest, host, name, map)?;
        embedding.separable = true;
        Ok(embedding)
    }

    /// Creates an embedding from an explicit placement table (guest node
    /// index → host node index), validating the table up front.
    ///
    /// This is the trusted boundary for tables that arrive from outside the
    /// process — a deserialized [`crate::plan::Plan`], a service request, an
    /// annealing-refined table read back from disk. Validation checks the
    /// length, the range of every entry and injectivity, so the returned
    /// embedding's mapping function can never panic on a lookup.
    ///
    /// # Errors
    ///
    /// * [`EmbeddingError::SizeMismatch`] if the graphs differ in size;
    /// * [`EmbeddingError::InvalidTable`] if the table's length is not the
    ///   guest size, an entry is not a host node, or two guests map to the
    ///   same host node.
    pub fn from_table(
        guest: Grid,
        host: Grid,
        name: impl Into<String>,
        table: Vec<u64>,
    ) -> Result<Self> {
        if guest.size() != host.size() {
            return Err(EmbeddingError::SizeMismatch {
                guest: guest.size(),
                host: host.size(),
            });
        }
        if table.len() as u64 != guest.size() {
            return Err(EmbeddingError::InvalidTable {
                details: format!(
                    "table has {} entries for a guest of {} nodes",
                    table.len(),
                    guest.size()
                ),
            });
        }
        let n = host.size();
        let words = n.div_ceil(64) as usize;
        let mut seen = vec![0u64; words];
        for (x, &y) in table.iter().enumerate() {
            if y >= n {
                return Err(EmbeddingError::InvalidTable {
                    details: format!("guest node {x} maps to {y}, beyond the host's {n} nodes"),
                });
            }
            let (w, b) = ((y / 64) as usize, y % 64);
            if seen[w] >> b & 1 == 1 {
                return Err(EmbeddingError::InvalidTable {
                    details: format!("host node {y} is the image of two guest nodes"),
                });
            }
            seen[w] |= 1 << b;
        }
        let map_table: Arc<[u64]> = table.into();
        let map_host = host.clone();
        Embedding::new(
            guest,
            host,
            name,
            // Every entry was just checked to be a host node, so the
            // conversion to a coordinate cannot fail.
            Arc::new(move |x| {
                map_host
                    .coord(map_table[x as usize])
                    .expect("validated table entry")
            }),
        )
    }

    /// Creates the identity embedding between two graphs of the same shape.
    ///
    /// # Errors
    ///
    /// Returns an error if the shapes differ.
    pub fn identity(guest: Grid, host: Grid) -> Result<Self> {
        if guest.shape() != host.shape() {
            return Err(EmbeddingError::Unsupported {
                details: format!(
                    "identity embedding requires equal shapes, got {} and {}",
                    guest.shape(),
                    host.shape()
                ),
            });
        }
        let shape = host.shape().clone();
        Embedding::new_separable(
            guest,
            host,
            "identity",
            Arc::new(move |x| shape.to_digits(x).expect("index in range")),
        )
    }

    /// The guest graph `G`.
    pub fn guest(&self) -> &Grid {
        &self.guest
    }

    /// The host graph `H`.
    pub fn host(&self) -> &Grid {
        &self.host
    }

    /// A human-readable name of the construction (e.g. `"f_L"`, `"π∘H_V"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of nodes of either graph.
    pub fn size(&self) -> u64 {
        self.guest.size()
    }

    /// The image of guest node `x` as a host coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range (constructions map exactly `[0, n)`).
    pub fn map(&self, x: u64) -> Coord {
        (self.map)(x)
    }

    /// The image of guest node `x` as a host linear index.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::InvalidImage`] if the mapping function
    /// produced a coordinate that is not a node of the host — the fallible
    /// path for code that must not abort on a buggy construction.
    pub fn try_map_index(&self, x: u64) -> Result<u64> {
        let image = self.map(x);
        self.host
            .index(&image)
            .map_err(|_| EmbeddingError::InvalidImage {
                guest: x,
                image: Box::new(image),
            })
    }

    /// The image of guest node `x` as a host linear index.
    ///
    /// # Panics
    ///
    /// Panics if the image is not a valid host node; use
    /// [`Embedding::try_map_index`] to handle that case as an error.
    pub fn map_index(&self, x: u64) -> u64 {
        self.try_map_index(x)
            .expect("embedding images must be valid host nodes")
    }

    /// Visits every node in `nodes` and every guest edge incident to it,
    /// with all images already evaluated — the chunked core of the batched
    /// pipeline.
    ///
    /// The range is processed in fixed-size chunks. Per chunk, the images of
    /// the chunk's nodes are materialized once into an internal scratch
    /// buffer (one dynamic `map` call per node); then for each node `x` (in
    /// increasing order) `node(x, f(x))` is called, followed by
    /// `edge(x, y, f(x), f(y))` for each edge obtained by *increasing* `x`'s
    /// coordinate in some dimension (modulo the length for toruses) — the
    /// same enumeration as [`Grid::edges`], so sweeping `0..size()` visits
    /// every edge exactly once and disjoint chunks partition the edge set
    /// for fork–join parallelism. Neighbors inside the current chunk reuse
    /// the materialized image; only edges leaving the chunk re-evaluate the
    /// map, so a sweep costs roughly one `map` call per node instead of two
    /// per edge, and nothing in the loop touches the allocator after the
    /// first chunk.
    ///
    /// Only the range's first node is decoded. A digit odometer stepped in
    /// place (the last digit goes up by one and carries into the ones
    /// before it) gives every later node's coordinates without a division,
    /// and each edge's head is the tail plus or minus a dimension weight,
    /// by the rule [`Grid::edges`] uses.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is not empty and reaches past the last guest node.
    pub fn for_each_mapped<N, E>(&self, nodes: Range<u64>, mut node: N, mut edge: E)
    where
        N: FnMut(u64, &Coord),
        E: FnMut(u64, u64, &Coord, &Coord),
    {
        // 2¹⁴ images ≈ 2 MiB of scratch: large enough that the common
        // least-significant-dimension neighbors stay in-chunk, small enough
        // to live in cache.
        const CHUNK: u64 = 1 << 14;
        if nodes.is_empty() {
            return;
        }
        assert!(
            nodes.end <= self.size(),
            "guest nodes {nodes:?} reach past the last node, {}",
            self.size() - 1
        );
        let shape = self.guest.shape();
        let torus = self.guest.is_torus();
        let radices = shape.radices();
        let weights = &shape.weights()[1..];
        let first = self.guest.coord(nodes.start).expect("node in range");
        let mut digits = first.as_slice().to_vec();
        let mut images: Vec<Coord> = Vec::new();
        let mut start = nodes.start;
        while start < nodes.end {
            let end = nodes.end.min(start + CHUNK);
            images.clear();
            for x in start..end {
                images.push((self.map)(x));
            }
            for (x, fx) in (start..end).zip(&images) {
                node(x, fx);
                for ((&i, &l), &w) in digits.iter().zip(radices).zip(weights) {
                    // Step forward; from the last coordinate of a torus
                    // dimension, wrap back to 0. A length-2 torus dimension
                    // has one edge, owned by its coordinate-0 end.
                    let y = if i + 1 < l {
                        x + w
                    } else if torus && l > 2 {
                        x - u64::from(l - 1) * w
                    } else {
                        continue;
                    };
                    if (start..end).contains(&y) {
                        edge(x, y, fx, &images[(y - start) as usize]);
                    } else {
                        edge(x, y, fx, &(self.map)(y));
                    }
                }
                for (digit, &l) in digits.iter_mut().zip(radices).rev() {
                    *digit += 1;
                    if *digit < l {
                        break;
                    }
                    *digit = 0;
                }
            }
            start = end;
        }
    }

    /// Visits every guest edge incident to a node in `nodes`, with both
    /// endpoint images already evaluated — [`Embedding::for_each_mapped`]
    /// without the per-node callback.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is not empty and reaches past the last guest node.
    pub fn for_each_edge_mapped<F>(&self, nodes: Range<u64>, visit: F)
    where
        F: FnMut(u64, u64, &Coord, &Coord),
    {
        self.for_each_mapped(nodes, |_, _| (), visit);
    }

    /// The images of all guest nodes, as host linear indices.
    ///
    /// A separable construction (the general reduction, the increasing
    /// maps, the simple reduction, `T_L` and the identity, in which every
    /// host digit is a sum of functions of single guest digits) has its
    /// image index as a sum of one term per guest digit. Its table is
    /// summed from the terms `τ_k(v) = index(map(v · w_k)) − index(map(0))`,
    /// evaluated only at the `1 + Σ (l_k − 1)` axis nodes `v · w_k`, while
    /// a digit odometer walks the guest, and every entry is range-checked.
    /// Every other construction calls `map` once per node, and so does a
    /// separable one whose axis image is invalid or whose sum leaves the
    /// host: the first invalid image is reported as
    /// [`Embedding::try_map_index`] reports it.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::TooLarge`] for graphs with more than
    /// 2³⁰ nodes, and [`EmbeddingError::InvalidImage`] if the mapping
    /// function produces a coordinate outside the host.
    ///
    /// # Panics
    ///
    /// Panics if a construction is marked separable but its terms sum past
    /// the host while every image is a host node: the mark is wrong.
    pub fn to_table(&self) -> Result<Vec<u64>> {
        const LIMIT: u64 = 1 << 30;
        if self.size() > LIMIT {
            return Err(EmbeddingError::TooLarge {
                size: self.size(),
                limit: LIMIT,
            });
        }
        if self.separable {
            if let Some(table) = self.separable_table() {
                return Ok(table);
            }
        }
        let mut table = Vec::with_capacity(self.size() as usize);
        for x in 0..self.size() {
            table.push(self.try_map_index(x)?);
        }
        assert!(
            !self.separable,
            "{} is marked separable, but its terms sum past the host",
            self.name
        );
        Ok(table)
    }

    /// The table of a separable construction, summed from its per-digit
    /// terms, or `None` when an axis image is invalid or an entry leaves
    /// the host.
    fn separable_table(&self) -> Option<Vec<u64>> {
        let n = self.size();
        let shape = self.guest.shape();
        let d = shape.dim();
        // τ_k(v) for every digit value v of every dimension k, flat, with
        // dimension k's terms from `starts[k]`. Differences may wrap; the
        // sums do not.
        let origin = self.try_map_index(0).ok()?;
        let mut terms = Vec::with_capacity(shape.radices().iter().map(|&l| l as usize).sum());
        let mut starts = Vec::with_capacity(d);
        for k in 0..d {
            starts.push(terms.len());
            terms.push(0);
            let w = shape.weight(k + 1);
            for v in 1..u64::from(shape.radix(k)) {
                terms.push(self.try_map_index(v * w).ok()?.wrapping_sub(origin));
            }
        }
        // Each row fixes every digit but the last: `row[k]` is the sum of
        // the origin and the terms of the digits before k, so a row's
        // entries are `row[last]` plus the last dimension's terms.
        let last = d - 1;
        let inner = &terms[starts[last]..];
        let mut digits = vec![0u32; d];
        let mut row = vec![origin; d];
        let mut table = Vec::with_capacity(n as usize);
        for _ in 0..n / inner.len() as u64 {
            let base = row[last];
            table.extend(inner.iter().map(|&t| base.wrapping_add(t)));
            // Step the odometer over the digits before the last; `from` is
            // the digit that moved without a carry.
            let mut from = last;
            while from > 0 {
                from -= 1;
                digits[from] += 1;
                if digits[from] < shape.radix(from) {
                    break;
                }
                digits[from] = 0;
            }
            for k in from..last {
                row[k + 1] = row[k].wrapping_add(terms[starts[k] + digits[k] as usize]);
            }
        }
        table.iter().all(|&y| y < n).then_some(table)
    }

    /// Whether the mapping is injective (and therefore bijective, since the
    /// graphs have equal size). Images outside the host make the mapping
    /// non-injective into the host's node set, so they return `false`
    /// rather than panicking.
    pub fn is_injective(&self) -> bool {
        let n = self.size();
        let words = n.div_ceil(64) as usize;
        let mut seen = vec![0u64; words];
        for x in 0..n {
            let y = match self.try_map_index(x) {
                Ok(y) => y,
                Err(_) => return false,
            };
            let (w, b) = ((y / 64) as usize, y % 64);
            if seen[w] >> b & 1 == 1 {
                return false;
            }
            seen[w] |= 1 << b;
        }
        true
    }

    /// The dilation cost: the maximum host distance between the images of
    /// adjacent guest nodes (Definition 1), computed sequentially with the
    /// batched edge sweep. [`crate::verify::verify`] measures it in parallel,
    /// together with injectivity, the mean and the histogram.
    pub fn dilation(&self) -> u64 {
        let mut worst = 0u64;
        self.for_each_edge_mapped(0..self.size(), |_, _, fx, fy| {
            worst = worst.max(self.host.distance(fx, fy));
        });
        worst
    }

    /// Composes two embeddings: `self : G → I` followed by `other : I → H`,
    /// giving an embedding `G → H` (the paper repeatedly builds embeddings as
    /// such chains, e.g. `G → G′ → H′ → H`).
    ///
    /// # Errors
    ///
    /// Returns an error if `other`'s guest is not the same graph as `self`'s
    /// host.
    pub fn compose(&self, other: &Embedding) -> Result<Embedding> {
        if self.host != *other.guest() {
            return Err(EmbeddingError::Unsupported {
                details: format!(
                    "cannot compose: intermediate graphs differ ({} vs {})",
                    self.host,
                    other.guest()
                ),
            });
        }
        let first = self.clone();
        let second = other.clone();
        let name = format!("{} ∘ {}", other.name(), self.name());
        // Not marked separable: the second map reads the first one's host
        // digits, which need not each depend on one guest digit (the
        // Theorem 51 chain applies `t` to sums of digit terms).
        let map: MapFn = Arc::new(move |x| second.map(first.map_index(x)));
        Embedding::new(self.guest.clone(), other.host().clone(), name, map)
    }

    /// Renames the embedding (used by higher-level constructions to attach
    /// the paper's function names to composed maps).
    pub fn with_name(mut self, name: impl Into<String>) -> Embedding {
        self.name = name.into();
        self
    }
}

impl core::fmt::Debug for Embedding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Embedding({} : {} -> {})",
            self.name, self.guest, self.host
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::Shape;

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    /// Row-major (natural order) embedding of a line in a mesh — not optimal,
    /// but a convenient fixture.
    fn row_major(line_size: u64, host: Grid) -> Embedding {
        let line = Grid::line(line_size).unwrap();
        let host_shape = host.shape().clone();
        Embedding::new(
            line,
            host,
            "row-major",
            Arc::new(move |x| host_shape.to_digits(x).unwrap()),
        )
        .unwrap()
    }

    #[test]
    fn size_mismatch_is_rejected() {
        let line = Grid::line(6).unwrap();
        let mesh = Grid::mesh(shape(&[2, 2]));
        let result = Embedding::new(line, mesh, "bad", Arc::new(|_| Coord::empty()));
        assert!(matches!(result, Err(EmbeddingError::SizeMismatch { .. })));
    }

    #[test]
    fn row_major_line_in_mesh_has_dilation_four() {
        // The natural-order sequence P is not a good embedding: the jump from
        // (0,3) to (1,0) on a (3,4)-mesh costs 1 + 3 = 4.
        let e = row_major(12, Grid::mesh(shape(&[3, 4])));
        assert!(e.is_injective());
        assert_eq!(e.dilation(), 4);
    }

    #[test]
    fn identity_embedding_has_unit_dilation_mesh_to_torus() {
        let mesh = Grid::mesh(shape(&[3, 4]));
        let torus = Grid::torus(shape(&[3, 4]));
        let e = Embedding::identity(mesh, torus).unwrap();
        assert!(e.is_injective());
        assert_eq!(e.dilation(), 1);
        assert_eq!(e.name(), "identity");
    }

    #[test]
    fn identity_requires_equal_shapes() {
        let mesh = Grid::mesh(shape(&[3, 4]));
        let other = Grid::mesh(shape(&[4, 3]));
        assert!(Embedding::identity(mesh, other).is_err());
    }

    #[test]
    fn non_injective_mapping_is_detected() {
        let line = Grid::line(4).unwrap();
        let host = Grid::line(4).unwrap();
        let e = Embedding::new(
            line,
            host,
            "constant",
            Arc::new(|_| Coord::from_slice(&[0]).unwrap()),
        )
        .unwrap();
        assert!(!e.is_injective());
    }

    #[test]
    fn table_matches_map_index() {
        let e = row_major(6, Grid::mesh(shape(&[2, 3])));
        let table = e.to_table().unwrap();
        assert_eq!(table.len(), 6);
        for (x, &y) in table.iter().enumerate() {
            assert_eq!(e.map_index(x as u64), y);
        }
    }

    /// The separable map that reflects every digit, `x_k ↦ l_k − 1 − x_k`:
    /// its origin is the host's last node, so each term must be taken
    /// relative to node 0's image.
    fn reflection(guest: Grid, host: Grid) -> Embedding {
        let shape = host.shape().clone();
        Embedding::new_separable(
            guest,
            host,
            "reflection",
            Arc::new(move |x| {
                let mut digits = shape.to_digits(x).unwrap();
                for k in 0..shape.dim() {
                    digits.set(k, shape.radix(k) - 1 - digits.get(k));
                }
                digits
            }),
        )
        .unwrap()
    }

    #[test]
    fn separable_tables_match_per_node_images() {
        for radices in [&[5][..], &[2, 2], &[4, 2, 3], &[3, 2, 2, 5], &[2, 7]] {
            let s = shape(radices);
            for e in [
                reflection(Grid::torus(s.clone()), Grid::mesh(s.clone())),
                Embedding::identity(Grid::mesh(s.clone()), Grid::torus(s)).unwrap(),
            ] {
                let per_node: Vec<u64> = (0..e.size()).map(|x| e.map_index(x)).collect();
                assert_eq!(e.to_table().unwrap(), per_node, "{e:?} on {radices:?}");
            }
        }
    }

    #[test]
    fn separable_tables_report_invalid_images_as_per_node_tables_do() {
        let s = shape(&[3, 2]);
        // Node 2 = (1, 0) is an axis node, and its image is not a host node.
        let axis = Embedding::new_separable(
            Grid::mesh(s.clone()),
            Grid::mesh(s.clone()),
            "bad axis",
            Arc::new(move |x| {
                let mut digits = s.to_digits(x).unwrap();
                if x == 2 {
                    digits.set(0, 3);
                }
                digits
            }),
        )
        .unwrap();
        // Host digit 0 is x_0 + x_1: every axis image is a host node, but
        // the terms of node 3 = (1, 1) sum past the host.
        let s = shape(&[2, 2]);
        let sum = Embedding::new_separable(
            Grid::mesh(s.clone()),
            Grid::mesh(s.clone()),
            "bad sum",
            Arc::new(move |x| {
                let digits = s.to_digits(x).unwrap();
                Coord::from_slice(&[digits.get(0) + digits.get(1), 0]).unwrap()
            }),
        )
        .unwrap();
        for (e, bad) in [(axis, 2), (sum, 3)] {
            assert!(matches!(
                e.to_table(),
                Err(EmbeddingError::InvalidImage { guest, .. }) if guest == bad
            ));
        }
    }

    #[test]
    #[should_panic(expected = "is marked separable")]
    fn a_wrong_separable_mark_fails_loudly() {
        // The boustrophedon (0,0), (0,1), (1,1), (1,0) is a bijection, but
        // its image index is not a sum of per-digit terms: node 3's terms
        // sum to 1 + 3 = 4, past the host.
        let s = shape(&[2, 2]);
        let e = Embedding::new_separable(
            Grid::mesh(s.clone()),
            Grid::mesh(s),
            "boustrophedon",
            Arc::new(|x| {
                Coord::from_slice(&[(x / 2) as u32, ((x ^ (x >> 1)) & 1) as u32]).unwrap()
            }),
        )
        .unwrap();
        let _ = e.to_table();
    }

    #[test]
    fn compose_chains_mappings() {
        let mesh = Grid::mesh(shape(&[2, 3]));
        let torus = Grid::torus(shape(&[2, 3]));
        let a = Embedding::identity(Grid::mesh(shape(&[2, 3])), mesh.clone()).unwrap();
        let b = Embedding::identity(mesh, torus).unwrap();
        let c = a.compose(&b).unwrap();
        assert_eq!(c.guest().kind(), topology::GraphKind::Mesh);
        assert_eq!(c.host().kind(), topology::GraphKind::Torus);
        assert_eq!(c.dilation(), 1);
        assert!(c.name().contains("identity"));
    }

    #[test]
    fn compose_rejects_mismatched_intermediates() {
        let a = Embedding::identity(Grid::line(4).unwrap(), Grid::line(4).unwrap()).unwrap();
        let b = Embedding::identity(Grid::ring(4).unwrap(), Grid::ring(4).unwrap()).unwrap();
        assert!(a.compose(&b).is_err());
    }

    #[test]
    fn with_name_renames() {
        let e = Embedding::identity(Grid::line(4).unwrap(), Grid::line(4).unwrap())
            .unwrap()
            .with_name("custom");
        assert_eq!(e.name(), "custom");
        assert!(format!("{e:?}").contains("custom"));
    }

    #[test]
    fn for_each_edge_mapped_enumerates_every_edge_once() {
        for host in [
            Grid::mesh(shape(&[4, 2, 3])),
            Grid::torus(shape(&[4, 2, 3])),
        ] {
            let guest_kind = host.kind();
            let guest = Grid::new(guest_kind, shape(&[4, 2, 3]));
            let e = Embedding::identity(guest.clone(), host).unwrap();
            let mut seen = std::collections::HashSet::new();
            e.for_each_edge_mapped(0..e.size(), |x, y, fx, fy| {
                assert_eq!(*fx, e.map(x));
                assert_eq!(*fy, e.map(y));
                assert!(seen.insert((x.min(y), x.max(y))), "duplicate edge {x}-{y}");
            });
            let expected: std::collections::HashSet<(u64, u64)> =
                guest.edges().map(|(a, b)| (a.min(b), a.max(b))).collect();
            assert_eq!(seen, expected);
        }
    }

    #[test]
    fn chunked_edge_sweep_partitions_the_edge_set() {
        let e = row_major(24, Grid::mesh(shape(&[4, 6])));
        let mut all = 0u64;
        for range in [0..7, 7..8, 8..24] {
            e.for_each_edge_mapped(range, |_, _, _, _| all += 1);
        }
        assert_eq!(all, e.guest().num_edges());
    }

    #[test]
    fn invalid_images_surface_as_errors_not_panics() {
        let line = Grid::line(4).unwrap();
        let host = Grid::line(4).unwrap();
        let e = Embedding::new(
            line,
            host,
            "out-of-host",
            Arc::new(|x| Coord::from_slice(&[x as u32 + 7]).unwrap()),
        )
        .unwrap();
        assert!(matches!(
            e.try_map_index(0),
            Err(EmbeddingError::InvalidImage { guest: 0, .. })
        ));
        assert!(matches!(
            e.to_table(),
            Err(EmbeddingError::InvalidImage { .. })
        ));
        assert!(!e.is_injective());
    }
}

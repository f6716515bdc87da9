//! Independent verification of embeddings.
//!
//! [`verify`] measures an embedding from first principles — injectivity by
//! marking images in a bitmap, dilation by sweeping every guest edge —
//! without trusting the construction that produced it. Everything runs in
//! one pass over the batched allocation-free pipeline
//! ([`Embedding::for_each_mapped`]): each chunk materializes its images
//! once, marks them in the injectivity bitmap, and measures its edges into a
//! flat histogram. The parallel path hands disjoint chunks to a crossbeam
//! fork–join pool and merges the partial bitmaps and histograms at the end;
//! [`verify_sequential`] runs the identical sweep on a single chunk and is
//! the reference used to test the parallel path itself. Both paths produce
//! bit-identical reports by construction.
//!
//! Verification never aborts the process it is meant to protect: a mapping
//! function that produces images outside the host yields a failure report
//! (`injective: false`, with the offenders counted in
//! [`VerificationReport::invalid_images`]) rather than a panic.

use std::cell::Cell;
use std::collections::BTreeMap;

use topology::parallel::{parallel_map_reduce, recommended_threads};

use crate::embedding::Embedding;
use crate::error::{EmbeddingError, Result};

/// Distances below this bound are counted in a flat per-chunk array; the
/// (rare) larger distances of extremely elongated hosts spill into a sparse
/// map so the scratch stays small no matter the host diameter.
const FLAT_HISTOGRAM_SPAN: u64 = 1 << 16;

/// The outcome of verifying an embedding.
#[derive(Clone, Debug, PartialEq)]
pub struct VerificationReport {
    /// Whether the mapping is injective (and hence bijective for equal
    /// sizes). `false` whenever any image falls outside the host.
    pub injective: bool,
    /// The measured dilation cost (maximum host distance over guest edges).
    pub dilation: u64,
    /// The mean host distance over guest edges.
    pub average_dilation: f64,
    /// The number of guest edges examined.
    pub edges: u64,
    /// Host distance → number of guest edges mapped to that distance.
    /// Edges with an endpoint mapped outside the host are not measurable and
    /// are excluded (the histogram then sums to less than `edges`).
    pub histogram: BTreeMap<u64, u64>,
    /// The number of guest nodes whose image is not a valid host node
    /// (always 0 for a correct construction).
    pub invalid_images: u64,
}

/// Per-chunk sweep state: flat distance counts, the scalar aggregates, and
/// this chunk's share of the injectivity bitmap. Merging is elementwise
/// addition (max for dilation, bitwise OR with collision detection for the
/// bitmap), so any chunking of the node range reduces to the same report.
struct Partial {
    flat: Vec<u64>,
    spill: BTreeMap<u64, u64>,
    total: u64,
    edges: u64,
    unmeasurable: u64,
    dilation: u64,
    /// One bit per host node: set iff some node of this chunk maps there.
    seen: Vec<u64>,
    duplicate: bool,
    invalid_images: u64,
}

impl Partial {
    fn empty() -> Self {
        Partial {
            flat: Vec::new(),
            spill: BTreeMap::new(),
            total: 0,
            edges: 0,
            unmeasurable: 0,
            dilation: 0,
            seen: Vec::new(),
            duplicate: false,
            invalid_images: 0,
        }
    }

    fn record(&mut self, distance: u64) {
        if distance < FLAT_HISTOGRAM_SPAN {
            let slot = distance as usize;
            if self.flat.len() <= slot {
                self.flat.resize(slot + 1, 0);
            }
            self.flat[slot] += 1;
        } else {
            *self.spill.entry(distance).or_insert(0) += 1;
        }
        self.total += distance;
        self.edges += 1;
        self.dilation = self.dilation.max(distance);
    }

    fn merge(mut self, other: Partial) -> Partial {
        if self.flat.len() < other.flat.len() {
            self.flat.resize(other.flat.len(), 0);
        }
        for (slot, count) in other.flat.into_iter().enumerate() {
            self.flat[slot] += count;
        }
        for (distance, count) in other.spill {
            *self.spill.entry(distance).or_insert(0) += count;
        }
        if self.seen.is_empty() {
            self.seen = other.seen;
        } else if !other.seen.is_empty() {
            for (mine, theirs) in self.seen.iter_mut().zip(&other.seen) {
                if *mine & theirs != 0 {
                    self.duplicate = true;
                }
                *mine |= theirs;
            }
        }
        self.duplicate |= other.duplicate;
        self.invalid_images += other.invalid_images;
        self.total += other.total;
        self.edges += other.edges;
        self.unmeasurable += other.unmeasurable;
        self.dilation = self.dilation.max(other.dilation);
        self
    }

    fn into_report(self) -> VerificationReport {
        let measured = self.edges - self.unmeasurable;
        VerificationReport {
            injective: !self.duplicate && self.invalid_images == 0,
            dilation: self.dilation,
            average_dilation: if measured == 0 {
                0.0
            } else {
                self.total as f64 / measured as f64
            },
            edges: self.edges,
            invalid_images: self.invalid_images,
            histogram: {
                let mut histogram = self.spill;
                for (distance, count) in self.flat.into_iter().enumerate() {
                    if count > 0 {
                        histogram.insert(distance as u64, count);
                    }
                }
                histogram
            },
        }
    }
}

/// Sweeps the guest nodes in `range` in one chunked pass: marks every image
/// in the injectivity bitmap and measures the host distance of every
/// incident edge. Edges with an endpoint outside the host are counted in
/// `edges` but excluded from the distance statistics.
fn sweep_chunk(embedding: &Embedding, range: std::ops::Range<u64>) -> Partial {
    let host = embedding.host();
    let words = embedding.size().div_ceil(64) as usize;

    let mut partial = Partial::empty();
    let mut seen = vec![0u64; words];
    let mut duplicate = false;
    let mut invalid_images = 0u64;
    // Validity of the current node's image, handed from the node callback to
    // the edge callbacks that follow it.
    let current_valid = Cell::new(false);

    embedding.for_each_mapped(
        range,
        |_x, fx| match host.index(fx) {
            Ok(image) => {
                current_valid.set(true);
                let (w, b) = ((image / 64) as usize, image % 64);
                if seen[w] >> b & 1 == 1 {
                    duplicate = true;
                }
                seen[w] |= 1 << b;
            }
            Err(_) => {
                current_valid.set(false);
                invalid_images += 1;
            }
        },
        |_x, _y, fx, fy| {
            if current_valid.get() && host.contains(fy) {
                partial.record(host.distance(fx, fy));
            } else {
                partial.edges += 1;
                partial.unmeasurable += 1;
            }
        },
    );

    partial.seen = seen;
    partial.duplicate = duplicate;
    partial.invalid_images = invalid_images;
    partial
}

/// Verifies `embedding` sequentially (the single-chunk reference sweep).
pub fn verify_sequential(embedding: &Embedding) -> VerificationReport {
    sweep_chunk(embedding, 0..embedding.size()).into_report()
}

/// Verifies `embedding` using `threads` workers (`0` = automatic).
///
/// The report is bit-identical to [`verify_sequential`]'s for any thread
/// count: workers sweep disjoint node chunks with the same code and the
/// partial aggregates merge commutatively (bitmaps by OR with collision
/// detection). The worker count is additionally capped so the per-worker
/// bitmaps stay within a fixed scratch budget on very large guests.
///
/// # Errors
///
/// Returns [`EmbeddingError::TooLarge`] if the guest has more than 2³⁴ nodes
/// (the injectivity bitmap would not fit comfortably in memory).
pub fn verify(embedding: &Embedding, threads: usize) -> Result<VerificationReport> {
    const LIMIT: u64 = 1 << 34;
    if embedding.size() > LIMIT {
        return Err(EmbeddingError::TooLarge {
            size: embedding.size(),
            limit: LIMIT,
        });
    }
    let threads = if threads == 0 {
        recommended_threads()
    } else {
        threads
    };
    // Each worker owns one n-bit bitmap; stay under ~2 GiB of scratch.
    const SCRATCH_BUDGET_BYTES: u64 = 2 << 30;
    let per_worker_bytes = (embedding.size() / 8).max(1);
    let threads = threads.min(((SCRATCH_BUDGET_BYTES / per_worker_bytes).max(1)) as usize);

    let partial = parallel_map_reduce(
        embedding.size(),
        threads,
        Partial::empty(),
        |range| sweep_chunk(embedding, range),
        Partial::merge,
    );
    Ok(partial.into_report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::{embed_line_in, embed_ring_in};
    use crate::same_shape::embed_same_shape;
    use std::sync::Arc;
    use topology::{Coord, Grid, Shape};

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    #[test]
    fn parallel_and_sequential_reports_agree() {
        let hosts = vec![
            Grid::mesh(shape(&[4, 2, 3])),
            Grid::torus(shape(&[5, 5])),
            Grid::mesh(shape(&[3, 3, 3])),
            Grid::hypercube(6).unwrap(),
        ];
        for host in hosts {
            for embedding in [embed_line_in(&host).unwrap(), embed_ring_in(&host).unwrap()] {
                let sequential = verify_sequential(&embedding);
                for threads in [1, 2, 4, 0] {
                    let parallel = verify(&embedding, threads).unwrap();
                    assert_eq!(parallel, sequential, "threads={threads} for {host}");
                }
            }
        }
    }

    #[test]
    fn report_matches_embedding_methods() {
        let host = Grid::mesh(shape(&[4, 6]));
        let guest = Grid::torus(shape(&[4, 6]));
        let e = embed_same_shape(&guest, &host).unwrap();
        let report = verify(&e, 2).unwrap();
        assert_eq!(report.dilation, e.dilation());
        assert_eq!(report.edges, guest.num_edges());
        assert!(report.injective);
        assert_eq!(report.invalid_images, 0);
        let total: u64 = report.histogram.values().sum();
        assert_eq!(total, report.edges);
        let mass: u64 = report.histogram.iter().map(|(d, count)| d * count).sum();
        assert_eq!(report.average_dilation, mass as f64 / report.edges as f64);
    }

    #[test]
    fn histogram_keys_are_bounded_by_dilation() {
        let host = Grid::mesh(shape(&[3, 5]));
        let e = embed_ring_in(&host).unwrap();
        let report = verify(&e, 3).unwrap();
        assert_eq!(*report.histogram.keys().max().unwrap(), report.dilation);
        assert!(report.histogram.keys().all(|&k| k >= 1));
    }

    #[test]
    fn non_injective_mappings_are_reported() {
        let line = Grid::line(6).unwrap();
        let host = Grid::line(6).unwrap();
        let e = crate::Embedding::new(
            line,
            host,
            "constant",
            Arc::new(|_| Coord::from_slice(&[0]).unwrap()),
        )
        .unwrap();
        let sequential = verify_sequential(&e);
        assert!(!sequential.injective);
        assert_eq!(sequential.invalid_images, 0);
        for threads in [1, 2, 4, 0] {
            assert_eq!(verify(&e, threads).unwrap(), sequential);
        }
    }

    #[test]
    fn out_of_host_images_yield_a_failure_report_not_a_panic() {
        // Guest node 5 maps outside the host; node 0 collides with node 1.
        let line = Grid::line(6).unwrap();
        let host = Grid::line(6).unwrap();
        let e = crate::Embedding::new(
            line,
            host,
            "broken",
            Arc::new(|x| Coord::from_slice(&[if x == 5 { 99 } else { x.max(1) as u32 }]).unwrap()),
        )
        .unwrap();
        let sequential = verify_sequential(&e);
        assert!(!sequential.injective);
        assert_eq!(sequential.invalid_images, 1);
        assert_eq!(sequential.edges, 5);
        // Only the edge 4–5 touches the invalid image.
        let measured: u64 = sequential.histogram.values().sum();
        assert_eq!(measured, 4);
        for threads in [1, 2, 4, 0] {
            assert_eq!(verify(&e, threads).unwrap(), sequential);
        }
    }
}

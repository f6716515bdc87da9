//! Edge congestion of an embedding.
//!
//! The paper optimizes dilation only, but a downstream user placing a task
//! graph on a network usually also cares about **congestion**: when every
//! guest edge is routed along a shortest path in the host, how many routed
//! paths share the busiest host link? This module measures congestion under
//! deterministic dimension-ordered routing — the *same* next-hop rule the
//! `netsim` crate simulates, shared via [`topology::routing`], so the
//! congestion model and the simulator can never disagree about a route.
//!
//! Load accounting is allocation-free per hop: every host link has a dense
//! slot in a flat `Vec<u64>` (see [`topology::Grid::link_index`]), routes are
//! expanded per dimension by the batched hop emitter ([`for_each_hop`], one
//! direction/step-count computation per corrected dimension instead of one
//! next-hop scan per hop), and the parallel path gives each fork–join worker
//! its own flat load vector, merged elementwise at the end — so sequential
//! and parallel reports are bit-identical.

use topology::parallel::{parallel_map_reduce, recommended_threads};
use topology::routing::{for_each_hop, link_slot_of_hop};

use crate::embedding::Embedding;
use crate::error::{EmbeddingError, Result};

/// Aggregate congestion statistics for an embedding.
#[derive(Clone, Debug, PartialEq)]
pub struct CongestionReport {
    /// The number of routed guest edges.
    pub guest_edges: u64,
    /// The maximum number of routed paths sharing a single host edge.
    pub max_congestion: u64,
    /// The mean load over host edges that carry at least one path.
    pub average_congestion: f64,
    /// The number of distinct host edges used by at least one path.
    pub used_host_edges: u64,
    /// The total routed path length (equals the sum of host distances between
    /// images of adjacent guest nodes).
    pub total_path_length: u64,
}

/// Per-worker sweep state: one flat load counter per host link plus the
/// scalar aggregates. Merging is elementwise addition.
struct Loads {
    per_link: Vec<u64>,
    guest_edges: u64,
    total_path_length: u64,
}

/// Routes every guest edge whose chunk node is in `range` and accumulates
/// per-link loads into a flat vector indexed by [`Grid::link_index`].
fn route_chunk(embedding: &Embedding, range: std::ops::Range<u64>) -> Result<Loads> {
    use std::cell::Cell;

    let host = embedding.host();
    let mut loads = Loads {
        per_link: vec![0u64; host.link_count() as usize],
        guest_edges: 0,
        total_path_length: 0,
    };
    let mut failure: Option<EmbeddingError> = None;
    // The current node's host index (or None for an invalid image), handed
    // from the node callback to the edge callbacks that follow it.
    let fx_index = Cell::new(None::<u64>);
    embedding.for_each_mapped(
        range,
        |_x, fx| fx_index.set(host.index(fx).ok()),
        |x, y, fx, fy| {
            if failure.is_some() {
                return;
            }
            loads.guest_edges += 1;
            let index = match fx_index.get() {
                Some(index) => index,
                None => {
                    failure = Some(EmbeddingError::InvalidImage {
                        guest: x,
                        image: Box::new(*fx),
                    });
                    return;
                }
            };
            if !host.contains(fy) {
                failure = Some(EmbeddingError::InvalidImage {
                    guest: y,
                    image: Box::new(*fy),
                });
                return;
            }
            let Loads {
                per_link,
                total_path_length,
                ..
            } = &mut loads;
            for_each_hop(
                host,
                fx.as_slice(),
                index,
                fy.as_slice(),
                |hop, before, after| {
                    per_link[link_slot_of_hop(host, hop, before, after) as usize] += 1;
                    *total_path_length += 1;
                },
            );
        },
    );
    match failure {
        Some(error) => Err(error),
        None => Ok(loads),
    }
}

fn report_from(loads: Loads) -> CongestionReport {
    let mut used_host_edges = 0u64;
    let mut max_congestion = 0u64;
    for &load in &loads.per_link {
        if load > 0 {
            used_host_edges += 1;
            max_congestion = max_congestion.max(load);
        }
    }
    let average_congestion = if used_host_edges == 0 {
        0.0
    } else {
        loads.total_path_length as f64 / used_host_edges as f64
    };
    CongestionReport {
        guest_edges: loads.guest_edges,
        max_congestion,
        average_congestion,
        used_host_edges,
        total_path_length: loads.total_path_length,
    }
}

const LIMIT: u64 = 1 << 26;
/// Cap on `host.link_count()`: one flat load vector is 8 bytes per link, so
/// 2²⁹ slots bound a worker's scratch at 4 GiB even for high-dimension
/// hosts (a 26-dimensional hypercube at the node limit would otherwise
/// allocate ~14 GiB).
const LINK_LIMIT: u64 = 1 << 29;

fn check_size(embedding: &Embedding) -> Result<()> {
    if embedding.size() > LIMIT {
        return Err(EmbeddingError::TooLarge {
            size: embedding.size(),
            limit: LIMIT,
        });
    }
    // try_link_count: a shape whose d·n overflows u64 is certainly over the
    // limit, and the unchecked count would wrap to a small number here.
    let links = embedding.host().try_link_count().unwrap_or(u64::MAX);
    if links > LINK_LIMIT {
        return Err(EmbeddingError::TooLarge {
            size: links,
            limit: LINK_LIMIT,
        });
    }
    Ok(())
}

/// Measures the congestion of `embedding` under dimension-ordered shortest
/// path routing of every guest edge, using [`recommended_threads`] workers.
///
/// # Errors
///
/// Returns [`EmbeddingError::TooLarge`] for guests above 2²⁶ nodes (the
/// flat per-link load vectors would dominate memory), and
/// [`EmbeddingError::InvalidImage`] if the mapping function produces a
/// coordinate outside the host.
pub fn congestion(embedding: &Embedding) -> Result<CongestionReport> {
    congestion_parallel(embedding, 0)
}

/// Measures congestion sequentially — the single-chunk reference sweep used
/// to test the parallel path.
///
/// # Errors
///
/// Same as [`congestion`].
pub fn congestion_sequential(embedding: &Embedding) -> Result<CongestionReport> {
    check_size(embedding)?;
    let loads = route_chunk(embedding, 0..embedding.size())?;
    Ok(report_from(loads))
}

/// Measures congestion with `threads` fork–join workers (`0` = automatic),
/// each accumulating into its own flat load vector, merged elementwise at
/// the end. The report is bit-identical to [`congestion_sequential`]'s for
/// any thread count.
///
/// The worker count is additionally capped so the per-worker load vectors
/// stay within a fixed scratch budget on very large hosts.
///
/// # Errors
///
/// Same as [`congestion`].
pub fn congestion_parallel(embedding: &Embedding, threads: usize) -> Result<CongestionReport> {
    check_size(embedding)?;
    let host = embedding.host();
    let threads = if threads == 0 {
        recommended_threads()
    } else {
        threads
    };
    // Each worker owns 8 bytes per host link; stay under ~2 GiB of scratch.
    const SCRATCH_BUDGET_BYTES: u64 = 2 << 30;
    let per_worker_bytes = (host.link_count() * 8).max(1);
    let threads = threads.min(((SCRATCH_BUDGET_BYTES / per_worker_bytes).max(1)) as usize);

    // parallel_map_reduce's identity must be cheap; represent "no loads yet"
    // as an empty vector and let merging resize.
    let merged = parallel_map_reduce(
        embedding.size(),
        threads,
        Ok(Loads {
            per_link: Vec::new(),
            guest_edges: 0,
            total_path_length: 0,
        }),
        |range| route_chunk(embedding, range),
        |a, b| {
            let (mut a, b) = match (a, b) {
                (Err(e), _) | (_, Err(e)) => return Err(e),
                (Ok(a), Ok(b)) => (a, b),
            };
            if a.per_link.len() < b.per_link.len() {
                return Ok(Loads {
                    per_link: merge_loads(b.per_link, &a.per_link),
                    guest_edges: a.guest_edges + b.guest_edges,
                    total_path_length: a.total_path_length + b.total_path_length,
                });
            }
            a.per_link = merge_loads(a.per_link, &b.per_link);
            a.guest_edges += b.guest_edges;
            a.total_path_length += b.total_path_length;
            Ok(a)
        },
    )?;
    Ok(report_from(merged))
}

fn merge_loads(mut into: Vec<u64>, from: &[u64]) -> Vec<u64> {
    for (slot, &load) in from.iter().enumerate() {
        into[slot] += load;
    }
    into
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auto::embed;
    use crate::basic::{embed_line_in, embed_ring_in};
    use crate::same_shape::embed_same_shape;
    use crate::verify::verify_sequential;
    use topology::{Grid, Shape};

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    #[test]
    fn unit_dilation_ring_embeddings_have_unit_congestion() {
        // A Hamiltonian-circuit embedding maps distinct guest edges to
        // distinct host edges, so no link is shared.
        for host in [
            Grid::mesh(shape(&[4, 2, 3])),
            Grid::torus(shape(&[3, 3, 3])),
            Grid::hypercube(4).unwrap(),
        ] {
            let e = embed_ring_in(&host).unwrap();
            assert_eq!(e.dilation(), 1);
            let report = congestion(&e).unwrap();
            assert_eq!(report.max_congestion, 1, "host {host}");
            assert_eq!(report.guest_edges, host.size());
            assert_eq!(report.used_host_edges, host.size());
            assert_eq!(report.total_path_length, host.size());
        }
    }

    #[test]
    fn line_embeddings_have_unit_congestion() {
        let host = Grid::mesh(shape(&[3, 5]));
        let e = embed_line_in(&host).unwrap();
        let report = congestion(&e).unwrap();
        assert_eq!(report.max_congestion, 1);
        assert_eq!(report.guest_edges, host.size() - 1);
        assert!((report.average_congestion - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identity_embedding_congestion_is_one() {
        let mesh = Grid::mesh(shape(&[4, 4]));
        let torus = Grid::torus(shape(&[4, 4]));
        let e = Embedding::identity(mesh.clone(), torus).unwrap();
        let report = congestion(&e).unwrap();
        assert_eq!(report.max_congestion, 1);
        assert_eq!(report.guest_edges, mesh.num_edges());
    }

    #[test]
    fn total_path_length_matches_sum_of_distances() {
        let guest = Grid::torus(shape(&[3, 3]));
        let host = Grid::mesh(shape(&[3, 3]));
        let e = embed_same_shape(&guest, &host).unwrap();
        let report = congestion(&e).unwrap();
        let expected: u64 = guest
            .edges()
            .map(|(a, b)| host.distance(&e.map(a), &e.map(b)))
            .sum();
        assert_eq!(report.total_path_length, expected);
        assert!(report.max_congestion >= 1);
    }

    #[test]
    fn lowering_dimension_concentrates_load() {
        // Collapsing a 2-D mesh onto a line funnels many guest edges through
        // the middle links: congestion must exceed 1.
        let guest = Grid::mesh(shape(&[4, 4]));
        let host = Grid::line(16).unwrap();
        let e = embed(&guest, &host).unwrap();
        let report = congestion(&e).unwrap();
        assert!(report.max_congestion > 1);
        assert!(report.average_congestion >= 1.0);
        assert!(report.used_host_edges <= host.num_edges());
    }

    #[test]
    fn congestion_routes_respect_host_adjacency_lengths() {
        // Dimension-ordered routes are shortest routes, so the total path
        // length equals the total dilation mass for any embedding.
        let guest = Grid::hypercube(4).unwrap();
        let host = Grid::mesh(shape(&[4, 4]));
        let e = embed(&guest, &host).unwrap();
        let report = congestion(&e).unwrap();
        let verified = verify_sequential(&e);
        let mass: u64 = verified.histogram.iter().map(|(d, count)| d * count).sum();
        assert_eq!(report.guest_edges, verified.edges);
        assert_eq!(report.total_path_length, mass);
    }

    #[test]
    fn parallel_and_sequential_reports_are_bit_identical() {
        for (guest, host) in [
            (
                Grid::torus(shape(&[4, 2, 3])),
                Grid::mesh(shape(&[4, 2, 3])),
            ),
            (Grid::mesh(shape(&[5, 3])), Grid::torus(shape(&[5, 3]))),
            (Grid::hypercube(4).unwrap(), Grid::mesh(shape(&[4, 4]))),
        ] {
            let e = embed(&guest, &host).unwrap();
            let sequential = congestion_sequential(&e).unwrap();
            for threads in [1, 2, 3, 8, 0] {
                let parallel = congestion_parallel(&e, threads).unwrap();
                assert_eq!(parallel, sequential, "threads={threads} {guest}->{host}");
            }
        }
    }

    #[test]
    fn even_radix_ties_route_along_the_forward_arc() {
        // Guest line (0..6) on a 6-ring. Exactly one guest edge, (0,1), maps
        // to an antipodal host pair (0,3) where both arcs have length 3; the
        // shared rule must take the forward arc 0→1→2→3. Routing it forward
        // uses the links {0-1},{1-2},{2-3}, and together with the other four
        // routes every one of the 6 ring links carries load; the backward arc
        // 0→5→4→3 would instead leave links {1-2} and {2-3} partly idle and
        // only 5 links used.
        let guest = Grid::line(6).unwrap();
        let host = Grid::ring(6).unwrap();
        let table = [0u32, 3, 4, 5, 1, 2];
        let e = Embedding::new(
            guest,
            host,
            "single-tied-edge",
            std::sync::Arc::new(move |x| {
                topology::Coord::from_slice(&[table[x as usize]]).unwrap()
            }),
        )
        .unwrap();
        let report = congestion(&e).unwrap();
        assert_eq!(report.guest_edges, 5);
        assert_eq!(report.total_path_length, 8);
        assert_eq!(report.max_congestion, 2);
        // Forward tie-break touches all 6 ring links; backward only 5.
        assert_eq!(report.used_host_edges, 6);
    }

    #[test]
    fn invalid_images_error_instead_of_panicking() {
        let line = Grid::line(4).unwrap();
        let host = Grid::line(4).unwrap();
        let e = Embedding::new(
            line,
            host,
            "out-of-host",
            std::sync::Arc::new(|x| topology::Coord::from_slice(&[x as u32 * 2]).unwrap()),
        )
        .unwrap();
        assert!(matches!(
            congestion(&e),
            Err(EmbeddingError::InvalidImage { .. })
        ));
        assert!(matches!(
            congestion_sequential(&e),
            Err(EmbeddingError::InvalidImage { .. })
        ));
    }
}

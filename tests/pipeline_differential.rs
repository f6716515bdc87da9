//! Differential suite for the batched evaluation pipeline.
//!
//! The parallel sweeps must be bit-identical to their sequential references
//! on irregular shapes, and the congestion model must agree hop-for-hop with
//! the `netsim` simulator — both are built on the same shared
//! `topology::routing` next-hop rule, and this suite is the fence that keeps
//! them from desynchronizing.

use std::collections::{BTreeMap, HashMap};

use embeddings::auto::embed;
use embeddings::basic::{embed_line_in, embed_ring_in};
use embeddings::congestion::{congestion_parallel, congestion_sequential};
use embeddings::verify::{verify, verify_sequential};
use embeddings::Embedding;
use netsim::prelude::Network;
use topology::routing::next_hop_toward;
use torus_mesh_embeddings::prelude::*;

fn shape(radices: &[u32]) -> Shape {
    Shape::new(radices.to_vec()).unwrap()
}

/// The irregular differential-test shapes named in the issue, as
/// guest/host pairs with nontrivial embeddings.
fn fixtures() -> Vec<Embedding> {
    let mut embeddings = Vec::new();
    for host in [
        Grid::torus(shape(&[4, 2, 3])),
        Grid::mesh(shape(&[4, 2, 3])),
        Grid::torus(shape(&[5, 3])),
        Grid::mesh(shape(&[5, 3])),
        Grid::hypercube(4).unwrap(),
        // Ragged shapes: odd mixed radices, whose odometers carry at
        // uneven steps, and a prime-length ring and line.
        Grid::torus(shape(&[5, 3, 7])),
        Grid::mesh(shape(&[5, 3, 7])),
        Grid::ring(67).unwrap(),
        Grid::line(67).unwrap(),
    ] {
        embeddings.push(embed_line_in(&host).unwrap());
        embeddings.push(embed_ring_in(&host).unwrap());
    }
    embeddings.push(
        embed(
            &Grid::torus(shape(&[4, 2, 3])),
            &Grid::mesh(shape(&[4, 2, 3])),
        )
        .unwrap(),
    );
    embeddings.push(embed(&Grid::mesh(shape(&[5, 3])), &Grid::torus(shape(&[5, 3]))).unwrap());
    embeddings.push(embed(&Grid::hypercube(4).unwrap(), &Grid::mesh(shape(&[4, 4]))).unwrap());
    embeddings
}

#[test]
fn parallel_verify_equals_sequential_verify() {
    for embedding in fixtures() {
        let sequential = verify_sequential(&embedding);
        for threads in [1, 2, 3, 8, 0] {
            let parallel = verify(&embedding, threads).unwrap();
            assert_eq!(
                parallel, sequential,
                "verify threads={threads} {embedding:?}"
            );
        }
    }
}

#[test]
fn parallel_congestion_equals_sequential_congestion() {
    for embedding in fixtures() {
        let sequential = congestion_sequential(&embedding).unwrap();
        for threads in [1, 2, 3, 8, 0] {
            let parallel = congestion_parallel(&embedding, threads).unwrap();
            assert_eq!(
                parallel, sequential,
                "congestion threads={threads} {embedding:?}"
            );
        }
    }
}

#[test]
fn congestion_path_lengths_equal_netsim_dor_hop_counts() {
    // Cross-crate: for every embedding, the congestion model must agree with
    // an independent per-hop count over the simulator's dimension-ordered
    // routes of the same guest edges — both crates route with the shared
    // next-hop primitive. Link loads are keyed by the unordered node pair.
    for embedding in fixtures() {
        let report = congestion_sequential(&embedding).unwrap();
        let network = Network::new(embedding.host().clone());
        let mut loads: HashMap<(u64, u64), u64> = HashMap::new();
        let mut simulated_total = 0u64;
        let mut simulated_edges = 0u64;
        let mut route = Vec::new();
        for (a, b) in embedding.guest().edges() {
            let (from, to) = (embedding.map_index(a), embedding.map_index(b));
            route.clear();
            network.route_into(from, to, &mut route);
            assert_eq!(
                route.len() as u64,
                network.hops(from, to),
                "route/hops mismatch for guest edge ({a},{b})"
            );
            let mut current = from;
            for &next in &route {
                *loads
                    .entry((current.min(next), current.max(next)))
                    .or_insert(0) += 1;
                current = next;
            }
            simulated_total += route.len() as u64;
            simulated_edges += 1;
        }
        let used = loads.len() as u64;
        let average = if used == 0 {
            0.0
        } else {
            simulated_total as f64 / used as f64
        };
        assert_eq!(report.guest_edges, simulated_edges, "{embedding:?}");
        assert_eq!(report.total_path_length, simulated_total, "{embedding:?}");
        assert_eq!(
            report.max_congestion,
            loads.values().copied().max().unwrap_or(0),
            "{embedding:?}"
        );
        assert_eq!(report.used_host_edges, used, "{embedding:?}");
        assert_eq!(report.average_congestion, average, "{embedding:?}");
    }
}

#[test]
fn even_radix_tie_break_is_identical_in_both_crates() {
    // Equidistant arcs on even-radius toruses must pick the forward arc in
    // the shared rule, in netsim's next hop, and in netsim's routes alike.
    for radices in [&[4][..], &[6, 6][..], &[2, 4][..]] {
        let grid = Grid::torus(shape(radices));
        let network = Network::new(grid.clone());
        for from in grid.nodes() {
            for to in grid.nodes() {
                let a = grid.coord(from).unwrap();
                let b = grid.coord(to).unwrap();
                let shared = next_hop_toward(&grid, a.as_slice(), from, b.as_slice());
                assert_eq!(network.next_hop(from, to), shared, "{grid} {from}->{to}");
                let route = network.route(from, to);
                assert_eq!(route.first().copied(), shared, "{grid} {from}->{to}");
            }
        }
        // Spot-check the tie itself: antipodal pairs step forward.
        let antipode = grid.shape().radix(0) as u64 / 2 * grid.shape().weight(1);
        let first_hop = network.next_hop(0, antipode).unwrap();
        assert_eq!(
            first_hop,
            grid.shape().weight(1),
            "forward arc from 0 in {grid}"
        );
    }
}

#[test]
fn batched_edge_sweep_matches_per_call_measurements() {
    // The batched pipeline and naive per-call arithmetic must agree on
    // every aggregate, not just dilation.
    for embedding in fixtures() {
        let report = verify_sequential(&embedding);
        let host = embedding.host();
        let mut edges = 0u64;
        let mut dilation = 0u64;
        let mut total = 0u64;
        let mut histogram = BTreeMap::new();
        for (a, b) in embedding.guest().edges() {
            let d = host.distance(&embedding.map(a), &embedding.map(b));
            edges += 1;
            total += d;
            dilation = dilation.max(d);
            *histogram.entry(d).or_insert(0u64) += 1;
        }
        assert_eq!(report.edges, edges);
        assert_eq!(report.dilation, dilation);
        assert_eq!(report.histogram, histogram, "{embedding:?}");
        assert!((report.average_dilation - total as f64 / edges as f64).abs() < 1e-12);
        assert!(report.injective);
        assert_eq!(report.invalid_images, 0);
    }
}

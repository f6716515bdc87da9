//! Cross-crate integration of embeddings with the routing simulator's
//! traffic patterns: the dilation guarantees of the paper must show up as
//! hop-count guarantees for neighbor-exchange traffic, and the permutation
//! patterns must behave sensibly under every placement.

use netsim::patterns;
use torus_mesh_embeddings::prelude::*;

fn shape(radices: &[u32]) -> Shape {
    Shape::new(radices.to_vec()).unwrap()
}

#[test]
fn neighbor_exchange_max_hops_equals_dilation_for_every_construction_family() {
    // One representative per construction family of the paper.
    let cases: Vec<(Grid, Grid)> = vec![
        // basic: ring → mesh (h_L), line host handled elsewhere
        (Grid::ring(24).unwrap(), Grid::mesh(shape(&[4, 2, 3]))),
        // increasing dimension: mesh → mesh expansion (F_V)
        (Grid::mesh(shape(&[4, 6])), Grid::mesh(shape(&[2, 2, 2, 3]))),
        // increasing dimension: torus → torus (H_V)
        (
            Grid::torus(shape(&[4, 6])),
            Grid::torus(shape(&[2, 2, 2, 3])),
        ),
        // same shape: torus → mesh (T_L)
        (Grid::torus(shape(&[4, 4])), Grid::mesh(shape(&[4, 4]))),
        // simple reduction: hypercube → mesh (U_V)
        (Grid::hypercube(6).unwrap(), Grid::mesh(shape(&[8, 8]))),
        // general reduction: (3,3,6)-mesh → (6,9)-mesh
        (Grid::mesh(shape(&[3, 3, 6])), Grid::mesh(shape(&[6, 9]))),
        // square lowering: (4,4,4)-mesh → (8,8)-mesh
        (Grid::mesh(shape(&[4, 4, 4])), Grid::mesh(shape(&[8, 8]))),
    ];
    for (guest, host) in cases {
        let embedding = embed(&guest, &host).unwrap();
        let dilation = embedding.dilation();
        let stats = simulate_embedding(&embedding, 1);
        assert_eq!(
            stats.max_hops, dilation,
            "max routed hops must equal the dilation for {guest} -> {host}"
        );
        assert_eq!(stats.messages, 2 * guest.num_edges());
    }
}

#[test]
fn permutation_patterns_deliver_everything() {
    let network = Network::new(Grid::torus(shape(&[4, 4])));
    let placement = Placement::identity(16);
    let workloads = vec![
        patterns::transpose(4, 4),
        patterns::bit_reversal(4),
        patterns::bit_complement(4),
        patterns::shuffle(4),
        patterns::tornado(16),
        patterns::all_to_all(16),
        patterns::broadcast(16, 5),
        patterns::hotspot(16, 3, 2),
    ];
    for workload in &workloads {
        let stats = simulate(&network, workload, &placement, 1);
        assert_eq!(stats.messages as usize, workload.messages_per_round());
        assert!(stats.cycles >= stats.max_hops);
        // Dimension-ordered routes are shortest paths, so no route is longer
        // than the diameter.
        assert!(stats.max_hops <= network.grid().diameter());
    }
}

#[test]
fn embedding_based_placement_beats_identity_for_guest_structured_traffic() {
    // Place a 64-node ring on an 8x8 mesh with the paper's embedding and
    // with the identity; neighbor exchange must cost strictly fewer total
    // hops under the embedding (the identity pays the wrap-around edge).
    let host = Grid::mesh(shape(&[8, 8]));
    let ring = Grid::ring(64).unwrap();
    let network = Network::new(host.clone());
    let workload = Workload::from_task_graph(&ring);
    let paper = Placement::from_embedding(&embed(&ring, &host).unwrap());
    let identity = Placement::identity(64);
    let with_embedding = simulate(&network, &workload, &paper, 1);
    let with_identity = simulate(&network, &workload, &identity, 1);
    assert!(with_embedding.total_hops < with_identity.total_hops);
    assert!(with_embedding.max_hops < with_identity.max_hops);
}

#[test]
fn torus_hosts_never_route_longer_than_mesh_hosts_for_the_same_pattern() {
    // Adding wrap-around links can only shorten shortest-path routes.
    let mesh_network = Network::new(Grid::mesh(shape(&[8, 8])));
    let torus_network = Network::new(Grid::torus(shape(&[8, 8])));
    let placement = Placement::identity(64);
    for workload in [
        patterns::transpose(8, 8),
        patterns::bit_complement(6),
        patterns::tornado(64),
    ] {
        let on_mesh = simulate(&mesh_network, &workload, &placement, 1);
        let on_torus = simulate(&torus_network, &workload, &placement, 1);
        assert!(on_torus.total_hops <= on_mesh.total_hops);
        assert!(on_torus.max_hops <= on_mesh.max_hops);
    }
}

#[test]
fn tornado_traffic_routes_minimally() {
    // Tornado on a ring-like placement is the textbook case where minimal
    // routing concentrates all traffic in one direction: every message
    // crosses 7 consecutive links.
    let network = Network::new(Grid::torus(shape(&[16])));
    let placement = Placement::identity(16);
    let workload = patterns::tornado(16);
    let minimal = simulate(&network, &workload, &placement, 1);
    assert_eq!(minimal.max_hops, 7);
    assert_eq!(minimal.total_hops, 16 * 7);
}

#[test]
fn hotspot_cycles_scale_with_the_indegree_of_the_target() {
    // All 63 messages must enter node 0 through its 2 mesh links, so the
    // makespan is at least ⌈63 / 2⌉ cycles regardless of routing.
    let network = Network::new(Grid::mesh(shape(&[8, 8])));
    let placement = Placement::identity(64);
    let workload = patterns::hotspot(64, 0, 1);
    let stats = simulate(&network, &workload, &placement, 1);
    assert!(stats.cycles >= 32);
    assert_eq!(stats.messages, 63);
}

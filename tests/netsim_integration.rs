//! Integration between the embedding machinery and the routing simulator:
//! lower dilation must translate into fewer routed hops for neighbor-exchange
//! traffic, which is the paper's practical motivation.

use torus_mesh_embeddings::prelude::*;

fn shape(radices: &[u32]) -> Shape {
    Shape::new(radices.to_vec()).unwrap()
}

#[test]
fn unit_dilation_embeddings_route_neighbor_exchange_in_one_hop() {
    let cases = vec![
        (Grid::ring(24).unwrap(), Grid::mesh(shape(&[4, 2, 3]))),
        (Grid::ring(36).unwrap(), Grid::torus(shape(&[6, 6]))),
        (Grid::mesh(shape(&[4, 6])), Grid::mesh(shape(&[2, 2, 2, 3]))),
        (Grid::mesh(shape(&[8, 8])), Grid::hypercube(6).unwrap()),
    ];
    for (guest, host) in cases {
        let embedding = embed(&guest, &host).unwrap();
        assert_eq!(embedding.dilation(), 1, "{guest} -> {host}");
        let stats = simulate_embedding(&embedding, 1);
        assert_eq!(stats.max_hops, 1, "{guest} -> {host}");
        assert_eq!(stats.total_hops, stats.messages);
    }
}

#[test]
fn max_hops_equals_measured_dilation_for_neighbor_exchange() {
    // For the neighbor-exchange workload, the longest route is exactly the
    // dilation cost of the placement.
    let cases = vec![
        (Grid::ring(9).unwrap(), Grid::mesh(shape(&[3, 3]))),
        (Grid::torus(shape(&[3, 3])), Grid::mesh(shape(&[3, 3]))),
        (Grid::hypercube(4).unwrap(), Grid::mesh(shape(&[4, 4]))),
        (Grid::mesh(shape(&[4, 2, 3])), Grid::mesh(shape(&[4, 6]))),
        (Grid::ring(64).unwrap(), Grid::mesh(shape(&[8, 8]))),
    ];
    for (guest, host) in cases {
        let embedding = embed(&guest, &host).unwrap();
        let stats = simulate_embedding(&embedding, 1);
        assert_eq!(
            stats.max_hops,
            embedding.dilation(),
            "{guest} -> {host} ({})",
            embedding.name()
        );
    }
}

#[test]
fn paper_placement_beats_random_placement_on_hops() {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    let guest = Grid::torus(shape(&[8, 8]));
    let host = Grid::hypercube(6).unwrap();
    let embedding = embed(&guest, &host).unwrap();
    assert!(embedding.dilation() <= 2);

    let network = Network::new(host.clone());
    let workload = Workload::from_task_graph(&guest);

    let paper = Placement::from_embedding(&embedding);
    let paper_stats = simulate(&network, &workload, &paper, 1);

    // A random (but injective) placement.
    let mut rng = rand::rngs::StdRng::seed_from_u64(12345);
    let mut table: Vec<u64> = (0..guest.size()).collect();
    table.shuffle(&mut rng);
    let random = Placement::try_from_table(table).expect("shuffled identity is injective");
    let random_stats = simulate(&network, &workload, &random, 1);

    assert!(
        paper_stats.total_hops < random_stats.total_hops,
        "paper placement ({}) should route fewer hops than a random one ({})",
        paper_stats.total_hops,
        random_stats.total_hops
    );
    assert!(paper_stats.max_hops <= random_stats.max_hops);
}

#[test]
fn simulation_statistics_are_internally_consistent() {
    let guest = Grid::mesh(shape(&[4, 4]));
    let host = Grid::torus(shape(&[4, 4]));
    let embedding = embed(&guest, &host).unwrap();
    let rounds = 3;
    let stats = simulate_embedding(&embedding, rounds);
    assert_eq!(stats.messages, rounds as u64 * 2 * guest.num_edges());
    assert!(stats.cycles >= stats.max_hops);
    assert!(stats.average_hops() <= stats.max_hops as f64);
    assert!(stats.average_hops() >= 1.0);
}

//! Property-based tests for the routing simulator: routes are always valid
//! walks of the right length, permutation patterns are permutations, and the
//! simulator's conservation laws hold for random workloads and placements,
//! with its makespan equal to the reference arbitration's.

mod common;

use netsim::patterns;
use netsim::{simulate, Network, Placement, Workload};
use proptest::prelude::*;
use topology::{Grid, Shape};

/// Strategy producing a small network (torus or mesh, ≤ 128 nodes).
fn small_network() -> impl Strategy<Value = Network> {
    let shape = proptest::collection::vec(2u32..=5, 1..=3)
        .prop_filter("keep sizes manageable", |radices| {
            radices.iter().map(|&l| l as u64).product::<u64>() <= 128
        });
    (shape, proptest::bool::ANY).prop_map(|(radices, torus)| {
        let shape = Shape::new(radices).unwrap();
        Network::new(if torus {
            Grid::torus(shape)
        } else {
            Grid::mesh(shape)
        })
    })
}

/// Checks that `route` is a walk of adjacent nodes from `from` to `to`.
fn assert_walk(network: &Network, from: u64, to: u64, route: &[u64]) -> Result<(), TestCaseError> {
    let mut current = from;
    for &next in route {
        prop_assert!(network.grid().adjacent(current, next).unwrap());
        current = next;
    }
    if from != to {
        prop_assert_eq!(current, to);
    } else {
        prop_assert!(route.is_empty());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dimension_ordered_routes_are_shortest_walks(
        network in small_network(),
        pair in (0u64..128, 0u64..128),
    ) {
        let n = network.size();
        let (from, to) = (pair.0 % n, pair.1 % n);
        let route = network.route(from, to);
        assert_walk(&network, from, to, &route)?;
        prop_assert_eq!(route.len() as u64, network.hops(from, to));
    }

    #[test]
    fn permutation_patterns_have_unique_sources_and_destinations(bits in 1u32..=6) {
        for workload in [
            patterns::bit_reversal(bits),
            patterns::bit_complement(bits),
            patterns::shuffle(bits),
        ] {
            let mut sources = std::collections::HashSet::new();
            let mut destinations = std::collections::HashSet::new();
            for &(a, b) in workload.pairs() {
                prop_assert!(a < workload.tasks() && b < workload.tasks());
                prop_assert!(a != b);
                prop_assert!(sources.insert(a));
                prop_assert!(destinations.insert(b));
            }
        }
    }

    #[test]
    fn shift_and_transpose_are_permutations(
        rows in 2u64..=6,
        cols in 2u64..=6,
        offset in 0u64..=40,
    ) {
        for workload in [patterns::transpose(rows, cols), patterns::shift(rows * cols, offset)] {
            let mut destinations = std::collections::HashSet::new();
            for &(a, b) in workload.pairs() {
                prop_assert!(a != b);
                prop_assert!(destinations.insert(b));
            }
        }
    }

    #[test]
    fn simulation_conservation_laws_hold_for_random_traffic(
        network in small_network(),
        messages in 1usize..64,
        seed in 0u64..1000,
        rounds in 1usize..3,
    ) {
        let n = network.size();
        let workload = Workload::uniform_random(n, messages, seed);
        let placement = Placement::identity(n);
        let aggregate = simulate(&network, &workload, &placement, rounds);
        prop_assert_eq!(aggregate.messages as usize, messages * rounds);
        prop_assert!(aggregate.max_hops <= network.grid().diameter());
        prop_assert!(aggregate.cycles >= aggregate.max_hops);
        prop_assert!(aggregate.total_hops >= aggregate.messages); // no self traffic
        prop_assert!(aggregate.total_hops <= aggregate.messages * network.grid().diameter());

        // The reference arbitration over the same dimension-ordered node
        // paths, injected round-major.
        let mut messages = Vec::new();
        for _ in 0..rounds {
            for &(src, dst) in workload.pairs() {
                messages.push((src, network.route(src, dst)));
            }
        }
        let reference = common::arbitrate(&messages);
        prop_assert_eq!(aggregate.cycles, reference.cycles);
        prop_assert_eq!(aggregate.total_hops, reference.total_hops);
        prop_assert_eq!(aggregate.max_hops, reference.max_hops);
    }

    #[test]
    fn delta_makespan_equals_full_resimulation(
        network in small_network(),
        messages in 4usize..48,
        rounds in 1usize..3,
        seed in 0u64..1000,
        moves in proptest::collection::vec((0u64..128, 0u64..127, 0u8..3, 0u8..4), 1..40),
    ) {
        // The delta-aware MakespanObjective must report, after every
        // incremental move, exactly the (cycles, total hops) a full
        // re-simulation of the same table computes. About a quarter of the
        // moves are segment reversals, passed as one batch of disjoint
        // swaps; the rest are single swaps. About a third of the moves are
        // undone by repeating the same call, the annealer's rejection path,
        // which the objective answers from saved state; every other move
        // becomes final. Sparse random traffic leaves many messages that
        // share no link with the moved ones.
        use embeddings::optim::{Cost, Objective};
        use netsim::MakespanObjective;

        let n = network.size();
        let workload = Workload::uniform_random(n, messages, seed);
        let mut table: Vec<u64> = (0..n).collect();
        let mut objective =
            MakespanObjective::new(network.clone(), workload.clone(), rounds).unwrap();
        let mut cost = objective.rebuild(&table);
        let full = |table: &[u64]| -> Cost {
            let placement = Placement::try_from_table(table.to_vec()).unwrap();
            let stats = simulate(&network, &workload, &placement, rounds);
            Cost { primary: stats.cycles, secondary: stats.total_hops }
        };
        prop_assert_eq!(cost, full(&table));
        for (raw_a, raw_b, undo, kind) in moves {
            if kind == 0 {
                // Reverse a run of 2–6 tasks: one batch of disjoint swaps.
                let len = (2 + raw_b % 5).min(n);
                let start = raw_a % (n - len + 1);
                let batch: Vec<(u64, u64)> =
                    (0..len / 2).map(|i| (start + i, start + len - 1 - i)).collect();
                cost = objective.apply_disjoint_swaps(&mut table, &batch);
                prop_assert_eq!(cost, full(&table), "after reversing {:?}", &batch);
                if undo == 0 {
                    cost = objective.apply_disjoint_swaps(&mut table, &batch);
                    prop_assert_eq!(cost, full(&table), "after undoing {:?}", &batch);
                }
                continue;
            }
            let a = raw_a % n;
            let mut b = raw_b % (n - 1).max(1);
            if b >= a {
                b = (b + 1) % n;
            }
            table.swap(a as usize, b as usize);
            cost = objective.apply_swap(&table, a, b);
            prop_assert_eq!(cost, full(&table), "after swapping {} and {}", a, b);
            if undo == 0 {
                table.swap(a as usize, b as usize);
                cost = objective.apply_swap(&table, a, b);
                prop_assert_eq!(cost, full(&table), "after undoing {} and {}", a, b);
            }
        }
    }

    #[test]
    fn embedding_placements_keep_max_hops_at_the_dilation(
        torus_guest in proptest::bool::ANY,
        torus_host in proptest::bool::ANY,
    ) {
        // Ring guest of 24 nodes on the paper's (4,2,3) host of either kind.
        let shape = Shape::new(vec![4, 2, 3]).unwrap();
        let host = if torus_host { Grid::torus(shape) } else { Grid::mesh(shape) };
        let guest = if torus_guest {
            Grid::ring(24).unwrap()
        } else {
            Grid::line(24).unwrap()
        };
        let embedding = embeddings::auto::embed(&guest, &host).unwrap();
        let stats = netsim::sim::simulate_embedding(&embedding, 1);
        prop_assert_eq!(stats.max_hops, embedding.dilation());
    }
}

//! Property-based tests for the chaos subsystem: the detour router must
//! agree with the BFS ground truth on reachability, its delivered paths must
//! stay within the documented overhead bound, the faulted simulator must
//! arbitrate its routers' paths exactly as the reference arbitration does,
//! and a `FaultPlan` seed must reproduce bit-identical statistics.

mod common;

use netsim::chaos::{
    live_link_slots, masked_distances_to, simulate_chaos, ChaosRouting, DetourRouter, FaultPlan,
    RouteOutcome, TableRouter,
};
use netsim::{Network, Placement, Workload};
use proptest::prelude::*;
use topology::{Grid, Shape};

/// Strategy producing a small faulted 2-D or 3-D grid: the network plus a
/// seeded plan failing a fraction of its links (and sometimes nodes).
fn faulted_network() -> impl Strategy<Value = (Network, FaultPlan)> {
    let shape = proptest::collection::vec(2u32..=5, 2..=3)
        .prop_filter("keep sizes manageable", |radices| {
            radices.iter().map(|&l| l as u64).product::<u64>() <= 100
        });
    (shape, proptest::bool::ANY, 0u32..=30, 0u64..=2, 0u64..1000).prop_map(
        |(radices, torus, percent, nodes, seed)| {
            let shape = Shape::new(radices).unwrap();
            let grid = if torus {
                Grid::torus(shape)
            } else {
                Grid::mesh(shape)
            };
            let mut plan = FaultPlan::random_link_percent(&grid, percent, seed);
            for &node in FaultPlan::random_nodes(&grid, nodes, seed ^ 0xF00D)
                .failed_nodes()
                .iter()
            {
                plan = plan.fail_node(node);
            }
            (Network::new(grid), plan)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn detour_agrees_with_bfs_on_reachability_and_respects_the_hop_bound(
        (network, plan) in faulted_network(),
        pair in (0u64..100, 0u64..100),
    ) {
        let n = network.size();
        let (from, to) = (pair.0 % n, pair.1 % n);
        let mask = plan.mask_at(network.grid(), 0);
        let detour = DetourRouter::new(&network, &mask);
        let bfs = masked_distances_to(&network, &mask, to);
        let reachable = mask.node_up(from) && mask.node_up(to) && bfs[from as usize] != u64::MAX;
        match detour.route(from, to) {
            RouteOutcome::Delivered { path, detour_hops } => {
                prop_assert!(reachable, "detour delivered an unreachable pair");
                // The delivered path is a valid masked walk …
                let mut current = from;
                for &next in &path {
                    prop_assert!(network.grid().adjacent(current, next).unwrap());
                    prop_assert!(mask.node_up(next));
                    current = next;
                }
                if from != to {
                    prop_assert_eq!(current, to);
                }
                // … whose length is the pristine distance plus the reported
                // detour, bounded by masked-BFS hops + 2 × the misroute
                // budget.
                prop_assert_eq!(path.len() as u64, network.hops(from, to) + detour_hops);
                prop_assert!(
                    path.len() as u64 <= bfs[from as usize] + 2 * detour.budget(),
                    "path {} exceeds bfs {} + 2×budget {}",
                    path.len(),
                    bfs[from as usize],
                    detour.budget()
                );
            }
            RouteOutcome::Unreachable { .. } => {
                prop_assert!(!reachable, "detour dropped a BFS-reachable pair");
            }
        }
    }

    #[test]
    fn table_router_delivers_exactly_the_bfs_distance(
        (network, plan) in faulted_network(),
        pair in (0u64..100, 0u64..100),
    ) {
        let n = network.size();
        let (from, to) = (pair.0 % n, pair.1 % n);
        let mask = plan.mask_at(network.grid(), 0);
        let mut table = TableRouter::new(&network, &mask);
        let bfs = masked_distances_to(&network, &mask, to);
        match table.route(from, to) {
            RouteOutcome::Delivered { path, .. } => {
                prop_assert_eq!(path.len() as u64, bfs[from as usize]);
            }
            RouteOutcome::Unreachable { .. } => {
                prop_assert!(
                    !mask.node_up(from) || !mask.node_up(to) || bfs[from as usize] == u64::MAX
                );
            }
        }
    }

    #[test]
    fn faulted_simulations_conserve_messages_and_never_panic(
        (network, plan) in faulted_network(),
        messages in 1usize..48,
        rounds in 1usize..3,
        seed in 0u64..1000,
    ) {
        let n = network.size();
        let workload = Workload::uniform_random(n, messages, seed);
        let placement = Placement::identity(n);
        for routing in [ChaosRouting::Detour, ChaosRouting::BfsTable] {
            let stats = simulate_chaos(&network, &workload, &placement, rounds, &plan, routing);
            prop_assert_eq!(stats.messages as usize, messages * rounds);
            prop_assert_eq!(stats.delivered + stats.dropped, stats.messages);
            prop_assert!(stats.cycles >= stats.max_hops);
            prop_assert!(stats.total_hops >= stats.delivered); // no self traffic
            if plan.is_empty() {
                prop_assert_eq!(stats.dropped, 0);
                prop_assert_eq!(stats.detour_hops, 0);
            }
        }
    }

    #[test]
    fn faulted_simulations_match_the_reference_arbitration(
        (network, plan) in faulted_network(),
        messages in 1usize..48,
        seed in 0u64..1000,
        late_failure in (proptest::bool::ANY, 0usize..1000),
    ) {
        // Route every message of both rounds through the public routers,
        // then deliver the node paths with the reference arbitration: the
        // faulted simulator's link slots must reproduce it, detours and
        // radix-2 tori included. Some cases fail one more link at round 1,
        // so the two rounds route differently.
        let n = network.size();
        let grid = network.grid();
        let workload = Workload::uniform_random(n, messages, seed);
        let placement = Placement::identity(n);
        let plan = match late_failure {
            (true, pick) => {
                let live = live_link_slots(grid);
                plan.fail_at(1, live[pick % live.len()])
            }
            (false, _) => plan,
        };
        for routing in [ChaosRouting::Detour, ChaosRouting::BfsTable] {
            let stats = simulate_chaos(&network, &workload, &placement, 2, &plan, routing);
            let mut routed = Vec::new();
            let (mut dropped, mut detour_hops) = (0u64, 0u64);
            for round in 0..2 {
                let mask = plan.mask_at(grid, round);
                let detour = DetourRouter::new(&network, &mask);
                let mut table = TableRouter::new(&network, &mask);
                for &(src, dst) in workload.pairs() {
                    let outcome = match routing {
                        ChaosRouting::Detour => detour.route(src, dst),
                        ChaosRouting::BfsTable => table.route(src, dst),
                    };
                    match outcome {
                        RouteOutcome::Delivered { path, detour_hops: d } => {
                            detour_hops += d;
                            routed.push((src, path));
                        }
                        RouteOutcome::Unreachable { .. } => dropped += 1,
                    }
                }
            }
            let reference = common::arbitrate(&routed);
            prop_assert_eq!(stats.cycles, reference.cycles, "{}", routing.name());
            prop_assert_eq!(stats.delivered, routed.len() as u64);
            prop_assert_eq!(stats.dropped, dropped);
            prop_assert_eq!(stats.total_hops, reference.total_hops);
            prop_assert_eq!(stats.max_hops, reference.max_hops);
            prop_assert_eq!(stats.detour_hops, detour_hops);
        }
    }

    #[test]
    fn a_fault_plan_seed_reproduces_bit_identical_stats(
        (network, plan) in faulted_network(),
        messages in 1usize..32,
        seed in 0u64..1000,
    ) {
        // The plan (not the masks derived from it) is the value: rebuilding
        // the plan from its own seed and text serialization must reproduce
        // exactly the same simulation statistics.
        let n = network.size();
        let workload = Workload::uniform_random(n, messages, seed);
        let placement = Placement::identity(n);
        let reparsed = FaultPlan::parse(&plan.to_text()).unwrap();
        prop_assert_eq!(&reparsed, &plan);
        for routing in [ChaosRouting::Detour, ChaosRouting::BfsTable] {
            let once = simulate_chaos(&network, &workload, &placement, 2, &plan, routing);
            let again = simulate_chaos(&network, &workload, &placement, 2, &reparsed, routing);
            prop_assert_eq!(once, again);
        }
    }
}

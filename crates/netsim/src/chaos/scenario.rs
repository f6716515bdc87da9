//! Faulted end-to-end simulation: a [`FaultPlan`] applied to the synchronous
//! store-and-forward simulator.
//!
//! [`simulate_chaos`] is the degraded counterpart of
//! [`crate::sim::simulate`]: the same one-message-per-pair-per-round
//! injection and the same one-message-per-directed-link arbitration, but
//! each round's messages are routed under the fault mask in effect at that
//! round ([`FaultPlan::mask_at`]). Messages whose destination is unreachable
//! are counted as dropped instead of panicking; delivered messages record
//! how far the detour took them beyond the pristine shortest path.
//!
//! Routes are fixed at injection time (store-and-forward with source
//! routing): a failure scheduled for round `r` affects the routes of rounds
//! `≥ r`, not messages already in flight. An empty plan therefore reproduces
//! the pristine simulator's statistics bit for bit.

use crate::chaos::faults::FaultPlan;
use crate::chaos::reroute::{DetourRouter, RouteOutcome, TableRouter};
use crate::engine;
use crate::network::Network;
use crate::sim::{Placement, SimStats};
use crate::traffic::Workload;

/// Which fault-aware router a chaos scenario uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosRouting {
    /// The online DOR-with-detour router ([`DetourRouter`]).
    Detour,
    /// The offline BFS ground-truth router ([`TableRouter`]).
    BfsTable,
}

impl ChaosRouting {
    /// A short human-readable name, used in report and benchmark labels.
    pub fn name(self) -> &'static str {
        match self {
            ChaosRouting::Detour => "detour",
            ChaosRouting::BfsTable => "bfs-table",
        }
    }
}

/// Runs `rounds` rounds of `workload` under `plan`, routing with `routing`.
/// See the module docs for the exact semantics; the returned [`SimStats`]
/// satisfies `delivered + dropped == messages`.
///
/// # Panics
///
/// Panics if the workload has more tasks than the placement, the placement
/// references nodes outside the network, or the plan references links or
/// nodes the network does not have.
pub fn simulate_chaos(
    network: &Network,
    workload: &Workload,
    placement: &Placement,
    rounds: usize,
    plan: &FaultPlan,
    routing: ChaosRouting,
) -> SimStats {
    assert!(
        workload.tasks() <= placement.tasks(),
        "workload has more tasks than the placement"
    );
    assert!(
        (0..placement.tasks()).all(|t| placement.node_of(t) < network.size()),
        "placement references nodes outside the network"
    );
    plan.validate(network.grid())
        .expect("fault plan must reference links and nodes of this network");

    let grid = network.grid();
    // One route per delivered message, in injection order.
    let mut routes = engine::RouteTable::default();
    let mut dropped = 0u64;
    let mut detour_hops = 0u64;

    // Rounds are processed in epochs between scheduled failures, so the
    // mask — and any routing state derived from it (the BFS table cache) —
    // is rebuilt only when an event actually fires.
    let rounds = rounds as u64;
    let mut round = 0u64;
    while round < rounds {
        let mut epoch_end = round + 1;
        while epoch_end < rounds && !plan.changes_at(epoch_end) {
            epoch_end += 1;
        }
        let mask = plan.mask_at(grid, round);
        let detour = DetourRouter::new(network, &mask);
        let mut table = TableRouter::new(network, &mask);
        for _ in round..epoch_end {
            for &(src_task, dst_task) in workload.pairs() {
                let src = placement.node_of(src_task);
                let dst = placement.node_of(dst_task);
                let outcome = match routing {
                    ChaosRouting::Detour => detour.route(src, dst),
                    ChaosRouting::BfsTable => table.route(src, dst),
                };
                match outcome {
                    RouteOutcome::Delivered {
                        path,
                        detour_hops: d,
                    } => {
                        routes.push(|slots| engine::push_path_route(grid, src, &path, slots));
                        detour_hops += d;
                    }
                    RouteOutcome::Unreachable { .. } => dropped += 1,
                }
            }
        }
        round = epoch_end;
    }

    // The pristine simulator's contention rule, over one round whose
    // messages are every delivered route in injection order.
    let cycles = engine::cycles_to_deliver(grid, &routes, 1);
    let delivered = routes.len() as u64;
    SimStats {
        messages: delivered + dropped,
        delivered,
        dropped,
        total_hops: routes.stored() as u64,
        max_hops: routes
            .routes()
            .map(|route| route.len() as u64)
            .max()
            .unwrap_or(0),
        detour_hops,
        cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::faults::link_slot_between;
    use crate::sim::simulate;
    use topology::{Grid, Shape};

    fn network(torus: bool, radices: &[u32]) -> Network {
        let shape = Shape::new(radices.to_vec()).unwrap();
        Network::new(if torus {
            Grid::torus(shape)
        } else {
            Grid::mesh(shape)
        })
    }

    #[test]
    fn an_empty_plan_reproduces_the_pristine_simulator() {
        let net = network(true, &[4, 4]);
        let workload = Workload::uniform_random(16, 48, 7);
        let placement = Placement::identity(16);
        let pristine = simulate(&net, &workload, &placement, 3);
        for routing in [ChaosRouting::Detour, ChaosRouting::BfsTable] {
            let chaos = simulate_chaos(&net, &workload, &placement, 3, &FaultPlan::none(), routing);
            if routing == ChaosRouting::Detour {
                // The detour router follows the exact DOR arcs, so every
                // counter — including the congestion-sensitive makespan —
                // matches bit for bit.
                assert_eq!(chaos, pristine, "{}", routing.name());
            } else {
                // BFS paths are shortest but may pick different arcs, so
                // only the distance statistics are pinned.
                assert_eq!(chaos.messages, pristine.messages);
                assert_eq!(chaos.delivered, pristine.delivered);
                assert_eq!(chaos.total_hops, pristine.total_hops);
                assert_eq!(chaos.max_hops, pristine.max_hops);
            }
            assert_eq!(chaos.dropped, 0);
            assert_eq!(chaos.detour_hops, 0);
            assert!((chaos.delivered_fraction() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn faulted_runs_conserve_messages() {
        let net = network(false, &[4, 4]);
        let workload = Workload::uniform_random(16, 64, 11);
        let placement = Placement::identity(16);
        for percent in [5, 10, 25] {
            for routing in [ChaosRouting::Detour, ChaosRouting::BfsTable] {
                let plan = FaultPlan::random_link_percent(net.grid(), percent, 1987);
                let stats = simulate_chaos(&net, &workload, &placement, 2, &plan, routing);
                assert_eq!(stats.delivered + stats.dropped, stats.messages);
                assert_eq!(stats.messages, 128);
                assert!(stats.cycles >= stats.max_hops);
            }
        }
    }

    #[test]
    fn scheduled_failures_only_affect_later_rounds() {
        // A 1×8 ring: failing the link 3–4 at round 1 leaves round 0
        // pristine and forces later 3→4 traffic the long way around.
        let net = network(true, &[8]);
        let slot = link_slot_between(net.grid(), 3, 4);
        let workload = Workload::try_new(8, vec![(3, 4)]).unwrap();
        let placement = Placement::identity(8);
        let plan = FaultPlan::none().fail_at(1, slot);

        let one = simulate_chaos(&net, &workload, &placement, 1, &plan, ChaosRouting::Detour);
        assert_eq!((one.delivered, one.total_hops, one.detour_hops), (1, 1, 0));

        let two = simulate_chaos(&net, &workload, &placement, 2, &plan, ChaosRouting::Detour);
        assert_eq!(two.delivered, 2);
        // Round 0 takes the direct hop; round 1 detours the other way
        // around the ring (7 hops).
        assert_eq!(two.total_hops, 1 + 7);
        assert_eq!(two.detour_hops, 6);
    }

    #[test]
    fn node_failures_drop_traffic_addressed_to_them() {
        let net = network(true, &[3, 3]);
        let workload = Workload::try_new(9, vec![(0, 4), (4, 8), (0, 8)]).unwrap();
        let placement = Placement::identity(9);
        let plan = FaultPlan::none().fail_node(4);
        let stats = simulate_chaos(&net, &workload, &placement, 1, &plan, ChaosRouting::Detour);
        assert_eq!(stats.dropped, 2, "both pairs touching node 4 are dropped");
        assert_eq!(stats.delivered, 1);
        assert!(stats.delivered_fraction() < 0.4);
    }

    #[test]
    #[should_panic(expected = "fault plan must reference")]
    fn foreign_plans_are_rejected() {
        let net = network(false, &[2, 2]);
        let plan = FaultPlan::none().fail_node(99);
        let workload = Workload::uniform_random(4, 4, 1);
        let _ = simulate_chaos(
            &net,
            &workload,
            &Placement::identity(4),
            1,
            &plan,
            ChaosRouting::Detour,
        );
    }
}

//! The contention engine: the one link-arbitration rule every simulator in
//! this crate runs.
//!
//! A route is the list of directed claim slots of its hops,
//! `2 × canonical link slot + direction bit`: the canonical slot is the
//! [`topology::Grid::link_index`] of the hop's undirected link, and the
//! direction bit is whether the hop moves to a higher node index. Two hops
//! claim the same slot exactly when they cross the same link from the same
//! node, so arbitration never needs the nodes a route visits.
//! [`push_dor_route`] expands a dimension-ordered route straight into slots;
//! [`push_path_route`] maps a fault-aware router's node path to the same
//! slots.
//!
//! [`Arbiter`] runs the cycle loop over queued messages: every message
//! injects at cycle 1, each directed link carries one message per cycle, the
//! message queued first wins a contested link, and a blocked message retries
//! in place. The run's cycle count, the cycle of its last delivery, is the
//! makespan: [`crate::sim::simulate`], [`crate::chaos::simulate_chaos`] and
//! [`crate::optimize::MakespanObjective`] all hand their routes to it and
//! read that count, so none of them tracks a message's own delivery.

use topology::routing::{for_each_hop, link_slot_of_hop};
use topology::Grid;

use crate::chaos::faults::link_slot_between;
use crate::network::Network;

/// The directed claim slot of the hop `before → after` across the link with
/// canonical slot `link`.
fn claim_slot(link: u64, before: u64, after: u64) -> u32 {
    u32::try_from(2 * link + u64::from(before < after))
        .expect("directed link slots fit in u32: the claim stamps would need 32 GiB first")
}

/// Appends the claim slots of the dimension-ordered route from `from` to
/// `to` — the route [`Network::route_into`] expands as nodes — to `out`.
pub(crate) fn push_dor_route(network: &Network, from: u64, to: u64, out: &mut Vec<u32>) {
    let grid = network.grid();
    let current = grid.coord(from).expect("placement node in range");
    let target = grid.coord(to).expect("placement node in range");
    for_each_hop(
        grid,
        &current,
        from,
        &target,
        network.forward_dims(),
        |hop, before, after| {
            out.push(claim_slot(
                link_slot_of_hop(grid, hop, before, after),
                before,
                after,
            ))
        },
    );
}

/// Appends the claim slots of the node path `path` (excluding its source
/// `from`, every step between adjacent nodes) to `out`.
pub(crate) fn push_path_route(grid: &Grid, from: u64, path: &[u64], out: &mut Vec<u32>) {
    let mut before = from;
    for &after in path {
        out.push(claim_slot(
            link_slot_between(grid, before, after),
            before,
            after,
        ));
        before = after;
    }
}

/// A queued message: the route it follows, and how many hops of that route
/// it has taken.
#[derive(Clone, Copy)]
struct Active {
    route: u32,
    cursor: u32,
}

/// Flat, clock-stamped claim state plus the queue of messages in flight.
/// No hashing, no division and no allocation after warm-up.
pub(crate) struct Arbiter {
    /// `stamp[slot] == clock` means the slot is claimed in the current
    /// cycle. Never reset: the clock only grows.
    stamp: Vec<u64>,
    clock: u64,
    /// The messages in flight, in priority order.
    active: Vec<Active>,
}

impl Arbiter {
    /// An arbiter over the directed links of `grid`, with nothing queued.
    pub(crate) fn new(grid: &Grid) -> Self {
        let slots =
            usize::try_from(2 * grid.link_count()).expect("directed link slots fit in memory");
        Arbiter {
            stamp: vec![0; slots],
            clock: 0,
            active: Vec::new(),
        }
    }

    /// The number of directed claim slots.
    pub(crate) fn slots(&self) -> usize {
        self.stamp.len()
    }

    /// Queues `rounds` rounds of one message along each route in `routes`
    /// (ascending route indices, every route non-empty), behind anything
    /// already queued: round-major, route-minor, the order every simulator
    /// injects in, so queue order is priority order.
    ///
    /// # Panics
    ///
    /// Panics if the rounds hold more than `u32::MAX` messages.
    pub(crate) fn queue_rounds(&mut self, routes: &[u32], rounds: usize) {
        let messages = routes
            .len()
            .checked_mul(rounds)
            .filter(|&messages| u32::try_from(messages).is_ok())
            .expect("a schedule has at most u32::MAX messages");
        self.active.extend(
            routes
                .iter()
                .cycle()
                .take(messages)
                .map(|&route| Active { route, cursor: 0 }),
        );
    }

    /// Runs every queued message to delivery over `routes` and returns the
    /// cycles the run took: the cycle of the last delivery, or 0 when
    /// nothing was queued.
    pub(crate) fn run(&mut self, routes: &[Vec<u32>]) -> u64 {
        let mut cycle = 0u64;
        while !self.active.is_empty() {
            cycle += 1;
            self.clock += 1;
            let clock = self.clock;
            // Compact the active list in place, without branches: every
            // entry is written back and only the undelivered ones are kept,
            // in order.
            let mut kept = 0;
            for index in 0..self.active.len() {
                let entry = self.active[index];
                let route = &routes[entry.route as usize];
                let slot = route[entry.cursor as usize] as usize;
                // A slot taken this cycle already holds the clock, so the
                // claim can write it whether or not it wins.
                let free = self.stamp[slot] != clock;
                self.stamp[slot] = clock;
                let cursor = entry.cursor + u32::from(free);
                self.active[kept] = Active { cursor, ..entry };
                kept += usize::from(cursor as usize != route.len());
            }
            self.active.truncate(kept);
        }
        cycle
    }

    /// The claim clock: the number of cycles every run so far has taken.
    #[cfg(test)]
    pub(crate) fn clock(&self) -> u64 {
        self.clock
    }
}

/// The indices of the non-empty routes in `routes`, ascending: the routes
/// whose messages take part in arbitration.
pub(crate) fn nonempty_routes(routes: &[Vec<u32>]) -> impl Iterator<Item = u32> + '_ {
    routes
        .iter()
        .enumerate()
        .filter(|(_, route)| !route.is_empty())
        .map(|(index, _)| u32::try_from(index).expect("route indices fit in u32"))
}

/// The cycles needed to deliver `rounds` rounds of one message along each
/// route of `routes` on a network over `grid` — the makespan both
/// simulators report.
///
/// # Panics
///
/// Panics if the schedule has more than `u32::MAX` messages with a route.
pub(crate) fn cycles_to_deliver(grid: &Grid, routes: &[Vec<u32>], rounds: usize) -> u64 {
    let queued: Vec<u32> = nonempty_routes(routes).collect();
    let mut arbiter = Arbiter::new(grid);
    arbiter.queue_rounds(&queued, rounds);
    arbiter.run(routes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::Shape;

    #[test]
    fn node_paths_claim_the_slots_of_their_dimension_ordered_routes() {
        // The 0%-loss chaos rows equal `simulate` only because a router's
        // node path and the direct expansion claim the same slots.
        let shape = |radices: &[u32]| Shape::new(radices.to_vec()).unwrap();
        for grid in [
            Grid::torus(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[4, 2, 3])),
            Grid::torus(shape(&[2, 2])),
            Grid::ring(2).unwrap(),
            Grid::hypercube(3).unwrap(),
        ] {
            let network = Network::new(grid.clone());
            for from in grid.nodes() {
                for to in grid.nodes() {
                    let (mut direct, mut mapped) = (Vec::new(), Vec::new());
                    push_dor_route(&network, from, to, &mut direct);
                    push_path_route(&grid, from, &network.route(from, to), &mut mapped);
                    assert_eq!(direct, mapped, "{grid}: {from} -> {to}");
                }
            }
        }
    }
}

//! The simulated-makespan optimization objective, with delta-aware
//! re-routing.
//!
//! [`MakespanObjective`] plugs the store-and-forward simulator into the
//! [`embeddings::optim`] local-search engine: the cost of a placement table
//! is the makespan (cycles) of delivering a fixed workload with that table
//! as the task placement, with the total routed hop count as the
//! tie-breaker — exactly the numbers [`crate::sim::simulate`] reports.
//!
//! An evaluation has two halves, routing and arbitration:
//!
//! * **routes** are cached per workload pair as lists of the directed link
//!   slots they claim hop by hop (`2 × canonical link slot + direction
//!   bit`; arbitration never needs the nodes a route visits). A swap of the
//!   images of tasks `a` and `b` re-routes *only the message pairs whose
//!   source or destination is one of the two moved tasks* (every simulated
//!   round injects the same pairs, so those pairs cover every touched
//!   round) — `O(degree × path length)` instead of re-expanding every
//!   route;
//! * **arbitration** queues every round's message of every non-empty route
//!   on the crate's one contention engine, the clock-stamped arbiter
//!   [`crate::sim::simulate`] runs, with its claim stamps kept across
//!   evaluations, and takes the run's cycle count as the makespan. The
//!   routes, the engine and the priority order (round-major, pair-minor)
//!   are the simulator's, so every exact price is the simulator's by
//!   construction. A swap that touches no workload pair (possible when the
//!   optimizer's guest has more nodes than the workload has tasks) skips
//!   arbitration entirely;
//! * **undo** costs neither half. A move puts the routes it replaces in a
//!   saved list and builds the new ones in spare buffers. An immediate
//!   repeat of the same call — the optimizer's rejection path — swaps the
//!   routes, the hop total and the cost back. Any other call, and
//!   `rebuild`, drop the saved state;
//! * **a bound comes before arbitration** when the annealer passes its
//!   acceptance test through [`Objective::apply_bounded`]. The objective
//!   keeps a count of the cached routes through each directed slot. Once a
//!   move's changed pairs are routed, no schedule can finish before the
//!   longest changed route, nor before `rounds` times the heaviest count
//!   on a changed route's slots: a message takes one cycle per hop, and a
//!   slot passes one message per cycle. The bound pairs that makespan with
//!   the exact hop total. When the limit rejects it, the objective returns
//!   it without arbitrating; the undo then swaps the routes and counts
//!   back. Any other next call makes the bounded move final by arbitrating
//!   it, so it prices exactly. The bound is componentwise at most the exact
//!   cost, so the monotone acceptance test that rejects it rejects the
//!   exact cost too, and every accept decision is the one exact pricing
//!   would make (see [`embeddings::optim`]).
//!
//! `rebuild` routes every pair from scratch and is the differential anchor;
//! the netsim tests and proptest walls check every incremental path against
//! [`crate::sim::simulate`] on random walks.

use embeddings::optim::{Cost, Objective};

use crate::engine::{self, Arbiter};
use crate::network::Network;
use crate::traffic::Workload;

/// Why a [`MakespanObjective`] could not be constructed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MakespanError {
    /// The schedule is too large: the contention engine queues at most
    /// `u32::MAX` messages (workload pairs × rounds) per evaluation. A
    /// request-supplied workload or round count that blows past the cap is
    /// a typed error here rather than a panic in the middle of a walk.
    ScheduleTooLarge {
        /// The number of workload pairs.
        pairs: usize,
        /// The number of rounds per evaluation.
        rounds: usize,
    },
}

impl core::fmt::Display for MakespanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MakespanError::ScheduleTooLarge { pairs, rounds } => write!(
                f,
                "schedule of {pairs} workload pairs x {rounds} rounds exceeds the \
                 {} messages one evaluation can arbitrate",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for MakespanError {}

/// Minimize the simulated makespan (cycles to deliver the workload under
/// one-message-per-directed-link arbitration), with the total routed hop
/// count as the tie-breaker.
///
/// See the [module docs](self) for the delta-aware evaluation strategy.
pub struct MakespanObjective {
    network: Network,
    workload: Workload,
    rounds: usize,
    /// Cached route of each workload pair under the current table, as the
    /// directed claim slots of its hops (buffers are recycled through
    /// `spare`, keeping their capacity).
    routes: Vec<Vec<u32>>,
    /// The pairs with a non-empty route, ascending: the pairs whose messages
    /// every arbitration queues. A route is empty exactly when its pair is a
    /// self-send, which no injective table changes, so `rebuild` fixes it.
    queued: Vec<u32>,
    /// `task_pairs[t]` = indices of the workload pairs with source or
    /// destination task `t`.
    task_pairs: Vec<Vec<u32>>,
    /// Sum of cached route lengths (per round).
    route_hops: u64,
    /// Dedup stamps so a pair touching both swapped tasks re-routes once.
    pair_epoch: Vec<u64>,
    epoch: u64,
    /// The contention engine, its claim stamps reused across evaluations.
    arbiter: Arbiter,
    /// Re-routing scratch, reused across evaluations.
    affected: Vec<u32>,
    touched: Vec<u64>,
    /// The number of cached routes through each directed slot, last move
    /// included: what bounds a move before it is arbitrated.
    slot_count: Vec<u32>,
    cost: Cost,
    /// What the last move replaced, kept until the next call shows whether
    /// that call is the move's undo.
    saved: Saved,
    /// Slot buffers of discarded routes, reused for new routes.
    spare: Vec<Vec<u32>>,
}

/// The state a [`MakespanObjective`] move replaced, enough to undo the
/// move without routing or arbitrating.
struct Saved {
    /// Whether the fields below describe a move that can still be undone.
    open: bool,
    /// Whether the move returned a bound: its routes are in place, but its
    /// messages were never arbitrated.
    bounded: bool,
    /// The move's transpositions, as the call passed them.
    swaps: Vec<(u64, u64)>,
    /// The routes the move replaced, by pair index.
    routes: Vec<(u32, Vec<u32>)>,
    route_hops: u64,
    cost: Cost,
}

impl MakespanObjective {
    /// Creates the objective: `workload` is delivered on `network` for
    /// `rounds` rounds per evaluation.
    ///
    /// # Errors
    ///
    /// [`MakespanError::ScheduleTooLarge`] when `pairs × rounds` exceeds the
    /// `u32::MAX` messages the contention engine queues.
    pub fn new(network: Network, workload: Workload, rounds: usize) -> Result<Self, MakespanError> {
        let pairs = workload.pairs().len();
        if pairs as u128 * rounds.max(1) as u128 > u32::MAX as u128 {
            return Err(MakespanError::ScheduleTooLarge { pairs, rounds });
        }
        let mut task_pairs: Vec<Vec<u32>> = vec![Vec::new(); workload.tasks() as usize];
        // Pair indices fit in `u32`: the check above bounds the pairs too.
        for (index, &(src, dst)) in (0u32..).zip(workload.pairs()) {
            task_pairs[src as usize].push(index);
            if dst != src {
                task_pairs[dst as usize].push(index);
            }
        }
        let arbiter = Arbiter::new(network.grid());
        let slots = arbiter.slots();
        Ok(MakespanObjective {
            network,
            workload,
            rounds,
            routes: vec![Vec::new(); pairs],
            queued: Vec::new(),
            task_pairs,
            route_hops: 0,
            pair_epoch: vec![0; pairs],
            epoch: 0,
            arbiter,
            affected: Vec::new(),
            touched: Vec::new(),
            slot_count: vec![0; slots],
            cost: Cost {
                primary: 0,
                secondary: 0,
            },
            saved: Saved {
                open: false,
                bounded: false,
                swaps: Vec::new(),
                routes: Vec::new(),
                route_hops: 0,
                cost: Cost {
                    primary: 0,
                    secondary: 0,
                },
            },
            spare: Vec::new(),
        })
    }

    /// Fills `route` with the directed claim slots of the hops of pair
    /// `pair` under `table`, so arbitration needs no coordinate math.
    fn expand_route(&self, pair: usize, table: &[u64], route: &mut Vec<u32>) {
        let (src_task, dst_task) = self.workload.pairs()[pair];
        route.clear();
        engine::push_dor_route(
            &self.network,
            table[src_task as usize],
            table[dst_task as usize],
            route,
        );
    }

    /// Replaces the cached route of pair `pair` with its route under
    /// `table`, built in a spare buffer, and keeps `route_hops` and
    /// `slot_count` in sync. The replaced route goes to the saved state.
    fn route_pair(&mut self, pair: u32, table: &[u64]) {
        let mut route = self.spare.pop().unwrap_or_default();
        self.expand_route(pair as usize, table, &mut route);
        let old = std::mem::replace(&mut self.routes[pair as usize], route);
        let new = &self.routes[pair as usize];
        self.route_hops = self.route_hops - old.len() as u64 + new.len() as u64;
        recount(&mut self.slot_count, &old, new);
        self.saved.routes.push((pair, old));
    }

    /// The bound of the move that re-routed the pairs `changed`: the exact
    /// hop total, and a makespan no schedule of the moved table can beat.
    /// A message takes at least one cycle per hop, and a directed slot
    /// passes one message per cycle, so the makespan is at least the
    /// longest changed route and at least `rounds` times the routes through
    /// any of its slots (no message at all with zero rounds).
    fn bound(&self, changed: &[u32]) -> Cost {
        let mut longest = 0;
        let mut heaviest = 0;
        for &pair in changed {
            let route = &self.routes[pair as usize];
            longest = longest.max(route.len() as u64);
            for &slot in route {
                heaviest = heaviest.max(self.slot_count[slot as usize]);
            }
        }
        let rounds = self.rounds as u64;
        Cost {
            primary: if rounds == 0 {
                0
            } else {
                longest.max(rounds * u64::from(heaviest))
            },
            secondary: self.route_hops * rounds,
        }
    }

    /// Arbitrates every round's message of every non-empty route on the
    /// contention engine, in the priority order of [`crate::sim::simulate`],
    /// and caches the cost: the run's cycle count and the hop total.
    fn arbitrate(&mut self) -> Cost {
        self.arbiter.queue_rounds(&self.queued, self.rounds);
        self.cost = Cost {
            primary: self.arbiter.run(&self.routes),
            secondary: self.route_hops * self.rounds as u64,
        };
        self.cost
    }

    /// Drops the saved state of the last move, keeping its route buffers.
    fn forget(&mut self) {
        self.saved.open = false;
        self.saved.bounded = false;
        self.spare
            .extend(self.saved.routes.drain(..).map(|(_, route)| route));
    }

    /// Undoes the last move from its saved state: swaps the replaced routes
    /// (and their slot counts), `route_hops` and the cost back in.
    fn restore(&mut self) -> Cost {
        let MakespanObjective {
            routes,
            spare,
            saved,
            slot_count,
            ..
        } = self;
        for (pair, route) in saved.routes.drain(..) {
            let new = std::mem::replace(&mut routes[pair as usize], route);
            recount(slot_count, &new, &routes[pair as usize]);
            spare.push(new);
        }
        self.route_hops = saved.route_hops;
        self.cost = saved.cost;
        saved.open = false;
        saved.bounded = false;
        self.cost
    }

    /// The shared delta path for the move `swaps`, already applied to
    /// `table`: answers the move's undo from the saved state; otherwise
    /// makes the last move final (arbitrating it if it was bounded),
    /// re-routes every workload pair touched by any task in `touched`
    /// (deduplicated), saving what it replaces, then arbitrates once. With
    /// `accepts`, the move's bound comes first, and a bound `accepts`
    /// rejects is returned without arbitrating. Returns the cached cost
    /// untouched when no pair is affected.
    fn resync_touched(
        &mut self,
        table: &[u64],
        swaps: &[(u64, u64)],
        touched: &[u64],
        accepts: Option<&dyn Fn(Cost) -> bool>,
    ) -> Cost {
        if self.saved.open {
            if self.saved.swaps == swaps {
                return self.restore();
            }
            if self.saved.bounded {
                self.arbitrate();
            }
        }
        self.forget();
        self.epoch += 1;
        let epoch = self.epoch;
        let mut affected = std::mem::take(&mut self.affected);
        affected.clear();
        for &task in touched {
            let Some(pairs) = self.task_pairs.get(task as usize) else {
                // The guest has more nodes than the workload has tasks, and
                // this task is outside the workload: nothing to re-route.
                continue;
            };
            for &pair in pairs {
                if self.pair_epoch[pair as usize] != epoch {
                    self.pair_epoch[pair as usize] = epoch;
                    affected.push(pair);
                }
            }
        }
        if affected.is_empty() {
            // No touched task sends or receives: routes — and therefore the
            // schedule — are unchanged.
            self.affected = affected;
            return self.cost;
        }
        let saved = &mut self.saved;
        saved.swaps.clear();
        saved.swaps.extend_from_slice(swaps);
        saved.route_hops = self.route_hops;
        saved.cost = self.cost;
        for &pair in &affected {
            self.route_pair(pair, table);
        }
        self.saved.open = true;
        let bound = accepts.and_then(|accepts| {
            let bound = self.bound(&affected);
            (!accepts(bound)).then_some(bound)
        });
        self.affected = affected;
        if let Some(bound) = bound {
            self.saved.bounded = true;
            return bound;
        }
        self.arbitrate()
    }

    /// Applies the batch `swaps` to `table` and prices it as one move.
    fn apply_batch(
        &mut self,
        table: &mut [u64],
        swaps: &[(u64, u64)],
        accepts: Option<&dyn Fn(Cost) -> bool>,
    ) -> Cost {
        // A compound move (segment reversal, k-cycle rotation batch, block
        // swap) re-routes the pairs of *every* transposed task but pays the
        // arbitration pass once — the override the default per-swap loop
        // exists for, since arbitration dominates this objective's
        // evaluation.
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        for &(a, b) in swaps {
            table.swap(a as usize, b as usize);
            if a != b {
                touched.push(a);
                touched.push(b);
            }
        }
        let cost = self.resync_touched(table, swaps, &touched, accepts);
        self.touched = touched;
        cost
    }
}

/// Moves the slot counts of one pair from route `old` to route `new`.
fn recount(slot_count: &mut [u32], old: &[u32], new: &[u32]) {
    for &slot in old {
        slot_count[slot as usize] -= 1;
    }
    for &slot in new {
        slot_count[slot as usize] += 1;
    }
}

impl Objective for MakespanObjective {
    fn name(&self) -> &'static str {
        "makespan"
    }

    fn rebuild(&mut self, table: &[u64]) -> Cost {
        // The old full-re-simulation objective validated injectivity through
        // `Placement::try_from_table` on every evaluation; the delta path
        // keeps the loud contract violation (two tasks on one node would
        // otherwise yield a plausible-looking but meaningless schedule) as a
        // debug-build check at rebuild time, off the per-move hot path.
        #[cfg(debug_assertions)]
        {
            let mut seen = vec![false; self.network.size() as usize];
            for (task, &node) in table.iter().enumerate() {
                assert!(
                    !std::mem::replace(&mut seen[node as usize], true),
                    "placement table must be injective: task {task} re-uses node {node}"
                );
            }
        }
        self.forget();
        self.route_hops = 0;
        self.slot_count.fill(0);
        for pair in 0..self.routes.len() {
            let mut route = std::mem::take(&mut self.routes[pair]);
            self.expand_route(pair, table, &mut route);
            self.route_hops += route.len() as u64;
            recount(&mut self.slot_count, &[], &route);
            self.routes[pair] = route;
        }
        self.queued.clear();
        self.queued.extend(engine::nonempty_routes(&self.routes));
        self.arbitrate()
    }

    fn apply_swap(&mut self, table: &[u64], a: u64, b: u64) -> Cost {
        let touched: &[u64] = if a == b { &[] } else { &[a, b] };
        self.resync_touched(table, &[(a, b)], touched, None)
    }

    fn apply_disjoint_swaps(&mut self, table: &mut [u64], swaps: &[(u64, u64)]) -> Cost {
        self.apply_batch(table, swaps, None)
    }

    fn apply_bounded(
        &mut self,
        table: &mut [u64],
        swaps: &[(u64, u64)],
        accepts: &dyn Fn(Cost) -> bool,
    ) -> Cost {
        self.apply_batch(table, swaps, Some(accepts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embeddings::auto::embed;
    use embeddings::optim::{Optimizer, OptimizerConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use topology::{Grid, Shape};

    use crate::sim::{simulate, Placement};

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    /// The full-re-simulation reference: what the old objective computed.
    fn full_cost(network: &Network, workload: &Workload, rounds: usize, table: &[u64]) -> Cost {
        let placement = Placement::try_from_table(table.to_vec()).expect("injective");
        let stats = simulate(network, workload, &placement, rounds);
        Cost {
            primary: stats.cycles,
            secondary: stats.total_hops,
        }
    }

    #[test]
    fn makespan_objective_matches_direct_simulation() {
        let guest = Grid::ring(12).unwrap();
        let host = Grid::mesh(shape(&[3, 4]));
        let e = embed(&guest, &host).unwrap();
        let workload = Workload::from_task_graph(&guest);
        let mut objective =
            MakespanObjective::new(Network::new(host.clone()), workload.clone(), 1).unwrap();
        let table = e.to_table().unwrap();
        let cost = objective.rebuild(&table);
        let stats = simulate(
            &Network::new(host),
            &workload,
            &Placement::from_embedding(&e),
            1,
        );
        assert_eq!(cost.primary, stats.cycles);
        assert_eq!(cost.secondary, stats.total_hops);
    }

    #[test]
    fn delta_swaps_match_full_resimulation_exactly() {
        // Differential check: a long random walk of incremental swap
        // updates must report, at every step, exactly the cost a full
        // re-simulation computes — including multi-round schedules.
        for (guest, host, rounds) in [
            (Grid::torus(shape(&[3, 4])), Grid::mesh(shape(&[3, 4])), 1),
            (Grid::torus(shape(&[4, 6])), Grid::mesh(shape(&[4, 6])), 2),
            (Grid::ring(16).unwrap(), Grid::mesh(shape(&[4, 4])), 3),
        ] {
            let e = embed(&guest, &host).unwrap();
            let workload = Workload::from_task_graph(&guest);
            let network = Network::new(host.clone());
            let mut objective =
                MakespanObjective::new(Network::new(host.clone()), workload.clone(), rounds)
                    .unwrap();
            let mut table = e.to_table().unwrap();
            let mut cost = objective.rebuild(&table);
            assert_eq!(cost, full_cost(&network, &workload, rounds, &table));
            let n = guest.size();
            let mut rng = StdRng::seed_from_u64(23);
            for _ in 0..120 {
                let a = rng.gen_range(0u64..n);
                let mut b = rng.gen_range(0u64..n - 1);
                if b >= a {
                    b += 1;
                }
                table.swap(a as usize, b as usize);
                cost = objective.apply_swap(&table, a, b);
                assert_eq!(
                    cost,
                    full_cost(&network, &workload, rounds, &table),
                    "{guest} -> {host} rounds={rounds} after swapping {a},{b}"
                );
            }
            // And the incremental end state equals a fresh rebuild.
            let mut fresh =
                MakespanObjective::new(Network::new(host.clone()), workload.clone(), rounds)
                    .unwrap();
            assert_eq!(cost, fresh.rebuild(&table));
        }
    }

    /// Two four-task rings pinned to opposite rows of a 4×4 mesh, with the
    /// middle rows unused: under the identity table their routes share no
    /// directed slots, so the two rings' messages never contend.
    fn two_cluster_workload() -> (Network, Workload, Vec<u64>) {
        let host = Grid::mesh(shape(&[4, 4]));
        let pairs = vec![
            (0u64, 1u64),
            (1, 2),
            (2, 3),
            (3, 0),
            (12, 13),
            (13, 14),
            (14, 15),
            (15, 12),
        ];
        let workload = Workload::try_new(16, pairs).unwrap();
        let table: Vec<u64> = (0..16).collect();
        (Network::new(host), workload, table)
    }

    #[test]
    fn multi_component_walks_match_full_resimulation() {
        // A sparse schedule: most swaps touch one cluster (or no cluster at
        // all), and some trade tasks between the clusters, so their messages
        // start and stop contending. Random swaps and reversal batches,
        // checked against a full re-simulation at every step.
        let (network, workload, mut table) = two_cluster_workload();
        let rounds = 2;
        let mut objective = MakespanObjective::new(
            Network::new(network.grid().clone()),
            workload.clone(),
            rounds,
        )
        .unwrap();
        let mut cost = objective.rebuild(&table);
        assert_eq!(cost, full_cost(&network, &workload, rounds, &table));
        let n = table.len() as u64;
        let mut rng = StdRng::seed_from_u64(87);
        for step in 0..120 {
            if rng.gen_bool(0.25) {
                let len = rng.gen_range(2u64..=6);
                let start = rng.gen_range(0u64..=n - len);
                let swaps: Vec<(u64, u64)> = (0..len / 2)
                    .map(|i| (start + i, start + len - 1 - i))
                    .collect();
                cost = objective.apply_disjoint_swaps(&mut table, &swaps);
            } else {
                let a = rng.gen_range(0u64..n);
                let mut b = rng.gen_range(0u64..n - 1);
                if b >= a {
                    b += 1;
                }
                table.swap(a as usize, b as usize);
                cost = objective.apply_swap(&table, a, b);
            }
            assert_eq!(
                cost,
                full_cost(&network, &workload, rounds, &table),
                "step {step}"
            );
        }
        let mut fresh =
            MakespanObjective::new(Network::new(network.grid().clone()), workload, rounds).unwrap();
        assert_eq!(cost, fresh.rebuild(&table));
    }

    #[test]
    fn undo_restores_the_saved_schedule_instead_of_replaying() {
        // White-box proof that an undo swaps the saved state back instead
        // of arbitrating again: every arbitration advances the arbiter's
        // clock, so a move must advance it and the move's undo must leave it
        // where the move did. The next move arbitrates again.
        let (network, workload, mut table) = two_cluster_workload();
        let mut objective =
            MakespanObjective::new(Network::new(network.grid().clone()), workload.clone(), 1)
                .unwrap();
        let honest = objective.rebuild(&table);
        let rebuilt_clock = objective.arbiter.clock();
        table.swap(0, 1);
        let moved = objective.apply_swap(&table, 0, 1);
        assert_eq!(moved, full_cost(&network, &workload, 1, &table));
        let moved_clock = objective.arbiter.clock();
        assert!(moved_clock > rebuilt_clock, "the move was not arbitrated");
        table.swap(0, 1);
        assert_eq!(objective.apply_swap(&table, 0, 1), honest);
        assert_eq!(
            objective.arbiter.clock(),
            moved_clock,
            "the undo arbitrated instead of restoring its saved state"
        );
        table.swap(12, 13);
        assert_eq!(
            objective.apply_swap(&table, 12, 13),
            full_cost(&network, &workload, 1, &table)
        );
        assert!(objective.arbiter.clock() > moved_clock);
        let rebuilt = objective.rebuild(&table);
        assert_eq!(rebuilt, full_cost(&network, &workload, 1, &table));
    }

    #[test]
    fn committed_moves_that_merge_and_split_components_match_full_resimulation() {
        // Trading top-row task 0 for bottom-row task 13 routes top-row pairs
        // through the bottom row, so the two rings' messages contend; moves
        // in each row (one of them undone) then price the merged schedule,
        // and trading the tasks back splits it again. Every step is checked
        // against a full re-simulation.
        let (network, workload, mut table) = two_cluster_workload();
        let rounds = 2;
        let mut objective = MakespanObjective::new(
            Network::new(network.grid().clone()),
            workload.clone(),
            rounds,
        )
        .unwrap();
        objective.rebuild(&table);
        let steps = [(0, 13), (1, 2), (1, 2), (14, 15), (2, 3), (0, 13), (12, 15)];
        for (step, &(a, b)) in steps.iter().enumerate() {
            table.swap(a, b);
            let cost = objective.apply_swap(&table, a as u64, b as u64);
            assert_eq!(
                cost,
                full_cost(&network, &workload, rounds, &table),
                "step {step}: swap {a},{b}"
            );
        }
        let mut fresh =
            MakespanObjective::new(Network::new(network.grid().clone()), workload, rounds).unwrap();
        assert_eq!(objective.cost, fresh.rebuild(&table));
    }

    /// The walk's greedy limit: reject any cost worse than `before`.
    fn reject_worse(before: Cost) -> impl Fn(Cost) -> bool {
        move |cost| cost <= before
    }

    #[test]
    fn bounded_makespan_moves_sit_below_the_exact_cost() {
        // Every bounded return is componentwise at most the exact cost of
        // the same move on a fresh objective, keeps its secondary, and is
        // rejected by its limit; its undo restores the cost. Swaps and
        // reversal batches from a shuffled start, one and two rounds, under
        // the greedy limit and one that judges the makespan alone.
        use rand::seq::SliceRandom;
        let guest = Grid::torus(shape(&[4, 6]));
        let host = Grid::mesh(shape(&[4, 6]));
        let mut start = embed(&guest, &host).unwrap().to_table().unwrap();
        start.shuffle(&mut StdRng::seed_from_u64(8));
        let workload = Workload::from_task_graph(&guest);
        let n = guest.size();
        for rounds in [1, 2] {
            let build = || {
                MakespanObjective::new(Network::new(host.clone()), workload.clone(), rounds)
                    .unwrap()
            };
            let mut objective = build();
            let before = objective.rebuild(&start);
            let greedy = reject_worse(before);
            let makespan_only = |cost: Cost| cost.primary <= before.primary;
            let mut rng = StdRng::seed_from_u64(31);
            let (mut bounded, mut exact) = (0, 0);
            for step in 0..300 {
                let limit: &dyn Fn(Cost) -> bool = if step % 2 == 0 {
                    &greedy
                } else {
                    &makespan_only
                };
                let a = rng.gen_range(0u64..n - 3);
                let b = rng.gen_range(a + 1..n);
                let swaps: Vec<(u64, u64)> = if rng.gen_bool(0.5) {
                    vec![(a, b)]
                } else {
                    vec![(a, a + 3), (a + 1, a + 2)]
                };
                let mut table = start.clone();
                let cost = objective.apply_bounded(&mut table, &swaps, limit);
                let mut fresh = build();
                fresh.rebuild(&start);
                let truth = fresh.apply_disjoint_swaps(&mut start.clone(), &swaps);
                if objective.saved.bounded {
                    bounded += 1;
                    assert!(!limit(cost), "the limit accepts the bound of {swaps:?}");
                    assert!(cost.primary <= truth.primary, "{cost:?} > {truth:?}");
                    assert_eq!(cost.secondary, truth.secondary);
                } else {
                    exact += 1;
                    assert_eq!(cost, truth, "{swaps:?}");
                }
                assert_eq!(objective.apply_disjoint_swaps(&mut table, &swaps), before);
                assert_eq!(table, start);
            }
            assert!(bounded > 0 && exact > 0, "{bounded} bounded, {exact} exact");
            assert_eq!(objective.rebuild(&start), before);
        }
    }

    #[test]
    fn bounded_makespan_moves_arbitrate_nothing() {
        // White-box proof that a bounded move does not arbitrate: every
        // arbitration advances the arbiter's clock, so the bounded move and
        // its undo must leave it where `rebuild` did.
        let (network, workload, mut table) = two_cluster_workload();
        let mut objective =
            MakespanObjective::new(Network::new(network.grid().clone()), workload.clone(), 1)
                .unwrap();
        let honest = objective.rebuild(&table);
        let clock = objective.arbiter.clock();
        // Trading task 0 into the bottom row lengthens the route of pair
        // (0, 1), so the greedy limit rejects the bound.
        let swaps = [(0u64, 12u64)];
        let bound = objective.apply_bounded(&mut table, &swaps, &reject_worse(honest));
        assert!(objective.saved.bounded, "the move must be bounded");
        assert!(bound > honest);
        assert_eq!(
            objective.arbiter.clock(),
            clock,
            "the bounded move arbitrated"
        );
        assert_eq!(objective.apply_disjoint_swaps(&mut table, &swaps), honest);
        assert_eq!(objective.arbiter.clock(), clock, "the undo arbitrated");
        assert_eq!(objective.rebuild(&table), honest);
        assert!(
            objective.arbiter.clock() > clock,
            "rebuild did not arbitrate"
        );
        assert_eq!(honest, full_cost(&network, &workload, 1, &table));
    }

    #[test]
    fn calls_after_a_bounded_makespan_move_that_do_not_undo_it_are_exact() {
        // A bounded move followed by anything but its undo becomes final
        // without ever being arbitrated; the next call arbitrates every
        // message. Each follow-up — a swap, a batch, a bounded move — and
        // its undo match a full re-simulation, and so does the walk after.
        let (network, workload, start) = two_cluster_workload();
        let rounds = 2;
        let first = [(0u64, 12u64)];
        let follow_ups = [vec![(1u64, 2u64)], vec![(13, 14), (12, 15)]];
        for kind in 0..3 {
            for second in &follow_ups {
                let mut objective = MakespanObjective::new(
                    Network::new(network.grid().clone()),
                    workload.clone(),
                    rounds,
                )
                .unwrap();
                let honest = objective.rebuild(&start);
                let mut table = start.clone();
                objective.apply_bounded(&mut table, &first, &reject_worse(honest));
                assert!(objective.saved.bounded, "the probe move must be bounded");
                let moved = table.clone();
                let cost = match kind {
                    0 if second.len() == 1 => {
                        let (a, b) = second[0];
                        table.swap(a as usize, b as usize);
                        objective.apply_swap(&table, a, b)
                    }
                    0 | 1 => objective.apply_disjoint_swaps(&mut table, second),
                    _ => objective.apply_bounded(&mut table, second, &|_| true),
                };
                let expected = full_cost(&network, &workload, rounds, &table);
                assert_eq!(cost, expected, "kind {kind}, {second:?}");
                let undone = objective.apply_disjoint_swaps(&mut table, second);
                assert_eq!(table, moved);
                assert_eq!(undone, full_cost(&network, &workload, rounds, &moved));
                table.swap(5, 9);
                let next = objective.apply_swap(&table, 5, 9);
                assert_eq!(next, full_cost(&network, &workload, rounds, &table));
            }
        }
    }

    #[test]
    fn swaps_outside_the_workload_are_free_and_exact() {
        // A workload over fewer tasks than the placement has nodes: swapping
        // two unused tasks must keep the cached cost — and agree with the
        // full simulator, which never sees the unused tasks at all.
        let host = Grid::mesh(shape(&[4, 4]));
        let workload = Workload::uniform_random(8, 24, 5);
        let network = Network::new(host.clone());
        let mut objective =
            MakespanObjective::new(Network::new(host), workload.clone(), 1).unwrap();
        let mut table: Vec<u64> = (0..16).collect();
        let before = objective.rebuild(&table);
        table.swap(12, 15);
        let after = objective.apply_swap(&table, 12, 15);
        assert_eq!(before, after);
        assert_eq!(after, full_cost(&network, &workload, 1, &table));
        // A swap moving one workload task and one unused task re-routes
        // only the touched pairs and still matches.
        table.swap(2, 14);
        let mixed = objective.apply_swap(&table, 2, 14);
        assert_eq!(mixed, full_cost(&network, &workload, 1, &table));
    }

    #[test]
    fn disjoint_swap_batches_match_full_resimulation_and_undo() {
        // A segment reversal reaches the objective as one batch of disjoint
        // transpositions (one arbitration pass); it must price the final
        // table exactly like the full simulator and undo by re-applying.
        let guest = Grid::torus(shape(&[4, 6]));
        let host = Grid::mesh(shape(&[4, 6]));
        let e = embed(&guest, &host).unwrap();
        let workload = Workload::from_task_graph(&guest);
        let network = Network::new(host.clone());
        let mut objective =
            MakespanObjective::new(Network::new(host), workload.clone(), 2).unwrap();
        let mut table = e.to_table().unwrap();
        let before = objective.rebuild(&table);
        // Reverse the run 5..=10: transpositions (5,10), (6,9), (7,8).
        let swaps = [(5u64, 10u64), (6, 9), (7, 8)];
        let batched = objective.apply_disjoint_swaps(&mut table, &swaps);
        assert_eq!(batched, full_cost(&network, &workload, 2, &table));
        // Matches the per-swap default path on a fresh objective.
        let mut sequential = MakespanObjective::new(
            Network::new(Grid::mesh(shape(&[4, 6]))),
            workload.clone(),
            2,
        )
        .unwrap();
        let mut seq_table = e.to_table().unwrap();
        sequential.rebuild(&seq_table);
        let mut seq_cost = before;
        for &(a, b) in &swaps {
            seq_table.swap(a as usize, b as usize);
            seq_cost = sequential.apply_swap(&seq_table, a, b);
        }
        assert_eq!(batched, seq_cost);
        assert_eq!(table, seq_table);
        // Re-applying the same batch undoes the reversal exactly.
        let undone = objective.apply_disjoint_swaps(&mut table, &swaps);
        assert_eq!(undone, before);
        assert_eq!(table, e.to_table().unwrap());
    }

    #[test]
    fn rejected_moves_undo_exactly() {
        let guest = Grid::torus(shape(&[3, 4]));
        let host = Grid::mesh(shape(&[3, 4]));
        let e = embed(&guest, &host).unwrap();
        let workload = Workload::from_task_graph(&guest);
        let mut objective = MakespanObjective::new(Network::new(host), workload, 1).unwrap();
        let mut table = e.to_table().unwrap();
        let before = objective.rebuild(&table);
        table.swap(3, 9);
        objective.apply_swap(&table, 3, 9);
        table.swap(3, 9);
        let after = objective.apply_swap(&table, 3, 9);
        assert_eq!(before, after);
    }

    #[test]
    fn optimizer_never_worsens_the_makespan() {
        let guest = Grid::torus(shape(&[3, 4]));
        let host = Grid::mesh(shape(&[3, 4]));
        let e = embed(&guest, &host).unwrap();
        let workload = Workload::from_task_graph(&guest);
        let mut objective =
            MakespanObjective::new(Network::new(host.clone()), workload, 1).unwrap();
        let outcome = Optimizer::new(OptimizerConfig {
            seed: 5,
            steps: 400,
            ..OptimizerConfig::default()
        })
        .optimize(&e, &mut objective)
        .unwrap();
        assert!(outcome.report.best <= outcome.report.initial);
        assert!(outcome.embedding.is_injective());
        // The returned table reproduces the reported best cost.
        assert_eq!(objective.rebuild(&outcome.table), outcome.report.best);
    }

    #[test]
    fn oversized_schedules_are_typed_errors() {
        // pairs × rounds beyond u32::MAX would truncate the arbitration
        // message indices; the constructor must refuse, not wrap.
        let host = Grid::mesh(shape(&[2, 3]));
        let workload = Workload::from_task_graph(&Grid::ring(6).unwrap());
        let pairs = workload.pairs().len();
        let rounds = (u32::MAX as usize / pairs) + 1;
        let err = MakespanObjective::new(Network::new(host), workload, rounds)
            .err()
            .expect("oversized schedule must be rejected");
        assert_eq!(err, MakespanError::ScheduleTooLarge { pairs, rounds });
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn zero_rounds_cost_nothing() {
        let guest = Grid::ring(6).unwrap();
        let host = Grid::mesh(shape(&[2, 3]));
        let workload = Workload::from_task_graph(&guest);
        let mut objective = MakespanObjective::new(Network::new(host), workload, 0).unwrap();
        let table: Vec<u64> = (0..6).collect();
        let cost = objective.rebuild(&table);
        assert_eq!(
            cost,
            Cost {
                primary: 0,
                secondary: 0
            }
        );
    }
}

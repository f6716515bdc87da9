//! The simulated-makespan optimization objective, with delta-aware
//! re-routing and replay.
//!
//! [`MakespanObjective`] plugs the store-and-forward simulator into the
//! [`embeddings::optim`] local-search engine: the cost of a placement table
//! is the makespan (cycles) of delivering a fixed workload with that table
//! as the task placement, with the total routed hop count as the
//! tie-breaker — exactly the numbers [`crate::sim::simulate`] reports.
//!
//! An evaluation has two halves, routing and replay:
//!
//! * **routes** are cached per workload pair as lists of the directed link
//!   slots they claim hop by hop (`2 × canonical link slot + direction
//!   bit`; the engine never needs the nodes a route visits), each a span of
//!   one flat route table that `rebuild` fills in pair order. A swap of the
//!   images of tasks `a` and `b` re-routes *only the message pairs whose
//!   source or destination is one of the two moved tasks* (every simulated
//!   round injects the same pairs, so those pairs cover every touched
//!   round) — `O(degree × path length)` instead of re-expanding every
//!   route;
//! * **replay** runs on the crate's one message-order engine, the walker
//!   [`crate::sim::simulate`] runs, over a committed schedule it keeps
//!   across evaluations. Messages queue round-major, pair-minor, as in the
//!   simulator, and a message's schedule depends only on the messages
//!   queued before it. So a move whose lowest re-routed queue position is
//!   `k` keeps every committed message before `k` and replays from `k`
//!   only, starting from the latest committed delivery before `k`. From
//!   `k` on it walks the re-routed messages and the messages whose routes
//!   cross a slot the replay has changed, each treating a committed claim
//!   as free exactly when its claimant sits at or after its own position;
//!   every other message sees what it saw when committed and keeps its
//!   cycles. The routes, the walker and the priority order are the
//!   simulator's, so every exact price is the simulator's by construction.
//!   A swap that touches no workload pair (possible when the optimizer's
//!   guest has more nodes than the workload has tasks) replays nothing;
//! * **undo** costs neither half. A move appends its new routes to the
//!   route table and saves the spans they replace; its replay writes only
//!   scratch. An immediate repeat of the same call — the optimizer's
//!   rejection path — points the pairs back at their saved spans, truncates
//!   the table to its length before the move, restores the hop total and
//!   the cost, and drops the scratch. Any other call makes the move final:
//!   the committed schedule takes the walked messages' claims, and the
//!   replaced spans stay in the table, dead, until the dead slots outnumber
//!   the live ones and the table is compacted. `rebuild` drops the saved
//!   state and walks every message;
//! * **bounds come before and during the replay** when the annealer passes
//!   its acceptance test through [`Objective::apply_bounded`]. The objective
//!   keeps a count of the cached routes through each directed slot. Once a
//!   move's changed pairs are routed, no schedule can finish before the
//!   longest changed route, nor before `rounds` times the heaviest count
//!   on a changed route's slots: a message takes one cycle per hop, and a
//!   slot passes one message per cycle. The bound pairs that makespan with
//!   the exact hop total; when the limit rejects it, the objective returns
//!   it without replaying. Otherwise the replay runs under the limit: its
//!   running maximum of deliveries only grows, so it is a makespan no
//!   schedule of the moved table can beat, and the replay stops at the
//!   first one the limit rejects and returns it with the exact hop total.
//!   Either bound's undo swaps the routes and counts back; any other next
//!   call replays the move in full and commits it, so it prices exactly.
//!   Both bounds are componentwise at most the exact cost, so the monotone
//!   acceptance test that rejects them rejects the exact cost too, and
//!   every accept decision is the one exact pricing would make (see
//!   [`embeddings::optim`]).
//!
//! `rebuild` routes every pair from scratch and is the differential anchor;
//! the netsim tests and proptest walls check every incremental path against
//! [`crate::sim::simulate`] on random walks.

use embeddings::optim::{Cost, Objective};

use crate::engine::{self, push_dor_route, Replay, RouteTable, Schedule, Span};
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
    /// directed claim slots of its hops: route `pair` of the table.
    routes: RouteTable,
    /// The pairs with a non-empty route, ascending: the queue of one round.
    /// A route is empty exactly when its pair is a self-send, which no
    /// injective table changes, so `rebuild` fixes it.
    queued: Vec<u32>,
    /// `queue_index[pair]`: the position of the pair in `queued`, or
    /// `u32::MAX` for a self-send.
    queue_index: Vec<u32>,
    /// The indices of the workload pairs with source or destination task
    /// `t`, ascending, at `task_pairs[task_offsets[t]..task_offsets[t + 1]]`.
    task_offsets: Vec<u32>,
    task_pairs: Vec<u32>,
    /// Sum of cached route lengths (per round).
    route_hops: u64,
    /// Dedup stamps so a pair touching both swapped tasks re-routes once.
    pair_epoch: Vec<u64>,
    epoch: u64,
    /// The committed schedule and the replay's scratch.
    schedule: Schedule,
    /// Re-routing scratch, reused across evaluations.
    affected: Vec<u32>,
    touched: Vec<u64>,
    /// The number of cached routes through each directed slot, last move
    /// included: what bounds a move before it is replayed.
    slot_count: Vec<u32>,
    cost: Cost,
    /// What the last move replaced, kept until the next call shows whether
    /// that call is the move's undo.
    saved: Saved,
}

/// The state a [`MakespanObjective`] move replaced, enough to undo the
/// move without routing or replaying, or to commit it.
struct Saved {
    /// Whether the fields below describe a move that can still be undone.
    open: bool,
    /// Whether the move returned a bound: its routes are in place, but its
    /// replay stopped early or never ran.
    bounded: bool,
    /// The move's first re-routed queue position: where its replay starts.
    start: usize,
    /// The move's transpositions, as the call passed them.
    swaps: Vec<(u64, u64)>,
    /// The spans of the routes the move replaced, by pair index.
    routes: Vec<(u32, Span)>,
    /// The route table's length before the move appended its routes.
    stored: usize,
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
        // Pair indices, and the at most two entries per pair, fit in `u32`:
        // the check above bounds the pairs too. Each task's count lands one
        // slot to the right, so the prefix sum turns counts into offsets.
        let tasks = workload.tasks() as usize;
        let mut task_offsets = vec![0u32; tasks + 1];
        for &(src, dst) in workload.pairs() {
            task_offsets[src as usize + 1] += 1;
            if dst != src {
                task_offsets[dst as usize + 1] += 1;
            }
        }
        for t in 0..tasks {
            task_offsets[t + 1] += task_offsets[t];
        }
        let mut next = task_offsets[..tasks].to_vec();
        let mut task_pairs = vec![0u32; task_offsets[tasks] as usize];
        for (index, &(src, dst)) in (0u32..).zip(workload.pairs()) {
            task_pairs[next[src as usize] as usize] = index;
            next[src as usize] += 1;
            if dst != src {
                task_pairs[next[dst as usize] as usize] = index;
                next[dst as usize] += 1;
            }
        }
        let slots = engine::slots(network.grid());
        Ok(MakespanObjective {
            network,
            workload,
            rounds,
            routes: RouteTable::with_routes(pairs),
            queued: Vec::with_capacity(pairs),
            queue_index: vec![u32::MAX; pairs],
            task_offsets,
            task_pairs,
            route_hops: 0,
            pair_epoch: vec![0; pairs],
            epoch: 0,
            schedule: Schedule::new(slots, pairs),
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
                start: 0,
                swaps: Vec::new(),
                routes: Vec::new(),
                stored: 0,
                route_hops: 0,
                cost: Cost {
                    primary: 0,
                    secondary: 0,
                },
            },
        })
    }

    /// Appends the directed claim slots of the hops of pair `pair` under
    /// `table` to the route table, so the engine needs no coordinate math,
    /// and returns their span.
    fn expand_route(&mut self, pair: usize, table: &[u64]) -> Span {
        let (src_task, dst_task) = self.workload.pairs()[pair];
        let (from, to) = (table[src_task as usize], table[dst_task as usize]);
        let network = &self.network;
        self.routes
            .append(|slots| push_dor_route(network, from, to, slots))
    }

    /// Points the cached route of pair `pair` at its route under `table`,
    /// appended to the route table, and keeps `route_hops` and `slot_count`
    /// in sync. The replaced span goes to the saved state.
    fn route_pair(&mut self, pair: u32, table: &[u64]) {
        let new = self.expand_route(pair as usize, table);
        let old = self.routes.replace(pair as usize, new);
        self.route_hops = self.route_hops - old.len() as u64 + new.len() as u64;
        recount(
            &mut self.slot_count,
            self.routes.at(old),
            self.routes.at(new),
        );
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
            let route = self.routes.route(pair as usize);
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

    /// Replays the queue from position `start` under the optional limit
    /// `accepts`. An exact replay becomes the cached cost; a stopped one
    /// returns its bound.
    fn replay(&mut self, start: usize, accepts: Option<&dyn Fn(Cost) -> bool>) -> Replay {
        let secondary = self.route_hops * self.rounds as u64;
        let limit = accepts.map(|accepts| move |primary| accepts(Cost { primary, secondary }));
        let queue_index = &self.queue_index;
        let moved = self.saved.routes.iter().filter_map(|&(pair, _)| {
            let q = queue_index[pair as usize];
            (q != u32::MAX).then_some(q as usize)
        });
        let replay = self.schedule.replay(
            &self.routes,
            &self.queued,
            start,
            moved,
            limit.as_ref().map(|limit| limit as &dyn Fn(u64) -> bool),
        );
        if let Replay::Exact(primary) = replay {
            self.cost = Cost { primary, secondary };
        }
        replay
    }

    /// Makes the open move final: replays it in full if it returned a
    /// bound, then commits its replay.
    fn commit(&mut self) {
        let start = self.saved.start;
        if self.saved.bounded {
            self.replay(start, None);
        }
        self.schedule.commit(&self.routes, &self.queued, start);
    }

    /// Drops the saved state of the last move, whose replaced spans stay in
    /// the route table, dead.
    fn forget(&mut self) {
        self.saved.open = false;
        self.saved.bounded = false;
        self.saved.routes.clear();
    }

    /// Undoes the last move from its saved state: points the re-routed
    /// pairs back at their replaced spans (moving their slot counts back),
    /// truncates the route table to its length before the move, and
    /// restores `route_hops` and the cost. The committed schedule never saw
    /// the move.
    fn restore(&mut self) -> Cost {
        let MakespanObjective {
            routes,
            saved,
            slot_count,
            ..
        } = self;
        for (pair, old) in saved.routes.drain(..) {
            let new = routes.replace(pair as usize, old);
            recount(slot_count, routes.at(new), routes.at(old));
        }
        routes.truncate(saved.stored);
        self.route_hops = saved.route_hops;
        self.cost = saved.cost;
        saved.open = false;
        saved.bounded = false;
        self.cost
    }

    /// The shared delta path for the move `swaps`, already applied to
    /// `table`: answers the move's undo from the saved state; otherwise
    /// makes the last move final, re-routes every workload pair touched by
    /// any task in `touched` (deduplicated), saving what it replaces, then
    /// replays from the first re-routed queue position. With `accepts`, the
    /// move's slot-count bound comes first, and the replay stops at the
    /// first running maximum `accepts` rejects. Returns the cached cost
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
            self.commit();
        }
        self.forget();
        // Committed moves leave the spans they replaced dead in the table.
        if self.routes.stored() > 2 * self.route_hops as usize {
            self.routes.compact();
        }
        self.epoch += 1;
        let epoch = self.epoch;
        let mut affected = std::mem::take(&mut self.affected);
        affected.clear();
        for &task in touched {
            let task = task as usize;
            let Some(&[start, end]) = self.task_offsets.get(task..task + 2) else {
                // The guest has more nodes than the workload has tasks, and
                // this task is outside the workload: nothing to re-route.
                continue;
            };
            for &pair in &self.task_pairs[start as usize..end as usize] {
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
        saved.stored = self.routes.stored();
        saved.route_hops = self.route_hops;
        saved.cost = self.cost;
        // Self-sends are never queued; a move of them alone starts past the
        // last position and replays nothing.
        let messages = self.queued.len() * self.rounds;
        saved.start = affected
            .iter()
            .map(|&pair| self.queue_index[pair as usize] as usize)
            .min()
            .map_or(messages, |first| first.min(messages));
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
        match self.replay(self.saved.start, accepts) {
            Replay::Exact(_) => self.cost,
            Replay::Stopped(primary) => {
                self.saved.bounded = true;
                Cost {
                    primary,
                    secondary: self.route_hops * self.rounds as u64,
                }
            }
        }
    }

    /// Applies the batch `swaps` to `table` and prices it as one move.
    fn apply_batch(
        &mut self,
        table: &mut [u64],
        swaps: &[(u64, u64)],
        accepts: Option<&dyn Fn(Cost) -> bool>,
    ) -> Cost {
        // A compound move (segment reversal, k-cycle rotation batch, block
        // swap) re-routes the pairs of *every* transposed task but replays
        // once — the override the default per-swap loop exists for, since
        // the replay dominates this objective's evaluation.
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
        self.slot_count.fill(0);
        self.queued.clear();
        self.routes.clear();
        for pair in 0..self.workload.pairs().len() {
            let (src_task, dst_task) = self.workload.pairs()[pair];
            let (from, to) = (table[src_task as usize], table[dst_task as usize]);
            let network = &self.network;
            self.routes
                .push(|slots| push_dor_route(network, from, to, slots));
            let route = self.routes.route(pair);
            recount(&mut self.slot_count, &[], route);
            self.queue_index[pair] = if route.is_empty() {
                u32::MAX
            } else {
                self.queued.push(pair as u32);
                self.queued.len() as u32 - 1
            };
        }
        self.route_hops = self.routes.stored() as u64;
        self.schedule
            .rebuild(&self.routes, &self.queued, self.rounds);
        self.cost = Cost {
            primary: self.schedule.makespan(),
            secondary: self.route_hops * self.rounds as u64,
        };
        self.cost
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
        // of replaying: the schedule counts every message a replay walks,
        // so a move must walk some and the move's undo none. The next move
        // replays again.
        let (network, workload, mut table) = two_cluster_workload();
        let mut objective =
            MakespanObjective::new(Network::new(network.grid().clone()), workload.clone(), 1)
                .unwrap();
        let honest = objective.rebuild(&table);
        let rebuilt = objective.schedule.replayed;
        table.swap(0, 1);
        let moved = objective.apply_swap(&table, 0, 1);
        assert_eq!(moved, full_cost(&network, &workload, 1, &table));
        let replayed = objective.schedule.replayed;
        assert!(replayed > rebuilt, "the move was not replayed");
        table.swap(0, 1);
        assert_eq!(objective.apply_swap(&table, 0, 1), honest);
        assert_eq!(
            objective.schedule.replayed, replayed,
            "the undo replayed instead of restoring its saved state"
        );
        table.swap(12, 13);
        assert_eq!(
            objective.apply_swap(&table, 12, 13),
            full_cost(&network, &workload, 1, &table)
        );
        assert!(objective.schedule.replayed > replayed);
        let rebuilt = objective.rebuild(&table);
        assert_eq!(rebuilt, full_cost(&network, &workload, 1, &table));
    }

    #[test]
    fn undos_truncate_the_route_table_and_commits_compact_it() {
        // A move appends its new routes to the route table, and its undo
        // truncates the table back to its length before the move, so a walk
        // of rejected moves never grows it. Committed moves leave the spans
        // they replaced dead until the dead slots outnumber the live ones;
        // compacting keeps every live route.
        let (network, workload, mut table) = two_cluster_workload();
        let rounds = 2;
        let build = || {
            MakespanObjective::new(
                Network::new(network.grid().clone()),
                workload.clone(),
                rounds,
            )
            .unwrap()
        };
        let mut objective = build();
        let honest = objective.rebuild(&table);
        let stored = objective.routes.stored();
        assert_eq!(stored as u64, objective.route_hops);
        table.swap(0, 1);
        objective.apply_swap(&table, 0, 1);
        assert!(
            objective.routes.stored() > stored,
            "the move appended nothing"
        );
        table.swap(0, 1);
        assert_eq!(objective.apply_swap(&table, 0, 1), honest);
        assert_eq!(objective.routes.stored(), stored, "the undo kept slots");
        let mut rng = StdRng::seed_from_u64(41);
        let (mut compacted, mut last) = (false, (0, 1));
        for step in 0..200 {
            let before = objective.routes.stored();
            let (a, b) = (rng.gen_range(0u64..16), rng.gen_range(0u64..16));
            table.swap(a as usize, b as usize);
            let cost = objective.apply_swap(&table, a, b);
            assert_eq!(
                cost,
                full_cost(&network, &workload, rounds, &table),
                "step {step}"
            );
            // Only an undo truncates, and only a compaction shrinks the
            // table on any other move.
            if (a, b) != last && a != b {
                compacted |= objective.routes.stored() < before;
            }
            last = (a, b);
        }
        assert!(compacted, "200 committed moves never compacted the table");
        let mut fresh = build();
        fresh.rebuild(&table);
        for pair in 0..workload.pairs().len() {
            assert_eq!(
                objective.routes.route(pair),
                fresh.routes.route(pair),
                "pair {pair}"
            );
        }
    }

    /// Asserts that the committed schedule of `objective` — each slot's
    /// claims, the route and cycle logs, the deliveries and their prefix
    /// maxima, and the claim bits — is the one a fresh objective's `rebuild`
    /// of `table` commits.
    fn assert_committed_as_rebuilt(objective: &mut MakespanObjective, table: &[u64]) {
        let mut fresh = MakespanObjective::new(
            Network::new(objective.network.grid().clone()),
            objective.workload.clone(),
            objective.rounds,
        )
        .unwrap();
        fresh.rebuild(table);
        let committed = objective.schedule.snapshot();
        let rebuilt = fresh.schedule.snapshot();
        assert_eq!(
            committed.logs, rebuilt.logs,
            "logs, deliveries and prefix maxima"
        );
        assert_eq!(committed.claims, rebuilt.claims, "claims");
        for (slot, cycles) in committed.bits.iter().enumerate() {
            let mut expected: Vec<u64> = committed.claims[slot]
                .iter()
                .map(|&(_, cycle)| cycle.into())
                .collect();
            expected.sort_unstable();
            assert_eq!(cycles, &expected, "claim bits of slot {slot}");
        }
    }

    /// Makes the open move of `objective` final with a swap of two tasks
    /// outside the two-cluster workload, which re-routes nothing.
    fn commit_open_move(objective: &mut MakespanObjective, table: &mut [u64]) -> Cost {
        table.swap(5, 9);
        objective.apply_swap(table, 5, 9)
    }

    #[test]
    fn moves_replay_from_their_first_changed_message() {
        // Swapping tasks 12 and 13 re-routes the bottom ring's pairs 4, 5
        // and 7, so a replay starts at queue position 4 and walks the
        // re-routed messages of every round: pair 6 crosses no slot they
        // change, and the top ring's messages come before them or share no
        // slot with them. Starting one message late would skip the first
        // re-routed one.
        let (network, workload, start) = two_cluster_workload();
        for (rounds, walked) in [(1, 3), (2, 6)] {
            let mut objective = MakespanObjective::new(
                Network::new(network.grid().clone()),
                workload.clone(),
                rounds,
            )
            .unwrap();
            objective.rebuild(&start);
            let mut table = start.clone();
            let before = objective.schedule.replayed;
            table.swap(12, 13);
            let cost = objective.apply_swap(&table, 12, 13);
            assert_eq!(cost, full_cost(&network, &workload, rounds, &table));
            assert_eq!(
                objective.schedule.replayed - before,
                walked,
                "rounds {rounds}"
            );
            commit_open_move(&mut objective, &mut table);
            assert_committed_as_rebuilt(&mut objective, &table);
        }
    }

    #[test]
    fn replays_see_their_own_committed_claims_as_free() {
        // Swapping tasks 1 and 2 stretches pair (0, 1), the first queued
        // message, from 0 -> 1 to 0 -> 1 -> 2: its first hop is the one it
        // committed in cycle 1. The replay must see that claim — its own,
        // at position k — as free, or the message waits a cycle.
        let (network, workload, mut table) = two_cluster_workload();
        for rounds in [1, 2] {
            let mut objective = MakespanObjective::new(
                Network::new(network.grid().clone()),
                workload.clone(),
                rounds,
            )
            .unwrap();
            objective.rebuild(&table);
            table.swap(1, 2);
            let cost = objective.apply_swap(&table, 1, 2);
            assert_eq!(cost, full_cost(&network, &workload, rounds, &table));
            commit_open_move(&mut objective, &mut table);
            assert_committed_as_rebuilt(&mut objective, &table);
            table.swap(1, 2);
        }
    }

    #[test]
    fn replays_start_from_the_latest_delivery_before_the_first_changed_message() {
        // Pair (0, 15) crosses the 4×4 mesh and delivers last; moving task
        // 0 next to task 15 makes it a single hop, so the makespan falls
        // from 6 to 1. The replay starts at the pair's own position and
        // must not count its old delivery.
        let network = Network::new(Grid::mesh(shape(&[4, 4])));
        let workload = Workload::try_new(16, vec![(0, 15), (1, 2)]).unwrap();
        let mut table: Vec<u64> = (0..16).collect();
        let mut objective =
            MakespanObjective::new(Network::new(network.grid().clone()), workload.clone(), 1)
                .unwrap();
        assert_eq!(objective.rebuild(&table).primary, 6);
        table.swap(0, 14);
        let cost = objective.apply_swap(&table, 0, 14);
        assert_eq!(cost, full_cost(&network, &workload, 1, &table));
        assert_eq!(cost.primary, 1);
    }

    #[test]
    fn bounded_replays_stop_at_the_first_running_maximum_the_limit_rejects() {
        // On a line of 8 nodes, pair (0, 3) delivers in cycle 3 and pair
        // (5, 7) in cycle 2. Moving task 7 to node 6 re-routes the second
        // pair only, so its replay starts behind a committed delivery in
        // cycle 3. A limit that rejects makespans of 3 accepts the
        // slot-count bound of 1 but rejects that prefix maximum: the
        // replay stops before walking any message.
        let network = Network::new(Grid::line(8).unwrap());
        let workload = Workload::try_new(8, vec![(0, 3), (5, 7)]).unwrap();
        let start: Vec<u64> = (0..8).collect();
        let mut objective =
            MakespanObjective::new(Network::new(network.grid().clone()), workload.clone(), 1)
                .unwrap();
        let honest = objective.rebuild(&start);
        let below_three = |cost: Cost| cost.primary < 3;
        let mut table = start.clone();
        let before = objective.schedule.replayed;
        let cost = objective.apply_bounded(&mut table, &[(6, 7)], &below_three);
        assert!(objective.saved.bounded, "the replay must stop");
        assert_eq!(objective.schedule.replayed, before, "the replay walked");
        assert_eq!(cost, full_cost(&network, &workload, 1, &table));
        assert_eq!(
            objective.apply_disjoint_swaps(&mut table, &[(6, 7)]),
            honest
        );

        // Moving task 0 to node 2 re-routes the first pair, one hop now:
        // the replay walks it (running maximum 1), then keeps the second
        // pair's committed delivery (running maximum 2), which a limit
        // rejecting makespans of 2 stops at.
        let below_two = |cost: Cost| cost.primary < 2;
        let before = objective.schedule.replayed;
        let cost = objective.apply_bounded(&mut table, &[(0, 2)], &below_two);
        assert!(objective.saved.bounded, "the replay must stop");
        assert_eq!(objective.schedule.replayed - before, 1);
        assert_eq!(cost, full_cost(&network, &workload, 1, &table));
        assert_eq!(
            objective.apply_disjoint_swaps(&mut table, &[(0, 2)]),
            honest
        );
    }

    #[test]
    fn commits_rewrite_the_claims_from_the_first_changed_message() {
        // Every committed move must leave the schedule a rebuild commits:
        // the first changed message's old claims gone, every later one
        // rewritten. Swaps and reversal batches on the two clusters, some
        // undone, at one and two rounds.
        let (network, workload, start) = two_cluster_workload();
        for rounds in [1, 2] {
            let mut objective = MakespanObjective::new(
                Network::new(network.grid().clone()),
                workload.clone(),
                rounds,
            )
            .unwrap();
            objective.rebuild(&start);
            let mut table = start.clone();
            let steps = [(1, 2), (0, 13), (0, 13), (14, 15), (2, 3), (12, 3), (0, 1)];
            for (step, &(a, b)) in steps.iter().enumerate() {
                table.swap(a, b);
                let cost = objective.apply_swap(&table, a as u64, b as u64);
                assert_eq!(
                    cost,
                    full_cost(&network, &workload, rounds, &table),
                    "step {step}"
                );
                if step % 3 != 1 {
                    commit_open_move(&mut objective, &mut table);
                    assert_committed_as_rebuilt(&mut objective, &table);
                }
            }
        }
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
        // White-box proof that a move the slot-count bound settles walks no
        // message: the schedule counts every message a replay walks, so the
        // bounded move and its undo must leave the count where `rebuild`
        // did.
        let (network, workload, mut table) = two_cluster_workload();
        let mut objective =
            MakespanObjective::new(Network::new(network.grid().clone()), workload.clone(), 1)
                .unwrap();
        let honest = objective.rebuild(&table);
        let replayed = objective.schedule.replayed;
        // Trading task 0 into the bottom row lengthens the route of pair
        // (0, 1), so the greedy limit rejects the bound.
        let swaps = [(0u64, 12u64)];
        let bound = objective.apply_bounded(&mut table, &swaps, &reject_worse(honest));
        assert!(objective.saved.bounded, "the move must be bounded");
        assert!(bound > honest);
        assert_eq!(
            objective.schedule.replayed, replayed,
            "the bounded move replayed"
        );
        assert_eq!(objective.apply_disjoint_swaps(&mut table, &swaps), honest);
        assert_eq!(objective.schedule.replayed, replayed, "the undo replayed");
        assert_eq!(objective.rebuild(&table), honest);
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

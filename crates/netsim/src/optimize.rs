//! The simulated-makespan optimization objective, with delta-aware
//! re-evaluation.
//!
//! [`MakespanObjective`] plugs the store-and-forward simulator into the
//! [`embeddings::optim`] local-search engine: the cost of a placement table
//! is the makespan (cycles) of delivering a fixed workload with that table
//! as the task placement, with the total routed hop count as the
//! tie-breaker — exactly the numbers [`crate::sim::simulate`] reports.
//!
//! Earlier revisions re-simulated the whole workload from scratch on every
//! proposed move (route expansion, placement validation and a
//! hash-set-arbitrated cycle loop per swap), which capped the objective at
//! small step counts. This version makes makespan a first-class objective by
//! splitting an evaluation into its two halves and making the first one
//! incremental:
//!
//! * **routes** are cached per workload pair as `(next node, directed link
//!   slot)` hop lists. A swap of the images of tasks `a` and `b` re-routes
//!   *only the message pairs whose source or destination is one of the two
//!   moved tasks* (every simulated round injects the same pairs, so those
//!   pairs cover every touched round) — `O(degree × path length)` instead of
//!   re-expanding every route;
//! * **arbitration** is re-run only where a change can reach. Messages
//!   interact exclusively through shared directed link slots, so the cached
//!   routes partition into *contention components* (union–find over slots:
//!   each route chains its own slots together, shared slots merge routes).
//!   A re-routed pair dirties the slots of both its old and its new route;
//!   only the components containing a dirty slot replay arbitration —
//!   every other message keeps its cached delivery cycle, and the makespan
//!   is the maximum over the per-message cycle cache. The replay runs on
//!   flat, clock-stamped claim vectors indexed by directed link slot, with
//!   an order-preserving active list that drops delivered messages: no
//!   hashing, no allocation after warm-up. A swap that touches no workload
//!   pair (possible when the optimizer's guest has more nodes than the
//!   workload has tasks) skips re-arbitration entirely;
//! * **undo** costs neither half. A move puts the routes it replaces in a
//!   saved list, builds the new ones in spare buffers, and copies the
//!   per-message cycle cache before its replay. An immediate repeat of the
//!   same call — the optimizer's rejection path — swaps the routes, the
//!   cycle cache, the hop total and the cost back. Any other call, and
//!   `rebuild`, drop the saved state.
//!
//! Skipping clean components is exact, not approximate: a component with no
//! dirty slot contains only unchanged routes (a changed route's slots are
//! all dirty), shares no slot with any changed or replayed message, and all
//! messages inject at cycle 1 — so its schedule under full arbitration is
//! bit-identical to its cached one. The replayed components' active list
//! stays in ascending message-index order, replaying the exact priority
//! rule of [`crate::sim::simulate`] (message-index order, one message per
//! directed link per cycle, FIFO blocking) — `rebuild` recomputes
//! everything from scratch and is the differential anchor, and the netsim
//! tests plus the embeddings proptest wall check every incremental path
//! against [`crate::sim::simulate`] on random walks.

use embeddings::optim::{Cost, Objective};
use topology::routing::{for_each_hop, link_slot_of_hop};

use crate::network::Network;
use crate::traffic::Workload;

/// One cached hop: the node the message moves to and the directed-link claim
/// slot the move occupies for one cycle.
type Hop = (u64, u64);

/// Why a [`MakespanObjective`] could not be constructed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MakespanError {
    /// The schedule is too large: the arbitration scratch indexes messages
    /// (workload pairs × rounds) with `u32`, so an evaluation is capped at
    /// `u32::MAX` messages. A request-supplied workload or round count that
    /// blows past the cap is a typed error here rather than a silent index
    /// truncation (and a meaningless schedule) later.
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
    dims: Vec<usize>,
    /// Cached route of each workload pair under the current table (hop
    /// buffers are recycled through `spare`, keeping their capacity).
    routes: Vec<Vec<Hop>>,
    /// `task_pairs[t]` = indices of the workload pairs with source or
    /// destination task `t`.
    task_pairs: Vec<Vec<u32>>,
    /// Sum of cached route lengths (per round).
    route_hops: u64,
    /// Dedup stamps so a pair touching both swapped tasks re-routes once.
    pair_epoch: Vec<u64>,
    epoch: u64,
    /// Directed-link claim stamps: `stamp[slot] == clock` means the slot is
    /// taken in the current cycle. Never reset — the clock only grows.
    stamp: Vec<u64>,
    clock: u64,
    /// Arbitration scratch, reused across evaluations.
    position: Vec<u32>,
    active: Vec<u32>,
    next_active: Vec<u32>,
    affected: Vec<u32>,
    touched: Vec<u64>,
    /// Delivery cycle of each message (round-major index; 0 for empty
    /// routes). The makespan is the maximum; clean contention components
    /// keep their entries across incremental evaluations.
    msg_cycles: Vec<u64>,
    /// Union–find parents over directed slots, rebuilt per incremental
    /// evaluation to partition routes into contention components.
    slot_parent: Vec<u32>,
    /// `root_epoch[root] == epoch` marks a dirty component this evaluation.
    root_epoch: Vec<u64>,
    /// Old + new slots of every route changed since the last arbitration.
    dirty_slots: Vec<u64>,
    cost: Cost,
    /// What the last move replaced, kept until the next call shows whether
    /// that call is the move's undo.
    saved: Saved,
    /// Hop buffers of discarded routes, reused for new routes.
    spare: Vec<Vec<Hop>>,
}

/// The state a [`MakespanObjective`] move replaced, enough to undo the
/// move without routing, partitioning or arbitrating.
struct Saved {
    /// Whether the fields below describe a move that can still be undone.
    open: bool,
    /// The move's transpositions, as the call passed them.
    swaps: Vec<(u64, u64)>,
    /// The routes the move replaced, by pair index.
    routes: Vec<(u32, Vec<Hop>)>,
    /// The per-message cycle cache before the move's replay.
    msg_cycles: Vec<u64>,
    route_hops: u64,
    cost: Cost,
}

/// Union–find `find` with path halving, as a free function so it can borrow
/// the parent vector while other fields of the objective stay borrowed.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

/// Union–find merge of the components of `a` and `b`.
fn union(parent: &mut [u32], a: u32, b: u32) {
    let ra = find(parent, a);
    let rb = find(parent, b);
    if ra != rb {
        parent[rb as usize] = ra;
    }
}

impl MakespanObjective {
    /// Creates the objective: `workload` is delivered on `network` for
    /// `rounds` rounds per evaluation.
    ///
    /// # Errors
    ///
    /// [`MakespanError::ScheduleTooLarge`] when `pairs × rounds` exceeds the
    /// `u32` message index space of the arbitration scratch.
    pub fn new(network: Network, workload: Workload, rounds: usize) -> Result<Self, MakespanError> {
        let pairs = workload.pairs().len();
        if pairs as u128 * rounds.max(1) as u128 > u32::MAX as u128 {
            return Err(MakespanError::ScheduleTooLarge { pairs, rounds });
        }
        let mut task_pairs: Vec<Vec<u32>> = vec![Vec::new(); workload.tasks() as usize];
        for (index, &(src, dst)) in workload.pairs().iter().enumerate() {
            task_pairs[src as usize].push(index as u32);
            if dst != src {
                task_pairs[dst as usize].push(index as u32);
            }
        }
        let dims = (0..network.grid().dim()).collect();
        let stamp = vec![0; 2 * network.grid().link_count() as usize];
        Ok(MakespanObjective {
            network,
            workload,
            rounds,
            dims,
            routes: vec![Vec::new(); pairs],
            task_pairs,
            route_hops: 0,
            pair_epoch: vec![0; pairs],
            epoch: 0,
            stamp,
            clock: 0,
            position: Vec::new(),
            active: Vec::new(),
            next_active: Vec::new(),
            affected: Vec::new(),
            touched: Vec::new(),
            msg_cycles: Vec::new(),
            slot_parent: Vec::new(),
            root_epoch: Vec::new(),
            dirty_slots: Vec::new(),
            cost: Cost {
                primary: 0,
                secondary: 0,
            },
            saved: Saved {
                open: false,
                swaps: Vec::new(),
                routes: Vec::new(),
                msg_cycles: Vec::new(),
                route_hops: 0,
                cost: Cost {
                    primary: 0,
                    secondary: 0,
                },
            },
            spare: Vec::new(),
        })
    }

    /// Fills `route` with the hops of pair `pair` under `table`. Hops are
    /// stored with their directed claim slot (`2 × canonical link slot +
    /// direction bit`) so arbitration needs no coordinate math.
    fn expand_route(&self, pair: usize, table: &[u64], route: &mut Vec<Hop>) {
        let (src_task, dst_task) = self.workload.pairs()[pair];
        let from = table[src_task as usize];
        let to = table[dst_task as usize];
        let grid = self.network.grid();
        route.clear();
        let current = grid.coord(from).expect("placement node in range");
        let target = grid.coord(to).expect("placement node in range");
        for_each_hop(
            grid,
            &current,
            from,
            &target,
            &self.dims,
            |hop, before, after| {
                let link = link_slot_of_hop(grid, hop, before, after);
                let slot = 2 * link + u64::from(before < after);
                route.push((after, slot));
            },
        );
    }

    /// Replaces the cached route of pair `pair` with its route under
    /// `table`, built in a spare buffer, and keeps `route_hops` in sync. The
    /// replaced route goes to the saved state. Both routes' slots are
    /// appended to `dirty_slots`, marking every contention component this
    /// change can reach.
    fn route_pair(&mut self, pair: usize, table: &[u64]) {
        let mut route = self.spare.pop().unwrap_or_default();
        self.expand_route(pair, table, &mut route);
        let old = std::mem::replace(&mut self.routes[pair], route);
        let new = &self.routes[pair];
        self.route_hops = self.route_hops - old.len() as u64 + new.len() as u64;
        self.dirty_slots
            .extend(old.iter().chain(new).map(|&(_, slot)| slot));
        self.saved.routes.push((pair as u32, old));
    }

    /// Replays the arbitration of [`crate::sim::simulate`] over the
    /// messages currently in `active` (ascending message index — the
    /// priority order of the full simulator; indices are round-major,
    /// pair-minor, the order the full simulator builds its message list
    /// in): every active message injects at cycle 1, each directed link
    /// carries one message per cycle, blocked messages retry in place, and
    /// each delivery records its cycle in `msg_cycles`. Callers must reset
    /// `position` to 0 for every active message. Messages left out of
    /// `active` keep their cached delivery cycles — exact whenever they
    /// share no directed slot with any active message, because disjoint
    /// slots never contend and all messages inject at cycle 1.
    fn arbitrate_active(&mut self) {
        let pairs = self.routes.len();
        let mut cycle = 0u64;
        while !self.active.is_empty() {
            cycle += 1;
            self.clock += 1;
            self.next_active.clear();
            for &m in &self.active {
                let route = &self.routes[m as usize % pairs];
                let (_, slot) = route[self.position[m as usize] as usize];
                if self.stamp[slot as usize] != self.clock {
                    self.stamp[slot as usize] = self.clock;
                    self.position[m as usize] += 1;
                    if (self.position[m as usize] as usize) < route.len() {
                        self.next_active.push(m);
                    } else {
                        self.msg_cycles[m as usize] = cycle;
                    }
                } else {
                    self.next_active.push(m);
                }
            }
            std::mem::swap(&mut self.active, &mut self.next_active);
        }
    }

    /// Caches and returns the cost implied by the current `msg_cycles` and
    /// route lengths.
    fn finish_cost(&mut self) -> Cost {
        self.cost = Cost {
            primary: self.msg_cycles.iter().copied().max().unwrap_or(0),
            secondary: self.route_hops * self.rounds as u64,
        };
        self.cost
    }

    /// Recomputes the schedule from the cached routes, arbitrating every
    /// message from scratch — the differential anchor for the incremental
    /// path.
    fn evaluate_full(&mut self) -> Cost {
        let pairs = self.routes.len();
        let total = pairs * self.rounds;
        self.position.clear();
        self.position.resize(total, 0);
        self.msg_cycles.clear();
        self.msg_cycles.resize(total, 0);
        self.active.clear();
        for m in 0..total {
            if !self.routes[m % pairs].is_empty() {
                self.active.push(m as u32);
            }
        }
        self.arbitrate_active();
        self.finish_cost()
    }

    /// Re-arbitrates only the contention components reachable from
    /// `dirty_slots` (consumed here): union–find over the directed slots of
    /// the *current* routes partitions messages into slot-sharing
    /// components, and a component replays iff it contains a dirty slot.
    /// Every other message keeps its cached delivery cycle — see the module
    /// docs for why skipping clean components is bit-exact.
    fn evaluate_incremental(&mut self) -> Cost {
        let pairs = self.routes.len();
        let total = pairs * self.rounds;
        debug_assert_eq!(
            self.msg_cycles.len(),
            total,
            "rebuild must run before incremental evaluation"
        );

        // Partition: chain each route's slots together; shared slots merge
        // routes transitively.
        let slots = self.stamp.len();
        self.slot_parent.clear();
        self.slot_parent.extend(0..slots as u32);
        for route in &self.routes {
            let mut hops = route.iter();
            if let Some(&(_, first)) = hops.next() {
                for &(_, slot) in hops {
                    union(&mut self.slot_parent, first as u32, slot as u32);
                }
            }
        }

        // Mark the components holding any old or new slot of a changed
        // route. Dirty slots no current route uses root singleton
        // components with no messages — harmless. The `epoch` stamp was
        // bumped by `resync_touched`, so stale marks never match.
        self.root_epoch.resize(slots, 0);
        let mut dirty = std::mem::take(&mut self.dirty_slots);
        for &slot in &dirty {
            let root = find(&mut self.slot_parent, slot as u32);
            self.root_epoch[root as usize] = self.epoch;
        }
        dirty.clear();
        self.dirty_slots = dirty;

        // Replay exactly the messages of dirty components, in ascending
        // message-index order. A route's slots all share one component, so
        // its first slot's root classifies the whole message. Pairs with
        // empty routes have no slots and never contend; their cached cycle
        // is 0 and stays valid (a route is empty iff its pair is a
        // self-send, which no table change can alter).
        self.active.clear();
        for m in 0..total {
            let route = &self.routes[m % pairs];
            let Some(&(_, first)) = route.first() else {
                continue;
            };
            let root = find(&mut self.slot_parent, first as u32);
            if self.root_epoch[root as usize] == self.epoch {
                self.position[m] = 0;
                self.active.push(m as u32);
            }
        }
        self.arbitrate_active();
        self.finish_cost()
    }

    /// Drops the saved state of the last move, keeping its route buffers.
    fn forget(&mut self) {
        self.saved.open = false;
        self.spare
            .extend(self.saved.routes.drain(..).map(|(_, route)| route));
    }

    /// Undoes the last move from its saved state: swaps the replaced routes,
    /// the cycle cache, `route_hops` and the cost back in.
    fn restore(&mut self) -> Cost {
        let MakespanObjective {
            routes,
            spare,
            saved,
            ..
        } = self;
        for (pair, route) in saved.routes.drain(..) {
            spare.push(std::mem::replace(&mut routes[pair as usize], route));
        }
        std::mem::swap(&mut self.msg_cycles, &mut saved.msg_cycles);
        self.route_hops = saved.route_hops;
        self.cost = saved.cost;
        saved.open = false;
        self.cost
    }

    /// The shared delta path for the move `swaps`, already applied to
    /// `table`: answers the move's undo from the saved state; otherwise
    /// re-routes every workload pair touched by any task in `touched`
    /// (deduplicated), then re-arbitrates the reachable contention
    /// components once, saving what it replaces. Returns the cached cost
    /// untouched when no pair is affected.
    fn resync_touched(&mut self, table: &[u64], swaps: &[(u64, u64)], touched: &[u64]) -> Cost {
        if self.saved.open && self.saved.swaps == swaps {
            return self.restore();
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
        saved.msg_cycles.clone_from(&self.msg_cycles);
        for &pair in &affected {
            self.route_pair(pair as usize, table);
        }
        self.affected = affected;
        self.saved.open = true;
        self.evaluate_incremental()
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
        for pair in 0..self.routes.len() {
            let mut route = std::mem::take(&mut self.routes[pair]);
            self.expand_route(pair, table, &mut route);
            self.route_hops += route.len() as u64;
            self.routes[pair] = route;
        }
        self.evaluate_full()
    }

    fn apply_swap(&mut self, table: &[u64], a: u64, b: u64) -> Cost {
        let touched: &[u64] = if a == b { &[] } else { &[a, b] };
        self.resync_touched(table, &[(a, b)], touched)
    }

    fn apply_disjoint_swaps(&mut self, table: &mut [u64], swaps: &[(u64, u64)]) -> Cost {
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
        let cost = self.resync_touched(table, swaps, &touched);
        self.touched = touched;
        cost
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
    /// middle rows unused: their routes share no directed slots, so the
    /// contention partition always has (at least) two clean-able components.
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
        // The sparse case the contention-component replay exists for: most
        // swaps touch one cluster (or no cluster at all), so the other
        // cluster's cached cycles must carry over bit-exactly while its
        // component is skipped. Random swaps and reversal batches, checked
        // against a full re-simulation at every step.
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
    fn clean_components_are_skipped_not_replayed() {
        // White-box proof that the incremental path really skips clean
        // components instead of recomputing them: corrupt the cached
        // delivery cycle of a message in the *other* cluster, apply a swap
        // confined to the first cluster, and watch the corruption survive
        // into the reported cost. A full replay would wash it out — which
        // is exactly what the final rebuild then does.
        let (network, workload, mut table) = two_cluster_workload();
        let mut objective =
            MakespanObjective::new(Network::new(network.grid().clone()), workload.clone(), 1)
                .unwrap();
        let honest = objective.rebuild(&table);
        // Message 4 is pair (12, 13): routed entirely inside the bottom row.
        objective.msg_cycles[4] = 777;
        // Swap two top-row placements: dirty slots stay in the top row.
        table.swap(0, 1);
        let tainted = objective.apply_swap(&table, 0, 1);
        assert_eq!(
            tainted.primary, 777,
            "the bottom-row component was replayed, not skipped"
        );
        // A rebuild discards every cached cycle and restores the truth.
        let rebuilt = objective.rebuild(&table);
        assert_eq!(rebuilt, full_cost(&network, &workload, 1, &table));
        assert_eq!(rebuilt.secondary, honest.secondary, "same routed hops");
    }

    #[test]
    fn undo_restores_the_saved_schedule_instead_of_replaying() {
        // White-box proof that an undo swaps the saved state back instead
        // of routing and arbitrating again: corrupt the saved delivery
        // cycle of a message the move replayed and undo the move. The
        // corruption comes back with the restored cycle cache, and the next
        // move, confined to the other cluster, reports it. A replay would
        // recompute it — which is exactly what the final rebuild then does.
        let (network, workload, mut table) = two_cluster_workload();
        let mut objective =
            MakespanObjective::new(Network::new(network.grid().clone()), workload.clone(), 1)
                .unwrap();
        let honest = objective.rebuild(&table);
        // Swap two top-row placements: the top-row component replays.
        table.swap(0, 1);
        objective.apply_swap(&table, 0, 1);
        // Message 0 is pair (0, 1), routed inside the top row.
        objective.saved.msg_cycles[0] = 777;
        table.swap(0, 1);
        assert_eq!(objective.apply_swap(&table, 0, 1), honest);
        assert_eq!(
            objective.msg_cycles[0], 777,
            "the undo replayed the move instead of restoring its saved state"
        );
        // Swap two bottom-row placements: the top-row component is clean,
        // so the restored cycle carries over into the reported cost.
        table.swap(12, 13);
        assert_eq!(objective.apply_swap(&table, 12, 13).primary, 777);
        let rebuilt = objective.rebuild(&table);
        assert_eq!(rebuilt, full_cost(&network, &workload, 1, &table));
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

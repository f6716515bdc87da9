//! The contention engine: the one link-arbitration rule every simulator in
//! this crate runs.
//!
//! A route is the list of directed claim slots of its hops,
//! `2 × canonical link slot + direction bit`: the canonical slot is the
//! [`topology::Grid::link_index`] of the hop's undirected link, and the
//! direction bit is whether the hop moves to a higher node index. Two hops
//! claim the same slot exactly when they cross the same link from the same
//! node, so arbitration never needs the nodes a route visits.
//! [`push_dor_route`] expands a dimension-ordered route straight into
//! slots, walking the two endpoints' rows of the network's digit table;
//! [`push_path_route`] maps a fault-aware router's node path to the same
//! slots. Every caller keeps its routes in one [`RouteTable`]: one flat
//! list of slots, each route a span of it, so a run of any size costs a
//! handful of allocations, not one per message.
//!
//! The rule: every message injects at cycle 1, each directed link carries
//! one message per cycle, the message queued first wins a contested link,
//! and a blocked message retries in place. The run's cycle count, the cycle
//! of its last delivery, is the makespan: [`crate::sim::simulate`],
//! [`crate::chaos::simulate_chaos`] and
//! [`crate::optimize::MakespanObjective`] all hand their routes to this
//! module and read that count.
//!
//! Under that rule a message's schedule depends only on the messages queued
//! before it: a later message never takes a link from an earlier one. So
//! the engine walks messages one at a time, in queue order, with no list of
//! messages in flight. [`CycleSets`] keeps one bitset of cycles per directed
//! slot; a message's hop takes the first clear bit at or after the cycle it
//! arrives in — one bit scan, however long it waits — and sets it. That is
//! exactly the schedule the rule gives when played out cycle by cycle, at a
//! cost per hop, not per cycle a message waits. The rows widen with the
//! makespan.
//!
//! The same dependence lets [`Schedule`] keep a committed walk and replay
//! a change only from its first changed message `k`: every message before
//! `k` keeps its cycles, so the replay starts from their latest delivery.
//! From `k` on, a message that was not re-routed and crosses no slot whose
//! claims the change has altered sees what it saw when committed, so it
//! keeps its cycles without a walk. The replay walks the others, and a
//! walked message sees a committed claim on an unaltered slot as free
//! exactly when its claimant sits at or after its own position. The running
//! maximum of deliveries only grows as the replay goes on, so every value
//! it takes is a makespan no schedule of the changed routes can beat, and a
//! replay under a limit can stop at the first one the limit rejects.

use std::ops::Range;

use topology::routing::link_slot_of_hop;
use topology::Grid;

use crate::chaos::faults::link_slot_between;
use crate::network::Network;

/// The directed claim slot of the hop `before → after` across the link with
/// canonical slot `link`.
fn claim_slot(link: u64, before: u64, after: u64) -> u32 {
    u32::try_from(2 * link + u64::from(before < after))
        .expect("directed link slots fit in u32: the cycle bitsets would need 32 GiB first")
}

/// Appends the claim slots of the dimension-ordered route from `from` to
/// `to` on `network` — the route [`Network::route_into`] expands as nodes —
/// to `out`.
pub(crate) fn push_dor_route(network: &Network, from: u64, to: u64, out: &mut Vec<u32>) {
    let table = network.table();
    let grid = table.grid();
    table.for_each_hop(from, to, |hop, before, after| {
        out.push(claim_slot(
            link_slot_of_hop(grid, hop, before, after),
            before,
            after,
        ))
    });
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

/// The number of directed claim slots of `grid`.
pub(crate) fn slots(grid: &Grid) -> usize {
    usize::try_from(2 * grid.link_count()).expect("directed link slots fit in memory")
}

/// Where a route's slots sit in a [`RouteTable`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// The route's hop count.
    pub(crate) fn len(self) -> usize {
        self.len as usize
    }

    fn range(self) -> Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// Routes as spans of one flat list of directed claim slots: route `r` is
/// the span `spans[r]` of `slots`. Slots are only ever appended, so a
/// table holding any number of routes grows like one `Vec`. A caller that
/// re-routes appends the new route and points the route at it, which
/// leaves the old span dead: an undo points the route back and truncates
/// the slots to their length before the move, and [`RouteTable::compact`]
/// drops the dead spans.
#[derive(Debug, Default)]
pub(crate) struct RouteTable {
    slots: Vec<u32>,
    spans: Vec<Span>,
}

impl RouteTable {
    /// An empty table with room for the spans of `routes` routes.
    pub(crate) fn with_routes(routes: usize) -> Self {
        RouteTable {
            slots: Vec::new(),
            spans: Vec::with_capacity(routes),
        }
    }

    /// Drops every route, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.spans.clear();
    }

    /// Appends the slots `fill` pushes and returns their span, which no
    /// route points at yet.
    pub(crate) fn append(&mut self, fill: impl FnOnce(&mut Vec<u32>)) -> Span {
        let start = self.slots.len();
        fill(&mut self.slots);
        let fits = |n: usize| u32::try_from(n).expect("route hops fit in u32");
        Span {
            start: fits(start),
            len: fits(self.slots.len() - start),
        }
    }

    /// Appends the slots `fill` pushes as the next route.
    pub(crate) fn push(&mut self, fill: impl FnOnce(&mut Vec<u32>)) {
        let span = self.append(fill);
        self.spans.push(span);
    }

    /// Points route `r` at `span` and returns the span it pointed at.
    pub(crate) fn replace(&mut self, r: usize, span: Span) -> Span {
        std::mem::replace(&mut self.spans[r], span)
    }

    /// The number of routes.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// The slots of route `r`.
    pub(crate) fn route(&self, r: usize) -> &[u32] {
        self.at(self.spans[r])
    }

    /// The slots `span` covers.
    pub(crate) fn at(&self, span: Span) -> &[u32] {
        &self.slots[span.range()]
    }

    /// Every route's slots, in route order.
    pub(crate) fn routes(&self) -> impl Iterator<Item = &[u32]> {
        self.spans.iter().map(|&span| self.at(span))
    }

    /// The slots stored, live and dead.
    pub(crate) fn stored(&self) -> usize {
        self.slots.len()
    }

    /// Drops every slot appended since the table stored `stored`; no route
    /// may point past it.
    pub(crate) fn truncate(&mut self, stored: usize) {
        self.slots.truncate(stored);
    }

    /// Lays the routes out again, back to back in route order, dropping
    /// every dead span.
    pub(crate) fn compact(&mut self) {
        let mut slots = Vec::with_capacity(self.slots.capacity());
        for span in &mut self.spans {
            let start = slots.len();
            slots.extend_from_slice(&self.slots[span.range()]);
            span.start = u32::try_from(start).expect("route hops fit in u32");
        }
        self.slots = slots;
    }
}

/// One bitset of cycles per directed slot: bit `c` of a slot's row is set
/// when a message holds the slot in cycle `c` (cycle 0 is never claimed).
/// Rows are `width` words, slot-major, and all widen together when a claim
/// runs past the last word, so the width follows the makespan:
/// `slots × ⌈(makespan + 1) / 64⌉` words, rounded up to a power of two.
#[derive(Clone, Debug)]
pub(crate) struct CycleSets {
    width: usize,
    bits: Vec<u64>,
}

impl CycleSets {
    /// Empty rows, one word wide, for `slots` slots.
    pub(crate) fn new(slots: usize) -> Self {
        CycleSets {
            width: 1,
            bits: vec![0; slots],
        }
    }

    /// The row of `slot`.
    pub(crate) fn row(&self, slot: usize) -> &[u64] {
        &self.bits[slot * self.width..][..self.width]
    }

    /// The row of `slot`, mutably.
    pub(crate) fn row_mut(&mut self, slot: usize) -> &mut [u64] {
        &mut self.bits[slot * self.width..][..self.width]
    }

    /// Empties every row and sets the width to `width` words, keeping the
    /// allocation.
    pub(crate) fn reset(&mut self, slots: usize, width: usize) {
        self.width = width;
        self.bits.clear();
        self.bits.resize(slots * width, 0);
    }

    /// Widens every row to at least `width` words, keeping its bits. Rows
    /// move in place, last first, so no row overwrites one not yet moved.
    pub(crate) fn widen(&mut self, width: usize) {
        let narrow = self.width;
        if width <= narrow {
            return;
        }
        let slots = self.bits.len() / narrow;
        self.bits.resize(slots * width, 0);
        for slot in (0..slots).rev() {
            let row = slot * width;
            self.bits
                .copy_within(slot * narrow..(slot + 1) * narrow, row);
            self.bits[row + narrow..row + width].fill(0);
        }
        self.width = width;
    }

    /// The width a claim from cycle `from` may need: double the current
    /// one, and enough to hold `from` itself.
    fn wider(&self, from: u64) -> usize {
        (2 * self.width)
            .max(from as usize / 64 + 1)
            .next_power_of_two()
    }

    /// Sets the first clear bit at or after cycle `from` in `slot`'s row
    /// and returns its cycle, or `None` when the row has no such bit.
    #[inline]
    fn take_first_clear(&mut self, slot: usize, from: u64) -> Option<u64> {
        let row = &mut self.bits[slot * self.width..][..self.width];
        let mut word = (from / 64) as usize;
        let mut clear = !*row.get(word)? & (!0u64 << (from % 64));
        loop {
            if clear != 0 {
                let bit = clear.trailing_zeros();
                row[word] |= 1 << bit;
                return Some(word as u64 * 64 + u64::from(bit));
            }
            word += 1;
            clear = !*row.get(word)?;
        }
    }

    /// Claims `slot` in the first cycle at or after `from` that no earlier
    /// message holds, widening the rows if needed, and returns that cycle.
    #[inline]
    pub(crate) fn claim(&mut self, slot: usize, from: u64) -> u64 {
        loop {
            if let Some(cycle) = self.take_first_clear(slot, from) {
                return cycle;
            }
            self.widen(self.wider(from));
        }
    }

    /// Sets bit `cycle` of `slot`'s row; the row must be wide enough.
    pub(crate) fn set(&mut self, slot: usize, cycle: u64) {
        self.row_mut(slot)[(cycle / 64) as usize] |= 1 << (cycle % 64);
    }

    /// Clears bit `cycle` of `slot`'s row; the row must be wide enough.
    pub(crate) fn unset(&mut self, slot: usize, cycle: u64) {
        self.row_mut(slot)[(cycle / 64) as usize] &= !(1 << (cycle % 64));
    }

    /// Walks one message along `route` behind every message already
    /// claimed: each hop claims its slot in the first free cycle after the
    /// previous hop's, from cycle 1, and is reported to `claimed` as
    /// `(slot, cycle)`. Returns the delivery cycle (0 for an empty route).
    #[inline]
    pub(crate) fn walk(&mut self, route: &[u32], mut claimed: impl FnMut(u32, u64)) -> u64 {
        route.iter().fold(0, |cycle, &slot| {
            let cycle = self.claim(slot as usize, cycle + 1);
            claimed(slot, cycle);
            cycle
        })
    }
}

/// The cycles needed to deliver `rounds` rounds of one message along each
/// route of `routes` on a network over `grid` — the makespan both
/// simulators report. Messages queue round-major, route-minor; an empty
/// route delivers at cycle 0 and claims nothing.
pub(crate) fn cycles_to_deliver(grid: &Grid, routes: &RouteTable, rounds: usize) -> u64 {
    let mut sets = CycleSets::new(slots(grid));
    let mut makespan = 0;
    for _ in 0..rounds {
        for route in routes.routes() {
            makespan = makespan.max(sets.walk(route, |_, _| {}));
        }
    }
    makespan
}

/// A committed schedule as tests compare it: each slot's claims; the route
/// and cycle logs, the deliveries and `reach`; and each slot's claimed
/// cycles as the bitsets hold them.
#[cfg(test)]
pub(crate) struct Snapshot {
    pub(crate) claims: Vec<Vec<(u32, u32)>>,
    pub(crate) logs: Vec<Vec<u32>>,
    pub(crate) bits: Vec<Vec<u64>>,
}

/// How a [`Schedule::replay`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Replay {
    /// The replay went through the whole queue: the makespan.
    Exact(u64),
    /// The limit rejected this running maximum, a makespan no schedule of
    /// the replayed routes can beat; the replay went no further.
    Stopped(u64),
}

/// A committed message-order schedule that a change replays only from its
/// first changed message.
///
/// Queue position `p` is round `p / queued` and queue index `p % queued`.
/// The committed schedule keeps the cycle bitsets of every claim, each
/// slot's claims as `(queue position, cycle)` in queue order, the route of
/// every queue index and the cycles of every position's hops, both laid
/// out in queue order, each position's delivery, and `reach`, the latest
/// delivery before each position.
///
/// Because a message's schedule depends only on the messages queued before
/// it, a change whose first changed message sits at position `k` leaves
/// every message before `k` as committed, and [`Schedule::replay`] starts
/// at `k`, from `reach[k]`. A slot turns *dirty* once the replay's claims
/// on it differ from the committed ones, and every later message whose
/// committed route crosses it is queued to be walked, as is every
/// re-routed message. Any other message sees exactly what it saw when
/// committed, so it keeps its cycles and its delivery, and the replay only
/// takes the maximum of the deliveries between two walked messages. A
/// walked message claims, at each hop, the first free cycle at or after its
/// arrival: a dirty slot's row holds every claim the replay has made there,
/// and a clean slot's row is its committed row at the message's position,
/// where a committed claim is free exactly when its claimant sits at or
/// after that position. A re-routed message first turns the slots of its
/// old route dirty, from its own position. The running maximum only grows,
/// so under a limit the replay stops at the first one the limit rejects.
/// Dropping a replay costs nothing; [`Schedule::commit`] rewrites the
/// walked messages' claims.
///
/// The claims form one table over slots, in compressed sparse rows: slot
/// `s` holds its claims in `claims[claim_at[s]..]`, `claim_len[s]` of them,
/// with room up to `claim_at[s + 1]`. Only replays and commits read it, so
/// `rebuild` leaves it stale and the first replay after it fills it from
/// the logs: it counts each slot's claims and lays the rows out back to
/// back, with no room. A schedule that is never replayed, such as a fresh
/// objective's check of a walk's result, never touches it. A commit that
/// outgrows a row lays every row out again, with room. Every buffer, the
/// two cycle bitsets included, keeps its allocation across rebuilds.
///
/// State: the two cycle bitsets (`slots × width` words each) and one entry
/// per committed claim, per walked hop, per route hop and per queue
/// position — within `O(rounds × total hops + slots × makespan / 64)`
/// words.
pub(crate) struct Schedule {
    /// The bits of every committed claim.
    committed: CycleSets,
    /// Each slot's committed claims, `(queue position, cycle)`, in queue
    /// order, as rows of one table.
    claims: Vec<(u32, u32)>,
    claim_at: Vec<u32>,
    claim_len: Vec<u32>,
    /// Whether the claim table holds the committed claims: `rebuild`
    /// leaves it stale, and the first replay after it fills it.
    claimed: bool,
    /// The committed route of queue index `q` is
    /// `route_log[route_start[q]..route_start[q + 1]]`.
    route_log: Vec<u32>,
    route_start: Vec<u32>,
    /// The committed cycle of every hop of every position, in queue order:
    /// position `p` starts at `(p / queued) × hops + route_start[p % queued]`,
    /// with `hops` the hops of one round.
    cycle_log: Vec<u32>,
    /// The committed delivery of every position.
    delivery: Vec<u32>,
    /// `reach[p]`: the latest committed delivery among the positions before
    /// `p`, so `reach[messages]` is the committed makespan.
    reach: Vec<u32>,
    /// The replay's rows, as wide as `committed`; a slot's row holds the
    /// replay's claims while `dirty[slot] == replay`.
    work: CycleSets,
    dirty: Vec<u64>,
    /// `moved[q] == replay`: queue index `q` was re-routed by the change.
    moved: Vec<u64>,
    /// One bit per queue position: the positions the replay must walk.
    pending: Vec<u64>,
    replay: u64,
    /// The walked positions, each with where its cycles start in `cycles`.
    walked: Vec<(u32, u32)>,
    cycles: Vec<u32>,
    /// Scratch for the rewritten tail of `cycle_log`.
    tail: Vec<u32>,
    /// The positions every replay so far has walked.
    #[cfg(test)]
    pub(crate) replayed: u64,
}

impl Schedule {
    /// An empty schedule over `slots` directed slots for a queue of at most
    /// `queue` routes, with no message.
    pub(crate) fn new(slots: usize, queue: usize) -> Self {
        Schedule {
            committed: CycleSets::new(slots),
            claims: Vec::new(),
            claim_at: vec![0; slots + 1],
            claim_len: vec![0; slots],
            claimed: false,
            route_log: Vec::new(),
            route_start: vec![0],
            cycle_log: Vec::new(),
            delivery: Vec::new(),
            reach: vec![0],
            work: CycleSets::new(slots),
            dirty: vec![0; slots],
            moved: vec![0; queue],
            pending: Vec::new(),
            replay: 0,
            walked: Vec::new(),
            cycles: Vec::new(),
            tail: Vec::new(),
            #[cfg(test)]
            replayed: 0,
        }
    }

    /// Commits the walk of every message: `rounds` rounds of the routes
    /// `queued` picks from `routes`, in queue order, on empty rows. The
    /// claim table stays stale until the next replay fills it.
    pub(crate) fn rebuild(&mut self, routes: &RouteTable, queued: &[u32], rounds: usize) {
        let slots = self.claim_len.len();
        let rounds = if queued.is_empty() { 0 } else { rounds };
        self.route_log.clear();
        self.route_log.reserve(routes.stored());
        self.route_start.truncate(1);
        self.route_start.reserve(queued.len());
        for &route in queued {
            self.route_log
                .extend_from_slice(routes.route(route as usize));
            let end = u32::try_from(self.route_log.len()).expect("route hops fit in u32");
            self.route_start.push(end);
        }
        self.claimed = false;
        let messages = queued.len() * rounds;
        self.cycle_log.clear();
        self.cycle_log.reserve(self.route_log.len() * rounds);
        self.delivery.clear();
        self.delivery.reserve(messages);
        self.reach.truncate(1);
        self.reach.reserve(messages);
        self.pending.resize(messages.div_ceil(64), 0);
        self.committed.reset(slots, 1);
        let Schedule {
            committed,
            route_log,
            route_start,
            cycle_log,
            delivery,
            reach,
            ..
        } = self;
        for _ in 0..rounds {
            for ends in route_start.windows(2) {
                let route = &route_log[ends[0] as usize..ends[1] as usize];
                let delivered = committed.walk(route, |_, cycle| {
                    cycle_log.push(u32::try_from(cycle).expect("makespans fit in u32"));
                });
                let delivered = u32::try_from(delivered).expect("makespans fit in u32");
                delivery.push(delivered);
                let latest = *reach.last().expect("one entry at least");
                reach.push(latest.max(delivered));
            }
        }
        self.work.reset(slots, self.committed.width);
    }

    /// Fills the claim table from the committed logs: counts each slot's
    /// claims, lays the rows out back to back with no room to spare, and
    /// writes every position's claims in queue order.
    fn claim_all(&mut self) {
        let slots = self.claim_len.len();
        let queue = self.route_start.len() - 1;
        let messages = self.delivery.len();
        let rounds = messages.checked_div(queue).unwrap_or(0);
        // Every round claims each slot once per queued hop across it.
        self.claim_len.fill(0);
        for &slot in &self.route_log {
            self.claim_len[slot as usize] += 1;
        }
        let mut at = 0u32;
        for (start, len) in self.claim_at.iter_mut().zip(&mut self.claim_len) {
            *start = at;
            at = (*len as usize * rounds)
                .try_into()
                .ok()
                .and_then(|claims| at.checked_add(claims))
                .expect("claims fit in u32");
            *len = 0;
        }
        self.claim_at[slots] = at;
        self.claims.clear();
        self.claims.resize(at as usize, (0, 0));
        // `cycle_log` holds the positions' cycles back to back, in queue
        // order.
        let mut cycles = self.cycle_log.iter();
        for position in 0..messages {
            let claimant = u32::try_from(position).expect("positions fit in u32");
            let q = position % queue;
            let route = self.route_start[q] as usize..self.route_start[q + 1] as usize;
            for (&slot, &cycle) in self.route_log[route].iter().zip(&mut cycles) {
                let slot = slot as usize;
                let at = (self.claim_at[slot] + self.claim_len[slot]) as usize;
                self.claims[at] = (claimant, cycle);
                self.claim_len[slot] += 1;
            }
        }
        self.claimed = true;
    }

    /// Removes the committed claim of position `position` from `slot`.
    fn unclaim(&mut self, slot: usize, position: u32) {
        let row = &mut self.claims[self.claim_at[slot] as usize..][..self.claim_len[slot] as usize];
        let at = row.partition_point(|&(claimant, _)| claimant < position);
        row.copy_within(at + 1.., at);
        self.claim_len[slot] -= 1;
    }

    /// Adds the claim of position `position` on `slot` in cycle `cycle`,
    /// laying the rows out again first when the slot's row is full.
    fn claim(&mut self, slot: usize, position: u32, cycle: u32) {
        if self.claim_at[slot] + self.claim_len[slot] == self.claim_at[slot + 1] {
            self.make_room();
        }
        let len = self.claim_len[slot] as usize;
        let row = &mut self.claims[self.claim_at[slot] as usize..][..len + 1];
        let at = row[..len].partition_point(|&(claimant, _)| claimant <= position);
        row.copy_within(at..len, at + 1);
        row[at] = (position, cycle);
        self.claim_len[slot] += 1;
    }

    /// Lays every row out again, in slot order with its claims, each with
    /// room for at least as many again and two more. No row's room
    /// shrinks, so every row moves toward the end, and the rows move last
    /// first, in place: none overwrites a row not yet moved.
    fn make_room(&mut self) {
        let slots = self.claim_len.len();
        let room = |len: u32, old: u32| (2 * len as usize + 2).max(old as usize);
        let at = &self.claim_at;
        let total = (0..slots)
            .map(|slot| room(self.claim_len[slot], at[slot + 1] - at[slot]))
            .sum();
        self.claims.resize(total, (0, 0));
        let (mut end, mut old_end) = (total, self.claim_at[slots]);
        for slot in (0..slots).rev() {
            let (old_start, len) = (self.claim_at[slot], self.claim_len[slot]);
            let start = end - room(len, old_end - old_start);
            let old = old_start as usize..(old_start + len) as usize;
            self.claims.copy_within(old, start);
            self.claim_at[slot + 1] = u32::try_from(end).expect("claims fit in u32");
            (end, old_end) = (start, old_start);
        }
        self.claim_at[0] = 0;
    }

    /// Replays positions `k..` over `routes`, queued as `queued` round
    /// after round, on top of the committed positions before `k`; `moved`
    /// yields the queue indices the change re-routed. With `accepts`, the
    /// replay stops at the first running maximum it rejects — the running
    /// maximum only grows, so it is a makespan no schedule of these routes
    /// can beat.
    pub(crate) fn replay(
        &mut self,
        routes: &RouteTable,
        queued: &[u32],
        k: usize,
        moved: impl IntoIterator<Item = usize>,
        accepts: Option<&dyn Fn(u64) -> bool>,
    ) -> Replay {
        if !self.claimed {
            self.claim_all();
        }
        self.replay += 1;
        self.pending.fill(0);
        self.walked.clear();
        self.cycles.clear();
        let messages = self.delivery.len();
        let queue = queued.len();
        for q in moved {
            self.moved[q] = self.replay;
            for position in (q..messages).step_by(queue) {
                self.pend(position);
            }
        }
        let mut reach = u64::from(self.reach[k]);
        // The limit has accepted every makespan below `unchecked`.
        let mut unchecked = reach;
        let mut stops = |reach: u64| {
            if reach >= unchecked {
                if accepts.is_some_and(|accepts| !accepts(reach)) {
                    return true;
                }
                unchecked = reach + 1;
            }
            false
        };
        let mut next = k;
        loop {
            if stops(reach) {
                return Replay::Stopped(reach);
            }
            let Some(position) = self.next_pending(next) else {
                break;
            };
            // The messages in between keep their committed deliveries.
            let kept = self.delivery[next..position].iter().max();
            reach = reach.max(kept.map_or(0, |&cycle| u64::from(cycle)));
            if stops(reach) {
                return Replay::Stopped(reach);
            }
            reach = reach.max(self.walk(routes, queued, position));
            next = position + 1;
        }
        let kept = self.delivery[next..].iter().max();
        reach = reach.max(kept.map_or(0, |&cycle| u64::from(cycle)));
        if stops(reach) {
            return Replay::Stopped(reach);
        }
        Replay::Exact(reach)
    }

    /// Where the committed route of position `position` sits in
    /// `route_log`, and where its committed cycles sit in `cycle_log`, for
    /// a queue of `queue` routes.
    fn logged(&self, position: usize, queue: usize) -> (Range<usize>, Range<usize>) {
        let q = position % queue;
        let route = self.route_start[q] as usize..self.route_start[q + 1] as usize;
        let hops = *self.route_start.last().expect("one offset at least") as usize;
        let round = position / queue * hops;
        (route.clone(), round + route.start..round + route.end)
    }

    /// Queues `position` to be walked.
    fn pend(&mut self, position: usize) {
        self.pending[position / 64] |= 1 << (position % 64);
    }

    /// The first position at or after `from` queued to be walked.
    fn next_pending(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = *self.pending.get(word)? & (!0u64 << (from % 64));
        while bits == 0 {
            word += 1;
            bits = *self.pending.get(word)?;
        }
        Some(word * 64 + bits.trailing_zeros() as usize)
    }

    /// Marks `slot` dirty from `position` on: every later position whose
    /// committed route crosses it is walked.
    fn soil(&mut self, slot: usize, position: usize) {
        self.dirty[slot] = self.replay;
        let start = self.claim_at[slot] as usize;
        for index in (start..start + self.claim_len[slot] as usize).rev() {
            let claimant = self.claims[index].0 as usize;
            if claimant < position {
                break;
            }
            self.pend(claimant);
        }
    }

    /// Fills the replay's row of `slot` with its committed claims before
    /// position `cut`: what every message before `cut` claimed there while
    /// the slot is clean.
    #[inline]
    fn open(&mut self, slot: usize, cut: usize) {
        let row = self.work.row_mut(slot);
        row.copy_from_slice(self.committed.row(slot));
        let claims = &self.claims[self.claim_at[slot] as usize..][..self.claim_len[slot] as usize];
        for &(claimant, cycle) in claims.iter().rev() {
            if (claimant as usize) < cut {
                break;
            }
            row[(cycle / 64) as usize] &= !(1 << (cycle % 64));
        }
    }

    /// Walks the message at `position` over the replay's rows, recording
    /// its cycles and soiling every slot where it leaves its committed
    /// claim, and returns its delivery.
    fn walk(&mut self, routes: &RouteTable, queued: &[u32], position: usize) -> u64 {
        #[cfg(test)]
        {
            self.replayed += 1;
        }
        let queue = queued.len();
        let q = position % queue;
        let moved = self.moved[q] == self.replay;
        let route = routes.route(queued[q] as usize);
        let (old_route, old_cycles) = self.logged(position, queue);
        if moved {
            // The message's committed claims vanish from its old slots,
            // which every later position sees.
            for hop in old_route {
                let slot = self.route_log[hop] as usize;
                if self.dirty[slot] != self.replay {
                    self.open(slot, position);
                    self.soil(slot, position + 1);
                }
            }
        }
        self.walked
            .push((position as u32, self.cycles.len() as u32));
        let mut cycle = 0;
        for (hop, &slot) in route.iter().enumerate() {
            let slot = slot as usize;
            let clean = self.dirty[slot] != self.replay;
            if clean {
                self.open(slot, position);
            }
            cycle = self.work.claim(slot, cycle + 1);
            // Rows open from committed rows of the same width.
            self.committed.widen(self.work.width);
            let taken = u32::try_from(cycle).expect("makespans fit in u32");
            self.cycles.push(taken);
            if clean && (moved || self.cycle_log[old_cycles.start + hop] != taken) {
                self.soil(slot, position + 1);
            }
        }
        cycle
    }

    /// Makes the last replay, which must have been exact, the committed
    /// schedule: rewrites the claims of the walked positions, the logs from
    /// position `k` on, and the deliveries and `reach` from `k` on.
    pub(crate) fn commit(&mut self, routes: &RouteTable, queued: &[u32], k: usize) {
        let messages = self.delivery.len();
        if k == messages {
            return;
        }
        let queue = queued.len();
        // A walked message that kept its route and its cycles keeps its
        // claims.
        let mut walked = std::mem::take(&mut self.walked);
        walked.retain(|&(position, start)| {
            let (_, old) = self.logged(position as usize, queue);
            self.moved[position as usize % queue] == self.replay
                || self.cycle_log[old.clone()] != self.cycles[start as usize..][..old.len()]
        });
        self.walked = walked;
        // Every walked claim leaves before any enters: two walked messages
        // may trade cycles on a slot.
        for index in 0..self.walked.len() {
            let position = self.walked[index].0;
            let (route, cycles) = self.logged(position as usize, queue);
            for (hop, at) in route.zip(cycles) {
                let (slot, cycle) = (self.route_log[hop] as usize, self.cycle_log[at]);
                self.unclaim(slot, position);
                self.committed.unset(slot, u64::from(cycle));
            }
        }
        for index in 0..self.walked.len() {
            let (position, start) = self.walked[index];
            let route = routes.route(queued[position as usize % queue] as usize);
            let cycles = start as usize..start as usize + route.len();
            self.delivery[position as usize] = self.cycles[cycles.clone()].last().map_or(0, |&c| c);
            for (&slot, at) in route.iter().zip(cycles) {
                let cycle = self.cycles[at];
                self.claim(slot as usize, position, cycle);
                self.committed.set(slot as usize, u64::from(cycle));
            }
        }
        // The logs from `k` on, merging the walked positions' new cycles
        // into the kept ones; re-routed queue indices change their length.
        self.tail.clear();
        let mut walked = self.walked.iter().peekable();
        for position in k..messages {
            match walked.next_if(|&&(walked, _)| walked as usize == position) {
                Some(&(_, start)) => {
                    let length = routes.route(queued[position % queue] as usize).len();
                    self.tail
                        .extend_from_slice(&self.cycles[start as usize..][..length]);
                }
                None => {
                    let (_, old) = self.logged(position, queue);
                    self.tail.extend_from_slice(&self.cycle_log[old]);
                }
            }
        }
        self.cycle_log.truncate(self.route_start[k] as usize);
        self.cycle_log.extend_from_slice(&self.tail);
        self.route_log.truncate(self.route_start[k] as usize);
        self.route_start.truncate(k + 1);
        for &route in &queued[k..] {
            self.route_log
                .extend_from_slice(routes.route(route as usize));
            let end = u32::try_from(self.route_log.len()).expect("route hops fit in u32");
            self.route_start.push(end);
        }
        for position in k..messages {
            self.reach[position + 1] = self.reach[position].max(self.delivery[position]);
        }
    }

    /// The committed makespan.
    pub(crate) fn makespan(&self) -> u64 {
        u64::from(*self.reach.last().expect("one entry at least"))
    }

    /// The committed schedule, for comparison with another's.
    #[cfg(test)]
    pub(crate) fn snapshot(&mut self) -> Snapshot {
        if !self.claimed {
            self.claim_all();
        }
        let slots = 0..self.claim_len.len();
        let bits = slots
            .clone()
            .map(|slot| {
                let row = self.committed.row(slot);
                (0..row.len() as u64 * 64)
                    .filter(|&cycle| row[(cycle / 64) as usize] >> (cycle % 64) & 1 == 1)
                    .collect()
            })
            .collect();
        Snapshot {
            claims: slots
                .map(|slot| {
                    self.claims[self.claim_at[slot] as usize..][..self.claim_len[slot] as usize]
                        .to_vec()
                })
                .collect(),
            logs: vec![
                self.route_log.clone(),
                self.route_start.clone(),
                self.cycle_log.clone(),
                self.delivery.clone(),
                self.reach.clone(),
            ],
            bits,
        }
    }
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

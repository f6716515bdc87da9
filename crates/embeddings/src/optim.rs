//! Local-search refinement of embeddings: seeded simulated annealing over
//! placement tables under pluggable, incrementally-evaluated objectives.
//!
//! The paper's constructions carry worst-case dilation guarantees, but a
//! measured objective — the congestion of the busiest link, the average
//! dilation, the weighted wirelength, or a simulated makespan — often leaves
//! headroom below the analytic bound. This module closes that gap the way
//! wirelength-minimizing embedders do: start from any [`Embedding`]
//! (paper-constructive or random), materialize its placement table, and
//! refine the table with permutation moves.
//!
//! Three objectives ship with the repo — see the "Objective catalog" section
//! of ARCHITECTURE.md for the state/delta-cost/invariant summary of each:
//!
//! | objective | primary cost | tie-breaker |
//! |---|---|---|
//! | [`CongestionObjective`] | max link congestion (DOR) | total routed path length |
//! | [`WirelengthObjective`] | **weighted** total route length | max per-edge distance |
//! | `netsim::optimize::MakespanObjective` | simulated makespan | total routed path length |
//!
//! The unit-weight wirelength objective doubles as the annealing target for
//! Tang's exact hypercube → torus minimum-wirelength bound
//! ([`crate::lower_bound::wirelength_lower_bound`]), the repo's first
//! cross-paper result (EXPERIMENTS.md Table 11).
//!
//! # Architecture
//!
//! * [`Objective`] — the pluggable cost model. An objective owns whatever
//!   incremental state it needs (for congestion: the flat per-link load
//!   vector of [`crate::congestion`], plus a histogram of committed load
//!   values that prices the maximum from the links a move touched).
//!   [`Objective::rebuild`] does a full sweep; [`Objective::apply_swap`]
//!   updates the state for one transposition in `O(degree × path length)`
//!   instead of re-sweeping every guest edge. An immediate repeat of the
//!   last call is its undo, and the congestion and makespan objectives
//!   answer it from state they saved for the move, without evaluating it
//!   again. [`Objective::apply_bounded`] lets an objective answer a move
//!   the annealer is about to reject with a lower bound (see below).
//! * Tables — the congestion and wirelength objectives read only two flat
//!   tables after construction: the guest's edge list (tail and head arrays
//!   in [`Grid::edges`] order, plus each node's incident edge ids in CSR
//!   form) and the host's [`DigitTable`] (`d · n` `u32`s from
//!   [`Grid::digit_table`]). A swap finds the edges it moves through
//!   the incident ids, and a congestion batch of disjoint transpositions
//!   takes each distinct edge once, from its pre-batch images to its
//!   post-batch ones; congestion re-routes them with
//!   [`DigitTable::for_each_hop`], wirelength re-measures them with
//!   [`DigitTable::distance`], and both read two table rows per edge,
//!   never decoding a node index. Both constructors refuse pairs whose
//!   host link count or guest edge count exceeds 2²⁹ before allocating
//!   anything.
//! * [`Cost`] — a lexicographic `(primary, secondary)` pair, so "max link
//!   congestion, ties broken by total routed path length" is one totally
//!   ordered value.
//! * [`Optimizer`] — deterministic, seeded simulated annealing with a
//!   pluggable move repertoire weighted by a [`MoveMix`]: **swap**
//!   (transpose the images of two guest nodes), **segment reversal**
//!   (reverse a short run of the table), **k-cycle rotation** (rotate a
//!   short run left by one), and **dimension-aligned block swap** (exchange
//!   two whole hyperplanes of the guest). Every compound move decomposes
//!   into batches of disjoint transpositions pushed through
//!   [`Objective::apply_disjoint_swaps`], so all four kinds share one
//!   incremental-delta path; see the "Move repertoire" catalog in
//!   ARCHITECTURE.md for each kind's decomposition and inverse. The best
//!   table ever visited is tracked and returned, which makes the final
//!   result monotonically no worse than the starting embedding regardless
//!   of the annealing temperature.
//!
//! Every move is a permutation of an (injective) table, so every intermediate
//! table stays bijective; accepted and rejected moves alike keep the
//! objective's incremental state exactly in sync with the table (rejection
//! undoes the move by applying the involution again, or the inverse rotation
//! for a k-cycle). The annealer rejects almost every move it proposes, so
//! answering that repeat from saved state is where the congestion and
//! makespan objectives save most of their time.
//!
//! # Pricing only what the draw can accept
//!
//! Most proposals are not only rejected but rejected by a wide margin, so
//! the annealer also tells the objective which costs it could accept. After
//! drawing a move it runs its acceptance test on a copy of its RNG, which
//! makes the same draw the real test will, and passes that test as a limit
//! through [`Objective::apply_bounded`] with the move's last batch. The
//! congestion and makespan objectives first compute a cheap lower bound on
//! the move's cost, and when the limit rejects it they return the bound
//! without routing the congestion loads or arbitrating the makespan
//! schedule.
//!
//! A rotation's first batch, and the first batch of its undo, are never
//! judged. The annealer sends them through [`Objective::apply_bounded`]
//! too, under a limit that rejects every cost. The congestion objective
//! answers such a batch with `(0, exact total path length)` and routes
//! nothing, then *carries* it into the second batch: the two are priced as
//! one move against the committed state, each guest edge once, from its
//! route before the rotation to its route after it. The undo's first batch
//! reopens the carried half, and its second restores the state before the
//! rotation from saved loads, so a rejected rotation routes each of its
//! edges once instead of three times. The makespan objective bounds the
//! first batch and replays it when the second makes it final, which is the
//! work it did before; wirelength prices it exactly.
//!
//! Congestion proves its bound, `(committed max, exact total path length)`,
//! in one of two steps, both of which show that some link at the committed
//! maximum keeps its load:
//!
//! * the *count test* needs no routing: the moved edges' old routes have
//!   fewer hops than the histogram has links at the maximum;
//! * where that fails, the *removal test* removes the old routes, work the
//!   exact price needs anyway, and holds when they touched fewer links at
//!   the maximum than the histogram has. If the limit then accepts the
//!   bound, the move adds its new routes and is priced exactly. Every
//!   batch, pairwise swaps included, takes the same path; only block swaps
//!   collect their edges differently.
//!
//! The tests, and the exact price, see only what a block swap changes: it
//! drops *twin* edges, pairs whose routes the swap merely exchanges, which
//! are the edges inside its two hyperplanes (see
//! `GuestEdges::collect_batch`).
//!
//! Accept decisions stay exact:
//!
//! * a bound is componentwise at most the exact cost and keeps the exact
//!   secondary, so it either is the exact cost or sits at least one
//!   primary unit below it;
//! * the acceptance test is monotone on a fixed draw — a rejected cost
//!   makes it reject every componentwise larger one, and one primary unit
//!   is far more than any rounding in its scalarization — so rejecting the
//!   bound rejects the exact cost too;
//! * the limit and the real test are one function on the same RNG state,
//!   so the real test rejects the bound and the move is undone;
//! * an objective answers that undo by restoring what the bounded move
//!   changed, and prices any other next call exactly (a rebuild, a carry
//!   into that call, or full arbitration), so every cost the trait returns
//!   after a bounded one is exact, or a bound its own limit rejects.
//!
//! Accept decisions, the RNG stream, and therefore every table and report
//! are bit-identical to a walk that prices every move exactly; the
//! `incremental_bounded_walks_match_exact_walks` proptest runs both.
//!
//! The [`parallel`] submodule runs N independently-seeded copies of this
//! walk on the `topology::parallel` fork–join pool and reduces to the
//! lexicographically best `(cost, seed, shard)` result — deterministic for
//! any worker count. Under
//! [`ShardStrategy::Portfolio`](parallel::ShardStrategy::Portfolio) the
//! shards additionally diversify their move mixes and temperature schedules
//! instead of only their seeds.
//!
//! # The `same_shape` plateau, resolved
//!
//! Under the congestion objective, every torus-into-identical-shape-mesh
//! trial (`same_shape` in explab) ends with `best == initial` — the report
//! sweep's historical "85 of 85 stuck" plateau. An earlier revision of this
//! module read that as a repertoire limitation; it is actually a proof of
//! optimality. Each torus ring of radix `l` must cross each of the `l - 1`
//! mesh line cuts orthogonal to it at least **twice** (a cycle that leaves a
//! cut must re-enter it), and the constructive embedding achieves exactly
//! two crossings per cut — simultaneously minimizing the max-congestion
//! primary and the total-path-length secondary. No move repertoire can beat
//! a global optimum, and the richer moves confirm it: k-cycle rotations and
//! block swaps also leave the constructive cost untouched on all 85 pairs.
//!
//! Where the compound repertoire *does* pay off is away from the
//! constructive start: pairwise-only annealing from shuffled tables sticks
//! at local optima, and the same seed and schedule with
//! [`MoveMix::compound`] strictly beats it on a pinned fraction of the
//! family. The `kcycle_moves_escape_plateaus_pairwise_moves_cannot` test
//! pins both halves — the lower-bound plateau and the shuffled-start
//! escape — so any repertoire change has a regression target.
//!
//! # Example
//!
//! ```
//! use embeddings::auto::embed;
//! use embeddings::optim::{CongestionObjective, Optimizer, OptimizerConfig};
//! use topology::{Grid, Shape};
//!
//! let guest = Grid::torus(Shape::new(vec![4, 6]).unwrap());
//! let host = Grid::mesh(Shape::new(vec![2, 2, 2, 3]).unwrap());
//! let constructive = embed(&guest, &host).unwrap();
//!
//! let mut objective = CongestionObjective::new(&guest, &host).unwrap();
//! let config = OptimizerConfig { seed: 7, steps: 400, ..OptimizerConfig::default() };
//! let outcome = Optimizer::new(config).optimize(&constructive, &mut objective).unwrap();
//! // The refined placement is never worse than the construction it started from.
//! assert!(outcome.report.best <= outcome.report.initial);
//! assert!(outcome.embedding.is_injective());
//! ```

pub mod parallel;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topology::routing::link_slot_of_hop;
use topology::{DigitTable, Grid, Shape};

use crate::embedding::Embedding;
use crate::error::{EmbeddingError, Result};

/// A lexicographic optimization cost: `primary` dominates, `secondary`
/// breaks ties. The derived ordering compares `primary` first (field order),
/// so e.g. "minimize max congestion, then total path length" is one ordered
/// value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cost {
    /// The dominant term (e.g. max link congestion).
    pub primary: u64,
    /// The tie-breaking term (e.g. total routed path length).
    pub secondary: u64,
}

impl Cost {
    /// Scalarizes the cost for annealing acceptance: the primary term is
    /// weighted so one unit of it dominates any realistic secondary change.
    fn scalar(self, primary_weight: f64) -> f64 {
        self.primary as f64 * primary_weight + self.secondary as f64
    }
}

/// A pluggable, incrementally-evaluated objective over placement tables.
///
/// A table maps guest node index → host node index and is always a
/// permutation of `0..n`. Implementations keep whatever internal state makes
/// [`Objective::apply_swap`] cheap; [`Objective::rebuild`] recomputes that
/// state from scratch and is the differential-testing anchor: after any
/// sequence of `apply_swap` calls, `rebuild` on the same table must return
/// the same cost the incremental path reported. The one exception is a
/// bound returned by [`Objective::apply_bounded`], which sits below the
/// exact cost only where the caller's limit rejects both; the next call
/// after it is exact again, or a bound that its own limit rejects.
///
/// A wrapper around another objective should forward every method: one
/// that leaves out `apply_bounded` stays correct, but sends every move
/// through the exact default.
pub trait Objective {
    /// The objective's name, used in reports (`"congestion"`,
    /// `"wirelength"`, `"makespan"`).
    fn name(&self) -> &'static str;

    /// Rebuilds all internal state for `table` with a full sweep and returns
    /// its cost.
    fn rebuild(&mut self, table: &[u64]) -> Cost;

    /// Updates the internal state for the transposition of the images of
    /// guest nodes `a` and `b`, and returns the new cost. `table` is the
    /// table *after* the swap; the pre-swap images are therefore
    /// `table[b]`/`table[a]`.
    ///
    /// Swaps are involutions, so an immediate repeat of the last call — the
    /// same pair right after it — is its undo, which is how rejected moves
    /// are undone. An objective may answer that repeat from state it saved
    /// for the last move instead of evaluating it again. Any other call
    /// makes the last move final.
    fn apply_swap(&mut self, table: &[u64], a: u64, b: u64) -> Cost;

    /// Applies a compound move — a sequence of *pairwise-disjoint*
    /// transpositions (a segment reversal) — performing the swaps on
    /// `table` itself, and returns the cost of the final table. Disjoint
    /// transpositions commute, so an immediate repeat of the same sequence
    /// undoes the move exactly (the contract the optimizer's rejection path
    /// relies on); as with [`Objective::apply_swap`], that repeat may be
    /// answered from saved state, and any other call makes the move final.
    ///
    /// The default implementation applies one [`Objective::apply_swap`] at
    /// a time, which is right for objectives whose per-swap evaluation is
    /// itself cheap (wirelength). Objectives that end every update with an
    /// expensive global phase — the makespan objective re-arbitrates the
    /// schedule — or that save a move's state to undo it — congestion —
    /// override this to treat the whole batch as one move; congestion also
    /// re-routes each distinct guest edge of the batch once.
    fn apply_disjoint_swaps(&mut self, table: &mut [u64], swaps: &[(u64, u64)]) -> Cost {
        let mut cost = None;
        for &(a, b) in swaps {
            table.swap(a as usize, b as usize);
            cost = Some(self.apply_swap(table, a, b));
        }
        // An empty compound move changes nothing; re-deriving the cost from
        // scratch keeps the contract total without a cached-cost requirement.
        cost.unwrap_or_else(|| self.rebuild(table))
    }

    /// Applies a batch of disjoint transpositions as
    /// [`Objective::apply_disjoint_swaps`] does, for a caller that will
    /// judge the returned cost with `accepts` and undo the move if that
    /// rejects it. The annealer proposes every move through this method,
    /// a pairwise swap as a batch of one.
    ///
    /// The objective may return a **bound** in place of the exact cost: a
    /// cost that is componentwise at most the exact one, keeps its exact
    /// secondary, and that `accepts` rejects. `accepts` must be monotone —
    /// a cost it rejects makes it reject every componentwise larger cost —
    /// so it rejects the exact cost too, and the caller decides as it
    /// would have on the exact cost. A bound either equals the exact cost
    /// or sits at least one primary unit below it, a gap no rounding in a
    /// scalarized test can close.
    ///
    /// The caller undoes a move it rejects by an immediate repeat of the
    /// call, through [`Objective::apply_disjoint_swaps`],
    /// [`Objective::apply_bounded`] or, for a batch of one,
    /// [`Objective::apply_swap`]; that repeat returns the cost before the
    /// move. Any other next call makes the move final.
    ///
    /// A caller that never judges a batch's cost passes a limit that
    /// rejects every cost; by monotonicity, one that rejects
    /// `Cost { primary: 0, secondary: 0 }`. It may then leave a bounded
    /// move in place. The objective may carry such a move into the next
    /// call, and price the two as one: that call's cost is still exact, or
    /// a bound that its own limit rejects. The annealer does this with a
    /// rotation's first batch and with the first batch of its undo.
    ///
    /// The default ignores `accepts` and prices the move exactly.
    fn apply_bounded(
        &mut self,
        table: &mut [u64],
        swaps: &[(u64, u64)],
        accepts: &dyn Fn(Cost) -> bool,
    ) -> Cost {
        let _ = accepts;
        self.apply_disjoint_swaps(table, swaps)
    }
}

impl<T: Objective + ?Sized> Objective for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn rebuild(&mut self, table: &[u64]) -> Cost {
        (**self).rebuild(table)
    }

    fn apply_swap(&mut self, table: &[u64], a: u64, b: u64) -> Cost {
        (**self).apply_swap(table, a, b)
    }

    fn apply_disjoint_swaps(&mut self, table: &mut [u64], swaps: &[(u64, u64)]) -> Cost {
        (**self).apply_disjoint_swaps(table, swaps)
    }

    fn apply_bounded(
        &mut self,
        table: &mut [u64],
        swaps: &[(u64, u64)],
        accepts: &dyn Fn(Cost) -> bool,
    ) -> Cost {
        (**self).apply_bounded(table, swaps, accepts)
    }
}

/// Applies the transpositions of `swaps` to `table`.
fn apply_swaps(table: &mut [u64], swaps: &[(u64, u64)]) {
    for &(a, b) in swaps {
        table.swap(a as usize, b as usize);
    }
}

/// A histogram over `u64` values that maintains the current maximum as
/// tracked slots change value — the piece that makes "max link congestion"
/// and "max per-edge distance" incrementally evaluable.
#[derive(Clone, Debug, Default)]
struct MaxTracker {
    /// `count[v]` = number of tracked slots currently holding value `v`
    /// (value 0 is untracked; empty links don't matter to the maximum).
    count: Vec<u64>,
    max: u64,
}

impl MaxTracker {
    fn clear(&mut self) {
        self.count.clear();
        self.max = 0;
    }

    /// How many tracked slots hold the maximum (none while it is 0).
    fn at_max(&self) -> u64 {
        self.count.get(self.max as usize).copied().unwrap_or(0)
    }

    /// Records a slot moving from value `from` straight to value `to`.
    /// Value 0 is untracked, so `shift(0, v)` adds a slot and `shift(v, 0)`
    /// drops one. The new value is counted before the old one is released,
    /// so the maximum only has to be searched for when the last slot at the
    /// maximum moves down — the one case that walks down to the next
    /// occupied value; every other shift is O(1).
    fn shift(&mut self, from: u64, to: u64) {
        if from == to {
            return;
        }
        if to > 0 {
            if self.count.len() <= to as usize {
                self.count.resize(to as usize + 1, 0);
            }
            self.count[to as usize] += 1;
            self.max = self.max.max(to);
        }
        if from > 0 {
            self.count[from as usize] -= 1;
            while self.max > 0 && self.count[self.max as usize] == 0 {
                self.max -= 1;
            }
        }
    }
}

/// The most host links (`d · n`) and guest edges an objective builds flat
/// tables for. The congestion load vector and the host digit table hold one
/// entry per host link; the guest edge list and its incident-edge index hold
/// four `u32`s per guest edge.
const LINK_LIMIT: u64 = 1 << 29;

/// Checks a guest/host pair against the objectives' tables before anything
/// is allocated.
///
/// # Errors
///
/// Returns [`EmbeddingError::SizeMismatch`] if the graphs differ in size,
/// and [`EmbeddingError::TooLarge`] if the host's link count or the guest's
/// edge count exceeds [`LINK_LIMIT`].
fn check_pair(guest: &Grid, host: &Grid) -> Result<()> {
    if guest.size() != host.size() {
        return Err(EmbeddingError::SizeMismatch {
            guest: guest.size(),
            host: host.size(),
        });
    }
    let too_large = |size| EmbeddingError::TooLarge {
        size,
        limit: LINK_LIMIT,
    };
    // `d · n` can overflow `u64`; the unchecked count would silently wrap
    // and under-allocate.
    let links = host.try_link_count().unwrap_or(u64::MAX);
    if links > LINK_LIMIT {
        return Err(too_large(links));
    }
    // Every radix is at least 2, so a host within the limit caps the shared
    // size at 2²⁹ nodes and the guest at 29 dimensions: the guest's edge
    // count cannot overflow.
    let edges = guest.num_edges();
    if edges > LINK_LIMIT {
        return Err(too_large(edges));
    }
    Ok(())
}

/// The guest's edges as flat tables, built once per objective.
///
/// Edge id `e` is the `e`-th pair [`Grid::edges`] yields, stored in the same
/// *canonical orientation*: the tail is the endpoint whose coordinate steps
/// `+1` along the edge's dimension, torus wrap edges run from the highest
/// coordinate back to 0, and a length-2 torus dimension contributes a single
/// edge, from its coordinate-0 end. Routing dimension-ordered paths is
/// orientation-sensitive, so incremental updates route each edge in the
/// direction the full sweep did. Each node's incident edge ids sit in CSR
/// form, which is all a swap needs to find the edges it moves. Node indices
/// and edge ids are `u32`: [`check_pair`] caps both counts at
/// [`LINK_LIMIT`].
#[derive(Debug, Default)]
struct GuestEdges {
    tails: Vec<u32>,
    heads: Vec<u32>,
    /// The ids of the edges at node `x` are
    /// `incident[offsets[x]..offsets[x + 1]]`, in increasing order.
    offsets: Vec<u32>,
    incident: Vec<u32>,
}

impl GuestEdges {
    fn new(guest: &Grid) -> Self {
        let n = guest.size() as usize;
        let m = guest.num_edges() as usize;
        let mut tails = Vec::with_capacity(m);
        let mut heads = Vec::with_capacity(m);
        // Degrees land one slot to the right, so the prefix sum below turns
        // them into the CSR offsets.
        let mut offsets = vec![0u32; n + 1];
        for (tail, head) in guest.edges() {
            tails.push(tail as u32);
            heads.push(head as u32);
            offsets[tail as usize + 1] += 1;
            offsets[head as usize + 1] += 1;
        }
        for x in 0..n {
            offsets[x + 1] += offsets[x];
        }
        let mut next = offsets[..n].to_vec();
        let mut incident = vec![0u32; 2 * m];
        for (e, (&tail, &head)) in tails.iter().zip(&heads).enumerate() {
            for x in [tail as usize, head as usize] {
                incident[next[x] as usize] = e as u32;
                next[x] += 1;
            }
        }
        GuestEdges {
            tails,
            heads,
            offsets,
            incident,
        }
    }

    fn len(&self) -> usize {
        self.tails.len()
    }

    /// The canonical `(tail, head)` of edge `e`.
    #[inline]
    fn endpoints(&self, e: usize) -> (u64, u64) {
        (u64::from(self.tails[e]), u64::from(self.heads[e]))
    }

    /// The ids of the edges incident to node `x`.
    #[inline]
    fn incident(&self, x: u64) -> &[u32] {
        let x = x as usize;
        &self.incident[self.offsets[x] as usize..self.offsets[x + 1] as usize]
    }

    /// Visits every guest edge affected by the transposition of the images
    /// of guest nodes `a` and `b`, calling `update(e, pre, post)` once per
    /// edge with its id and its `(tail, head)` images before and after the
    /// swap. `table` is the table after the swap.
    ///
    /// It covers one transposition against the post-swap table, the
    /// `apply_swap` paths of the objectives; [`GuestEdges::collect_batch`]
    /// covers a batch against the pre-batch table. An edge between `a` and
    /// `b` themselves appears in both incident lists and is updated exactly
    /// once (the `a` pivot skips it, the `b` pivot handles it).
    fn for_each_affected(
        &self,
        table: &[u64],
        a: u64,
        b: u64,
        mut update: impl FnMut(usize, (u64, u64), (u64, u64)),
    ) {
        // The images of `a` and `b` were exchanged, everything else is
        // unchanged, so the pre-swap image of `a` is `table[b]` and vice
        // versa.
        let (fa, fb) = (table[a as usize], table[b as usize]);
        let pre = |x: u64| -> u64 {
            if x == a {
                fb
            } else if x == b {
                fa
            } else {
                table[x as usize]
            }
        };
        for (node, skip_peer) in [(a, Some(b)), (b, None::<u64>)] {
            for &e in self.incident(node) {
                let (tail, head) = self.endpoints(e as usize);
                let other = if tail == node { head } else { tail };
                if Some(other) == skip_peer {
                    continue;
                }
                update(
                    e as usize,
                    (pre(tail), pre(head)),
                    (table[tail as usize], table[head as usize]),
                );
            }
        }
    }

    /// Appends every guest edge whose route the batch of disjoint
    /// transpositions `swaps` changes to `moved`, as its id and its
    /// `(tail, head)` images under `table`, the table *before* the batch.
    /// `edge_stamp[e] == epoch` marks edge `e` as taken, and with `TWINS`,
    /// `node_stamp[x] == (epoch, y)` marks node `x` as moved, trading
    /// images with node `y`. The caller gives every batch a fresh epoch,
    /// except a batch that a bounded move without twins is carried into:
    /// its edges are taken already, and keep their images before that move.
    ///
    /// An edge with both endpoints in the batch is collected once. With
    /// `TWINS`, *twin* edges are not collected at all. Write σ for the
    /// batch's permutation of guest nodes. If edge `(t, h)` has both ends
    /// moved and `(σt, σh)` is a guest edge in the same canonical
    /// orientation, each of the two takes over the other's route, so no
    /// load moves. On a block swap these are all the edges inside either
    /// hyperplane. Looking for twins only in batches of [`uniform_span`]
    /// loses none the annealer can draw: a single transposition maps its
    /// one edge with both ends moved onto itself reversed, and a reversal,
    /// the batch of a rotation too, maps each such edge onto one that runs
    /// backwards.
    ///
    /// The caller then applies the batch and moves each collected edge from
    /// its pre-batch route to its post-batch one, once. Re-routing each
    /// transposition against the table it produced would instead walk an
    /// edge with both endpoints in the batch twice, the second time from
    /// an intermediate placement.
    fn collect_batch<const TWINS: bool>(
        &self,
        table: &[u64],
        swaps: &[(u64, u64)],
        edge_stamp: &mut [u32],
        node_stamp: &mut [(u32, u32)],
        epoch: u32,
        moved: &mut Vec<MovedEdge>,
    ) {
        if TWINS {
            for &(a, b) in swaps {
                node_stamp[a as usize] = (epoch, b as u32);
                node_stamp[b as usize] = (epoch, a as u32);
            }
        }
        for &(a, b) in swaps {
            for node in [a, b] {
                for &e in self.incident(node) {
                    if edge_stamp[e as usize] == epoch {
                        continue;
                    }
                    edge_stamp[e as usize] = epoch;
                    let (tail, head) = self.endpoints(e as usize);
                    let other = if tail == node { head } else { tail };
                    if TWINS && node_stamp[other as usize].0 == epoch {
                        let twin =
                            self.find(node_stamp[tail as usize].1, node_stamp[head as usize].1);
                        if let Some(twin) = twin {
                            // The twin would find `e` in turn; taking it
                            // now skips that lookup.
                            edge_stamp[twin as usize] = epoch;
                            continue;
                        }
                    }
                    moved.push(MovedEdge {
                        id: e,
                        pre: (table[tail as usize], table[head as usize]),
                    });
                }
            }
        }
    }

    /// The id of the edge `tail → head` in its canonical orientation, if
    /// the guest has one: one scan of `tail`'s incident edges, where the
    /// head alone tells it apart (`tail ≠ head`).
    fn find(&self, tail: u32, head: u32) -> Option<u32> {
        self.incident(u64::from(tail))
            .iter()
            .copied()
            .find(|&f| self.heads[f as usize] == head)
    }

    /// The `(tail, head)` images of edge `e` under `table`.
    #[inline]
    fn images(&self, table: &[u64], e: u32) -> (u64, u64) {
        let (tail, head) = self.endpoints(e as usize);
        (table[tail as usize], table[head as usize])
    }
}

/// Whether the batch `swaps` has several transpositions that all span one
/// index distance, as a block swap's do. Only such a batch can hold twin
/// edges among those the annealer draws (see [`GuestEdges::collect_batch`]),
/// so only it is collected without them, and the congestion objective
/// never carries it (see [`CongestionObjective::carry`]).
fn uniform_span(swaps: &[(u64, u64)]) -> bool {
    let span = |&(a, b): &(u64, u64)| a.abs_diff(b);
    swaps.len() > 1 && swaps.iter().all(|swap| span(swap) == span(&swaps[0]))
}

/// A guest edge a move re-places: its id and its `(tail, head)` images
/// before the move.
#[derive(Clone, Copy, Debug)]
struct MovedEdge {
    id: u32,
    pre: (u64, u64),
}

/// Minimize the maximum link congestion under dimension-ordered routing
/// (ties broken by total routed path length).
///
/// Tables: the guest's edge list with its incident-edge index and the
/// host's node-major digit table, both built at construction. State: the
/// same flat per-link load vector as [`crate::congestion::congestion`]
/// (indexed by [`Grid::link_index`]), a `MaxTracker` histogram of the
/// *committed* load values, and the last move's saved state. A move
/// re-routes only the `O(degree)` guest edges incident to the swapped
/// nodes, found through the index and walked over two rows of the digit
/// table, straight into the load vector; a batch re-routes each
/// distinct edge once, from its pre-batch route to its post-batch one, and
/// a block swap skips twin edges, whose routes it only exchanges (its
/// edges inside either hyperplane). Each link a move touches is stamped
/// with the move's epoch and its committed load recorded, and the new
/// maximum is priced from the touched links and the histogram without
/// scanning the load vector. The move enters the histogram when the next
/// call is not its undo; the undo writes the recorded loads back, with no
/// routing.
///
/// [`Objective::apply_bounded`] first prices a move without routing it.
/// A limit that rejects the zero cost rejects every cost, and gets
/// `(0, exact total path length)`. When the histogram holds more links at
/// the committed maximum than the moved edges' old routes have hops,
/// removing those routes cannot lower every such link, so
/// `(committed max, exact total path length)` bounds the cost from below.
/// Both route-length sums are digit-table distances, because
/// dimension-ordered routes are shortest paths, and this count test stops
/// summing old lengths as soon as it fails. If the limit rejects the bound,
/// the bound is returned with the loads untouched. Where the count test
/// fails, the move removes its old routes first; if they touched fewer
/// links at the committed maximum than the histogram holds, an untouched
/// one keeps that maximum, and the same bound is returned when the limit
/// rejects it, before any new route is added. Otherwise the move adds its
/// new routes and is priced exactly.
///
/// A bound's undo writes back the loads it recorded (none, after the count
/// test). A batch that follows a bounded move without undoing it carries
/// that move: the two are priced as one, each edge once, and the batch's
/// undo reopens the carried move. A block swap (a batch whose
/// transpositions all span one index distance) neither carries nor is
/// carried, and a carried move is carried once: any other call after a
/// bounded move rebuilds the state from the table.
pub struct CongestionObjective {
    edges: GuestEdges,
    host: DigitTable,
    /// The load of every link under the current table, last move included.
    loads: Vec<u64>,
    /// The histogram of the committed loads: the last move's links enter it
    /// once the move is final, or earlier if pricing the move needs the
    /// histogram's maximum.
    tracker: MaxTracker,
    /// The maximum of `loads`.
    max: u64,
    total_path_length: u64,
    last: LastMove,
}

/// The last move a [`CongestionObjective`] priced, kept until the next call
/// shows whether that call is the move's undo.
#[derive(Debug)]
struct LastMove {
    /// Whether the fields below describe a move that can still be undone.
    open: bool,
    /// The bound the move returned, if it returned one: its new routes
    /// were never added.
    bounded: Option<Cost>,
    /// The move's transpositions, as the call passed them.
    swaps: Vec<(u64, u64)>,
    /// The transpositions of the bounded move this one carries (see
    /// [`CongestionObjective::carry`]); empty when it carries none.
    carried: Vec<(u64, u64)>,
    /// How many of `moved` belong to the carried move: they come first.
    carried_edges: usize,
    /// The bound the carried move returned.
    carried_bound: Cost,
    /// `link_stamp[slot] == epoch` marks a link the move touched.
    link_stamp: Vec<u32>,
    /// `edge_stamp[e] == epoch` marks a guest edge a batch moved.
    edge_stamp: Vec<u32>,
    /// `node_stamp[x] == (epoch, y)` marks a guest node a block swap
    /// moved, trading images with node `y`.
    node_stamp: Vec<(u32, u32)>,
    epoch: u32,
    /// The guest edges the move re-places, with their images before it.
    moved: Vec<MovedEdge>,
    /// Each link the move touched, with its committed load.
    touched: Vec<(u32, u64)>,
    /// Whether the touched links' new loads are in the histogram.
    counted: bool,
    /// The cost before the move.
    before: Cost,
}

impl LastMove {
    /// Moves to a fresh epoch, so that no stamp of an earlier one matches.
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The epoch wrapped: clear the stamps so no old one matches.
            self.link_stamp.fill(0);
            self.edge_stamp.fill(0);
            self.node_stamp.fill((0, 0));
            self.epoch = 1;
        }
    }
}

impl CongestionObjective {
    /// Creates the objective for a guest/host pair.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::SizeMismatch`] if the graphs differ in size,
    /// and [`EmbeddingError::TooLarge`] if the host's dense link index space
    /// `d · n` or the guest's edge count exceeds 2²⁹ (checked before any
    /// table is allocated).
    pub fn new(guest: &Grid, host: &Grid) -> Result<Self> {
        check_pair(guest, host)?;
        let links = host.link_count() as usize;
        let edges = GuestEdges::new(guest);
        let edge_count = edges.len();
        Ok(CongestionObjective {
            edges,
            host: host.digit_table(),
            loads: vec![0; links],
            tracker: MaxTracker::default(),
            max: 0,
            total_path_length: 0,
            last: LastMove {
                open: false,
                bounded: None,
                swaps: Vec::new(),
                carried: Vec::new(),
                carried_edges: 0,
                carried_bound: Cost {
                    primary: 0,
                    secondary: 0,
                },
                link_stamp: vec![0; links],
                edge_stamp: vec![0; edge_count],
                node_stamp: vec![(0, 0); guest.size() as usize],
                epoch: 0,
                moved: Vec::new(),
                touched: Vec::new(),
                counted: false,
                before: Cost {
                    primary: 0,
                    secondary: 0,
                },
            },
        })
    }

    fn cost(&self) -> Cost {
        Cost {
            primary: self.max,
            secondary: self.total_path_length,
        }
    }

    fn is_undo(&self, swaps: &[(u64, u64)]) -> bool {
        self.last.open && self.last.swaps == swaps
    }

    /// Makes the last move final and opens a new one made of `swaps`.
    fn begin(&mut self, swaps: &[(u64, u64)]) {
        self.count_last();
        let before = self.cost();
        let last = &mut self.last;
        last.open = true;
        last.bounded = None;
        last.swaps.clear();
        last.swaps.extend_from_slice(swaps);
        last.carried.clear();
        last.moved.clear();
        last.touched.clear();
        last.counted = false;
        last.before = before;
        last.next_epoch();
    }

    /// Carries the open move, which returned `bound`, into the batch
    /// `swaps`, which is not its undo, so that the two are priced as one
    /// move against the committed histogram. The bounded move's edges stay in `moved` with
    /// their images before it, stamped in the same epoch, and the batch's
    /// edges join them, each once. Loads a removal test took off are put
    /// back first, so every carried route is still in the loads. An undo
    /// of the batch reopens the carried move (see
    /// [`CongestionObjective::reopen`]).
    fn carry(&mut self, bound: Cost, swaps: &[(u64, u64)]) {
        let CongestionObjective {
            loads,
            total_path_length,
            last,
            ..
        } = self;
        for &(slot, committed) in &last.touched {
            loads[slot as usize] = committed;
            last.link_stamp[slot as usize] = 0;
        }
        last.touched.clear();
        *total_path_length = last.before.secondary;
        last.bounded = None;
        last.carried_bound = bound;
        std::mem::swap(&mut last.carried, &mut last.swaps);
        last.swaps.clear();
        last.swaps.extend_from_slice(swaps);
        last.carried_edges = last.moved.len();
    }

    /// Shifts the last move's links into the histogram, once.
    fn count_last(&mut self) {
        if !self.last.counted {
            for &(slot, committed) in &self.last.touched {
                self.tracker.shift(committed, self.loads[slot as usize]);
            }
            self.last.counted = true;
        }
    }

    /// Moves the loads of the open move's edges: with `REMOVE`, off their
    /// recorded pre-move routes; with `ADD`, onto their routes under
    /// `table`. Both run in the canonical tail → head orientation the full
    /// sweep uses, and with both set each edge's two routes are walked in
    /// turn.
    fn reroute<const REMOVE: bool, const ADD: bool>(&mut self, table: &[u64]) {
        let CongestionObjective {
            edges,
            host,
            loads,
            total_path_length,
            last,
            ..
        } = self;
        let LastMove {
            link_stamp,
            epoch,
            moved,
            touched,
            ..
        } = last;
        for edge in moved.iter() {
            let post = edges.images(table, edge.id);
            for (route, add) in [(edge.pre, false), (post, true)] {
                let wanted = if add { ADD } else { REMOVE };
                if !wanted {
                    continue;
                }
                for_each_link(host, route, |slot| {
                    if link_stamp[slot] != *epoch {
                        link_stamp[slot] = *epoch;
                        touched.push((slot as u32, loads[slot]));
                    }
                    if add {
                        loads[slot] += 1;
                        *total_path_length += 1;
                    } else {
                        loads[slot] -= 1;
                        *total_path_length -= 1;
                    }
                });
            }
        }
    }

    /// Whether the committed maximum survives a move that touched
    /// `touched` links at it: some link at that maximum is left untouched
    /// while the histogram holds more of them. The count test, the removal
    /// test and the price all decide by this one comparison.
    #[inline]
    fn keeps_committed_max(&self, touched: u64) -> bool {
        touched < self.tracker.at_max()
    }

    /// The count test: the hop count of the open move's old routes, if the
    /// committed maximum survives that many links at it being touched.
    /// Summing the route lengths stops as soon as the test fails.
    fn count_test(&self) -> Option<u64> {
        self.last.moved.iter().try_fold(0, |removed, edge| {
            let removed = removed + self.host.distance(edge.pre.0, edge.pre.1);
            self.keeps_committed_max(removed).then_some(removed)
        })
    }

    /// The removal test, once the open move's old routes are removed: the
    /// bound when the committed maximum survives the links at it that were
    /// touched, and `accepts` rejects it.
    fn removal_bound(&self, table: &[u64], accepts: &dyn Fn(Cost) -> bool) -> Option<Cost> {
        let committed = self.tracker.max;
        let touched_at_max = self
            .last
            .touched
            .iter()
            .filter(|&&(_, load)| load == committed)
            .count();
        if !self.keeps_committed_max(touched_at_max as u64) {
            return None;
        }
        self.committed_bound(table, 0, accepts)
    }

    /// `(committed max, exact total path length)` for the open move, when
    /// `accepts` rejects it; see [`CongestionObjective::total_after`] for
    /// `removed`.
    #[inline]
    fn committed_bound(
        &self,
        table: &[u64],
        removed: u64,
        accepts: &dyn Fn(Cost) -> bool,
    ) -> Option<Cost> {
        let bound = Cost {
            primary: self.tracker.max,
            secondary: self.total_after(table, removed),
        };
        (!accepts(bound)).then_some(bound)
    }

    /// The exact total path length after the open move, while `removed`
    /// hops of its old routes are still in the total. The new route
    /// lengths are digit-table distances under `table`.
    fn total_after(&self, table: &[u64], removed: u64) -> u64 {
        let added: u64 = self
            .last
            .moved
            .iter()
            .map(|edge| {
                let (tail, head) = self.edges.images(table, edge.id);
                self.host.distance(tail, head)
            })
            .sum();
        self.total_path_length - removed + added
    }

    /// Records that the open move returns `bound`, and returns it.
    fn bounded(&mut self, bound: Cost) -> Cost {
        self.last.bounded = Some(bound);
        bound
    }

    /// Prices the maximum after the open move. Untouched links still hold
    /// their committed loads, all at most the histogram's maximum, so the
    /// touched links decide it unless every link at that maximum was
    /// touched and lowered; only then is the move counted into the
    /// histogram to read the new maximum there.
    fn price(&mut self) -> Cost {
        let committed = self.tracker.max;
        let mut high = 0;
        let mut touched_at_max = 0;
        for &(slot, load) in &self.last.touched {
            high = high.max(self.loads[slot as usize]);
            touched_at_max += u64::from(load == committed);
        }
        self.max = if high >= committed {
            high
        } else if self.keeps_committed_max(touched_at_max) {
            committed
        } else {
            self.count_last();
            self.tracker.max
        };
        self.cost()
    }

    /// Undoes the open move from its saved state: writes the recorded loads
    /// back (and out of the histogram, if the move was counted) and returns
    /// the cost before the move. A move bounded by the count test touched
    /// no load; one bounded by the removal test touched only its old
    /// routes' links. A move that carries a bounded one is undone to the
    /// state after that move, which is reopened, and the call is priced as
    /// [`CongestionObjective::reopen`] says, under its own limit `accepts`.
    fn undo(&mut self, table: &[u64], accepts: Option<&dyn Fn(Cost) -> bool>) -> Cost {
        let last = &mut self.last;
        for &(slot, committed) in &last.touched {
            let load = &mut self.loads[slot as usize];
            if last.counted {
                self.tracker.shift(*load, committed);
            }
            *load = committed;
        }
        last.touched.clear();
        self.max = last.before.primary;
        self.total_path_length = last.before.secondary;
        if !last.carried.is_empty() {
            return self.reopen(table, accepts);
        }
        last.open = false;
        last.bounded = None;
        last.before
    }

    /// Reopens the bounded move that the just-undone batch carried: it is
    /// the open move again, with its own transpositions and edges restamped
    /// under a fresh epoch, and the loads hold the committed ones. The call
    /// returns the move's bound again only where `accepts` rejects it;
    /// otherwise it routes the move, prices it exactly and counts it into
    /// the histogram, as a move made final would be, so
    /// [`Objective::apply_swap`] and [`Objective::apply_disjoint_swaps`]
    /// still return exact costs.
    fn reopen(&mut self, table: &[u64], accepts: Option<&dyn Fn(Cost) -> bool>) -> Cost {
        let last = &mut self.last;
        std::mem::swap(&mut last.swaps, &mut last.carried);
        last.carried.clear();
        last.moved.truncate(last.carried_edges);
        last.counted = false;
        last.next_epoch();
        for edge in &last.moved {
            last.edge_stamp[edge.id as usize] = last.epoch;
        }
        let bound = last.carried_bound;
        if accepts.is_some_and(|accepts| !accepts(bound)) {
            return self.bounded(bound);
        }
        last.bounded = None;
        self.reroute::<true, true>(table);
        let cost = self.price();
        self.count_last();
        cost
    }

    /// Prices the batch `swaps` as one move and applies it to `table`. With
    /// `accepts`, the move may be priced by a bound instead: `(0, exact
    /// total)` where `accepts` rejects the zero cost, and so every cost;
    /// else the count test's bound; else, once the old routes are removed,
    /// the removal test's. A bounded move that the batch does not undo is
    /// carried into it (see [`CongestionObjective::carry`]).
    fn apply_batch(
        &mut self,
        table: &mut [u64],
        swaps: &[(u64, u64)],
        accepts: Option<&dyn Fn(Cost) -> bool>,
    ) -> Cost {
        // The whole batch is one move, undone by one repeat of the batch.
        if self.is_undo(swaps) {
            apply_swaps(table, swaps);
            return self.undo(table, accepts);
        }
        // A block swap drops twin edges by their stamps, so no block swap
        // carries or is carried; and a carried move is carried once, so
        // that its undo can reopen the move it carries.
        let block = uniform_span(swaps);
        match self.last.bounded {
            Some(bound)
                if self.last.carried.is_empty() && !block && !uniform_span(&self.last.swaps) =>
            {
                self.carry(bound, swaps);
            }
            bounded => {
                if bounded.is_some() {
                    // A bounded move made final: its routes were never
                    // moved.
                    self.rebuild(table);
                }
                self.begin(swaps);
            }
        }
        let CongestionObjective { edges, last, .. } = self;
        let collect = if block {
            GuestEdges::collect_batch::<true>
        } else {
            GuestEdges::collect_batch::<false>
        };
        collect(
            edges,
            table,
            swaps,
            &mut last.edge_stamp,
            &mut last.node_stamp,
            last.epoch,
            &mut last.moved,
        );
        apply_swaps(table, swaps);
        if let Some(accepts) = accepts {
            // Limits are monotone: one that rejects the zero cost rejects
            // every cost, so its caller never judges this one.
            if !accepts(Cost {
                primary: 0,
                secondary: 0,
            }) {
                let moved = self.last.moved.iter();
                let removed = moved.map(|edge| self.host.distance(edge.pre.0, edge.pre.1));
                let secondary = self.total_after(table, removed.sum());
                return self.bounded(Cost {
                    primary: 0,
                    secondary,
                });
            }
            // Both tests prove the same bound, so the removal test runs
            // only where the count test fails.
            if let Some(removed) = self.count_test() {
                if let Some(bound) = self.committed_bound(table, removed, accepts) {
                    return self.bounded(bound);
                }
            } else {
                // Removing the old routes first is work the exact price
                // needs anyway.
                self.reroute::<true, false>(table);
                if let Some(bound) = self.removal_bound(table, accepts) {
                    return self.bounded(bound);
                }
                self.reroute::<false, true>(table);
                return self.price();
            }
        }
        self.reroute::<true, true>(table);
        self.price()
    }
}

/// Calls `visit` with the slot of every link on the dimension-ordered route
/// `from → to` of the host.
fn for_each_link(host: &DigitTable, (from, to): (u64, u64), mut visit: impl FnMut(usize)) {
    let grid = host.grid();
    host.for_each_hop(from, to, |hop, before, after| {
        visit(link_slot_of_hop(grid, hop, before, after) as usize);
    });
}

impl Objective for CongestionObjective {
    fn name(&self) -> &'static str {
        "congestion"
    }

    fn rebuild(&mut self, table: &[u64]) -> Cost {
        self.last.open = false;
        self.last.bounded = None;
        self.last.carried.clear();
        self.last.touched.clear();
        let CongestionObjective {
            edges,
            host,
            loads,
            tracker,
            ..
        } = self;
        loads.fill(0);
        for e in 0..edges.len() {
            let (tail, head) = edges.endpoints(e);
            let route = (table[tail as usize], table[head as usize]);
            for_each_link(host, route, |slot| loads[slot] += 1);
        }
        tracker.clear();
        for &load in loads.iter() {
            tracker.shift(0, load);
        }
        self.max = tracker.max;
        self.total_path_length = loads.iter().sum();
        self.cost()
    }

    fn apply_swap(&mut self, table: &[u64], a: u64, b: u64) -> Cost {
        if self.is_undo(&[(a, b)]) {
            return self.undo(table, None);
        }
        if self.last.bounded.is_some() {
            // A bounded move made final: price the table from scratch.
            return self.rebuild(table);
        }
        self.begin(&[(a, b)]);
        let CongestionObjective { edges, last, .. } = self;
        if a != b {
            edges.for_each_affected(table, a, b, |e, pre, _| {
                last.moved.push(MovedEdge { id: e as u32, pre });
            });
        }
        self.reroute::<true, true>(table);
        self.price()
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

/// Minimize the **wirelength** — the sum of weighted route lengths over
/// guest edges — with the maximum per-edge host distance as the tie-breaker.
///
/// Under dimension-ordered routing every route is a shortest path, so each
/// edge's route length equals the host distance of its endpoint images and
/// the unit-weight wirelength is the total dilation — `average dilation ×
/// guest edges`, which explab's `dilation` objective kind anneals. The
/// objective earns its keep in two ways: per-guest-edge *weights*
/// ([`WirelengthObjective::with_weights`]) let hot guest edges count more
/// than cold ones, and the unit-weight total is exactly the quantity Tang's
/// closed form bounds from below
/// ([`crate::lower_bound::wirelength_lower_bound`]) — the repo's second
/// analytic optimization target after the paper's dilation predictions.
///
/// Tables: the guest's edge list with its incident-edge index, the weights
/// indexed by edge id, and the host's node-major digit table, all built at
/// construction. State: the weighted total plus a `MaxTracker` histogram of
/// *unweighted* per-edge distances (tracking weighted contributions would
/// size the histogram by the largest weight). A swap re-measures only the
/// `O(degree)` guest edges incident to the swapped nodes, through the same
/// affected-edge walk the congestion objective uses, each as a
/// per-dimension `|Δ|` sum over two digit-table rows. The objective keeps
/// the trait defaults for batches and for [`Objective::apply_bounded`]:
/// re-measuring an edge costs about what bounding it would.
///
/// # Example
///
/// Anneal the constructive hypercube → ring embedding of `Q₃` toward Tang's
/// exact minimum-wirelength bound:
///
/// ```
/// use embeddings::auto::embed;
/// use embeddings::lower_bound::wirelength_lower_bound;
/// use embeddings::optim::{Optimizer, OptimizerConfig, WirelengthObjective};
/// use topology::Grid;
///
/// let guest = Grid::hypercube(3).unwrap();
/// let host = Grid::ring(8).unwrap(); // the (8)-torus
/// let constructive = embed(&guest, &host).unwrap();
///
/// let mut objective = WirelengthObjective::new(&guest, &host).unwrap();
/// let config = OptimizerConfig { seed: 1987, steps: 1_500, ..OptimizerConfig::default() };
/// let outcome = Optimizer::new(config).optimize(&constructive, &mut objective).unwrap();
///
/// // Tang's closed form: embedding Q₃ in the cycle C₈ costs at least 20.
/// let bound = wirelength_lower_bound(&guest, &host).unwrap();
/// assert_eq!(bound, 20);
/// assert!(outcome.report.best <= outcome.report.initial);
/// assert!(outcome.report.best.primary >= bound);
/// ```
pub struct WirelengthObjective {
    edges: GuestEdges,
    host: DigitTable,
    /// The weight of edge `e` at `weights[e]` (all 1 for unit weights).
    weights: Vec<u64>,
    tracker: MaxTracker,
    total: u64,
}

impl WirelengthObjective {
    /// Creates the unit-weight objective for a guest/host pair: every guest
    /// edge counts its route length once, so the primary cost is the total
    /// routed path length — the quantity Tang's bound speaks about.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::SizeMismatch`] if the graphs differ in size,
    /// and [`EmbeddingError::TooLarge`] if the host's link count or the
    /// guest's edge count exceeds 2²⁹.
    pub fn new(guest: &Grid, host: &Grid) -> Result<Self> {
        Self::with_weights(guest, host, |_, _| 1)
    }

    /// Creates the objective with a per-guest-edge weight function, evaluated
    /// once per canonical edge of [`Grid::edges`] (so `weight(tail, head)`
    /// sees each edge exactly once, in sweep order and orientation).
    /// Zero-weight edges are legal — they simply stop contributing to the
    /// primary cost, though they still participate in the max-distance
    /// tie-breaker.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::SizeMismatch`] if the graphs differ in size,
    /// and [`EmbeddingError::TooLarge`] if the host's link count or the
    /// guest's edge count exceeds 2²⁹ (checked before `weight` is called or
    /// any table is allocated).
    pub fn with_weights(
        guest: &Grid,
        host: &Grid,
        mut weight: impl FnMut(u64, u64) -> u64,
    ) -> Result<Self> {
        check_pair(guest, host)?;
        let edges = GuestEdges::new(guest);
        let weights = (0..edges.len())
            .map(|e| {
                let (tail, head) = edges.endpoints(e);
                weight(tail, head)
            })
            .collect();
        Ok(WirelengthObjective {
            edges,
            host: host.digit_table(),
            weights,
            tracker: MaxTracker::default(),
            total: 0,
        })
    }

    fn cost(&self) -> Cost {
        Cost {
            primary: self.total,
            secondary: self.tracker.max,
        }
    }
}

impl Objective for WirelengthObjective {
    fn name(&self) -> &'static str {
        "wirelength"
    }

    fn rebuild(&mut self, table: &[u64]) -> Cost {
        self.tracker.clear();
        self.total = 0;
        for e in 0..self.edges.len() {
            let (tail, head) = self.edges.endpoints(e);
            let d = self
                .host
                .distance(table[tail as usize], table[head as usize]);
            self.tracker.shift(0, d);
            self.total += self.weights[e] * d;
        }
        self.cost()
    }

    fn apply_swap(&mut self, table: &[u64], a: u64, b: u64) -> Cost {
        if a == b {
            return self.cost();
        }
        let WirelengthObjective {
            edges,
            host,
            weights,
            tracker,
            total,
        } = self;
        edges.for_each_affected(table, a, b, |e, (pre_tail, pre_head), (tail, head)| {
            let old = host.distance(pre_tail, pre_head);
            let new = host.distance(tail, head);
            tracker.shift(old, new);
            // The total holds this edge's old term, so subtracting first
            // cannot underflow.
            *total = *total - weights[e] * old + weights[e] * new;
        });
        self.cost()
    }
}

/// The move-repertoire weight table: how often the optimizer proposes each
/// compound move kind, in integer per-mille weights so configs stay
/// `Eq`-friendly and plan files can express them exactly. The pairwise swap
/// takes whatever remains of the 1000-per-mille budget, so the weights must
/// sum to at most 1000 ([`Optimizer::new`] asserts this).
///
/// See the module docs for the catalog: every kind is either an involution
/// (swap, reversal, block swap — re-apply to undo) or one half of an
/// explicit inverse pair (k-cycle rotation, undone by the opposite
/// rotation), and every kind reaches objectives as batches of disjoint
/// transpositions ([`Objective::apply_swap`],
/// [`Objective::apply_disjoint_swaps`], [`Objective::apply_bounded`]), so
/// the incremental-vs-rebuild differential walls cover all of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MoveMix {
    /// Per-mille weight of segment reversal (reverse a short run of the
    /// table — a single batch of disjoint transpositions).
    pub reverse_per_mille: u32,
    /// Per-mille weight of k-cycle rotation (rotate the images of a short
    /// run by one position — two disjoint-transposition batches).
    pub kcycle_per_mille: u32,
    /// Per-mille weight of dimension-aligned block swap (exchange the
    /// images of two parallel guest hyperplanes — a single batch of
    /// disjoint transpositions).
    pub block_per_mille: u32,
}

impl MoveMix {
    /// The historical swap + segment-reversal repertoire (the default):
    /// 250‰ reversals, 750‰ swaps, no compound structure moves. Proposals
    /// consume the RNG exactly as the pre-`MoveMix` optimizer did, so
    /// seeded runs reproduce bit for bit.
    pub const fn pairwise() -> MoveMix {
        MoveMix {
            reverse_per_mille: 250,
            kcycle_per_mille: 0,
            block_per_mille: 0,
        }
    }

    /// The full repertoire: reversals, k-cycle rotations and block swaps
    /// each get a real share of the proposal budget (600‰ swaps remain).
    pub const fn compound() -> MoveMix {
        MoveMix {
            reverse_per_mille: 150,
            kcycle_per_mille: 150,
            block_per_mille: 100,
        }
    }

    /// The summed per-mille weight of the non-swap kinds (≤ 1000; the swap
    /// takes the remainder).
    pub const fn total_per_mille(&self) -> u32 {
        self.reverse_per_mille + self.kcycle_per_mille + self.block_per_mille
    }
}

impl Default for MoveMix {
    fn default() -> Self {
        MoveMix::pairwise()
    }
}

/// Configuration of one optimization run. Everything is explicit so the run
/// is a pure function of `(embedding, objective, config)` — the same config
/// and seed always produce the same final table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OptimizerConfig {
    /// The RNG seed; runs are bit-identical per seed.
    pub seed: u64,
    /// The number of proposed moves.
    pub steps: u64,
    /// The starting annealing temperature (in units of normalized cost).
    pub initial_temperature: f64,
    /// The final temperature of the geometric cooling schedule.
    pub final_temperature: f64,
    /// The longest run a reversal or k-cycle rotation may touch (`< 2`
    /// disables reversals; rotations need at least 3 and are clamped up).
    pub max_segment: usize,
    /// The move-repertoire weight table (defaults to
    /// [`MoveMix::pairwise`], the historical swap + reversal repertoire).
    pub mix: MoveMix,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            seed: 0,
            steps: 2_000,
            initial_temperature: 2.0,
            final_temperature: 1e-3,
            max_segment: 8,
            mix: MoveMix::pairwise(),
        }
    }
}

/// Statistics of one optimization run.
#[derive(Clone, Debug, PartialEq)]
pub struct OptimReport {
    /// The objective's name.
    pub objective: &'static str,
    /// The cost of the starting table.
    pub initial: Cost,
    /// The best cost ever visited (the returned table's cost). Never worse
    /// than `initial`.
    pub best: Cost,
    /// Proposed moves (`== config.steps`).
    pub steps: u64,
    /// Accepted moves (improving or annealing-accepted).
    pub accepted: u64,
    /// The number of times the best-so-far cost strictly improved.
    pub improvements: u64,
}

/// The result of [`Optimizer::optimize`]: the refined embedding, its
/// placement table and the run statistics.
#[derive(Clone, Debug)]
pub struct OptimOutcome {
    /// The refined embedding (name `"optimized(<objective>, <original>)"`).
    pub embedding: Embedding,
    /// The refined placement table (guest node index → host node index).
    pub table: Vec<u64>,
    /// Run statistics.
    pub report: OptimReport,
}

/// Deterministic, seeded local search + simulated annealing over placement
/// tables. See the [module docs](self) for the move set and guarantees.
pub struct Optimizer {
    config: OptimizerConfig,
}

impl Optimizer {
    /// Creates an optimizer with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the config's [`MoveMix`] weights exceed the 1000-per-mille
    /// budget — the pairwise swap must keep a (possibly zero) remainder.
    pub fn new(config: OptimizerConfig) -> Self {
        assert!(
            config.mix.total_per_mille() <= 1000,
            "MoveMix weights sum to {} per mille; the budget is 1000",
            config.mix.total_per_mille()
        );
        Optimizer { config }
    }

    /// Refines `embedding` under `objective` and returns the best table
    /// visited, as an embedding plus run statistics.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::TooLarge`] for guests too large to
    /// materialize as a table, and [`EmbeddingError::InvalidImage`] if the
    /// starting embedding maps outside its host.
    pub fn optimize(
        &self,
        embedding: &Embedding,
        objective: &mut dyn Objective,
    ) -> Result<OptimOutcome> {
        let table = embedding.to_table()?;
        let (best_table, report) = self.refine_table(embedding.guest().shape(), table, objective);
        let refined = refined_embedding(embedding, objective.name(), &best_table)?;
        Ok(OptimOutcome {
            embedding: refined,
            table: best_table,
            report,
        })
    }

    /// The table-level annealing core behind [`Optimizer::optimize`]: refines
    /// `table` in place under `objective` and returns the best table visited
    /// with its run statistics. [`parallel::optimize_sharded`] drives this
    /// directly — one call per shard — so shards never pay for constructing
    /// intermediate [`Embedding`] closures.
    pub(crate) fn refine_table(
        &self,
        guest: &Shape,
        mut table: Vec<u64>,
        objective: &mut dyn Objective,
    ) -> (Vec<u64>, OptimReport) {
        debug_assert_eq!(guest.size(), table.len() as u64);
        let n = table.len() as u64;
        let initial = objective.rebuild(&table);
        let mut current = initial;
        let mut best = initial;
        let mut best_table = table.clone();
        let mut accepted = 0u64;
        let mut improvements = 0u64;

        let config = self.config;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let acceptance = Acceptance::new(initial, n);
        let cooling = if config.steps > 1 {
            (config.final_temperature.max(1e-12) / config.initial_temperature.max(1e-12))
                .powf(1.0 / (config.steps - 1) as f64)
        } else {
            1.0
        };
        let mut temperature = config.initial_temperature;
        // Scratch transposition list for compound moves, reused across steps.
        let mut swaps: Vec<(u64, u64)> = Vec::new();

        if n >= 2 {
            for _ in 0..config.steps {
                let proposal = self.propose(&mut rng, guest, n);
                // The objective may price the move against the acceptance
                // test it is about to face: the same test on a copy of the
                // RNG, which makes the same draw the test below will.
                let draw = rng.clone();
                let limit =
                    |cost: Cost| acceptance.accepts(cost, current, temperature, &mut draw.clone());
                let proposed = apply_move(objective, &mut table, proposal, &mut swaps, &limit);
                if acceptance.accepts(proposed, current, temperature, &mut rng) {
                    accepted += 1;
                    current = proposed;
                    if current < best {
                        best = current;
                        best_table.copy_from_slice(&table);
                        improvements += 1;
                    }
                } else {
                    let restored = undo_move(objective, &mut table, proposal, &mut swaps);
                    debug_assert_eq!(restored, current, "undo must restore the cost");
                    current = restored;
                }
                temperature *= cooling;
            }
        }

        (
            best_table,
            OptimReport {
                objective: objective.name(),
                initial,
                best,
                steps: config.steps,
                accepted,
                improvements,
            },
        )
    }

    /// Draws the next move. Kept separate so the RNG consumption per step is
    /// explicit and deterministic.
    ///
    /// The weight draw happens exactly when the historical optimizer drew
    /// its reversal gate (`max_segment ≥ 2 && n ≥ 2`), and each move kind
    /// consumes the same follow-up draws it always did, so a config with
    /// zero k-cycle and block weights reproduces pre-`MoveMix` runs bit for
    /// bit. Kinds that cannot apply at the drawn size (rotations need a run
    /// of 3, block swaps need a dimension of radix ≥ 2) fall back to a
    /// pairwise swap.
    fn propose(&self, rng: &mut StdRng, guest: &Shape, n: u64) -> Move {
        let config = self.config;
        let mix = config.mix;
        let r = if config.max_segment >= 2 && n >= 2 {
            rng.gen_range(0u64..1000)
        } else {
            // No draw — and no compound move — exactly as before `MoveMix`.
            1000
        };
        let reverse_cut = u64::from(mix.reverse_per_mille);
        let kcycle_cut = reverse_cut + u64::from(mix.kcycle_per_mille);
        let block_cut = kcycle_cut + u64::from(mix.block_per_mille);
        if r < reverse_cut {
            let max_len = (config.max_segment as u64).min(n);
            let len = rng.gen_range(2u64..=max_len);
            let start = rng.gen_range(0u64..=n - len);
            return Move::Reverse {
                start,
                end: start + len - 1,
            };
        }
        if r < kcycle_cut {
            // A 2-cycle is just a swap; rotations start at runs of 3.
            let max_len = (config.max_segment as u64).max(3).min(n);
            if max_len >= 3 {
                let len = rng.gen_range(3u64..=max_len);
                let start = rng.gen_range(0u64..=n - len);
                return Move::Rotate {
                    start,
                    end: start + len - 1,
                };
            }
        } else if r < block_cut {
            if let Some(block) = propose_block(rng, guest) {
                return block;
            }
        }
        let a = rng.gen_range(0u64..n);
        let mut b = rng.gen_range(0u64..n - 1);
        if b >= a {
            b += 1;
        }
        Move::Swap { a, b }
    }
}

/// The annealer's acceptance test, with the cost scalarization fixed by the
/// starting table.
#[derive(Clone, Copy, Debug)]
struct Acceptance {
    /// The weight of one primary unit in the scalarized cost.
    primary_weight: f64,
    /// The normalization of scalarized cost deltas.
    scale: f64,
}

impl Acceptance {
    /// The test of a walk that starts at cost `initial` over `n` nodes. One
    /// primary unit must outweigh any plausible secondary delta; the total
    /// secondary mass of the starting table is a safe scale.
    fn new(initial: Cost, n: u64) -> Self {
        let primary_weight = (initial.secondary.max(1) as f64).max(n as f64);
        Acceptance {
            primary_weight,
            scale: (initial.scalar(primary_weight) / n.max(1) as f64).max(1.0),
        }
    }

    /// Whether a walk at cost `current` and temperature `temperature`
    /// accepts `proposed`: always when it is no worse, else with the
    /// Metropolis probability of its normalized scalar delta. It draws from
    /// `rng` exactly when `proposed` is worse and the temperature is
    /// positive.
    ///
    /// On a fixed draw the test is monotone: a cost it rejects makes it
    /// reject every componentwise larger cost. This is the property that
    /// lets an objective answer [`Objective::apply_bounded`] with a bound,
    /// and the annealer's limit is this same function on a copy of `rng`.
    fn accepts(self, proposed: Cost, current: Cost, temperature: f64, rng: &mut StdRng) -> bool {
        proposed <= current || {
            let delta = (proposed.scalar(self.primary_weight)
                - current.scalar(self.primary_weight))
                / self.scale;
            temperature > 0.0 && rng.gen_bool((-delta / temperature).exp().min(1.0))
        }
    }
}

/// Draws a dimension-aligned block swap over `guest`, or `None` when the
/// drawn dimension is degenerate (radix < 2) — the caller falls back to a
/// pairwise swap so every step still proposes a move.
fn propose_block(rng: &mut StdRng, guest: &Shape) -> Option<Move> {
    if guest.dim() == 0 {
        return None;
    }
    let dim = rng.gen_range(0..guest.dim() as u64) as usize;
    let radix = u64::from(guest.radix(dim));
    if radix < 2 {
        return None;
    }
    let first = rng.gen_range(0u64..radix);
    let mut second = rng.gen_range(0u64..radix - 1);
    if second >= first {
        second += 1;
    }
    Some(Move::BlockSwap {
        stride: guest.weight(dim + 1),
        radix,
        low: first.min(second),
        high: first.max(second),
    })
}

/// Builds the `"optimized(<objective>, <original>)"` embedding over a
/// refined placement table — the final assembly step shared by
/// [`Optimizer::optimize`] and [`parallel::optimize_sharded`].
pub(crate) fn refined_embedding(
    original: &Embedding,
    objective: &'static str,
    table: &[u64],
) -> Result<Embedding> {
    let name = format!("optimized({objective}, {})", original.name());
    // `Embedding::from_table` re-validates range and injectivity, so even a
    // buggy objective or move generator cannot smuggle a panic into the
    // returned embedding's mapping closure.
    Embedding::from_table(
        original.guest().clone(),
        original.host().clone(),
        name,
        table.to_vec(),
    )
}

/// A proposed permutation move. `Swap`, `Reverse` and `BlockSwap` are
/// involutions (rejection undoes them by re-applying); `Rotate` has order
/// `k` and is undone by applying its explicit inverse (see [`undo_move`]).
#[derive(Clone, Copy, Debug)]
enum Move {
    /// Transpose the images of guest nodes `a` and `b`.
    Swap { a: u64, b: u64 },
    /// Reverse the images of the inclusive run `start..=end` of guest
    /// nodes — a composition of disjoint transpositions.
    Reverse { start: u64, end: u64 },
    /// Rotate the images of the inclusive run `start..=end` left by one:
    /// node `start` takes the image of `start + 1` and node `end` takes
    /// the image of `start`. A k-cycle on the images (`k = end - start +
    /// 1 ≥ 3`), decomposed into two disjoint-transposition batches.
    Rotate { start: u64, end: u64 },
    /// Exchange the images of two parallel guest hyperplanes: every node
    /// whose coordinate along the chosen dimension is `low` trades images
    /// with its partner at coordinate `high`. `stride` and `radix` are the
    /// dimension's weight and radix, captured at proposal time so
    /// application needs no shape lookups. One disjoint-transposition
    /// batch of `n / radix` swaps.
    BlockSwap {
        stride: u64,
        radix: u64,
        low: u64,
        high: u64,
    },
}

/// Fills `swaps` with the disjoint transpositions of reversing the
/// inclusive run `start..=end` (empty when the run has fewer than two
/// elements).
fn reversal_swaps(start: u64, end: u64, swaps: &mut Vec<(u64, u64)>) {
    swaps.clear();
    let (mut i, mut j) = (start, end);
    while i < j {
        swaps.push((i, j));
        i += 1;
        j -= 1;
    }
}

/// The limit of a batch whose cost the annealer never judges, a rotation's
/// first: it rejects every cost, so an objective may answer with any bound
/// and carry the batch into the next call (see [`Objective::apply_bounded`]).
fn unjudged(_: Cost) -> bool {
    false
}

/// Applies `proposal` to the table and the objective's incremental state,
/// returning the resulting cost. The move's last batch goes through
/// [`Objective::apply_bounded`] with `limit`, the acceptance test that
/// cost will face, so the objective may answer with a bound the test
/// rejects. On return `swaps` holds that batch; it is a caller-owned
/// scratch buffer, so the hot loop stays allocation-free after warm-up.
fn apply_move(
    objective: &mut dyn Objective,
    table: &mut [u64],
    proposal: Move,
    swaps: &mut Vec<(u64, u64)>,
    limit: &dyn Fn(Cost) -> bool,
) -> Cost {
    match proposal {
        Move::Swap { a, b } => {
            swaps.clear();
            swaps.push((a, b));
        }
        // A reversal is a composition of disjoint transpositions; handing
        // the whole list to the objective lets it amortize any global
        // evaluation phase over the compound move. `end > start` always
        // holds (proposals span at least two nodes).
        Move::Reverse { start, end } => reversal_swaps(start, end, swaps),
        Move::Rotate { start, end } => {
            // rotate-left-by-one == reverse the whole run, then reverse
            // all but its last element: [a b c d] → [d c b a] → [b c d a].
            // Two batches regardless of k, so any objective with a global
            // evaluation phase (arbitration, delta replay) pays it twice
            // per rotation instead of k − 1 times. `end ≥ start + 2`
            // always holds, so neither batch is empty. Only the second
            // batch's cost faces the acceptance test; the first is never
            // judged, so the congestion objective prices the two as one.
            reversal_swaps(start, end, swaps);
            objective.apply_bounded(table, swaps, &unjudged);
            reversal_swaps(start, end - 1, swaps);
        }
        Move::BlockSwap {
            stride,
            radix,
            low,
            high,
        } => block_swaps(table.len() as u64, stride, radix, low, high, swaps),
    }
    objective.apply_bounded(table, swaps, limit)
}

/// Fills `swaps` with the disjoint transpositions of a block swap over `n`
/// guest nodes (see [`Move::BlockSwap`]). Nodes with coordinate `low` along
/// the chosen dimension are exactly `q·(stride·radix) + low·stride + r` for
/// `r < stride`; each trades images with the node `(high − low)·stride`
/// above it. All pairs are disjoint because `low ≠ high` picks two
/// non-overlapping hyperplanes.
fn block_swaps(n: u64, stride: u64, radix: u64, low: u64, high: u64, swaps: &mut Vec<(u64, u64)>) {
    swaps.clear();
    let plane = stride * radix;
    let shift = (high - low) * stride;
    let mut base = low * stride;
    while base < n {
        for x in base..base + stride {
            swaps.push((x, x + shift));
        }
        base += plane;
    }
}

/// Undoes a just-applied `proposal`, restoring the table and the
/// objective's incremental state exactly; `swaps` still holds the move's
/// last batch. Involutions undo by re-applying; a rotation is undone by the
/// inverse rotation — its two reversal batches applied in the opposite
/// order. Either way the first call repeats the move's last call, which an
/// objective may answer from saved state. A rotation's first undo batch is
/// never judged, so it goes through [`Objective::apply_bounded`] under
/// [`unjudged`]; the congestion objective answers both batches from saved
/// state, and the others evaluate the second again.
fn undo_move(
    objective: &mut dyn Objective,
    table: &mut [u64],
    proposal: Move,
    swaps: &mut Vec<(u64, u64)>,
) -> Cost {
    match proposal {
        Move::Swap { a, b } => {
            table.swap(a as usize, b as usize);
            objective.apply_swap(table, a, b)
        }
        Move::Rotate { start, end } => {
            // rotate-right-by-one: [b c d a] → [d c b a] → [a b c d].
            objective.apply_bounded(table, swaps, &unjudged);
            reversal_swaps(start, end, swaps);
            objective.apply_disjoint_swaps(table, swaps)
        }
        Move::Reverse { .. } | Move::BlockSwap { .. } => {
            objective.apply_disjoint_swaps(table, swaps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auto::embed;
    use crate::congestion::congestion_sequential;
    use crate::verify::verify_sequential;
    use std::sync::Arc;
    use topology::Shape;

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    fn random_swaps(n: u64, count: usize, seed: u64) -> Vec<(u64, u64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let a = rng.gen_range(0u64..n);
                let mut b = rng.gen_range(0u64..n - 1);
                if b >= a {
                    b += 1;
                }
                (a, b)
            })
            .collect()
    }

    /// The reference for [`GuestEdges`]' incident-edge index: appends every
    /// guest edge incident to node `x` to `out`, derived from the node's
    /// coordinate, each in the canonical orientation of [`Grid::edges`] (the
    /// tail is the endpoint whose coordinate steps `+1` along the edge's
    /// dimension, and torus wrap edges run from the highest coordinate back to
    /// 0). One entry per incident edge — length-2 torus dimensions contribute a
    /// single edge.
    fn incident_edges_into(guest: &Grid, x: u64, out: &mut Vec<(u64, u64)>) {
        let shape = guest.shape();
        let coord = guest.coord(x).expect("node in range");
        for j in 0..shape.dim() {
            let l = shape.radix(j);
            if l < 2 {
                continue;
            }
            let i = coord.get(j);
            let w = shape.weight(j + 1);
            if guest.is_torus() {
                if l == 2 {
                    // One physical edge, enumerated from the coordinate-0 end.
                    if i == 0 {
                        out.push((x, x + w));
                    } else {
                        out.push((x - w, x));
                    }
                    continue;
                }
                // Forward edge (x is the tail; wraps at the top coordinate).
                if i + 1 == l {
                    out.push((x, x - (l as u64 - 1) * w));
                } else {
                    out.push((x, x + w));
                }
                // Backward edge (the predecessor is the tail; the predecessor
                // of coordinate 0 is the wrap edge's top end).
                if i == 0 {
                    out.push((x + (l as u64 - 1) * w, x));
                } else {
                    out.push((x - w, x));
                }
            } else {
                if i + 1 < l {
                    out.push((x, x + w));
                }
                if i > 0 {
                    out.push((x - w, x));
                }
            }
        }
    }

    #[test]
    fn max_tracker_follows_increments_and_decrements() {
        let mut t = MaxTracker::default();
        assert_eq!(t.max, 0);
        t.shift(0, 1); // one slot at 1
        t.shift(1, 2); // that slot at 2
        t.shift(0, 1); // second slot at 1
        assert_eq!(t.max, 2);
        t.shift(2, 1);
        assert_eq!(t.max, 1);
        t.shift(1, 0);
        t.shift(1, 0);
        assert_eq!(t.max, 0);

        // `shift` moves a slot in one step: from the untracked 0 ...
        t.shift(0, 5);
        t.shift(0, 2);
        t.shift(0, 2);
        assert_eq!(t.max, 5);
        // ... above the max ...
        t.shift(2, 9);
        assert_eq!(t.max, 9);
        // ... down from a unique max, to the next occupied value ...
        t.shift(9, 1);
        assert_eq!(t.max, 5);
        t.shift(5, 3);
        assert_eq!(t.max, 3);
        // ... down from a shared max, which stays ...
        t.shift(0, 3);
        t.shift(3, 2);
        assert_eq!(t.max, 3);
        // ... and to 0, which drops the slot.
        t.shift(3, 0);
        assert_eq!(t.max, 2);
        t.shift(2, 2);
        assert_eq!(t.max, 2);
        for v in [2, 2, 1] {
            t.shift(v, 0);
        }
        assert_eq!(t.max, 0);
        assert!(t.count.iter().all(|&c| c == 0));

        // A random walk of shifts tracks the maximum of the slots' values.
        let mut rng = StdRng::seed_from_u64(5);
        let mut slots = [0u64; 12];
        for _ in 0..2_000 {
            let i = rng.gen_range(0..slots.len());
            let to = rng.gen_range(0u64..20);
            t.shift(slots[i], to);
            slots[i] = to;
            assert_eq!(t.max, *slots.iter().max().unwrap());
        }
    }

    /// The grids the table tests sweep: mixed radices, a mesh, the
    /// hypercube, and the single-edge length-2 torus dimensions.
    fn table_grids() -> Vec<Grid> {
        vec![
            Grid::torus(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[3, 5])),
            Grid::hypercube(4).unwrap(),
            Grid::ring(2).unwrap(),
            Grid::torus(shape(&[2, 2])),
            Grid::ring(8).unwrap(),
        ]
    }

    #[test]
    fn guest_edge_index_matches_the_coordinate_walk() {
        let mut reference = Vec::new();
        for guest in table_grids() {
            let edges = GuestEdges::new(&guest);
            // Edge ids follow the full sweep's order and orientation.
            let sweep: Vec<(u64, u64)> = guest.edges().collect();
            let ids: Vec<(u64, u64)> = (0..edges.len()).map(|e| edges.endpoints(e)).collect();
            assert_eq!(ids, sweep, "{guest}");
            for x in guest.nodes() {
                reference.clear();
                incident_edges_into(&guest, x, &mut reference);
                reference.sort_unstable();
                let mut indexed: Vec<(u64, u64)> = edges
                    .incident(x)
                    .iter()
                    .map(|&e| edges.endpoints(e as usize))
                    .collect();
                indexed.sort_unstable();
                assert_eq!(indexed, reference, "node {x} of {guest}");
            }
        }
    }

    #[test]
    fn host_digit_table_matches_grid_coordinates_and_distances() {
        // The table each objective holds for its host, not one built
        // beside it: every row is the node's coordinates and every pair's
        // distance is the grid's.
        for host in table_grids() {
            let congestion = CongestionObjective::new(&host, &host).unwrap();
            let wirelength = WirelengthObjective::new(&host, &host).unwrap();
            for digits in [&congestion.host, &wirelength.host] {
                assert_eq!(digits.grid(), &host);
                for x in host.nodes() {
                    assert_eq!(
                        digits.row(x),
                        host.coord(x).unwrap().as_slice(),
                        "{x} in {host}"
                    );
                    for y in host.nodes() {
                        assert_eq!(
                            digits.distance(x, y),
                            host.distance_index(x, y).unwrap(),
                            "{x} -> {y} in {host}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_pairs_are_rejected_before_any_table_is_built() {
        // Q₃₀ has 2³⁰ nodes, within `to_table`'s limit, but 30·2³⁰ host
        // links and 15·2³⁰ guest edges. Q₂₆ into the 2²⁶-ring fits the
        // host's links and overflows only the guest's edge list.
        let q30 = Grid::hypercube(30).unwrap();
        let q26 = Grid::hypercube(26).unwrap();
        let ring = Grid::ring(1 << 26).unwrap();
        for (guest, host, size) in [(&q30, &q30, 30u64 << 30), (&q26, &ring, 13 << 26)] {
            let too_large = |e: EmbeddingError| matches!(e, EmbeddingError::TooLarge { size: s, limit: LINK_LIMIT } if s == size);
            assert!(CongestionObjective::new(guest, host).is_err_and(too_large));
            assert!(WirelengthObjective::new(guest, host).is_err_and(too_large));
            let weighted = WirelengthObjective::with_weights(guest, host, |_, _| {
                unreachable!("weights are read only after the size check")
            });
            assert!(weighted.is_err_and(too_large));
        }
    }

    #[test]
    fn weighted_wirelength_matches_an_outside_sum_over_grid_edges() {
        // The reference reads edges, weights and distances through `Grid`
        // alone: Σ over `Grid::edges()` of w(t, h) · d(f(t), f(h)), with the
        // max distance as the tie-breaker. A weight stored under the wrong
        // edge id or orientation fails here even though incremental and
        // rebuild, reading the same weight vector, would agree.
        use rand::seq::SliceRandom;
        let weight = |t: u64, h: u64| 1 + (3 * t + 5 * h) % 7;
        let reference = |guest: &Grid, host: &Grid, table: &[u64]| {
            let (mut total, mut max) = (0, 0);
            for (t, h) in guest.edges() {
                let d = host
                    .distance_index(table[t as usize], table[h as usize])
                    .unwrap();
                total += weight(t, h) * d;
                max = max.max(d);
            }
            Cost {
                primary: total,
                secondary: max,
            }
        };
        for (guest, host) in [
            (Grid::torus(shape(&[2, 3, 4])), Grid::mesh(shape(&[4, 6]))),
            (Grid::hypercube(4).unwrap(), Grid::torus(shape(&[4, 4]))),
            (Grid::mesh(shape(&[4, 6])), Grid::torus(shape(&[2, 3, 4]))),
        ] {
            let mut table: Vec<u64> = (0..guest.size()).collect();
            table.shuffle(&mut StdRng::seed_from_u64(guest.size()));
            let mut objective = WirelengthObjective::with_weights(&guest, &host, weight).unwrap();
            let mut cost = objective.rebuild(&table);
            assert_eq!(cost, reference(&guest, &host, &table), "{guest} -> {host}");
            for (a, b) in random_swaps(guest.size(), 300, 41) {
                table.swap(a as usize, b as usize);
                cost = objective.apply_swap(&table, a, b);
            }
            assert_eq!(cost, reference(&guest, &host, &table), "{guest} -> {host}");
        }
    }

    #[test]
    fn congestion_objective_matches_full_congestion_sweep() {
        for (guest, host) in [
            (
                Grid::torus(shape(&[4, 2, 3])),
                Grid::mesh(shape(&[4, 2, 3])),
            ),
            (Grid::hypercube(4).unwrap(), Grid::mesh(shape(&[4, 4]))),
            (Grid::ring(24).unwrap(), Grid::mesh(shape(&[4, 6]))),
        ] {
            let e = embed(&guest, &host).unwrap();
            let mut objective = CongestionObjective::new(&guest, &host).unwrap();
            let table = e.to_table().unwrap();
            let cost = objective.rebuild(&table);
            let report = congestion_sequential(&e).unwrap();
            assert_eq!(cost.primary, report.max_congestion, "{guest} -> {host}");
            assert_eq!(cost.secondary, report.total_path_length);
        }
    }

    #[test]
    fn incremental_swaps_match_rebuild_exactly() {
        // Differential check: a long random walk of incremental swap updates
        // must land on exactly the state a full re-sweep computes.
        for (guest, host) in [
            (
                Grid::torus(shape(&[4, 2, 3])),
                Grid::mesh(shape(&[4, 2, 3])),
            ),
            (Grid::torus(shape(&[5, 3])), Grid::mesh(shape(&[5, 3]))),
            (Grid::hypercube(4).unwrap(), Grid::torus(shape(&[4, 4]))),
        ] {
            let e = embed(&guest, &host).unwrap();
            let mut table = e.to_table().unwrap();
            let mut incremental = CongestionObjective::new(&guest, &host).unwrap();
            let mut cost = incremental.rebuild(&table);
            for (a, b) in random_swaps(guest.size(), 200, 17) {
                table.swap(a as usize, b as usize);
                cost = incremental.apply_swap(&table, a, b);
            }
            let mut fresh = CongestionObjective::new(&guest, &host).unwrap();
            assert_eq!(cost, fresh.rebuild(&table), "{guest} -> {host}");
            assert_eq!(incremental.loads, fresh.loads);
        }
    }

    #[test]
    fn dilation_incremental_swaps_match_rebuild() {
        // The `dilation` objective is the unit-weight wirelength: its
        // incremental walk matches a rebuild, and its totals are the sum
        // and maximum of the host distances `verify` measures from outside.
        let guest = Grid::torus(shape(&[4, 6]));
        let host = Grid::mesh(shape(&[4, 6]));
        let e = embed(&guest, &host).unwrap();
        let mut table = e.to_table().unwrap();
        let mut incremental = WirelengthObjective::new(&guest, &host).unwrap();
        let mut cost = incremental.rebuild(&table);
        for (a, b) in random_swaps(guest.size(), 300, 3) {
            table.swap(a as usize, b as usize);
            cost = incremental.apply_swap(&table, a, b);
        }
        let mut fresh = WirelengthObjective::new(&guest, &host).unwrap();
        assert_eq!(cost, fresh.rebuild(&table));
        let rebuilt = Embedding::new(
            guest.clone(),
            host.clone(),
            "table",
            Arc::new({
                let host = host.clone();
                let table = table.clone();
                move |x| host.coord(table[x as usize]).unwrap()
            }),
        )
        .unwrap();
        let report = verify_sequential(&rebuilt);
        let mass: u64 = report.histogram.iter().map(|(d, count)| d * count).sum();
        assert_eq!(cost.primary, mass);
        assert_eq!(cost.secondary, rebuilt.dilation());
    }

    #[test]
    fn wirelength_matches_the_congestion_sweeps_total_path_length() {
        // DOR routes are shortest paths, so the unit-weight wirelength is
        // exactly the independent congestion sweep's total path length.
        for (guest, host) in [
            (Grid::hypercube(4).unwrap(), Grid::torus(shape(&[4, 4]))),
            (Grid::hypercube(3).unwrap(), Grid::ring(8).unwrap()),
            (
                Grid::torus(shape(&[4, 2, 3])),
                Grid::mesh(shape(&[4, 2, 3])),
            ),
        ] {
            let e = embed(&guest, &host).unwrap();
            let mut objective = WirelengthObjective::new(&guest, &host).unwrap();
            let cost = objective.rebuild(&e.to_table().unwrap());
            let report = congestion_sequential(&e).unwrap();
            assert_eq!(cost.primary, report.total_path_length, "{guest} -> {host}");
            assert_eq!(cost.secondary, e.dilation());
        }
    }

    #[test]
    fn wirelength_incremental_swaps_match_rebuild() {
        // Unit weights and a skewed weight function both stay bit-exact
        // against a full recompute after a long random swap walk.
        let guest = Grid::hypercube(4).unwrap();
        let host = Grid::torus(shape(&[4, 4]));
        let e = embed(&guest, &host).unwrap();
        for weighted in [false, true] {
            let build = || {
                if weighted {
                    WirelengthObjective::with_weights(&guest, &host, |t, h| 1 + (t * 7 + h) % 5)
                } else {
                    WirelengthObjective::new(&guest, &host)
                }
            };
            let mut table = e.to_table().unwrap();
            let mut incremental = build().unwrap();
            let mut cost = incremental.rebuild(&table);
            for (a, b) in random_swaps(guest.size(), 250, 23) {
                table.swap(a as usize, b as usize);
                cost = incremental.apply_swap(&table, a, b);
            }
            assert_eq!(
                cost,
                build().unwrap().rebuild(&table),
                "weighted={weighted}"
            );
        }
    }

    #[test]
    fn wirelength_double_swap_is_identity() {
        let guest = Grid::hypercube(3).unwrap();
        let host = Grid::torus(shape(&[4, 2]));
        let e = embed(&guest, &host).unwrap();
        let mut table = e.to_table().unwrap();
        let mut objective =
            WirelengthObjective::with_weights(&guest, &host, |t, h| 1 + (t + h) % 3).unwrap();
        let before = objective.rebuild(&table);
        table.swap(1, 6);
        objective.apply_swap(&table, 1, 6);
        table.swap(1, 6);
        let after = objective.apply_swap(&table, 1, 6);
        assert_eq!(before, after);
    }

    #[test]
    fn zero_weight_edges_drop_out_of_the_primary_cost() {
        let guest = Grid::hypercube(3).unwrap();
        let host = Grid::ring(8).unwrap();
        let e = embed(&guest, &host).unwrap();
        let table = e.to_table().unwrap();
        let mut all = WirelengthObjective::new(&guest, &host).unwrap();
        let mut none = WirelengthObjective::with_weights(&guest, &host, |_, _| 0).unwrap();
        let full = all.rebuild(&table);
        let empty = none.rebuild(&table);
        assert_eq!(empty.primary, 0);
        // The tie-breaker (max per-edge distance) ignores weights.
        assert_eq!(empty.secondary, full.secondary);
    }

    #[test]
    fn double_swap_is_identity() {
        let guest = Grid::torus(shape(&[3, 3]));
        let host = Grid::mesh(shape(&[3, 3]));
        let e = embed(&guest, &host).unwrap();
        let mut table = e.to_table().unwrap();
        let mut objective = CongestionObjective::new(&guest, &host).unwrap();
        let before = objective.rebuild(&table);
        let loads_before = objective.loads.clone();
        table.swap(2, 7);
        objective.apply_swap(&table, 2, 7);
        table.swap(2, 7);
        let after = objective.apply_swap(&table, 2, 7);
        assert_eq!(before, after);
        assert_eq!(loads_before, objective.loads);
    }

    /// The histogram's counts up to the highest occupied value, and its max.
    fn histogram(tracker: &MaxTracker) -> (Vec<u64>, u64) {
        let end = tracker
            .count
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |v| v + 1);
        (tracker.count[..end].to_vec(), tracker.max)
    }

    #[test]
    fn undone_and_followed_swaps_match_rebuild_in_every_pricing_branch() {
        // `price` finds the maximum after a move three ways: a touched link
        // reaches the max; every link at the max was touched and lowered,
        // so the move is counted into the histogram to read the new max;
        // or an untouched link stays at the max. Probe a shuffled table's
        // swaps for one of each, then check each swap against a rebuild and
        // the independent congestion sweep, undo it, and follow it with a
        // different move.
        use rand::seq::SliceRandom;
        let guest = Grid::torus(shape(&[4, 6]));
        let host = Grid::mesh(shape(&[4, 6]));
        let n = guest.size();
        let mut start: Vec<u64> = (0..n).collect();
        start.shuffle(&mut StdRng::seed_from_u64(11));
        let fresh = |table: &[u64]| {
            let mut objective = CongestionObjective::new(&guest, &host).unwrap();
            let cost = objective.rebuild(table);
            (cost, objective)
        };
        let swapped = |a: u64, b: u64| {
            let mut table = start.clone();
            table.swap(a as usize, b as usize);
            table
        };

        let (initial, mut probe) = fresh(&start);
        let (mut raise, mut lower, mut keep) = (None, None, None);
        for a in 0..n {
            for b in a + 1..n {
                let table = swapped(a, b);
                let cost = probe.apply_swap(&table, a, b);
                let touched_high = probe
                    .last
                    .touched
                    .iter()
                    .map(|&(slot, _)| probe.loads[slot as usize])
                    .max()
                    .unwrap_or(0);
                if touched_high >= initial.primary {
                    if cost.primary > initial.primary {
                        raise.get_or_insert((a, b));
                    }
                } else if probe.last.counted {
                    assert!(cost.primary < initial.primary);
                    lower.get_or_insert((a, b));
                } else {
                    assert_eq!(cost.primary, initial.primary);
                    keep.get_or_insert((a, b));
                }
                assert_eq!(probe.apply_swap(&start, a, b), initial);
            }
        }

        for (a, b) in [raise, lower, keep].map(|found| found.expect("every branch occurs")) {
            let other = if (a, b) == (0, 1) { (2, 3) } else { (0, 1) };
            let (before, mut objective) = fresh(&start);
            let saved = (
                objective.loads.clone(),
                histogram(&objective.tracker),
                objective.total_path_length,
            );
            let table = swapped(a, b);
            let cost = objective.apply_swap(&table, a, b);
            assert_eq!(cost, fresh(&table).0, "swap ({a}, {b})");
            let embedding = Embedding::from_table(guest.clone(), host.clone(), "t", table.clone());
            let report = congestion_sequential(&embedding.unwrap()).unwrap();
            assert_eq!(cost.primary, report.max_congestion);
            assert_eq!(cost.secondary, report.total_path_length);

            // Apply + undo restores the loads, the histogram and the total.
            assert_eq!(objective.apply_swap(&start, a, b), before);
            let restored = (
                objective.loads.clone(),
                histogram(&objective.tracker),
                objective.total_path_length,
            );
            assert_eq!(restored, saved, "undo of ({a}, {b})");

            // A different move after the undo starts from the restored state.
            let mut next = start.clone();
            next.swap(other.0 as usize, other.1 as usize);
            let cost = objective.apply_swap(&next, other.0, other.1);
            let (expected, reference) = fresh(&next);
            assert_eq!(cost, expected);
            assert_eq!(objective.loads, reference.loads);

            // Apply + a different move makes the first move final.
            let (_, mut objective) = fresh(&start);
            objective.apply_swap(&table, a, b);
            let mut next = table.clone();
            next.swap(other.0 as usize, other.1 as usize);
            let cost = objective.apply_swap(&next, other.0, other.1);
            let (expected, reference) = fresh(&next);
            assert_eq!(cost, expected, "({a}, {b}) then {other:?}");
            assert_eq!(objective.loads, reference.loads);
            // Undoing the second move leaves the first one counted in full.
            let (expected, reference) = fresh(&table);
            assert_eq!(objective.apply_swap(&table, other.0, other.1), expected);
            assert_eq!(objective.loads, reference.loads);
            assert_eq!(histogram(&objective.tracker), histogram(&reference.tracker));
        }
    }

    /// Seeded batches of the kinds the annealer hands to
    /// [`Objective::apply_bounded`]: pairwise swaps (batches of one),
    /// reversals and block swaps over `guest`, drawn by the optimizer's own
    /// proposal rule under the compound mix. A rotation's draw is taken as
    /// the reversal of its run.
    fn probe_batches(guest: &Shape, count: usize, seed: u64) -> Vec<Vec<(u64, u64)>> {
        let optimizer = Optimizer::new(OptimizerConfig {
            mix: MoveMix::compound(),
            ..OptimizerConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let n = guest.size();
        (0..count)
            .map(|_| {
                let mut swaps = Vec::new();
                match optimizer.propose(&mut rng, guest, n) {
                    Move::Swap { a, b } => swaps.push((a, b)),
                    Move::Reverse { start, end } | Move::Rotate { start, end } => {
                        reversal_swaps(start, end, &mut swaps)
                    }
                    Move::BlockSwap {
                        stride,
                        radix,
                        low,
                        high,
                    } => block_swaps(n, stride, radix, low, high, &mut swaps),
                }
                swaps
            })
            .collect()
    }

    /// The constructive start of `torus:4x4x4x4 → mesh:16x16`: 192 links
    /// share its maximum load, against about 60 route hops per swapped
    /// node pair, so the congestion bound can price swaps and short
    /// reversals.
    fn bound_pair() -> (Grid, Grid, Vec<u64>) {
        let guest = Grid::torus(shape(&[4, 4, 4, 4]));
        let host = Grid::mesh(shape(&[16, 16]));
        let table = embed(&guest, &host).unwrap().to_table().unwrap();
        (guest, host, table)
    }

    /// The number of links at the maximum of `loads`, counted from the
    /// loads alone: the count test's threshold.
    fn links_at_max(loads: &[u64]) -> u64 {
        let max = loads.iter().copied().max().unwrap_or(0);
        loads.iter().filter(|&&load| load == max && max > 0).count() as u64
    }

    /// The hops of the old routes of the edges `objective`'s last move
    /// re-placed, measured as host distances.
    fn old_route_hops(objective: &CongestionObjective) -> u64 {
        let moved = &objective.last.moved;
        moved
            .iter()
            .map(|edge| objective.host.distance(edge.pre.0, edge.pre.1))
            .sum()
    }

    #[test]
    fn bounded_congestion_moves_sit_below_the_exact_cost_and_touch_no_load() {
        // Every bounded return is componentwise at most the exact cost of
        // the same move on a fresh objective, keeps its secondary, and is
        // rejected by its limit — the annealer's acceptance test at three
        // temperatures on a seeded draw. A move the count test bounds (its
        // old routes have fewer hops than there are links at the maximum)
        // leaves the loads as they were. Every other batch takes the
        // removal test, blocks and reversals alike, and a move it bounds is
        // checked by `removal_bounds_undo_exactly`. Every undo restores the
        // cost and the loads. Moves no bound settles are priced exactly.
        let (guest, host, start) = bound_pair();
        let mut objective = CongestionObjective::new(&guest, &host).unwrap();
        let before = objective.rebuild(&start);
        let loads = objective.loads.clone();
        let at_max = links_at_max(&loads);
        let acceptance = Acceptance::new(before, guest.size());
        let (mut counted, mut removal, mut exact) = ([0; 2], [0; 2], 0);
        for (index, swaps) in probe_batches(guest.shape(), 600, 7).iter().enumerate() {
            let draw = StdRng::seed_from_u64(index as u64);
            let temperature = [0.0, 0.01, 2.0][index % 3];
            let limit =
                |cost: Cost| acceptance.accepts(cost, before, temperature, &mut draw.clone());
            let mut table = start.clone();
            let cost = objective.apply_bounded(&mut table, swaps, &limit);
            let mut fresh = CongestionObjective::new(&guest, &host).unwrap();
            fresh.rebuild(&start);
            let truth = fresh.apply_disjoint_swaps(&mut start.clone(), swaps);
            if objective.last.bounded.is_some() {
                assert!(!limit(cost), "the limit accepts the bound of {swaps:?}");
                assert!(cost.primary <= truth.primary, "{cost:?} > {truth:?}");
                assert_eq!(cost.secondary, truth.secondary);
                if old_route_hops(&objective) < at_max {
                    counted[usize::from(swaps.len() > 1)] += 1;
                    assert_eq!(objective.loads, loads, "a count-test bound touched a load");
                } else {
                    removal[usize::from(uniform_span(swaps))] += 1;
                }
            } else {
                exact += 1;
                assert_eq!(cost, truth, "{swaps:?}");
            }
            assert_eq!(objective.apply_disjoint_swaps(&mut table, swaps), before);
            assert_eq!(table, start);
            assert_eq!(objective.loads, loads);
        }
        assert!(counted[0] > 0, "no swap was bounded by the count test");
        assert!(counted[1] > 0, "no batch was bounded by the count test");
        assert!(
            removal[0] > 0,
            "no reversal was bounded by the removal test"
        );
        assert!(
            removal[1] > 0,
            "no block swap was bounded by the removal test"
        );
        assert!(exact > 0, "every move was bounded");
    }

    #[test]
    fn removal_bounds_undo_exactly() {
        // A block swap whose old routes have too many hops for the count
        // test removes them first. If fewer links at the committed maximum
        // were touched than the histogram holds, an untouched one keeps
        // that maximum, and the move returns `(committed max, exact total)`
        // without adding its new routes. Such a bound is at most the exact
        // cost with the exact secondary and is rejected by its limit; it
        // leaves the loads at the committed loads minus exactly the old
        // routes of the moved edges, whose new routes then give the loads
        // after the move; its undo restores loads, histogram and cost to
        // the bit; and any next call that is not its undo is priced exactly.
        let (guest, host, start) = bound_pair();
        let mut objective = CongestionObjective::new(&guest, &host).unwrap();
        let before = objective.rebuild(&start);
        let saved = (
            objective.loads.clone(),
            histogram(&objective.tracker),
            objective.total_path_length,
        );
        let at_max = links_at_max(&saved.0);
        let acceptance = Acceptance::new(before, guest.size());
        let mut bounded = Vec::new();
        for (index, swaps) in probe_batches(guest.shape(), 600, 7).iter().enumerate() {
            let draw = StdRng::seed_from_u64(index as u64);
            let temperature = [0.0, 0.01, 2.0][index % 3];
            let limit =
                |cost: Cost| acceptance.accepts(cost, before, temperature, &mut draw.clone());
            let mut table = start.clone();
            let cost = objective.apply_bounded(&mut table, swaps, &limit);
            if objective.last.bounded.is_some() && old_route_hops(&objective) >= at_max {
                let mut fresh = CongestionObjective::new(&guest, &host).unwrap();
                fresh.rebuild(&start);
                let mut moved_table = start.clone();
                let truth = fresh.apply_disjoint_swaps(&mut moved_table, swaps);
                assert!(!limit(cost), "the limit accepts the bound of {swaps:?}");
                assert!(cost.primary <= truth.primary, "{cost:?} > {truth:?}");
                assert_eq!(cost.secondary, truth.secondary);

                let mut removed = saved.0.clone();
                let mut added = objective.loads.clone();
                for edge in &objective.last.moved {
                    let new = objective.edges.images(&table, edge.id);
                    let host = &objective.host;
                    for_each_link(host, edge.pre, |slot| removed[slot] -= 1);
                    for_each_link(host, new, |slot| added[slot] += 1);
                }
                assert_eq!(objective.loads, removed, "{swaps:?} left other loads");
                assert_eq!(added, fresh.loads, "{swaps:?} moved the wrong edges");
                bounded.push(swaps.clone());
            }
            assert_eq!(objective.apply_disjoint_swaps(&mut table, swaps), before);
            assert_eq!(table, start);
            let restored = (
                objective.loads.clone(),
                histogram(&objective.tracker),
                objective.total_path_length,
            );
            assert_eq!(restored, saved, "undo of {swaps:?}");
        }
        assert!(bounded.len() >= 6, "{} removal bounds", bounded.len());

        // Any next call that is not the undo prices exactly.
        assert_calls_after_a_bounded_move_are_exact(&guest, &host, &start, &bounded[0]);
    }

    #[test]
    fn congestion_bounds_hold_for_every_swap_of_shuffled_tables() {
        // The count test is what makes the committed maximum a lower bound:
        // a move can lower the maximum only by removing at least one hop
        // from every link at it. Shuffled tables of small pairs have few
        // links at their maximum and many swaps that lower it. Under a limit
        // that rejects every cost at the committed maximum, each swap that
        // passes the count test is bounded and checked against its exact
        // cost. These tables hold no swap that a count test one hop too
        // lenient bounds above the exact cost; the next test pins one.
        use rand::seq::SliceRandom;
        let mut bounded = 0;
        for (guest, host) in [
            (Grid::torus(shape(&[4, 6])), Grid::mesh(shape(&[4, 6]))),
            (Grid::hypercube(4).unwrap(), Grid::mesh(shape(&[4, 4]))),
            (Grid::ring(6).unwrap(), Grid::line(6).unwrap()),
            (Grid::line(3).unwrap(), Grid::line(3).unwrap()),
        ] {
            let n = guest.size();
            for seed in 0..6 {
                let mut start: Vec<u64> = (0..n).collect();
                start.shuffle(&mut StdRng::seed_from_u64(seed));
                let mut objective = CongestionObjective::new(&guest, &host).unwrap();
                let mut exact = CongestionObjective::new(&guest, &host).unwrap();
                let before = objective.rebuild(&start);
                exact.rebuild(&start);
                let limit = |cost: Cost| cost.primary < before.primary;
                for a in 0..n {
                    for b in a + 1..n {
                        let swap = [(a, b)];
                        let mut table = start.clone();
                        let cost = objective.apply_bounded(&mut table, &swap, &limit);
                        let truth = exact.apply_disjoint_swaps(&mut start.clone(), &swap);
                        if objective.last.bounded.is_some() {
                            bounded += 1;
                            assert!(!limit(cost));
                            assert_eq!(cost.secondary, truth.secondary);
                            assert!(
                                cost.primary <= truth.primary,
                                "{guest} -> {host}, seed {seed}, swap ({a}, {b}): \
                                 bound {cost:?} above the exact {truth:?}"
                            );
                        } else {
                            assert_eq!(cost, truth);
                        }
                        assert_eq!(exact.apply_swap(&table, a, b), before);
                        assert_eq!(objective.apply_disjoint_swaps(&mut table, &swap), before);
                    }
                }
            }
        }
        assert!(bounded > 0);
    }

    #[test]
    fn the_count_test_never_bounds_a_swap_above_its_exact_cost() {
        // The swap's old routes have exactly as many hops as the table has
        // links at the committed maximum of 3, and they cross every one of
        // them, so the swap lowers the maximum to 2. A count test that let
        // `removed == at_max` pass would return the committed maximum, a
        // bound above the exact cost. Found by a brute-force search over
        // the swaps of shuffled tables of small pairs.
        let guest = Grid::line(16).unwrap();
        let host = Grid::mesh(shape(&[4, 4]));
        let start = vec![11, 7, 15, 4, 8, 12, 14, 3, 2, 0, 13, 1, 9, 6, 10, 5];
        let swap = [(0, 13)];
        let mut objective = CongestionObjective::new(&guest, &host).unwrap();
        let before = objective.rebuild(&start);
        assert_eq!(before.primary, 3);
        let mut exact = CongestionObjective::new(&guest, &host).unwrap();
        exact.rebuild(&start);
        let truth = exact.apply_disjoint_swaps(&mut start.clone(), &swap);
        assert_eq!(truth.primary, 2);
        let limit = |cost: Cost| cost.primary < before.primary;
        let mut table = start.clone();
        let cost = objective.apply_bounded(&mut table, &swap, &limit);
        assert!(
            cost.primary <= truth.primary,
            "bound {cost:?} above the exact {truth:?}"
        );
        assert_eq!(cost.secondary, truth.secondary);
        assert_eq!(objective.apply_disjoint_swaps(&mut table, &swap), before);
    }

    #[test]
    fn removal_bounds_hold_for_every_block_swap_of_shuffled_tables() {
        // The removal test makes the committed maximum a lower bound only
        // while some link at it is left untouched by the old routes.
        // Shuffled tables of small pairs have few links at their maximum,
        // and block swaps that touch them all and lower it. Under a limit
        // that rejects every cost at the committed maximum, each block swap
        // that passes either test is bounded, so a removal test one link
        // too lenient returns a bound above some exact cost here.
        use rand::seq::SliceRandom;
        let mut removal = 0;
        for (guest, host) in [
            (Grid::torus(shape(&[4, 6])), Grid::mesh(shape(&[4, 6]))),
            (Grid::torus(shape(&[4, 4, 4])), Grid::mesh(shape(&[8, 8]))),
            (Grid::mesh(shape(&[3, 4, 5])), Grid::torus(shape(&[6, 10]))),
        ] {
            let (n, radices) = (guest.size(), guest.shape());
            for seed in 0..6 {
                let mut start: Vec<u64> = (0..n).collect();
                start.shuffle(&mut StdRng::seed_from_u64(seed));
                let mut objective = CongestionObjective::new(&guest, &host).unwrap();
                let mut exact = CongestionObjective::new(&guest, &host).unwrap();
                let before = objective.rebuild(&start);
                exact.rebuild(&start);
                let at_max = links_at_max(&objective.loads);
                let limit = |cost: Cost| cost.primary < before.primary;
                let mut swaps = Vec::new();
                for dim in 0..radices.dim() {
                    let (stride, radix) = (radices.weight(dim + 1), u64::from(radices.radix(dim)));
                    for low in 0..radix {
                        for high in low + 1..radix {
                            block_swaps(n, stride, radix, low, high, &mut swaps);
                            let mut table = start.clone();
                            let cost = objective.apply_bounded(&mut table, &swaps, &limit);
                            let truth = exact.apply_disjoint_swaps(&mut start.clone(), &swaps);
                            if objective.last.bounded.is_some() {
                                removal += u32::from(old_route_hops(&objective) >= at_max);
                                assert_eq!(cost.secondary, truth.secondary);
                                assert!(
                                    cost.primary <= truth.primary,
                                    "{guest} -> {host}, seed {seed}, planes {low} and {high} \
                                     of dimension {dim}: bound {cost:?} above the exact {truth:?}"
                                );
                            } else {
                                assert_eq!(cost, truth);
                            }
                            let restored = objective.apply_disjoint_swaps(&mut table, &swaps);
                            assert_eq!(restored, before);
                            assert_eq!(exact.apply_disjoint_swaps(&mut table, &swaps), before);
                        }
                    }
                }
            }
        }
        assert!(removal > 0);
    }

    /// Applies the bounded move `first` to `start` under a limit that
    /// rejects every worse cost, follows it with a call that is not its
    /// undo — a swap, a batch, a bounded batch — and checks that call and
    /// the follow-up's own undo against a rebuild.
    fn assert_calls_after_a_bounded_move_are_exact(
        guest: &Grid,
        host: &Grid,
        start: &[u64],
        first: &[(u64, u64)],
    ) {
        let follow_ups = [vec![(5u64, 60u64)], vec![(8, 15), (9, 14), (10, 13)]];
        for (kind, second) in (0..3).flat_map(|kind| follow_ups.iter().map(move |s| (kind, s))) {
            let mut objective = CongestionObjective::new(guest, host).unwrap();
            let before = objective.rebuild(start);
            let mut table = start.to_vec();
            objective.apply_bounded(&mut table, first, &|cost| cost <= before);
            assert!(
                objective.last.bounded.is_some(),
                "the probe move must be bounded"
            );
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
            let mut fresh = CongestionObjective::new(guest, host).unwrap();
            assert_eq!(cost, fresh.rebuild(&table), "kind {kind}, {second:?}");
            assert_eq!(objective.loads, fresh.loads);
            // The follow-up's undo lands on the bounded move's exact cost.
            let undone = if kind == 0 && second.len() == 1 {
                let (a, b) = second[0];
                table.swap(a as usize, b as usize);
                objective.apply_swap(&table, a, b)
            } else {
                objective.apply_disjoint_swaps(&mut table, second)
            };
            assert_eq!(table, moved);
            assert_eq!(undone, fresh.rebuild(&moved), "undo of {second:?}");
            assert_eq!(objective.loads, fresh.loads);
            assert_eq!(histogram(&objective.tracker), histogram(&fresh.tracker));
        }
    }

    #[test]
    fn calls_after_a_bounded_congestion_move_that_do_not_undo_it_are_exact() {
        // A bounded move followed by anything but its undo leaves its loads
        // unrouted; the next call must carry it or price from scratch. Each
        // follow-up — a swap, a batch, a bounded move — and its undo match a
        // rebuild.
        let (guest, host, start) = bound_pair();
        assert_calls_after_a_bounded_move_are_exact(&guest, &host, &start, &[(0, 37)]);
    }

    /// Checks the cost `objective` returned for `table` under `limit`
    /// against a fresh rebuild: an exact cost equals the rebuild's, with
    /// its loads, and with its histogram once the move is counted or
    /// closed; a bound is at most the exact cost in both components, keeps
    /// the exact secondary, and is rejected by `limit`. Returns whether the
    /// cost is exact.
    fn assert_exact_or_bounded(
        objective: &CongestionObjective,
        (guest, host): (&Grid, &Grid),
        table: &[u64],
        cost: Cost,
        limit: &dyn Fn(Cost) -> bool,
        what: &str,
    ) -> bool {
        let mut fresh = CongestionObjective::new(guest, host).unwrap();
        let truth = fresh.rebuild(table);
        if let Some(bound) = objective.last.bounded {
            assert_eq!(cost, bound, "{what}");
            assert!(!limit(cost), "{what}: the limit accepts the bound {cost:?}");
            assert!(
                cost.primary <= truth.primary,
                "{what}: {cost:?} > {truth:?}"
            );
            assert_eq!(cost.secondary, truth.secondary, "{what}");
            return false;
        }
        assert_eq!(cost, truth, "{what}");
        assert_eq!(objective.loads, fresh.loads, "{what}");
        if !objective.last.open || objective.last.counted {
            let histograms = (histogram(&objective.tracker), histogram(&fresh.tracker));
            assert_eq!(histograms.0, histograms.1, "{what}");
        }
        true
    }

    /// Repeats the batch `swaps` on `table`, the way a caller undoes it:
    /// through [`Objective::apply_disjoint_swaps`] (`how == 0`),
    /// [`Objective::apply_bounded`] under `limit` (`how == 1`), or
    /// [`Objective::apply_swap`] for a batch of one. Returns the cost and
    /// the limit the call was made under, which is accept-all for the two
    /// exact methods.
    fn repeat<'a>(
        objective: &mut CongestionObjective,
        table: &mut [u64],
        swaps: &[(u64, u64)],
        how: u32,
        limit: &'a dyn Fn(Cost) -> bool,
    ) -> (Cost, &'a dyn Fn(Cost) -> bool) {
        match (how, swaps) {
            (1, _) => (objective.apply_bounded(table, swaps, limit), limit),
            (2, &[(a, b)]) => {
                table.swap(a as usize, b as usize);
                (objective.apply_swap(table, a, b), &|_| true)
            }
            _ => (objective.apply_disjoint_swaps(table, swaps), &|_| true),
        }
    }

    #[test]
    fn carried_moves_price_once_and_undo_exactly() {
        // The carry wall. Random walks mix rotations, reversals, swaps and
        // block swaps, each priced under a limit drawn from three:
        // reject-all, accept-all and the annealer's test on a seeded draw.
        // A rotation's first batch goes under reject-all, as the annealer
        // sends it, and is carried into the second. A move its limit
        // rejects is undone, by any of the three methods and limits, or
        // left in place, where a bounded one is carried into the next batch
        // or, a block swap, rebuilt. Every return is exact, with the loads
        // of a fresh rebuild, or a bound at most the exact cost with its
        // secondary that its limit rejects (`assert_exact_or_bounded`).
        // Every undo that closes its move restores the cost, the loads and
        // the histogram. A repeat of an accepted rotation's second batch
        // under accept-all gets the exact cost, so an undo that handed the
        // reopened half's bound to a limit that accepts it fails here.
        use rand::seq::SliceRandom;
        let pairs = [
            (Grid::torus(shape(&[2, 2])), Grid::ring(4).unwrap()),
            (Grid::line(4).unwrap(), Grid::mesh(shape(&[2, 2]))),
            (Grid::ring(12).unwrap(), Grid::mesh(shape(&[3, 4]))),
            (Grid::torus(shape(&[4, 4])), Grid::mesh(shape(&[4, 4]))),
            (Grid::mesh(shape(&[2, 3, 4])), Grid::torus(shape(&[4, 6]))),
            (Grid::hypercube(5).unwrap(), Grid::torus(shape(&[4, 8]))),
            (Grid::mesh(shape(&[3, 3, 4])), Grid::torus(shape(&[6, 6]))),
            (Grid::torus(shape(&[4, 4, 4])), Grid::mesh(shape(&[8, 8]))),
        ];
        let optimizer = Optimizer::new(OptimizerConfig {
            mix: MoveMix {
                reverse_per_mille: 250,
                kcycle_per_mille: 350,
                block_per_mille: 200,
            },
            ..OptimizerConfig::default()
        });
        let reject_all = |_: Cost| false;
        let accept_all = |_: Cost| true;
        // Carried batches; reopened halves, bounded and exact; undos that
        // closed their move; bounded block swaps left in place before a
        // batch; repeats of an accepted rotation's second batch.
        let mut seen = [0u32; 6];
        for (index, (guest, host)) in pairs.iter().enumerate() {
            let grids = (guest, host);
            let n = guest.size();
            let mut rng = StdRng::seed_from_u64(index as u64);
            let mut table = embed(guest, host).unwrap().to_table().unwrap();
            if index % 2 == 1 {
                table.shuffle(&mut rng);
            }
            let mut objective = CongestionObjective::new(guest, host).unwrap();
            let acceptance = Acceptance::new(objective.rebuild(&table), n);
            let (mut first, mut swaps) = (Vec::new(), Vec::new());
            for step in 0..300u64 {
                let before = CongestionObjective::new(guest, host)
                    .unwrap()
                    .rebuild(&table);
                let draw = StdRng::seed_from_u64(step);
                let temperature = [0.0, 0.01, 2.0][step as usize % 3];
                let annealer =
                    |cost: Cost| acceptance.accepts(cost, before, temperature, &mut draw.clone());
                let limits: [&dyn Fn(Cost) -> bool; 3] = [&reject_all, &accept_all, &annealer];
                let limit = limits[rng.gen_range(0..3usize)];
                let what = format!("pair {index}, step {step}");
                let proposal = optimizer.propose(&mut rng, guest.shape(), n);
                match proposal {
                    Move::Swap { a, b } => {
                        swaps.clear();
                        swaps.push((a, b));
                    }
                    Move::Reverse { start, end } => reversal_swaps(start, end, &mut swaps),
                    Move::Rotate { start, end } => {
                        reversal_swaps(start, end, &mut first);
                        let cost = objective.apply_bounded(&mut table, &first, &reject_all);
                        let half = format!("{what}, first half");
                        assert_exact_or_bounded(
                            &objective,
                            grids,
                            &table,
                            cost,
                            &reject_all,
                            &half,
                        );
                        if let Some(bound) = objective.last.bounded {
                            assert_eq!(bound.primary, 0, "{half}");
                        }
                        reversal_swaps(start, end - 1, &mut swaps);
                    }
                    Move::BlockSwap {
                        stride,
                        radix,
                        low,
                        high,
                    } => block_swaps(n, stride, radix, low, high, &mut swaps),
                }
                let rotation = matches!(proposal, Move::Rotate { .. });
                let last = &objective.last;
                if last.bounded.is_some() && uniform_span(&last.swaps) && !uniform_span(&swaps) {
                    seen[4] += 1;
                }
                let cost = objective.apply_bounded(&mut table, &swaps, limit);
                seen[0] += u32::from(!objective.last.carried.is_empty());
                assert_exact_or_bounded(&objective, grids, &table, cost, limit, &what);
                if limit(cost) {
                    if rotation && rng.gen_bool(0.3) {
                        let cost = objective.apply_bounded(&mut table, &swaps, &accept_all);
                        let again = format!("{what}, second half again");
                        assert!(assert_exact_or_bounded(
                            &objective,
                            grids,
                            &table,
                            cost,
                            &accept_all,
                            &again
                        ));
                        seen[5] += 1;
                    }
                    continue;
                }
                if rng.gen_bool(0.2) {
                    // Left in place: a bounded move is carried or rebuilt.
                    continue;
                }
                let carried = !objective.last.carried.is_empty();
                let how = rng.gen_range(0..3);
                let limit = limits[rng.gen_range(0..3usize)];
                let (mut cost, limit) = repeat(&mut objective, &mut table, &swaps, how, limit);
                let undo = format!("{what}, undo");
                let exact = assert_exact_or_bounded(&objective, grids, &table, cost, limit, &undo);
                if carried {
                    seen[1 + usize::from(exact)] += 1;
                }
                let mut whole = !rotation;
                if rotation && rng.gen_bool(0.9) {
                    let how = rng.gen_range(0..3);
                    let drawn = limits[rng.gen_range(0..3usize)];
                    let limit;
                    (cost, limit) = repeat(&mut objective, &mut table, &first, how, drawn);
                    let undo = format!("{what}, undo of the first half");
                    assert_exact_or_bounded(&objective, grids, &table, cost, limit, &undo);
                    whole = true;
                }
                if whole && !objective.last.open {
                    assert_eq!(cost, before, "{what}: the undo must restore the cost");
                    seen[3] += 1;
                }
            }
        }
        for (count, name) in seen.iter().zip([
            "carried batches",
            "bounded reopens",
            "exact reopens",
            "closing undos",
            "bounded block swaps left before a batch",
            "repeated second halves",
        ]) {
            assert!(*count >= 10, "only {count} {name}");
        }
    }

    /// The sorted ids of the edges `moved` holds.
    fn moved_ids(moved: &[MovedEdge]) -> Vec<u32> {
        let mut ids: Vec<u32> = moved.iter().map(|edge| edge.id).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn move_epochs_wrap_without_matching_old_stamps() {
        // The congestion objective's link, edge and node stamps ride on a
        // `u32` move epoch that restarts at 1 when it wraps. Block swaps of
        // planes 0 ↔ 1 and 1 ↔ 2 at epochs 1 and 2 leave stale stamps;
        // after a jump to the last epoch, a reversal prices at `u32::MAX`,
        // and the two block swaps price again in the other order at the
        // wrapped epochs 1 and 2. There an uncleared stamp would hide edges
        // and links, or mark a plane the batch does not move as moved, with
        // a stale partner that pairs a crossing edge with a false twin.
        // Each batch must move the edges a fresh objective moves, and match
        // a rebuild.
        let (guest, host, mut table) = bound_pair();
        let (n, stride, radix) = (guest.size(), guest.shape().weight(1), 4);
        let block = |low: u64, high: u64| {
            let mut swaps = Vec::new();
            block_swaps(n, stride, radix, low, high, &mut swaps);
            swaps
        };
        let (first, second) = (block(0, 1), block(1, 2));
        let reversal = vec![(3u64, 9u64), (4, 8), (5, 7)];
        let mut congestion = CongestionObjective::new(&guest, &host).unwrap();
        congestion.rebuild(&table);
        for (step, swaps) in [&first, &second, &reversal, &second, &first]
            .into_iter()
            .enumerate()
        {
            if step == 2 {
                congestion.last.epoch = u32::MAX - 1;
            }
            let mut reference = CongestionObjective::new(&guest, &host).unwrap();
            reference.rebuild(&table);
            reference.apply_disjoint_swaps(&mut table.clone(), swaps);
            let cost = congestion.apply_disjoint_swaps(&mut table, swaps);
            assert_eq!(congestion.last.epoch, [1, 2, u32::MAX, 1, 2][step]);
            let moved = moved_ids(&congestion.last.moved);
            assert_eq!(moved, moved_ids(&reference.last.moved), "step {step}");
            let mut fresh = CongestionObjective::new(&guest, &host).unwrap();
            assert_eq!(cost, fresh.rebuild(&table), "step {step}");
            assert_eq!(congestion.loads, fresh.loads, "step {step}");
        }
    }

    #[test]
    fn block_swap_twin_edges_move_no_load() {
        // A block swap maps every edge inside one of its two hyperplanes
        // onto its twin in the other, in the same orientation: the two
        // trade routes, so neither is moved. Every block swap of a torus, a
        // mesh and a guest with a radix-2 dimension (a ring of 2 has one
        // canonical edge, which a swap of its two planes maps onto itself
        // reversed) from a shuffled table moves exactly the edges that
        // cross the two planes, and matches a rebuild. A reversal inside
        // one row maps its edges onto edges that run backwards, so it
        // keeps every edge it touches, with or without the twin search.
        use rand::seq::SliceRandom;
        for (guest, host) in [
            (Grid::torus(shape(&[4, 3, 5])), Grid::mesh(shape(&[6, 10]))),
            (Grid::mesh(shape(&[3, 4, 5])), Grid::torus(shape(&[6, 10]))),
            (Grid::torus(shape(&[3, 2, 4])), Grid::mesh(shape(&[4, 6]))),
        ] {
            let (n, radices) = (guest.size(), guest.shape());
            let mut start: Vec<u64> = (0..n).collect();
            start.shuffle(&mut StdRng::seed_from_u64(n));
            let mut objective = CongestionObjective::new(&guest, &host).unwrap();
            let before = objective.rebuild(&start);
            let check = |objective: &CongestionObjective, cost: Cost, table: &[u64]| {
                let mut fresh = CongestionObjective::new(&guest, &host).unwrap();
                assert_eq!(cost, fresh.rebuild(table), "{guest}");
                assert_eq!(objective.loads, fresh.loads, "{guest}");
            };
            let mut swaps = Vec::new();
            for dim in 0..radices.dim() {
                let (stride, radix) = (radices.weight(dim + 1), u64::from(radices.radix(dim)));
                let plane = |x: u64| x / stride % radix;
                for (low, high) in
                    (0..radix).flat_map(|low| (low + 1..radix).map(move |high| (low, high)))
                {
                    block_swaps(n, stride, radix, low, high, &mut swaps);
                    let crossing: Vec<u32> = (0..objective.edges.len())
                        .filter(|&e| {
                            let (t, h) = objective.edges.endpoints(e);
                            let swapped = |x: u64| plane(x) == low || plane(x) == high;
                            (swapped(t) || swapped(h)) && plane(t) != plane(h)
                        })
                        .map(|e| e as u32)
                        .collect();
                    let mut table = start.clone();
                    let cost = objective.apply_disjoint_swaps(&mut table, &swaps);
                    let planes = format!("planes {low} and {high} of dimension {dim}");
                    let moved = moved_ids(&objective.last.moved);
                    assert_eq!(moved, crossing, "{guest}: {planes}");
                    check(&objective, cost, &table);
                    assert_eq!(objective.apply_disjoint_swaps(&mut table, &swaps), before);
                }
            }

            let row = u64::from(radices.radix(radices.dim() - 1));
            reversal_swaps(0, row - 1, &mut swaps);
            let mut touched: Vec<u32> = swaps
                .iter()
                .flat_map(|&(a, b)| [a, b])
                .flat_map(|x| objective.edges.incident(x).to_vec())
                .collect();
            touched.sort_unstable();
            touched.dedup();
            let mut table = start.clone();
            let cost = objective.apply_disjoint_swaps(&mut table, &swaps);
            assert_eq!(
                moved_ids(&objective.last.moved),
                touched,
                "{guest}: reversal of a row"
            );
            check(&objective, cost, &table);
            // The twin search, which only block swaps take, drops none of
            // the reversal's edges either.
            let edges = &objective.edges;
            let (mut edge_stamp, mut node_stamp) = (vec![0; edges.len()], vec![(0, 0); n as usize]);
            let mut moved = Vec::new();
            edges.collect_batch::<true>(
                &start,
                &swaps,
                &mut edge_stamp,
                &mut node_stamp,
                1,
                &mut moved,
            );
            assert_eq!(
                moved_ids(&moved),
                touched,
                "{guest}: twins of a row's reversal"
            );
        }
    }

    #[test]
    fn optimizer_is_monotone_and_deterministic() {
        let guest = Grid::torus(shape(&[4, 6]));
        let host = Grid::mesh(shape(&[2, 2, 2, 3]));
        let e = embed(&guest, &host).unwrap();
        let config = OptimizerConfig {
            seed: 9,
            steps: 500,
            ..OptimizerConfig::default()
        };
        let mut objective = CongestionObjective::new(&guest, &host).unwrap();
        let first = Optimizer::new(config).optimize(&e, &mut objective).unwrap();
        assert!(first.report.best <= first.report.initial);
        assert!(first.embedding.is_injective());

        let mut objective = CongestionObjective::new(&guest, &host).unwrap();
        let second = Optimizer::new(config).optimize(&e, &mut objective).unwrap();
        assert_eq!(first.table, second.table, "same seed, same table");
        assert_eq!(first.report, second.report);

        let mut objective = CongestionObjective::new(&guest, &host).unwrap();
        let other_seed = Optimizer::new(OptimizerConfig { seed: 10, ..config })
            .optimize(&e, &mut objective)
            .unwrap();
        // Different seeds explore differently (reports rarely collide).
        assert!(other_seed.report.best <= other_seed.report.initial);
    }

    #[test]
    fn optimizer_returns_cost_of_returned_table() {
        let guest = Grid::hypercube(4).unwrap();
        let host = Grid::mesh(shape(&[4, 4]));
        let e = embed(&guest, &host).unwrap();
        let mut objective = CongestionObjective::new(&guest, &host).unwrap();
        let outcome = Optimizer::new(OptimizerConfig {
            seed: 3,
            steps: 400,
            ..OptimizerConfig::default()
        })
        .optimize(&e, &mut objective)
        .unwrap();
        let mut fresh = CongestionObjective::new(&guest, &host).unwrap();
        assert_eq!(fresh.rebuild(&outcome.table), outcome.report.best);
        let report = congestion_sequential(&outcome.embedding).unwrap();
        assert_eq!(report.max_congestion, outcome.report.best.primary);
        assert_eq!(report.total_path_length, outcome.report.best.secondary);
    }

    #[test]
    fn tiny_graphs_survive_optimization() {
        // n = 2: only one non-identity permutation; must not panic.
        let guest = Grid::ring(2).unwrap();
        let host = Grid::ring(2).unwrap();
        let e = Embedding::identity(guest.clone(), host.clone()).unwrap();
        let mut objective = CongestionObjective::new(&guest, &host).unwrap();
        let outcome = Optimizer::new(OptimizerConfig {
            seed: 1,
            steps: 50,
            ..OptimizerConfig::default()
        })
        .optimize(&e, &mut objective)
        .unwrap();
        assert!(outcome.embedding.is_injective());
        assert!(outcome.report.best <= outcome.report.initial);
    }

    #[test]
    fn kcycle_moves_escape_plateaus_pairwise_moves_cannot() {
        // The plateau story, swept over the exact same-shape family the
        // report runs (every distinct torus shape of size 4..=36 and
        // dim <= 3 into the identical-shape mesh — 85 pairs):
        //
        // 1. From the *constructive* start, nothing improves — not the
        //    historical swap + reversal repertoire, and not the compound
        //    one. That is not a search failure: each torus ring of radix l
        //    must cross each of its l-1 mesh line cuts at least twice
        //    (a cycle leaves and re-enters every cut), and the constructive
        //    embedding achieves exactly two crossings per cut for both the
        //    max-congestion primary and total-path-length secondary. The
        //    plateau is the global optimum, so both pins below are laws,
        //    not tuning artifacts.
        // 2. From a seeded *shuffled* start, pairwise-only annealing sticks
        //    at local optima the compound repertoire
        //    ([`MoveMix::compound`]: k-cycle rotations + dimension-aligned
        //    block swaps in the mix) escapes: with the identical seed and
        //    schedule, compound strictly beats the pairwise result on a
        //    pinned count of the 85 trials. This is the escape the
        //    compound moves exist for; the count is seeded, deterministic,
        //    and moves only when the RNG stream or repertoire changes.
        use rand::seq::SliceRandom;
        use topology::families::distinct_shapes_of_size;
        let mut trials = 0u64;
        let mut pairwise_stuck = 0u32;
        let mut constructive_improved = 0u32;
        let mut compound_wins = 0u32;
        for n in 4..=36u64 {
            for s in distinct_shapes_of_size(n, 3) {
                let guest = Grid::torus(s.clone());
                let host = Grid::mesh(s);
                let constructive = embed(&guest, &host).unwrap().to_table().unwrap();
                let mut shuffled = constructive.clone();
                shuffled.shuffle(&mut StdRng::seed_from_u64(1987 + trials));
                trials += 1;
                let run = |mix: MoveMix, start: &[u64]| {
                    let mut objective = CongestionObjective::new(&guest, &host).unwrap();
                    Optimizer::new(OptimizerConfig {
                        seed: 1987,
                        steps: 1_200,
                        mix,
                        ..OptimizerConfig::default()
                    })
                    .refine_table(guest.shape(), start.to_vec(), &mut objective)
                    .1
                };
                let from_constructive = run(MoveMix::pairwise(), &constructive);
                if from_constructive.best == from_constructive.initial {
                    pairwise_stuck += 1;
                }
                let compound_constructive = run(MoveMix::compound(), &constructive);
                if compound_constructive.best < compound_constructive.initial {
                    constructive_improved += 1;
                }
                let pairwise = run(MoveMix::pairwise(), &shuffled);
                let compound = run(MoveMix::compound(), &shuffled);
                if compound.best < pairwise.best {
                    compound_wins += 1;
                }
            }
        }
        assert_eq!(trials, 85, "the report sweep's same_shape family");
        assert_eq!(
            pairwise_stuck, 85,
            "a pairwise walk left the constructive plateau — the cut-crossing \
             lower bound says that table cannot be real; check the objective"
        );
        assert_eq!(
            constructive_improved, 0,
            "a compound walk beat the constructive same-shape cost, which \
             meets the cycle cut-crossing lower bound exactly — check the \
             objective before celebrating"
        );
        assert_eq!(
            compound_wins, 27,
            "seeded and deterministic; re-measure and update this pin \
             alongside any deliberate RNG-stream or repertoire change"
        );
    }

    #[test]
    fn mismatched_sizes_are_rejected() {
        let guest = Grid::ring(4).unwrap();
        let host = Grid::ring(8).unwrap();
        assert!(matches!(
            CongestionObjective::new(&guest, &host),
            Err(EmbeddingError::SizeMismatch { .. })
        ));
        assert!(matches!(
            WirelengthObjective::new(&guest, &host),
            Err(EmbeddingError::SizeMismatch { .. })
        ));
    }
}

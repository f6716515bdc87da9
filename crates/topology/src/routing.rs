//! The shared dimension-ordered next-hop rule.
//!
//! Both the congestion model in the `embeddings` crate and the simulator in
//! the `netsim` crate route along dimension-ordered shortest paths: correct
//! the lowest dimension whose digits differ, moving along the shorter arc on
//! toruses and breaking equidistant-arc ties in the *forward* (+1)
//! direction. Keeping the rule in one place guarantees the two crates can
//! never silently disagree about which arc a tied route takes.
//!
//! Both entry points read the two ends as digit rows (`&[u32]`, digit `j`
//! at `[j]`, as [`DigitTable::row`] hands them out) with the source's node
//! index, so no node index is decoded on the way:
//!
//! * [`next_hop_toward`] — the simple form: the index of the next node;
//! * [`for_each_hop`] — the batched form: emit the *entire* route as
//!   per-dimension sweeps (direction and step count computed once per
//!   dimension, then pure index arithmetic per hop), reporting each hop's
//!   dimension, direction and wrap with the node indices on either side,
//!   exactly the hops repeated [`next_hop_toward`] calls take;
//!   [`DigitTable::for_each_hop`] runs it between two nodes of a table.
//!
//! The batching is sound because dimension-ordered routing fully corrects
//! one dimension before touching the next, and the shorter-arc choice is
//! invariant along a correction (each step shortens the chosen arc and
//! lengthens the other), so a per-hop "first differing dimension" rescan
//! is redundant work the batched form skips.
//!
//! [`DigitTable::row`]: crate::DigitTable::row
//! [`DigitTable::for_each_hop`]: crate::DigitTable::for_each_hop

use crate::grid::Grid;

/// One dimension-ordered hop, as reported by [`for_each_hop`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopTaken {
    /// The dimension that was corrected.
    pub dim: usize,
    /// Whether the step went in the forward (+1) direction. Equidistant
    /// torus arcs always step forward (the tie-break rule).
    pub forward: bool,
    /// Whether the step used a torus wrap-around edge.
    pub wrapped: bool,
}

/// The dimension to correct and the direction to step, under the shared
/// rule: the lowest dimension whose digits differ, stepping `+1` on meshes
/// when the target is larger (else `-1`), and along the shorter arc on
/// toruses with ties broken toward `+1`.
///
/// Returns `None` when `from == to`.
#[inline]
fn dor_step(grid: &Grid, from: &[u32], to: &[u32]) -> Option<(usize, bool)> {
    let j = from.iter().zip(to).position(|(x, y)| x != y)?;
    let (x, y) = (from[j], to[j]);
    let forward = if grid.is_torus() {
        let l = grid.shape().radix(j) as i64;
        let ahead = (y as i64 - x as i64).rem_euclid(l);
        let behind = (x as i64 - y as i64).rem_euclid(l);
        // Shorter arc; equidistant arcs take the forward direction.
        ahead <= behind
    } else {
        y > x
    };
    Some((j, forward))
}

/// One digit step in the given direction: the next digit value and whether
/// the step wrapped around the dimension (torus wrap edges only).
#[inline]
pub(crate) fn step_digit(l: u32, digit: u32, forward: bool) -> (u32, bool) {
    if forward {
        if digit + 1 == l {
            (0, true)
        } else {
            (digit + 1, false)
        }
    } else if digit == 0 {
        (l - 1, true)
    } else {
        (digit - 1, false)
    }
}

/// The linear-index delta of one digit step, from the dimension's radix and
/// weight: `±w` for interior steps, `∓(l−1)·w` across the wrap edge.
#[inline]
pub(crate) fn step_index(index: u64, l: u32, w: u64, forward: bool, wrapped: bool) -> u64 {
    match (forward, wrapped) {
        (true, false) => index + w,
        (true, true) => index - (l as u64 - 1) * w,
        (false, false) => index - w,
        (false, true) => index + (l as u64 - 1) * w,
    }
}

/// Asserts that both rows have one digit per dimension of `grid`.
#[inline]
fn check_rows(grid: &Grid, from: &[u32], to: &[u32]) {
    let d = grid.dim();
    assert!(
        from.len() == d && to.len() == d,
        "digit rows need {d} digits"
    );
}

/// The index of the next node on the dimension-ordered route from `from`
/// (whose linear index is `from_index`) to `to`: correct the lowest
/// dimension whose digits differ, taking the shorter arc on toruses (ties
/// forward).
///
/// Returns `None` when the rows are equal. This is the one
/// dimension-ordered routing rule shared by `embeddings::congestion` and
/// `netsim`.
///
/// # Panics
///
/// Panics if a row's length is not the grid's dimension. `from_index` must
/// be the index of `from`; the returned index is computed from it.
pub fn next_hop_toward(grid: &Grid, from: &[u32], from_index: u64, to: &[u32]) -> Option<u64> {
    check_rows(grid, from, to);
    let (j, forward) = dor_step(grid, from, to)?;
    let l = grid.shape().radix(j);
    let (_, wrapped) = step_digit(l, from[j], forward);
    Some(step_index(
        from_index,
        l,
        grid.shape().weight(j + 1),
        forward,
        wrapped,
    ))
}

/// Emits every hop of the dimension-ordered route from `from` (whose linear
/// index is `from_index`) to `to`, lowest dimension first — the batched
/// form of calling [`next_hop_toward`] until it returns `None`.
///
/// `emit(hop, before, after)` receives every hop in route order with the
/// node indices on either side, but the direction and step count are
/// computed **once per dimension** (one pass per dimension instead of one
/// dimension rescan per hop), so each hop costs one wrap test and one index
/// add. This is the route-expansion kernel behind `embeddings::congestion`,
/// the congestion objective's incremental ±1 updates, and netsim's routes.
///
/// # Panics
///
/// Panics if a row's length is not the grid's dimension. `from_index` must
/// be the index of `from`; the reported indices are computed from it.
pub fn for_each_hop<F>(grid: &Grid, from: &[u32], from_index: u64, to: &[u32], mut emit: F)
where
    F: FnMut(HopTaken, u64, u64),
{
    check_rows(grid, from, to);
    let shape = grid.shape();
    let torus = grid.is_torus();
    let mut index = from_index;
    for (j, (&x, &y)) in from.iter().zip(to).enumerate() {
        if x == y {
            continue;
        }
        let l = shape.radix(j);
        let w = shape.weight(j + 1);
        // Direction and hop count for the whole dimension. On toruses the
        // shorter arc wins with ties forward — the same rule as `dor_step`,
        // and invariant along the correction (each step shortens the chosen
        // arc), so no per-hop re-evaluation is needed.
        let (forward, steps) = if torus {
            let ahead = if y >= x {
                (y - x) as u64
            } else {
                // Cast before adding: y + l would overflow u32 for radices
                // near u32::MAX.
                y as u64 + l as u64 - x as u64
            };
            let behind = l as u64 - ahead;
            if ahead <= behind {
                (true, ahead)
            } else {
                (false, behind)
            }
        } else if y > x {
            (true, (y - x) as u64)
        } else {
            (false, (x - y) as u64)
        };
        let mut digit = x;
        for _ in 0..steps {
            let before = index;
            let (next, wrapped) = step_digit(l, digit, forward);
            index = step_index(index, l, w, forward, wrapped);
            digit = next;
            emit(
                HopTaken {
                    dim: j,
                    forward,
                    wrapped,
                },
                before,
                index,
            );
        }
        debug_assert_eq!(digit, y, "dimension fully corrected");
    }
}

/// The canonical undirected-link slot of a hop [`for_each_hop`] reports,
/// for use with a flat `Vec` of [`Grid::link_count`] load counters.
///
/// Every physical link is identified with its forward traversal, i.e. the
/// [`Grid::link_index`] of the endpoint whose step along `hop.dim` in the
/// `+1` direction (wrapping on toruses) reaches the other endpoint. For the
/// doubly-covered links of length-2 torus dimensions the endpoint with
/// coordinate 0 is the canonical tail. `before` and `after` are the node
/// indices on either side of the hop.
#[inline]
pub fn link_slot_of_hop(grid: &Grid, hop: HopTaken, before: u64, after: u64) -> u64 {
    let l = grid.shape().radix(hop.dim);
    let tail = if hop.forward && !(hop.wrapped && l == 2) {
        before
    } else {
        after
    };
    grid.link_index(tail, hop.dim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    /// The stepwise reference for [`for_each_hop`]: takes one hop in place,
    /// advancing the digit row `current` and its index `current_index`
    /// toward `target`, and reports it; `None` once `current == target`.
    fn advance_toward(
        grid: &Grid,
        current: &mut [u32],
        current_index: &mut u64,
        target: &[u32],
    ) -> Option<HopTaken> {
        let (j, forward) = dor_step(grid, current, target)?;
        let l = grid.shape().radix(j);
        let w = grid.shape().weight(j + 1);
        let (next_digit, wrapped) = step_digit(l, current[j], forward);
        debug_assert!(!wrapped || grid.is_torus(), "meshes never wrap");
        current[j] = next_digit;
        *current_index = step_index(*current_index, l, w, forward, wrapped);
        Some(HopTaken {
            dim: j,
            forward,
            wrapped,
        })
    }

    #[test]
    fn equidistant_torus_arcs_break_ties_forward() {
        // Even radices put the antipode at exactly l/2 in both directions;
        // the rule must pick the forward (+1) arc, never the backward one.
        let ring = Grid::ring(4).unwrap();
        assert_eq!(next_hop_toward(&ring, &[0], 0, &[2]), Some(1));

        let torus = Grid::torus(shape(&[6, 6]));
        // Digit 0 weighs 6: (0, 0) steps forward to (1, 0), node 6 …
        assert_eq!(next_hop_toward(&torus, &[0, 0], 0, &[3, 0]), Some(6));
        // … and (5, 2), node 32, wraps forward to (0, 2), node 2.
        assert_eq!(next_hop_toward(&torus, &[5, 2], 32, &[2, 2]), Some(2));
    }

    #[test]
    #[should_panic(expected = "digit rows")]
    fn rows_of_the_wrong_length_are_rejected() {
        let torus = Grid::torus(shape(&[6, 6]));
        next_hop_toward(&torus, &[0], 0, &[3]);
    }

    #[test]
    fn hops_walk_shortest_paths() {
        for grid in [
            Grid::torus(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[4, 2, 3])),
            Grid::torus(shape(&[5, 3])),
            Grid::hypercube(4).unwrap(),
        ] {
            let table = grid.digit_table();
            for a in grid.nodes() {
                for b in grid.nodes() {
                    let mut current = a;
                    let mut hops = 0u64;
                    while let Some(next) =
                        next_hop_toward(&grid, table.row(current), current, table.row(b))
                    {
                        assert_eq!(grid.distance_index(current, next).unwrap(), 1);
                        current = next;
                        hops += 1;
                        assert!(hops <= grid.diameter(), "non-terminating route");
                    }
                    assert_eq!(current, b);
                    assert_eq!(hops, grid.distance_index(a, b).unwrap(), "{grid} {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn advance_toward_agrees_with_next_hop_toward() {
        for grid in [
            Grid::torus(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[3, 5])),
            Grid::ring(8).unwrap(),
        ] {
            let table = grid.digit_table();
            for a in grid.nodes() {
                for b in grid.nodes() {
                    let target = table.row(b);
                    let mut current = table.row(a).to_vec();
                    let mut index = a;
                    loop {
                        let expected = next_hop_toward(&grid, &current, index, target);
                        let before = index;
                        match advance_toward(&grid, &mut current, &mut index, target) {
                            None => {
                                assert!(expected.is_none());
                                break;
                            }
                            Some(hop) => {
                                assert_eq!(Some(index), expected);
                                assert_eq!(current, table.row(index));
                                // The canonical link slot is shared by both
                                // traversal directions of the same link.
                                let slot = link_slot_of_hop(&grid, hop, before, index);
                                assert!(slot < grid.link_count());
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn link_slots_are_direction_independent() {
        // Route every adjacent pair in both directions: the two traversals
        // of one physical link must land in the same canonical slot.
        for grid in [
            Grid::torus(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[3, 4])),
            Grid::ring(2).unwrap(),
            Grid::torus(shape(&[2, 2])),
        ] {
            let table = grid.digit_table();
            let slot = |from: u64, to: u64| {
                let mut current = table.row(from).to_vec();
                let mut index = from;
                let hop = advance_toward(&grid, &mut current, &mut index, table.row(to)).unwrap();
                link_slot_of_hop(&grid, hop, from, index)
            };
            for a in grid.nodes() {
                for b in grid.neighbors(a).unwrap() {
                    assert_eq!(slot(a, b), slot(b, a), "{grid} link {a}-{b}");
                }
            }
        }
    }

    #[test]
    fn for_each_hop_matches_stepwise_advance_exhaustively() {
        // The batched per-dimension walk over a digit table must reproduce
        // the stepwise sequence bit for bit — hops, directions, wraps, and
        // both node indices — for every ordered pair, and `next_hop_toward`
        // on the table's rows must name every node of it in turn.
        for grid in [
            Grid::torus(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[4, 2, 3])),
            Grid::torus(shape(&[5, 3])),
            Grid::mesh(shape(&[3, 5])),
            Grid::hypercube(4).unwrap(),
            Grid::ring(8).unwrap(),
            Grid::ring(2).unwrap(),
        ] {
            let table = grid.digit_table();
            for a in grid.nodes() {
                for b in grid.nodes() {
                    let target = table.row(b);
                    let mut expected = Vec::new();
                    let mut current = table.row(a).to_vec();
                    let mut index = a;
                    loop {
                        let before = index;
                        let next = next_hop_toward(&grid, table.row(index), index, target);
                        match advance_toward(&grid, &mut current, &mut index, target) {
                            None => {
                                assert_eq!(next, None, "{grid} {a}->{b}");
                                break;
                            }
                            Some(hop) => {
                                assert_eq!(next, Some(index), "{grid} {a}->{b}");
                                expected.push((hop, before, index));
                            }
                        }
                    }
                    let mut batched = Vec::new();
                    table.for_each_hop(a, b, |hop, before, after| {
                        batched.push((hop, before, after));
                    });
                    assert_eq!(batched, expected, "{grid} {a}->{b}");
                }
            }
        }
    }
}

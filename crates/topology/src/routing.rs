//! The shared dimension-ordered next-hop rule.
//!
//! Both the congestion model in the `embeddings` crate and the simulator in
//! the `netsim` crate route along dimension-ordered shortest paths: correct
//! the first differing dimension (in a caller-chosen order), moving along the
//! shorter arc on toruses and breaking equidistant-arc ties in the *forward*
//! (+1) direction. Keeping the rule in one place guarantees the two crates
//! can never silently disagree about which arc a tied route takes.
//!
//! Two entry points are provided:
//!
//! * [`next_hop_toward`] — the simple form: build and return the next
//!   coordinate (`Coord` is `Copy`, so this never allocates);
//! * [`for_each_hop`] — the batched form: emit the *entire* route as
//!   per-dimension sweeps (direction and step count computed once per
//!   dimension, then pure index arithmetic per hop), reporting each hop's
//!   dimension, direction and wrap with the node indices on either side,
//!   exactly the hops repeated [`next_hop_toward`] calls take.
//!
//! The batching is sound because dimension-ordered routing fully corrects
//! one dimension before touching the next, and the shorter-arc choice is
//! invariant along a correction (each step shortens the chosen arc and
//! lengthens the other), so a per-hop "first differing dimension" rescan
//! is redundant work the batched form skips.

use crate::grid::Grid;
use crate::Coord;

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
/// rule: the first dimension in `dims` whose coordinates differ, stepping
/// `+1` on meshes when the target is larger (else `-1`), and along the
/// shorter arc on toruses with ties broken toward `+1`.
///
/// Returns `None` when `from == to` on every dimension in `dims`.
#[inline]
fn dor_step(grid: &Grid, from: &Coord, to: &Coord, dims: &[usize]) -> Option<(usize, bool)> {
    for &j in dims {
        let (x, y) = (from.get(j), to.get(j));
        if x == y {
            continue;
        }
        let forward = if grid.is_torus() {
            let l = grid.shape().radix(j) as i64;
            let ahead = (y as i64 - x as i64).rem_euclid(l);
            let behind = (x as i64 - y as i64).rem_euclid(l);
            // Shorter arc; equidistant arcs take the forward direction.
            ahead <= behind
        } else {
            y > x
        };
        return Some((j, forward));
    }
    None
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

/// The next hop from `from` toward `to`, correcting dimensions in the order
/// given by `dims` and taking the shorter arc on toruses (ties forward).
///
/// Returns `None` when the coordinates already agree on every dimension in
/// `dims`. This is the one dimension-ordered routing rule shared by
/// `embeddings::congestion` and `netsim`.
///
/// # Panics
///
/// Panics if a coordinate has the wrong dimension or a dimension index in
/// `dims` is out of range.
pub fn next_hop_toward(grid: &Grid, from: &Coord, to: &Coord, dims: &[usize]) -> Option<Coord> {
    let (j, forward) = dor_step(grid, from, to, dims)?;
    let l = grid.shape().radix(j);
    let x = from.get(j);
    let step: i64 = if forward { 1 } else { -1 };
    let mut next = *from;
    next.set(j, (x as i64 + step).rem_euclid(l as i64) as u32);
    Some(next)
}

/// Emits every hop of the dimension-ordered route from `from` (whose linear
/// index is `from_index`) to `to`, correcting dimensions in the order given
/// by `dims` — the batched form of calling [`next_hop_toward`] until it
/// returns `None`.
///
/// `emit(hop, before, after)` receives every hop in route order with the
/// node indices on either side, but the direction and step count are
/// computed **once per dimension**
/// (digit-plane style: one sweep per dimension instead of one dimension
/// rescan per hop), so each hop costs one wrap test and one index add. This
/// is the route-expansion kernel behind `embeddings::congestion`, the
/// congestion objective's incremental ±1 updates, and netsim's hop buffers.
///
/// # Panics
///
/// Panics if a coordinate has the wrong dimension, a dimension index in
/// `dims` is out of range, or `from_index` is not the index of `from`.
pub fn for_each_hop<F>(
    grid: &Grid,
    from: &Coord,
    from_index: u64,
    to: &Coord,
    dims: &[usize],
    mut emit: F,
) where
    F: FnMut(HopTaken, u64, u64),
{
    let shape = grid.shape();
    let torus = grid.is_torus();
    let mut index = from_index;
    for &j in dims {
        let (x, y) = (from.get(j), to.get(j));
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

    fn coord(digits: &[u32]) -> Coord {
        Coord::from_slice(digits).unwrap()
    }

    fn forward_dims(grid: &Grid) -> Vec<usize> {
        (0..grid.dim()).collect()
    }

    /// The stepwise reference for [`for_each_hop`]: takes one hop in place,
    /// advancing `current` and its index `current_index` toward `target`,
    /// and reports it; `None` once `current == target`.
    fn advance_toward(
        grid: &Grid,
        current: &mut Coord,
        current_index: &mut u64,
        target: &Coord,
        dims: &[usize],
    ) -> Option<HopTaken> {
        let (j, forward) = dor_step(grid, current, target, dims)?;
        let l = grid.shape().radix(j);
        let w = grid.shape().weight(j + 1);
        let (next_digit, wrapped) = step_digit(l, current.get(j), forward);
        debug_assert!(!wrapped || grid.is_torus(), "meshes never wrap");
        current.set(j, next_digit);
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
        let next = next_hop_toward(&ring, &coord(&[0]), &coord(&[2]), &[0]).unwrap();
        assert_eq!(next, coord(&[1]));

        let torus = Grid::torus(shape(&[6, 6]));
        let next = next_hop_toward(&torus, &coord(&[0, 0]), &coord(&[3, 0]), &[0, 1]).unwrap();
        assert_eq!(next, coord(&[1, 0]));
        // … including from a nonzero starting coordinate.
        let next = next_hop_toward(&torus, &coord(&[5, 2]), &coord(&[2, 2]), &[0, 1]).unwrap();
        assert_eq!(next, coord(&[0, 2]));
    }

    #[test]
    fn hops_walk_shortest_paths() {
        for grid in [
            Grid::torus(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[4, 2, 3])),
            Grid::torus(shape(&[5, 3])),
            Grid::hypercube(4).unwrap(),
        ] {
            let dims = forward_dims(&grid);
            for a in grid.nodes() {
                for b in grid.nodes() {
                    let target = grid.coord(b).unwrap();
                    let mut current = grid.coord(a).unwrap();
                    let mut hops = 0u64;
                    while let Some(next) = next_hop_toward(&grid, &current, &target, &dims) {
                        assert_eq!(grid.distance(&current, &next), 1);
                        current = next;
                        hops += 1;
                        assert!(hops <= grid.diameter(), "non-terminating route");
                    }
                    assert_eq!(current, target);
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
            let dims = forward_dims(&grid);
            for a in grid.nodes() {
                for b in grid.nodes() {
                    let target = grid.coord(b).unwrap();
                    let mut current = grid.coord(a).unwrap();
                    let mut index = a;
                    loop {
                        let expected = next_hop_toward(&grid, &current, &target, &dims);
                        let before = index;
                        match advance_toward(&grid, &mut current, &mut index, &target, &dims) {
                            None => {
                                assert!(expected.is_none());
                                break;
                            }
                            Some(hop) => {
                                assert_eq!(Some(current), expected);
                                assert_eq!(grid.index(&current).unwrap(), index);
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
            let dims = forward_dims(&grid);
            for a in grid.nodes() {
                for b in grid.neighbors(a).unwrap() {
                    let slot_ab = {
                        let mut c = grid.coord(a).unwrap();
                        let mut i = a;
                        let hop =
                            advance_toward(&grid, &mut c, &mut i, &grid.coord(b).unwrap(), &dims)
                                .unwrap();
                        link_slot_of_hop(&grid, hop, a, i)
                    };
                    let slot_ba = {
                        let mut c = grid.coord(b).unwrap();
                        let mut i = b;
                        let hop =
                            advance_toward(&grid, &mut c, &mut i, &grid.coord(a).unwrap(), &dims)
                                .unwrap();
                        link_slot_of_hop(&grid, hop, b, i)
                    };
                    assert_eq!(slot_ab, slot_ba, "{grid} link {a}-{b}");
                }
            }
        }
    }

    #[test]
    fn for_each_hop_matches_stepwise_advance_exhaustively() {
        // The batched per-dimension emitter must reproduce the stepwise
        // sequence bit for bit — hops, directions, wraps, and both node
        // indices — for every ordered pair, in forward and reversed
        // dimension order.
        for grid in [
            Grid::torus(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[4, 2, 3])),
            Grid::torus(shape(&[5, 3])),
            Grid::mesh(shape(&[3, 5])),
            Grid::hypercube(4).unwrap(),
            Grid::ring(8).unwrap(),
            Grid::ring(2).unwrap(),
        ] {
            let forward: Vec<usize> = (0..grid.dim()).collect();
            let reverse: Vec<usize> = (0..grid.dim()).rev().collect();
            for dims in [&forward, &reverse] {
                for a in grid.nodes() {
                    for b in grid.nodes() {
                        let from = grid.coord(a).unwrap();
                        let target = grid.coord(b).unwrap();
                        let mut expected = Vec::new();
                        let mut current = from;
                        let mut index = a;
                        loop {
                            let before = index;
                            match advance_toward(&grid, &mut current, &mut index, &target, dims) {
                                None => break,
                                Some(hop) => expected.push((hop, before, index)),
                            }
                        }
                        let mut batched = Vec::new();
                        for_each_hop(&grid, &from, a, &target, dims, |hop, before, after| {
                            batched.push((hop, before, after));
                        });
                        assert_eq!(batched, expected, "{grid} {a}->{b} dims={dims:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn respects_dimension_order() {
        let mesh = Grid::mesh(shape(&[3, 3]));
        let from = coord(&[0, 0]);
        let to = coord(&[2, 2]);
        // Forward order corrects dimension 0 first, reverse order dimension 1.
        assert_eq!(
            next_hop_toward(&mesh, &from, &to, &[0, 1]).unwrap(),
            coord(&[1, 0])
        );
        assert_eq!(
            next_hop_toward(&mesh, &from, &to, &[1, 0]).unwrap(),
            coord(&[0, 1])
        );
    }
}

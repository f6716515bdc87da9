//! General reduction: lowering dimension via supernodes
//! (Section 4.2.2, Definitions 41–42, Theorem 43).
//!
//! For `c < d < 2c`, a shape `M` is a *general reduction* of `L` when `L`
//! splits into a multiplicant sublist `L′` (length `c`) and a multiplier
//! sublist `L″` (length `d − c`), each multiplier component factors into a
//! list `S_i` of integers > 1, and `M` is — up to dimension order — `L′` with
//! its first `b = |S_1 ∘ … ∘ S_{d−c}|` components multiplied by the factors.
//!
//! The guest is viewed as an `L′`-graph of supernodes, each an `L″`-graph; the
//! host as an `L′`-graph of supernodes, each an `S̄`-mesh. Supernodes map to
//! supernodes by the identity (or by `T` when a torus meets a mesh), and the
//! nodes inside each supernode are embedded with the increasing-dimension maps
//! of Section 4.1. The dilation cost is `max_i s_i`, doubled when a
//! (non-hypercube) torus is embedded in a mesh.

use std::sync::Arc;

use mixedradix::{Digits, Permutation};
use topology::{Grid, Shape};

use crate::basic::t_n;
use crate::embedding::Embedding;
use crate::error::{EmbeddingError, Result};
use crate::expansion::ExpansionFactor;
use crate::increase::{factor_shapes, map_increase_over, IncreaseFunction};

/// A general-reduction witness: the multiplicant sublist `L′`, the multiplier
/// sublist `L″`, and the factor lists `S_1, …, S_{d−c}`.
///
/// The ordering convention matters: the first `b` components of
/// [`GeneralReduction::multiplicant`] are the ones multiplied by
/// `s_1, …, s_b = S_1 ∘ … ∘ S_{d−c}` (in that order); the remaining `c − b`
/// components carry over to the host unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GeneralReduction {
    multiplicant: Vec<u32>,
    multiplier: Vec<u32>,
    s_lists: Vec<Vec<u32>>,
}

impl GeneralReduction {
    /// Creates a general-reduction witness and checks its internal
    /// consistency (components > 1, `Π S_i` equal to the `i`-th multiplier,
    /// `b ≤ c`).
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::InvalidFactor`] on malformed input.
    pub fn new(
        multiplicant: Vec<u32>,
        multiplier: Vec<u32>,
        s_lists: Vec<Vec<u32>>,
    ) -> Result<Self> {
        if multiplicant.is_empty() || multiplier.is_empty() {
            return Err(EmbeddingError::InvalidFactor {
                details: "both sublists of a general reduction must be non-empty".into(),
            });
        }
        if multiplier.len() != s_lists.len() {
            return Err(EmbeddingError::InvalidFactor {
                details: format!(
                    "{} multiplier components but {} factor lists",
                    multiplier.len(),
                    s_lists.len()
                ),
            });
        }
        for (&value, list) in multiplier.iter().zip(&s_lists) {
            if list.is_empty() || list.iter().any(|&v| v < 2) {
                return Err(EmbeddingError::InvalidFactor {
                    details: "every factor list must be non-empty with components > 1".into(),
                });
            }
            let product: u64 = list.iter().map(|&v| v as u64).product();
            if product != value as u64 {
                return Err(EmbeddingError::InvalidFactor {
                    details: format!("factor list {list:?} does not multiply to {value}"),
                });
            }
        }
        let red = GeneralReduction {
            multiplicant,
            multiplier,
            s_lists,
        };
        if red.b() > red.c() {
            return Err(EmbeddingError::InvalidFactor {
                details: format!(
                    "b = {} factors exceed the host dimension c = {}",
                    red.b(),
                    red.c()
                ),
            });
        }
        Ok(red)
    }

    /// The multiplicant sublist `L′`.
    pub fn multiplicant(&self) -> &[u32] {
        &self.multiplicant
    }

    /// The multiplier sublist `L″`.
    pub fn multiplier(&self) -> &[u32] {
        &self.multiplier
    }

    /// The factor lists `S_1, …, S_{d−c}`.
    pub fn s_lists(&self) -> &[Vec<u32>] {
        &self.s_lists
    }

    /// The flattened factor list `S̄ = S_1 ∘ … ∘ S_{d−c}`.
    pub fn s_flat(&self) -> Vec<u32> {
        self.s_lists.iter().flatten().copied().collect()
    }

    /// The host dimension `c = |L′|`.
    pub fn c(&self) -> usize {
        self.multiplicant.len()
    }

    /// The guest dimension `d = |L′| + |L″|`.
    pub fn d(&self) -> usize {
        self.multiplicant.len() + self.multiplier.len()
    }

    /// The number of factors `b = |S̄|`.
    pub fn b(&self) -> usize {
        self.s_lists.iter().map(Vec::len).sum()
    }

    /// The largest factor `max_i s_i` — the dilation cost of Theorem 43
    /// (before the ×2 of the torus-into-mesh case).
    pub fn max_s(&self) -> u64 {
        self.s_flat().iter().map(|&v| v as u64).max().unwrap_or(1)
    }

    /// The guest-side intermediate shape `L′ ∘ L″`.
    pub fn guest_intermediate(&self) -> Result<Shape> {
        let mut radices = self.multiplicant.clone();
        radices.extend_from_slice(&self.multiplier);
        Ok(Shape::new(radices)?)
    }

    /// The host-side intermediate shape `[S̄ ∘ 1] × L′`: the first `b`
    /// multiplicant components multiplied by the factors, the rest unchanged.
    pub fn host_intermediate(&self) -> Result<Shape> {
        let s = self.s_flat();
        let mut radices = Vec::with_capacity(self.c());
        for (j, &p) in self.multiplicant.iter().enumerate() {
            if j < s.len() {
                radices.push(p.checked_mul(s[j]).ok_or(EmbeddingError::InvalidFactor {
                    details: "host component overflows u32".into(),
                })?);
            } else {
                radices.push(p);
            }
        }
        Ok(Shape::new(radices)?)
    }

    /// Checks that this witness actually relates the shapes `l` and `m`:
    /// `l` is a permutation of `L′ ∘ L″`, `m` is a permutation of
    /// `[S̄ ∘ 1] × L′`, and `c < d < 2c` (with `d − c ≤ b ≤ c`).
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::InvalidFactor`] describing the first
    /// violation found.
    pub fn validate(&self, l: &Shape, m: &Shape) -> Result<()> {
        let d = self.d();
        let c = self.c();
        if !(c < d && d < 2 * c) {
            return Err(EmbeddingError::InvalidFactor {
                details: format!("general reduction requires c < d < 2c, got d = {d}, c = {c}"),
            });
        }
        if l.dim() != d || m.dim() != c {
            return Err(EmbeddingError::InvalidFactor {
                details: format!(
                    "shapes have dimensions {} and {}, witness expects {d} and {c}",
                    l.dim(),
                    m.dim()
                ),
            });
        }
        let mut expected_l = self.multiplicant.clone();
        expected_l.extend_from_slice(&self.multiplier);
        if !is_permutation(&expected_l, l.radices()) {
            return Err(EmbeddingError::InvalidFactor {
                details: format!("{l} is not a permutation of L′ ∘ L″"),
            });
        }
        let host = self.host_intermediate()?;
        if !is_permutation(host.radices(), m.radices()) {
            return Err(EmbeddingError::InvalidFactor {
                details: format!("{m} is not a permutation of [S̄ ∘ 1] × L′"),
            });
        }
        Ok(())
    }
}

fn is_permutation(a: &[u32], b: &[u32]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

/// Whether `m` is a general reduction of `l` (Definition 41).
pub fn is_general_reduction(l: &Shape, m: &Shape) -> bool {
    find_general_reduction(l, m).is_some()
}

/// Searches for a general-reduction witness of `l` into `m`.
///
/// The search enumerates the choice of multiplier components, their
/// factorizations, and the pairing of factors with multiplicant components;
/// shapes are tiny, so exhaustive backtracking is instantaneous in practice.
pub fn find_general_reduction(l: &Shape, m: &Shape) -> Option<GeneralReduction> {
    let d = l.dim();
    let c = m.dim();
    if !(c < d && d < 2 * c) || l.size() != m.size() {
        return None;
    }
    let k = d - c;
    // Enumerate which positions of `l` form the multiplier sublist.
    let positions: Vec<usize> = (0..d).collect();
    let mut chosen = Vec::with_capacity(k);
    subsets(&positions, k, &mut chosen, &mut |subset| {
        let multiplier: Vec<u32> = subset.iter().map(|&i| l.radix(i)).collect();
        let multiplicant: Vec<u32> = (0..d)
            .filter(|i| !subset.contains(i))
            .map(|i| l.radix(i))
            .collect();
        // Enumerate factorizations of every multiplier component.
        let factorizations: Vec<Vec<Vec<u32>>> = multiplier
            .iter()
            .map(|&value| factorizations_of(value))
            .collect();
        let mut pick = Vec::with_capacity(k);
        cartesian(&factorizations, &mut pick, &mut |s_lists| {
            let b: usize = s_lists.iter().map(|list| list.len()).sum();
            // Definition 41 requires d − c < b ≤ c (at least one multiplier
            // component genuinely splits); the b = d − c case is covered by
            // simple reduction instead.
            if b <= k || b > c {
                return None;
            }
            match_factors(&multiplicant, s_lists, m).map(|ordered_multiplicant| GeneralReduction {
                multiplicant: ordered_multiplicant,
                multiplier: multiplier.clone(),
                s_lists: s_lists.to_vec(),
            })
        })
    })
}

/// Enumerates `k`-element subsets of `items`, passing each to `visit`; stops
/// early when `visit` returns `Some`.
fn subsets<T: Copy, R>(
    items: &[T],
    k: usize,
    current: &mut Vec<T>,
    visit: &mut impl FnMut(&[T]) -> Option<R>,
) -> Option<R> {
    fn go<T: Copy, R>(
        items: &[T],
        k: usize,
        start: usize,
        current: &mut Vec<T>,
        visit: &mut impl FnMut(&[T]) -> Option<R>,
    ) -> Option<R> {
        if current.len() == k {
            return visit(current);
        }
        let needed = k - current.len();
        for i in start..items.len() {
            if items.len() - i < needed {
                break;
            }
            current.push(items[i]);
            if let Some(r) = go(items, k, i + 1, current, visit) {
                return Some(r);
            }
            current.pop();
        }
        None
    }
    go(items, k, 0, current, visit)
}

/// Enumerates one choice from each list of options, passing each combination
/// to `visit`; stops early when `visit` returns `Some`.
fn cartesian<T: Clone, R>(
    options: &[Vec<T>],
    current: &mut Vec<T>,
    visit: &mut impl FnMut(&[T]) -> Option<R>,
) -> Option<R> {
    if current.len() == options.len() {
        return visit(current);
    }
    let idx = current.len();
    for option in &options[idx] {
        current.push(option.clone());
        if let Some(r) = cartesian(options, current, visit) {
            return Some(r);
        }
        current.pop();
    }
    None
}

/// All factorizations of `value` into non-increasing lists of factors > 1.
fn factorizations_of(value: u32) -> Vec<Vec<u32>> {
    fn go(value: u32, max: u32, current: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if value == 1 {
            if !current.is_empty() {
                out.push(current.clone());
            }
            return;
        }
        let mut f = max.min(value);
        while f >= 2 {
            if value.is_multiple_of(f) {
                current.push(f);
                go(value / f, f, current, out);
                current.pop();
            }
            f -= 1;
        }
    }
    let mut out = Vec::new();
    go(value, value, &mut Vec::new(), &mut out);
    out
}

/// Tries to pair every factor in `s_lists` (flattened, in order) with a
/// distinct multiplicant component such that the resulting multiset of host
/// components equals `m`. On success returns the multiplicant reordered so
/// that the paired components come first, in factor order.
fn match_factors(multiplicant: &[u32], s_lists: &[Vec<u32>], m: &Shape) -> Option<Vec<u32>> {
    let s: Vec<u32> = s_lists.iter().flatten().copied().collect();
    let mut remaining: Vec<u32> = m.radices().to_vec();
    let mut used = vec![false; multiplicant.len()];
    let mut pairing: Vec<usize> = Vec::with_capacity(s.len());

    fn go(
        s: &[u32],
        idx: usize,
        multiplicant: &[u32],
        used: &mut [bool],
        remaining: &mut Vec<u32>,
        pairing: &mut Vec<usize>,
    ) -> bool {
        if idx == s.len() {
            // Unused multiplicant components must equal what is left of M.
            let mut leftovers: Vec<u32> = multiplicant
                .iter()
                .enumerate()
                .filter(|(i, _)| !used[*i])
                .map(|(_, &v)| v)
                .collect();
            let mut rest = remaining.clone();
            leftovers.sort_unstable();
            rest.sort_unstable();
            return leftovers == rest;
        }
        let mut tried: Vec<u32> = Vec::new();
        for p in 0..multiplicant.len() {
            if used[p] || tried.contains(&multiplicant[p]) {
                continue;
            }
            let product = multiplicant[p] as u64 * s[idx] as u64;
            if product > u32::MAX as u64 {
                continue;
            }
            let product = product as u32;
            if let Some(pos) = remaining.iter().position(|&x| x == product) {
                tried.push(multiplicant[p]);
                used[p] = true;
                let removed = remaining.swap_remove(pos);
                pairing.push(p);
                if go(s, idx + 1, multiplicant, used, remaining, pairing) {
                    return true;
                }
                pairing.pop();
                remaining.push(removed);
                used[p] = false;
            }
        }
        false
    }

    if go(&s, 0, multiplicant, &mut used, &mut remaining, &mut pairing) {
        let mut ordered: Vec<u32> = pairing.iter().map(|&p| multiplicant[p]).collect();
        for (i, &v) in multiplicant.iter().enumerate() {
            if !pairing.contains(&i) {
                ordered.push(v);
            }
        }
        Some(ordered)
    } else {
        None
    }
}

/// The dilation cost Theorem 43 guarantees for the given witness and graph
/// types.
pub fn predicted_dilation_general_reduction(
    guest: &Grid,
    host: &Grid,
    reduction: &GeneralReduction,
) -> u64 {
    let base = reduction.max_s();
    if guest.is_torus() && host.is_mesh() && !guest.is_hypercube() {
        2 * base
    } else {
        base
    }
}

/// Embeds `guest` in `host` with an explicit general-reduction witness
/// (Definition 42, Theorem 43).
///
/// # Errors
///
/// Returns an error if the witness does not relate the two shapes.
pub fn embed_general_reduction_with(
    guest: &Grid,
    host: &Grid,
    reduction: &GeneralReduction,
) -> Result<Embedding> {
    reduction.validate(guest.shape(), host.shape())?;
    let guest_mid = reduction.guest_intermediate()?;
    let host_mid = reduction.host_intermediate()?;
    // α reorders the guest's dimensions into L′ ∘ L″ order; β reorders the
    // intermediate host shape into the host's own order.
    let alpha = Permutation::mapping(guest.shape().radices(), guest_mid.radices()).ok_or(
        EmbeddingError::InvalidFactor {
            details: "guest shape is not a permutation of L′ ∘ L″".into(),
        },
    )?;
    let beta = Permutation::mapping(host_mid.radices(), host.shape().radices()).ok_or(
        EmbeddingError::InvalidFactor {
            details: "host shape is not a permutation of [S̄ ∘ 1] × L′".into(),
        },
    )?;
    let use_torus_offsets = guest.is_torus() && !guest.is_hypercube();
    let use_t_base = use_torus_offsets && host.is_mesh();
    let offset_function = if use_torus_offsets {
        IncreaseFunction::G
    } else {
        IncreaseFunction::F
    };
    let name = if use_t_base {
        "β ∘ G″_S ∘ α"
    } else if use_torus_offsets {
        "β ∘ G′_S ∘ α"
    } else {
        "β ∘ F′_S ∘ α"
    };

    let s_shapes = factor_shapes(&ExpansionFactor::new(reduction.s_lists().to_vec())?);
    let s_flat = reduction.s_flat();
    let multiplicant = reduction.multiplicant().to_vec();
    let c = reduction.c();
    let b = reduction.b();
    let guest_shape = guest.shape().clone();

    // Host digit j is a function of one L′ digit (times s_j for j < b)
    // plus, for j < b, one digit of the image of one L″ digit: a sum of
    // functions of single guest digits, so the construction is separable.
    Embedding::new_separable(
        guest.clone(),
        host.clone(),
        name,
        Arc::new(move |x| {
            let coord = guest_shape.to_digits(x).expect("index in range");
            let reordered = alpha
                .apply_digits(&coord)
                .expect("permutation matches dimension");
            // Split into the L′ part (supernode coordinates) and the L″ part
            // (coordinates inside the supernode).
            let base_part = reordered.slice(0, c);
            let inner_part = reordered.slice(c, reordered.dim());
            // Offset: embed the L″ coordinates in the S̄-mesh supernode.
            let offset = map_increase_over(&s_shapes, offset_function, &inner_part);
            // Base: the supernode coordinates, optionally passed through t.
            let mut out = Digits::zero(c).expect("dimension within bounds");
            for j in 0..c {
                let base_digit = if use_t_base {
                    t_n(multiplicant[j] as u64, base_part.get(j) as u64) as u32
                } else {
                    base_part.get(j)
                };
                let value = if j < b {
                    s_flat[j] * base_digit + offset.get(j)
                } else {
                    base_digit
                };
                out.set(j, value);
            }
            beta.apply_digits(&out)
                .expect("permutation matches dimension")
        }),
    )
}

/// Embeds `guest` in `host` for the general-reduction case, discovering a
/// witness automatically (Theorem 43).
///
/// # Errors
///
/// Returns [`EmbeddingError::ConditionNotSatisfied`] if no general-reduction
/// witness exists.
pub fn embed_general_reduction(guest: &Grid, host: &Grid) -> Result<Embedding> {
    if guest.size() != host.size() {
        return Err(EmbeddingError::SizeMismatch {
            guest: guest.size(),
            host: host.size(),
        });
    }
    let reduction = find_general_reduction(guest.shape(), host.shape()).ok_or(
        EmbeddingError::ConditionNotSatisfied {
            condition: "general reduction",
            details: format!(
                "{} is not a general reduction of {}",
                host.shape(),
                guest.shape()
            ),
        },
    )?;
    embed_general_reduction_with(guest, host, &reduction)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    #[test]
    fn figure_12_example_3_3_6_into_6_9() {
        // The (3,3,6)-mesh embeds in the (6,9)-mesh with dilation 3.
        let guest = Grid::mesh(shape(&[3, 3, 6]));
        let host = Grid::mesh(shape(&[6, 9]));
        let reduction = find_general_reduction(guest.shape(), host.shape()).unwrap();
        assert_eq!(reduction.multiplier(), &[6]);
        assert_eq!(reduction.max_s(), 3);
        let e = embed_general_reduction(&guest, &host).unwrap();
        assert!(e.is_injective());
        assert_eq!(e.dilation(), 3);
        assert_eq!(
            predicted_dilation_general_reduction(&guest, &host, &reduction),
            3
        );
    }

    #[test]
    fn paper_shape_example_definition_41() {
        // M = (4,3,5,28,10,18) is a general reduction of
        // L = (2,3,2,10,6,21,5,4).
        let l = shape(&[2, 3, 2, 10, 6, 21, 5, 4]);
        let m = shape(&[4, 3, 5, 28, 10, 18]);
        assert_eq!(l.size(), m.size());
        let reduction = find_general_reduction(&l, &m).unwrap();
        reduction.validate(&l, &m).unwrap();
    }

    #[test]
    fn theorem_43_dilation_bounds_hold() {
        // Mesh → mesh, mesh → torus, torus → torus: dilation ≤ max s_i.
        // Torus → mesh: dilation ≤ 2 max s_i.
        let mut cases = Vec::new();
        for (l, m) in [
            (&[3, 3, 6][..], &[6, 9][..]),
            (&[5, 5, 4], &[10, 10]),
            (&[3, 3, 3, 4], &[6, 6, 3]),
            (&[2, 3, 2, 10, 6, 21, 5, 4], &[4, 3, 5, 28, 10, 18]),
        ] {
            let (l, m) = (shape(l), shape(m));
            cases.push((Grid::mesh(l.clone()), Grid::mesh(m.clone())));
            cases.push((Grid::mesh(l.clone()), Grid::torus(m.clone())));
            cases.push((Grid::torus(l.clone()), Grid::torus(m.clone())));
            cases.push((Grid::torus(l), Grid::mesh(m)));
        }
        for (guest, host) in cases {
            let reduction = find_general_reduction(guest.shape(), host.shape()).unwrap();
            let bound = predicted_dilation_general_reduction(&guest, &host, &reduction);
            let e = embed_general_reduction(&guest, &host).unwrap();
            // One parallel sweep: the 302400-node case dominates the test.
            let report = crate::verify::verify(&e, 0).unwrap();
            assert!(report.injective, "injective for {guest} -> {host}");
            assert!(
                report.dilation <= bound,
                "dilation {} exceeds bound {bound} for {guest} -> {host}",
                report.dilation
            );
        }
    }

    #[test]
    fn degenerate_b_equals_d_minus_c_is_left_to_simple_reduction() {
        // L = (2,2,3) (d=3) into M = (4,3) (c=2) only admits b = d − c = 1,
        // which Definition 41 excludes — the finder returns None and the pair
        // is handled by simple reduction instead.
        let guest = Grid::mesh(shape(&[2, 2, 3]));
        let host = Grid::mesh(shape(&[4, 3]));
        assert!(find_general_reduction(guest.shape(), host.shape()).is_none());
        // An explicit witness with b = d − c is still accepted by the
        // construction itself (documented relaxation).
        let witness = GeneralReduction::new(vec![2, 3], vec![2], vec![vec![2]]).unwrap();
        let e = embed_general_reduction_with(&guest, &host, &witness).unwrap();
        assert!(e.is_injective());
        assert!(e.dilation() <= witness.max_s());
    }

    #[test]
    fn factor_splitting_shapes_are_general_reductions() {
        // (5,5,4) → (10,10): the multiplier 4 splits into (2,2) and each
        // factor multiplies one of the 5s.
        let guest = Grid::torus(shape(&[5, 5, 4]));
        let host = Grid::torus(shape(&[10, 10]));
        let reduction = find_general_reduction(guest.shape(), host.shape()).unwrap();
        assert_eq!(reduction.multiplier(), &[4]);
        assert_eq!(reduction.max_s(), 2);
        let e = embed_general_reduction(&guest, &host).unwrap();
        assert!(e.is_injective());
        assert!(e.dilation() <= 2);
    }

    #[test]
    fn witness_validation_catches_errors() {
        // Product mismatch.
        assert!(GeneralReduction::new(vec![3, 3], vec![6], vec![vec![2, 2]]).is_err());
        // Too many factors for the host dimension.
        assert!(GeneralReduction::new(vec![3], vec![8], vec![vec![2, 2, 2]]).is_err());
        // Components below 2.
        assert!(GeneralReduction::new(vec![3, 3], vec![6], vec![vec![6, 1]]).is_err());
        // Empty sublists.
        assert!(GeneralReduction::new(vec![], vec![6], vec![vec![6]]).is_err());
        // A valid witness for (3,3,6) -> (6,9).
        let ok = GeneralReduction::new(vec![3, 3], vec![6], vec![vec![3, 2]]).unwrap();
        assert_eq!(ok.b(), 2);
        assert_eq!(ok.max_s(), 3);
        assert_eq!(ok.host_intermediate().unwrap().radices(), &[9, 6]);
        ok.validate(&shape(&[3, 3, 6]), &shape(&[6, 9])).unwrap();
        // But it does not validate against unrelated shapes.
        assert!(ok.validate(&shape(&[3, 3, 6]), &shape(&[54])).is_err());
        assert!(ok.validate(&shape(&[3, 3, 7]), &shape(&[6, 9])).is_err());
    }

    #[test]
    fn non_general_reductions_are_rejected() {
        // Dimension constraint c < d < 2c violated.
        assert!(find_general_reduction(&shape(&[2, 2, 2, 2]), &shape(&[8, 2])).is_none());
        assert!(find_general_reduction(&shape(&[4, 4]), &shape(&[4, 4])).is_none());
        // Size mismatch.
        assert!(find_general_reduction(&shape(&[3, 3, 6]), &shape(&[6, 10])).is_none());
        // Equal size but every multiplier component is prime, so b cannot
        // exceed d − c.
        assert!(find_general_reduction(&shape(&[3, 5, 7]), &shape(&[15, 7])).is_none());
    }

    #[test]
    fn supernode_structure_is_respected() {
        // Every supernode of the guest (fixing the L′ coordinates) must land
        // inside the corresponding supernode of the host: host coordinate j
        // divided by s_j recovers the guest's supernode coordinate.
        let guest = Grid::mesh(shape(&[3, 3, 6]));
        let host = Grid::mesh(shape(&[6, 9]));
        let reduction = find_general_reduction(guest.shape(), host.shape()).unwrap();
        let e = embed_general_reduction_with(&guest, &host, &reduction).unwrap();
        // With multiplicant (3,3) and factors (s_1, s_2) the host intermediate
        // is (3 s_1, 3 s_2); find which host dimension each maps to by size.
        for x in 0..guest.size() {
            let g = guest.coord(x).unwrap();
            let h = e.map(x);
            // Host supernode coordinates.
            let hs: Vec<u32> = (0..2)
                .map(|j| {
                    let s = host.shape().radix(j) / 3;
                    h.get(j) / s
                })
                .collect();
            // Guest supernode coordinates are the first two (L′) coordinates,
            // possibly reordered; their multiset must match.
            let mut gs: Vec<u32> = vec![g.get(0), g.get(1)];
            let mut hs_sorted = hs.clone();
            gs.sort_unstable();
            hs_sorted.sort_unstable();
            assert_eq!(gs, hs_sorted, "supernode mismatch at node {x}");
        }
    }
}

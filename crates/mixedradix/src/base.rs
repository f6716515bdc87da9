//! Radix bases and radix-`L` representations (Definition 7 of the paper).

use core::fmt;

use crate::digits::{Digits, MAX_DIM};
use crate::error::{MixedRadixError, Result};
use crate::perm::Permutation;

/// A radix base `L = (l_1, l_2, …, l_d)` with every `l_j > 1`.
///
/// The base defines the mixed-radix numbering system `Ω_L` of Definition 7:
/// every integer `x ∈ [n]`, `n = Π l_j`, has a unique radix-`L` representation
/// `(x̂_1, …, x̂_d)` with `x̂_j = ⌊x / w_j⌋ mod l_j`, where the *weights* are
/// `w_j = Π_{i>j} l_i` (so `w_d = 1` and `w_0 = n`).
///
/// A radix base doubles as the *shape* of an `(l_1, …, l_d)`-torus or mesh;
/// the `topology` crate builds its graphs on top of this type.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RadixBase {
    radices: Vec<u32>,
    /// `weights[j] = Π_{i > j} radices[i]` for `j` in `0..=d`, so
    /// `weights[d] = 1` and `weights[0] = n`.
    weights: Vec<u64>,
    size: u64,
    /// Per-radix multiply–shift reciprocals for the least-significant-first
    /// decode peel: `dividers[j]` divides by `radices[j]`, proven exact for
    /// numerators up to `Π_{i ≤ j} radices[i] − 1` (the largest value the
    /// peel can hand it). `None` on the rare shapes whose numerator range
    /// admits no 64-bit magic; those dimensions fall back to hardware
    /// division. Derived deterministically from `radices`, so the derived
    /// `PartialEq`/`Hash` stay consistent.
    dividers: Vec<Option<MagicDivisor>>,
}

impl RadixBase {
    /// Creates a radix base from the list of radices `(l_1, …, l_d)`.
    ///
    /// # Errors
    ///
    /// * [`MixedRadixError::EmptyBase`] if `radices` is empty.
    /// * [`MixedRadixError::RadixTooSmall`] if any component is `< 2`
    ///   (Definition 7 requires every `l_j > 1`).
    /// * [`MixedRadixError::DimensionTooLarge`] if there are more than
    ///   [`MAX_DIM`] components.
    /// * [`MixedRadixError::SizeOverflow`] if `Π l_j` does not fit in a `u64`.
    pub fn new(radices: Vec<u32>) -> Result<Self> {
        if radices.is_empty() {
            return Err(MixedRadixError::EmptyBase);
        }
        if radices.len() > MAX_DIM {
            return Err(MixedRadixError::DimensionTooLarge {
                requested: radices.len(),
                max: MAX_DIM,
            });
        }
        for (i, &l) in radices.iter().enumerate() {
            if l < 2 {
                return Err(MixedRadixError::RadixTooSmall {
                    position: i,
                    value: l as u64,
                });
            }
        }
        let d = radices.len();
        let mut weights = vec![1u64; d + 1];
        for j in (0..d).rev() {
            weights[j] = weights[j + 1]
                .checked_mul(radices[j] as u64)
                .ok_or(MixedRadixError::SizeOverflow)?;
        }
        let size = weights[0];
        // The decode peels digits least-significant-first; before peeling
        // dimension j the running numerator is < Π_{i ≤ j} l_i.
        let mut dividers = Vec::with_capacity(d);
        let mut prefix = 1u64;
        for &l in &radices {
            prefix *= l as u64;
            dividers.push(MagicDivisor::new(l as u64, prefix - 1));
        }
        Ok(RadixBase {
            radices,
            weights,
            size,
            dividers,
        })
    }

    /// Creates the square base `(l, l, …, l)` of dimension `d`.
    pub fn square(l: u32, d: usize) -> Result<Self> {
        Self::new(vec![l; d])
    }

    /// Creates the binary base `(2, 2, …, 2)` of dimension `d` — the shape of
    /// a hypercube of size `2^d` (Definition 4).
    pub fn binary(d: usize) -> Result<Self> {
        Self::square(2, d)
    }

    /// The dimension `d` (number of radices).
    #[inline]
    pub fn dim(&self) -> usize {
        self.radices.len()
    }

    /// The size `n = Π l_j` of the numbering system (equivalently, the number
    /// of nodes in the torus/mesh of this shape).
    #[inline]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The radix `l_{i+1}` at 0-based position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    #[inline]
    pub fn radix(&self, i: usize) -> u32 {
        self.radices[i]
    }

    /// All radices `(l_1, …, l_d)` as a slice.
    #[inline]
    pub fn radices(&self) -> &[u32] {
        &self.radices
    }

    /// The weight `w_i` for `i ∈ [d+1]` (0-based: `weight(0) = n`,
    /// `weight(d) = 1`).
    ///
    /// # Panics
    ///
    /// Panics if `i > self.dim()`.
    #[inline]
    pub fn weight(&self, i: usize) -> u64 {
        self.weights[i]
    }

    /// All weights `w_0, …, w_d`.
    #[inline]
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Whether all radices are equal (`l_1 = l_2 = … = l_d`) — the paper's
    /// *square* condition.
    pub fn is_square(&self) -> bool {
        self.radices.windows(2).all(|w| w[0] == w[1])
    }

    /// Whether every radix equals 2, i.e. the base is the shape of a
    /// hypercube (Definition 4).
    pub fn is_binary(&self) -> bool {
        self.radices.iter().all(|&l| l == 2)
    }

    /// The position of the first even radix, if any.
    pub fn first_even_component(&self) -> Option<usize> {
        self.radices.iter().position(|&l| l % 2 == 0)
    }

    /// The smallest radix — the paper's `p`, the length of the shortest
    /// dimension, used in the Theorem 47 lower bound.
    pub fn min_radix(&self) -> u32 {
        *self.radices.iter().min().expect("base is non-empty")
    }

    /// The largest radix.
    pub fn max_radix(&self) -> u32 {
        *self.radices.iter().max().expect("base is non-empty")
    }

    /// The radix-`L` representation of `x` (the paper's `u_L`).
    ///
    /// # Errors
    ///
    /// Returns [`MixedRadixError::IndexOutOfRange`] if `x >= n`.
    pub fn to_digits(&self, x: u64) -> Result<Digits> {
        let mut out = Digits::empty();
        self.to_digits_into(x, &mut out)?;
        Ok(out)
    }

    /// Writes the radix-`L` representation of `x` into an existing digit
    /// list, resizing it to this base's dimension.
    ///
    /// This is the scratch-buffer twin of [`RadixBase::to_digits`], intended
    /// for hot loops that decode millions of indices: the caller keeps one
    /// `Digits` value alive and overwrites it per index instead of
    /// constructing a fresh value per call.
    ///
    /// # Errors
    ///
    /// Returns [`MixedRadixError::IndexOutOfRange`] if `x >= n`; `out` is left
    /// untouched in that case.
    #[inline]
    pub fn to_digits_into(&self, x: u64, out: &mut Digits) -> Result<()> {
        if x >= self.size {
            return Err(MixedRadixError::IndexOutOfRange {
                index: x,
                size: self.size,
            });
        }
        *out = Digits::zero(self.dim()).expect("dim <= MAX_DIM");
        // Peel least-significant-first: x̂_j = rem mod l_j, rem /= l_j —
        // equivalent to the weight-based ⌊x / w_j⌋ mod l_j of the paper, but
        // each division is by a u32 radix with a precomputed multiply–shift
        // reciprocal instead of a 64-bit hardware div per digit.
        let mut rem = x;
        for j in (0..self.dim()).rev() {
            let (q, r) = match self.dividers[j] {
                Some(m) => m.div_rem(rem),
                None => {
                    let l = self.radices[j] as u64;
                    (rem / l, rem % l)
                }
            };
            out.set(j, r as u32);
            rem = q;
        }
        Ok(())
    }

    /// The integer represented by a digit list (the paper's `u_L⁻¹`):
    /// `Σ_k x̂_k · w_k`.
    ///
    /// # Errors
    ///
    /// * [`MixedRadixError::DimensionMismatch`] if the digit list has the
    ///   wrong number of digits.
    /// * [`MixedRadixError::DigitOutOfRange`] if any digit exceeds its radix.
    pub fn to_index(&self, digits: &Digits) -> Result<u64> {
        if digits.dim() != self.dim() {
            return Err(MixedRadixError::DimensionMismatch {
                left: self.dim(),
                right: digits.dim(),
            });
        }
        let mut x = 0u64;
        for j in 0..self.dim() {
            let digit = digits.get(j) as u64;
            if digit >= self.radices[j] as u64 {
                return Err(MixedRadixError::DigitOutOfRange {
                    position: j,
                    digit,
                    radix: self.radices[j] as u64,
                });
            }
            x += digit * self.weights[j + 1];
        }
        Ok(x)
    }

    /// Whether a digit list is a valid radix-`L` number (correct dimension and
    /// every digit within its radix).
    pub fn contains(&self, digits: &Digits) -> bool {
        digits.dim() == self.dim() && (0..self.dim()).all(|j| digits.get(j) < self.radices[j])
    }

    /// Concatenation of two bases — the `∘` operator applied to shape lists.
    ///
    /// # Errors
    ///
    /// Propagates size/dimension overflow errors.
    pub fn concat(&self, other: &RadixBase) -> Result<RadixBase> {
        let mut radices = self.radices.clone();
        radices.extend_from_slice(&other.radices);
        RadixBase::new(radices)
    }

    /// Applies a permutation to the base: `result[j] = self[π(j)]`.
    ///
    /// # Errors
    ///
    /// Returns [`MixedRadixError::DimensionMismatch`] if the permutation acts
    /// on a different number of positions.
    pub fn permute(&self, perm: &Permutation) -> Result<RadixBase> {
        let radices = perm.apply_slice(&self.radices)?;
        RadixBase::new(radices)
    }

    /// An iterator over all radix-`L` numbers in natural (numeric) order.
    pub fn iter(&self) -> crate::iter::DigitsIter<'_> {
        crate::iter::DigitsIter::new(self)
    }
}

impl fmt::Debug for RadixBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RadixBase{self}")
    }
}

impl fmt::Display for RadixBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, l) in self.radices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ")")
    }
}

impl TryFrom<Vec<u32>> for RadixBase {
    type Error = MixedRadixError;

    fn try_from(value: Vec<u32>) -> Result<Self> {
        RadixBase::new(value)
    }
}

impl TryFrom<&[u32]> for RadixBase {
    type Error = MixedRadixError;

    fn try_from(value: &[u32]) -> Result<Self> {
        RadixBase::new(value.to_vec())
    }
}

/// A precomputed multiply–shift reciprocal: `x / divisor` as
/// `(x · magic) >> shift`, exact for every `x ≤ max_numerator` — the
/// division [`RadixBase::to_digits_into`] runs per digit.
///
/// The constructor is *checked*: it searches for a `(magic, shift)` pair and
/// admits it only after proving the Granlund–Montgomery exactness condition
/// `f · max_numerator < 2^shift` (with `f = magic · divisor − 2^shift`), so
/// [`MagicDivisor::divide`] needs no correction step. Powers of two take
/// `magic = 1` with `shift = log2(divisor)` — the same branch-free
/// mul-and-shift path, with zero error for *all* numerators.
///
/// For a handful of extreme (divisor, range) pairs no exact pair exists
/// within a 64-bit magic; the constructor returns `None` and the decode
/// falls back to hardware division for that dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct MagicDivisor {
    magic: u64,
    shift: u32,
    divisor: u64,
    max_numerator: u64,
}

impl MagicDivisor {
    /// Finds a reciprocal for `divisor`, exact for every numerator in
    /// `0..=max_numerator`, or `None` when no 64-bit magic satisfies the
    /// exactness condition (or `divisor == 0`).
    fn new(divisor: u64, max_numerator: u64) -> Option<Self> {
        if divisor == 0 {
            return None;
        }
        if divisor.is_power_of_two() {
            // (x · 1) >> log2(d) is exact for every u64 numerator.
            return Some(MagicDivisor {
                magic: 1,
                shift: divisor.trailing_zeros(),
                divisor,
                max_numerator: u64::MAX,
            });
        }
        for shift in 64..128u32 {
            let pow = 1u128 << shift;
            let magic = pow / divisor as u128 + 1;
            if magic > u64::MAX as u128 {
                // The magic only grows with the shift; nothing left to try.
                break;
            }
            // Exactness (Granlund–Montgomery): with f = m·d − 2^p,
            // ⌊x·m / 2^p⌋ = ⌊x/d⌋ for all x ≤ X  iff  f·X < 2^p.
            let error = magic * divisor as u128 - pow;
            if error * (max_numerator as u128) < pow {
                return Some(MagicDivisor {
                    magic: magic as u64,
                    shift,
                    divisor,
                    max_numerator,
                });
            }
        }
        None
    }

    /// `x / divisor`, by multiply–shift.
    ///
    /// Exact for `x ≤ max_numerator`; larger numerators are a logic error
    /// (checked in debug builds).
    #[inline]
    fn divide(&self, x: u64) -> u64 {
        debug_assert!(x <= self.max_numerator, "numerator beyond proven range");
        ((x as u128 * self.magic as u128) >> self.shift) as u64
    }

    /// `(x / d, x % d)` in one multiply–shift and one multiply-subtract.
    #[inline]
    fn div_rem(&self, x: u64) -> (u64, u64) {
        let q = self.divide(x);
        (q, x - q * self.divisor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example of the paper: L = (4, 2, 3), n = 24,
    /// w_1 = 6, w_2 = 3, w_3 = 1 (page 7).
    fn paper_base() -> RadixBase {
        RadixBase::new(vec![4, 2, 3]).unwrap()
    }

    #[test]
    fn weights_match_paper_example() {
        let base = paper_base();
        assert_eq!(base.size(), 24);
        assert_eq!(base.weight(0), 24);
        assert_eq!(base.weight(1), 6);
        assert_eq!(base.weight(2), 3);
        assert_eq!(base.weight(3), 1);
    }

    #[test]
    fn construction_validates_components() {
        assert!(matches!(
            RadixBase::new(vec![]),
            Err(MixedRadixError::EmptyBase)
        ));
        assert!(matches!(
            RadixBase::new(vec![4, 1, 3]),
            Err(MixedRadixError::RadixTooSmall { position: 1, .. })
        ));
        assert!(matches!(
            RadixBase::new(vec![3, 0]),
            Err(MixedRadixError::RadixTooSmall { position: 1, .. })
        ));
        assert!(RadixBase::new(vec![2; MAX_DIM]).is_ok());
        assert!(matches!(
            RadixBase::new(vec![2; MAX_DIM + 1]),
            Err(MixedRadixError::DimensionTooLarge { .. })
        ));
    }

    #[test]
    fn overflow_is_detected() {
        // 2^32 components of value 2^32 would overflow; use a few huge radices.
        assert!(matches!(
            RadixBase::new(vec![u32::MAX, u32::MAX, u32::MAX]),
            Err(MixedRadixError::SizeOverflow)
        ));
    }

    #[test]
    fn digit_round_trip_is_identity() {
        let base = paper_base();
        for x in 0..base.size() {
            let digits = base.to_digits(x).unwrap();
            assert!(base.contains(&digits));
            assert_eq!(base.to_index(&digits).unwrap(), x);
        }
    }

    #[test]
    fn radix_423_representation_examples() {
        let base = paper_base();
        // x = 0 -> (0,0,0); x = 1 -> (0,0,1); x = 3 -> (0,1,0); x = 6 -> (1,0,0).
        assert_eq!(base.to_digits(0).unwrap().as_slice(), &[0, 0, 0]);
        assert_eq!(base.to_digits(1).unwrap().as_slice(), &[0, 0, 1]);
        assert_eq!(base.to_digits(3).unwrap().as_slice(), &[0, 1, 0]);
        assert_eq!(base.to_digits(6).unwrap().as_slice(), &[1, 0, 0]);
        assert_eq!(base.to_digits(23).unwrap().as_slice(), &[3, 1, 2]);
    }

    #[test]
    fn to_digits_into_reuses_the_scratch_buffer() {
        let base = paper_base();
        let mut scratch = Digits::from_slice(&[9, 9, 9, 9, 9]).unwrap();
        for x in 0..base.size() {
            base.to_digits_into(x, &mut scratch).unwrap();
            assert_eq!(scratch, base.to_digits(x).unwrap());
            assert_eq!(base.to_index(&scratch).unwrap(), x);
        }
        // Out-of-range indices leave the scratch untouched.
        let before = scratch;
        assert!(base.to_digits_into(base.size(), &mut scratch).is_err());
        assert_eq!(scratch, before);
    }

    #[test]
    fn to_digits_rejects_out_of_range() {
        let base = paper_base();
        assert!(matches!(
            base.to_digits(24),
            Err(MixedRadixError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn to_index_validates_digits() {
        let base = paper_base();
        let wrong_dim = Digits::from_slice(&[0, 0]).unwrap();
        assert!(matches!(
            base.to_index(&wrong_dim),
            Err(MixedRadixError::DimensionMismatch { .. })
        ));
        let bad_digit = Digits::from_slice(&[0, 2, 0]).unwrap();
        assert!(matches!(
            base.to_index(&bad_digit),
            Err(MixedRadixError::DigitOutOfRange { .. })
        ));
        assert!(!base.contains(&bad_digit));
    }

    #[test]
    fn square_and_binary_constructors() {
        let sq = RadixBase::square(5, 3).unwrap();
        assert!(sq.is_square());
        assert!(!sq.is_binary());
        assert_eq!(sq.size(), 125);

        let hc = RadixBase::binary(10).unwrap();
        assert!(hc.is_binary());
        assert!(hc.is_square());
        assert_eq!(hc.size(), 1024);

        let rect = paper_base();
        assert!(!rect.is_square());
    }

    #[test]
    fn parity_helpers() {
        let base = paper_base();
        assert_eq!(base.first_even_component(), Some(0));

        let odd = RadixBase::new(vec![3, 5, 7]).unwrap();
        assert_eq!(odd.first_even_component(), None);
    }

    #[test]
    fn min_max_radix() {
        let base = paper_base();
        assert_eq!(base.min_radix(), 2);
        assert_eq!(base.max_radix(), 4);
    }

    #[test]
    fn concat_and_permute() {
        let a = RadixBase::new(vec![4, 2]).unwrap();
        let b = RadixBase::new(vec![3]).unwrap();
        let c = a.concat(&b).unwrap();
        assert_eq!(c.radices(), &[4, 2, 3]);

        let p = Permutation::new(vec![2, 0, 1]).unwrap();
        let permuted = c.permute(&p).unwrap();
        assert_eq!(permuted.radices(), &[3, 4, 2]);
        assert_eq!(permuted.size(), c.size());
    }

    #[test]
    fn display_is_paper_style() {
        assert_eq!(paper_base().to_string(), "(4, 2, 3)");
        assert_eq!(format!("{:?}", paper_base()), "RadixBase(4, 2, 3)");
    }

    #[test]
    fn try_from_conversions() {
        let base: RadixBase = vec![2u32, 3].try_into().unwrap();
        assert_eq!(base.size(), 6);
        let base2: RadixBase = (&[2u32, 2][..]).try_into().unwrap();
        assert_eq!(base2.size(), 4);
    }

    #[test]
    fn single_dimension_base_is_a_ring_or_line_shape() {
        let base = RadixBase::new(vec![7]).unwrap();
        assert_eq!(base.dim(), 1);
        assert_eq!(base.size(), 7);
        assert_eq!(base.to_digits(5).unwrap().as_slice(), &[5]);
    }

    #[test]
    fn magic_matches_hardware_division_exhaustively_per_radix() {
        // Every radix a real shape uses (plus awkward primes and composites)
        // against hardware division over the full proven numerator range.
        for divisor in 2u64..=512 {
            let limit = divisor * divisor * 4;
            let m = MagicDivisor::new(divisor, limit).expect("small ranges always admit a magic");
            for x in 0..=limit {
                assert_eq!(m.divide(x), x / divisor, "d={divisor} x={x}");
                let (q, r) = m.div_rem(x);
                assert_eq!((q, r), (x / divisor, x % divisor), "d={divisor} x={x}");
            }
        }
    }

    #[test]
    fn magic_is_exact_at_the_edges_of_huge_ranges() {
        // Spot the failure-prone numerators: just below/at multiples of the
        // divisor near the top of the proven range.
        for divisor in [3u64, 5, 6, 7, 10, 24, 1_000_003, u32::MAX as u64] {
            for max in [1u64 << 20, 1 << 40, 1 << 52] {
                let m = MagicDivisor::new(divisor, max).expect("range admits a magic");
                let mut probes = vec![0, 1, divisor - 1, divisor, divisor + 1, max - 1, max];
                let top = max / divisor * divisor;
                probes.extend([top.saturating_sub(1), top, (top + 1).min(max)]);
                for x in probes.into_iter().filter(|&x| x <= max) {
                    assert_eq!(m.divide(x), x / divisor, "d={divisor} max={max} x={x}");
                }
            }
        }
    }

    #[test]
    fn power_of_two_magics_cover_every_u64() {
        for k in 0..=63u32 {
            let divisor = 1u64 << k;
            let m = MagicDivisor::new(divisor, u64::MAX).expect("powers of two always work");
            assert_eq!(m.max_numerator, u64::MAX);
            for x in [0u64, 1, divisor - 1, divisor, u64::MAX - 1, u64::MAX] {
                assert_eq!(m.divide(x), x / divisor, "d=2^{k} x={x}");
            }
        }
    }

    #[test]
    fn impossible_ranges_are_rejected_not_mis_divided() {
        assert!(MagicDivisor::new(0, 10).is_none());
        // Divisor 7 over the full u64 range: every feasible shift (64..=66,
        // beyond which the magic overflows u64) leaves f · X ≥ 2^shift, so
        // the checked constructor must refuse rather than return an inexact
        // reciprocal.
        assert!(MagicDivisor::new(7, u64::MAX).is_none());
        // Divisor 3 only barely works: shift 64 has f = 2 (refused for the
        // full range) but shift 65 has f = 1, which covers every u64.
        let m = MagicDivisor::new(3, u64::MAX).expect("f = 1 at shift 65");
        assert_eq!(m.divide(u64::MAX), u64::MAX / 3);
    }
}

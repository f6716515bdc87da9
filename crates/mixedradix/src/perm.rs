//! Permutations of list positions.
//!
//! The paper (Section 2) applies a permutation `π : [k]⁺ → [k]⁺` to a list
//! `(i_1, …, i_k)` to obtain `(i_{π(1)}, …, i_{π(k)})`. Permutations are used
//! to reorder the dimensions of a torus or mesh — e.g. Theorem 24 embeds a
//! ring in an `L`-mesh by first embedding it in an `L*`-mesh whose first
//! dimension is even and then applying the permutation `π` with `π(L*) = L`.

use core::fmt;

use crate::digits::Digits;
use crate::error::{MixedRadixError, Result};

/// A permutation of `k` positions, stored 0-based.
///
/// Applying the permutation to a list produces a new list whose `j`-th entry
/// is the `π(j)`-th entry of the input: `apply(x)[j] = x[π(j)]`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Permutation {
    /// `map[j] = π(j)` (0-based).
    map: Vec<usize>,
}

impl Permutation {
    /// Creates a permutation from its 0-based position map.
    ///
    /// `map[j] = p` means the `j`-th output entry is taken from input
    /// position `p`.
    ///
    /// # Errors
    ///
    /// Returns [`MixedRadixError::DigitOutOfRange`] if `map` is not a
    /// permutation of `0..map.len()`.
    pub fn new(map: Vec<usize>) -> Result<Self> {
        let k = map.len();
        let mut seen = vec![false; k];
        for (j, &p) in map.iter().enumerate() {
            if p >= k || seen[p] {
                return Err(MixedRadixError::DigitOutOfRange {
                    position: j,
                    digit: p as u64,
                    radix: k as u64,
                });
            }
            seen[p] = true;
        }
        Ok(Permutation { map })
    }

    /// The identity permutation on `k` positions.
    pub fn identity(k: usize) -> Self {
        Permutation {
            map: (0..k).collect(),
        }
    }

    /// The number of positions `k`.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the permutation acts on zero positions.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `π(j)` (0-based).
    pub fn image(&self, j: usize) -> usize {
        self.map[j]
    }

    /// The underlying 0-based map.
    pub fn as_slice(&self) -> &[usize] {
        &self.map
    }

    /// Composition `self ∘ other`: applying the result is the same as applying
    /// `other` first and then `self`.
    ///
    /// # Errors
    ///
    /// Returns [`MixedRadixError::DimensionMismatch`] if the two permutations
    /// act on different numbers of positions.
    pub fn compose(&self, other: &Permutation) -> Result<Permutation> {
        if self.len() != other.len() {
            return Err(MixedRadixError::DimensionMismatch {
                left: self.len(),
                right: other.len(),
            });
        }
        // (self ∘ other).apply(x) = self.apply(other.apply(x))
        // self.apply(y)[j] = y[self.map[j]]; y = other.apply(x); y[p] = x[other.map[p]]
        // => result[j] = x[other.map[self.map[j]]]
        let map = self.map.iter().map(|&p| other.map[p]).collect();
        Ok(Permutation { map })
    }

    /// Applies the permutation to a generic slice, returning the reordered
    /// vector: `result[j] = x[π(j)]`.
    ///
    /// # Errors
    ///
    /// Returns [`MixedRadixError::DimensionMismatch`] if `x.len() != self.len()`.
    pub fn apply_slice<T: Clone>(&self, x: &[T]) -> Result<Vec<T>> {
        if x.len() != self.len() {
            return Err(MixedRadixError::DimensionMismatch {
                left: self.len(),
                right: x.len(),
            });
        }
        Ok(self.map.iter().map(|&p| x[p].clone()).collect())
    }

    /// Applies the permutation to a digit list: `result[j] = x[π(j)]`.
    ///
    /// # Errors
    ///
    /// Returns [`MixedRadixError::DimensionMismatch`] if the digit list has a
    /// different dimension.
    pub fn apply_digits(&self, x: &Digits) -> Result<Digits> {
        if x.dim() != self.len() {
            return Err(MixedRadixError::DimensionMismatch {
                left: self.len(),
                right: x.dim(),
            });
        }
        let mut out = Digits::zero(x.dim()).expect("dimension already validated");
        for j in 0..self.len() {
            out.set(j, x.get(self.map[j]));
        }
        Ok(out)
    }

    /// Finds a permutation `π` such that applying `π` to `from` yields `to`
    /// (i.e. `to[j] = from[π(j)]` for all `j`), if one exists.
    ///
    /// When several permutations work (repeated values), the lexicographically
    /// smallest position map is returned, which makes the result
    /// deterministic.
    pub fn mapping<T: Eq + Clone>(from: &[T], to: &[T]) -> Option<Permutation> {
        if from.len() != to.len() {
            return None;
        }
        let k = from.len();
        let mut used = vec![false; k];
        let mut map = Vec::with_capacity(k);
        for t in to {
            let mut found = None;
            for (p, f) in from.iter().enumerate() {
                if !used[p] && f == t {
                    found = Some(p);
                    break;
                }
            }
            match found {
                Some(p) => {
                    used[p] = true;
                    map.push(p);
                }
                None => return None,
            }
        }
        Some(Permutation { map })
    }
}

impl fmt::Debug for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Permutation{:?}", self.map)
    }
}

impl fmt::Display for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (j, &p) in self.map.iter().enumerate() {
            if j > 0 {
                write!(f, " ")?;
            }
            write!(f, "{j}->{p}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_acts_trivially() {
        let p = Permutation::identity(4);
        assert_eq!(
            p.apply_slice(&[10, 20, 30, 40]).unwrap(),
            vec![10, 20, 30, 40]
        );
    }

    #[test]
    fn new_rejects_non_permutations() {
        assert!(Permutation::new(vec![0, 0, 1]).is_err());
        assert!(Permutation::new(vec![0, 3, 1]).is_err());
        assert!(Permutation::new(vec![]).is_ok());
    }

    #[test]
    fn apply_matches_paper_convention() {
        // π with map [2, 0, 1]: result[0] = x[2], result[1] = x[0], result[2] = x[1].
        let p = Permutation::new(vec![2, 0, 1]).unwrap();
        assert_eq!(
            p.apply_slice(&['a', 'b', 'c']).unwrap(),
            vec!['c', 'a', 'b']
        );
        let d = Digits::from_slice(&[5, 6, 7]).unwrap();
        assert_eq!(p.apply_digits(&d).unwrap().as_slice(), &[7, 5, 6]);
    }

    /// The inverse permutation.
    fn inverse(p: &Permutation) -> Permutation {
        let mut inv = vec![0usize; p.map.len()];
        for (j, &image) in p.map.iter().enumerate() {
            inv[image] = j;
        }
        Permutation { map: inv }
    }

    #[test]
    fn inverse_round_trips() {
        let p = Permutation::new(vec![2, 0, 3, 1]).unwrap();
        let inv = inverse(&p);
        let x = vec![1, 2, 3, 4];
        let y = p.apply_slice(&x).unwrap();
        assert_eq!(inv.apply_slice(&y).unwrap(), x);
        assert!(p.compose(&inv).is_ok());
    }

    #[test]
    fn compose_is_apply_other_then_self() {
        let p = Permutation::new(vec![1, 2, 0]).unwrap();
        let q = Permutation::new(vec![2, 1, 0]).unwrap();
        let pq = p.compose(&q).unwrap();
        let x = vec![10, 20, 30];
        assert_eq!(
            pq.apply_slice(&x).unwrap(),
            p.apply_slice(&q.apply_slice(&x).unwrap()).unwrap()
        );
    }

    #[test]
    fn compose_requires_equal_lengths() {
        let p = Permutation::identity(2);
        let q = Permutation::identity(3);
        assert!(p.compose(&q).is_err());
    }

    #[test]
    fn mapping_finds_a_reordering() {
        // L* = (2, 3, 5) must be mapped onto L = (3, 5, 2).
        let from = [2u64, 3, 5];
        let to = [3u64, 5, 2];
        let p = Permutation::mapping(&from, &to).unwrap();
        assert_eq!(p.apply_slice(&from).unwrap(), to.to_vec());
    }

    #[test]
    fn mapping_handles_repeats_deterministically() {
        let from = [2u64, 2, 4];
        let to = [4u64, 2, 2];
        let p = Permutation::mapping(&from, &to).unwrap();
        assert_eq!(p.apply_slice(&from).unwrap(), to.to_vec());
        assert_eq!(p.as_slice(), &[2, 0, 1]);
    }

    #[test]
    fn mapping_fails_when_multisets_differ() {
        assert!(Permutation::mapping(&[1, 2, 3], &[1, 2, 2]).is_none());
        assert!(Permutation::mapping(&[1, 2], &[1, 2, 3]).is_none());
    }

    #[test]
    fn apply_dimension_mismatch_is_an_error() {
        let p = Permutation::identity(3);
        assert!(p.apply_slice(&[1, 2]).is_err());
        let d = Digits::from_slice(&[1, 2]).unwrap();
        assert!(p.apply_digits(&d).is_err());
    }

    #[test]
    fn display_and_debug() {
        let p = Permutation::new(vec![1, 0]).unwrap();
        assert_eq!(format!("{p}"), "[0->1 1->0]");
        assert_eq!(format!("{p:?}"), "Permutation[1, 0]");
    }
}

//! The binary reflected Gray code — the radix-2 special case.
//!
//! Section 2 of the paper notes that for `n = 2^d` and `L = (2, 2, …, 2)`, a
//! function `f : [n] → Ω_L` with unit δ_t-spread (equal to the δ_m-spread in
//! this case) is a *Gray code*. The embeddings of meshes in hypercubes in
//! \[CS86\] are built from binary reflected Gray codes; the paper's `f_L` is the
//! mixed-radix generalization. This module provides the classic binary code
//! both as bit arithmetic and as a [`RadixSequence`], so that tests and
//! benchmarks can check that `f_L` specializes to it.

use crate::base::RadixBase;
use crate::digits::Digits;
use crate::error::{MixedRadixError, Result};
use crate::sequence::RadixSequence;

/// The `i`-th codeword of the binary reflected Gray code: `i ⊕ (i >> 1)`.
#[inline]
pub fn binary_gray(i: u64) -> u64 {
    i ^ (i >> 1)
}

/// The inverse of [`binary_gray`]: recovers `i` from its codeword.
#[inline]
pub fn binary_gray_inverse(code: u64) -> u64 {
    let mut value = code;
    let mut shift = 1u32;
    while shift < u64::BITS {
        value ^= value >> shift;
        shift <<= 1;
    }
    value
}

/// The binary reflected Gray code on `d` bits as a radix-`(2,…,2)` sequence.
#[derive(Clone, Debug)]
pub struct BinaryGraySequence {
    base: RadixBase,
    bits: usize,
}

impl BinaryGraySequence {
    /// Creates the Gray-code sequence on `bits` bits (`2^bits` codewords).
    ///
    /// # Errors
    ///
    /// Returns an error if `bits` is zero or exceeds [`crate::MAX_DIM`].
    pub fn new(bits: usize) -> Result<Self> {
        if bits == 0 {
            return Err(MixedRadixError::EmptyBase);
        }
        let base = RadixBase::binary(bits)?;
        Ok(BinaryGraySequence { base, bits })
    }

    /// The number of bits `d`.
    pub fn bits(&self) -> usize {
        self.bits
    }
}

impl RadixSequence for BinaryGraySequence {
    fn base(&self) -> &RadixBase {
        &self.base
    }

    fn len(&self) -> u64 {
        self.base.size()
    }

    fn at(&self, i: u64) -> Digits {
        let code = binary_gray(i);
        let mut digits = Digits::zero(self.bits).expect("bits within MAX_DIM");
        for b in 0..self.bits {
            // Most significant bit first, to match the natural-order digit
            // convention of `RadixBase::to_digits`.
            let bit = (code >> (self.bits - 1 - b)) & 1;
            digits.set(b, bit as u32);
        }
        digits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_code_changes_one_bit_at_a_time() {
        for i in 0..1023u64 {
            let a = binary_gray(i);
            let b = binary_gray(i + 1);
            assert_eq!(
                (a ^ b).count_ones(),
                1,
                "codewords {i} and {} differ",
                i + 1
            );
        }
    }

    #[test]
    fn gray_code_is_cyclic_on_powers_of_two() {
        for bits in 1..=10u32 {
            let n = 1u64 << bits;
            let first = binary_gray(0);
            let last = binary_gray(n - 1);
            assert_eq!((first ^ last).count_ones(), 1);
        }
    }

    #[test]
    fn inverse_round_trips() {
        for i in 0..4096u64 {
            assert_eq!(binary_gray_inverse(binary_gray(i)), i);
        }
        assert_eq!(binary_gray_inverse(binary_gray(u64::MAX)), u64::MAX);
    }

    #[test]
    fn gray_code_is_a_permutation_of_each_prefix_range() {
        let n = 1u64 << 8;
        let mut seen = vec![false; n as usize];
        for i in 0..n {
            let c = binary_gray(i);
            assert!(c < n);
            assert!(!seen[c as usize]);
            seen[c as usize] = true;
        }
    }

    #[test]
    fn sequence_has_unit_spreads() {
        for bits in 1..=8usize {
            let seq = BinaryGraySequence::new(bits).unwrap();
            assert!(seq.is_bijection());
            assert_eq!(seq.acyclic_spread_mesh(), 1);
            assert_eq!(seq.acyclic_spread_torus(), 1);
            // The binary reflected Gray code is cyclic.
            assert_eq!(seq.cyclic_spread_mesh(), 1);
            assert_eq!(seq.cyclic_spread_torus(), 1);
        }
    }

    #[test]
    fn first_codewords_match_the_classic_table() {
        let seq = BinaryGraySequence::new(3).unwrap();
        let codes: Vec<u64> = (0..8).map(binary_gray).collect();
        assert_eq!(
            codes,
            vec![0b000, 0b001, 0b011, 0b010, 0b110, 0b111, 0b101, 0b100]
        );
        assert_eq!(seq.at(3).as_slice(), &[0, 1, 0]);
        assert_eq!(seq.at(4).as_slice(), &[1, 1, 0]);
        assert_eq!(seq.bits(), 3);
    }

    #[test]
    fn zero_bits_is_rejected() {
        assert!(BinaryGraySequence::new(0).is_err());
    }
}

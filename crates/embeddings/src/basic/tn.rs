//! The cyclic renumbering `t_n` (Definition 14).
//!
//! `t_n : [n] → [n]` lists the even numbers in increasing order followed by
//! the odd numbers in decreasing order. Read as a cyclic sequence of the
//! numbers `0, …, n−1` (with `|a − b|` as the distance), successive elements
//! differ by at most 2; this is the paper's device for closing a reflected
//! sequence into a cycle at the cost of doubling the spread.

/// Evaluates `t_n(x)` (Definition 14).
///
/// # Panics
///
/// Panics if `x >= n` or `n == 0`.
#[inline]
pub fn t_n(n: u64, x: u64) -> u64 {
    assert!(n > 0, "t_n requires n > 0");
    assert!(x < n, "t_n argument {x} out of range for n = {n}");
    if 2 * x < n {
        2 * x
    } else {
        2 * n - 1 - 2 * x
    }
}

/// The maximum difference `|t_n((x+1) mod n) − t_n(x)|` over all `x` — the
/// spread of the cyclic sequence `t_n` on the line `[n]`.
pub fn cyclic_line_spread(n: u64) -> u64 {
    (0..n)
        .map(|x| {
            let a = t_n(n, x) as i64;
            let b = t_n(n, (x + 1) % n) as i64;
            (a - b).unsigned_abs()
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_tables() {
        // n = 6: 0, 2, 4, 5, 3, 1.
        let t6: Vec<u64> = (0..6).map(|x| t_n(6, x)).collect();
        assert_eq!(t6, vec![0, 2, 4, 5, 3, 1]);
        // n = 5: 0, 2, 4, 3, 1.
        let t5: Vec<u64> = (0..5).map(|x| t_n(5, x)).collect();
        assert_eq!(t5, vec![0, 2, 4, 3, 1]);
        // n = 1 and n = 2 degenerate gracefully.
        assert_eq!(t_n(1, 0), 0);
        assert_eq!((0..2).map(|x| t_n(2, x)).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn t_n_is_a_bijection() {
        for n in 1..=64u64 {
            let mut seen = vec![false; n as usize];
            for x in 0..n {
                let y = t_n(n, x);
                assert!(y < n);
                assert!(!seen[y as usize], "duplicate image for n={n}");
                seen[y as usize] = true;
            }
        }
    }

    /// Evaluates the inverse `t_n⁻¹(y)`.
    ///
    /// # Panics
    ///
    /// Panics if `y >= n` or `n == 0`.
    fn t_n_inverse(n: u64, y: u64) -> u64 {
        assert!(n > 0, "t_n⁻¹ requires n > 0");
        assert!(y < n, "t_n⁻¹ argument {y} out of range for n = {n}");
        if y.is_multiple_of(2) {
            y / 2
        } else {
            (2 * n - 1 - y) / 2
        }
    }

    #[test]
    fn inverse_round_trips() {
        for n in 1..=64u64 {
            for x in 0..n {
                assert_eq!(t_n_inverse(n, t_n(n, x)), x);
                assert_eq!(t_n(n, t_n_inverse(n, x)), x);
            }
        }
    }

    #[test]
    fn cyclic_spread_is_at_most_two() {
        for n in 3..=200u64 {
            assert!(cyclic_line_spread(n) <= 2, "spread for n={n}");
        }
        // And exactly 2 for n >= 3 (a cyclic sequence of >= 3 distinct numbers
        // cannot have all successive differences equal to 1).
        for n in 3..=200u64 {
            assert_eq!(cyclic_line_spread(n), 2, "spread for n={n}");
        }
    }

    #[test]
    fn even_numbers_come_first() {
        let n = 10;
        for x in 0..5 {
            assert_eq!(t_n(n, x) % 2, 0);
        }
        for x in 5..10 {
            assert_eq!(t_n(n, x) % 2, 1);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let _ = t_n(4, 4);
    }
}

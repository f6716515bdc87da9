//! Order statistics for run records: nearest-rank percentiles and the
//! quartiles Python's `statistics.quantiles(values, n=4)` reports, so the
//! numbers in a record match what an external reader recomputes.

/// The nearest-rank `p`-th percentile of `sorted` (ascending). `NaN` when
/// there are no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median and quartiles of a sample, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// The first quartile.
    pub q1: f64,
    /// The third quartile.
    pub q3: f64,
    /// The number of samples.
    pub samples: usize,
}

impl Summary {
    /// Summarizes `values` (any order). Quartiles use the "exclusive"
    /// method of `statistics.quantiles`; with one sample all three equal it.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let (q1, median, q3) = match n {
            0 => (f64::NAN, f64::NAN, f64::NAN),
            1 => (sorted[0], sorted[0], sorted[0]),
            _ => {
                let quantile = |i: usize| {
                    // statistics.quantiles(method="exclusive"), n=4.
                    let m = n + 1;
                    let j = (i * m / 4).clamp(1, n - 1);
                    // Unclamped, as in Python: tiny samples extrapolate.
                    let delta = (i * m) as f64 / 4.0 - j as f64;
                    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
                };
                (quantile(1), quantile(2), quantile(3))
            }
        };
        Summary {
            median,
            q1,
            q3,
            samples: n,
        }
    }
}

/// The median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// The geometric mean of positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values[..1], 99.0), 1.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}

//! Small fork–join helpers built on crossbeam scoped threads.
//!
//! The embeddings crate measures dilation by folding over every edge of `G`;
//! for graphs with millions of edges that sweep is embarrassingly parallel.
//! Rather than pulling in a full work-stealing runtime, these helpers split an
//! index range into contiguous chunks, run one worker per chunk on a scoped
//! thread, and combine the partial results — the fan-out/fan-in shape is all
//! the library needs.

use std::num::NonZeroUsize;
use std::ops::Range;

/// SplitMix64: a full-avalanche bit mixer for deriving independent seeds
/// from a base seed and an index (per explab trial, per annealing shard).
/// One shared copy lives here — the crate every seeded fan-out already
/// depends on — so the constants can never drift apart between consumers.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A reasonable default worker count: the machine's available parallelism,
/// capped at 16 (the sweeps here saturate memory bandwidth well before that).
pub fn recommended_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(16)
}

/// Splits `0..total` into at most `parts` contiguous, nearly equal chunks.
/// Empty chunks are omitted.
pub fn split_range(total: u64, parts: usize) -> Vec<Range<u64>> {
    if total == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts
        .min(usize::try_from(total).unwrap_or(usize::MAX))
        .max(1);
    let chunk = total / parts as u64;
    let remainder = total % parts as u64;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0u64;
    for i in 0..parts as u64 {
        let len = chunk + if i < remainder { 1 } else { 0 };
        if len == 0 {
            continue;
        }
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Applies `map` to each chunk of `0..total` in parallel and folds the chunk
/// results with `reduce`, starting from `identity`.
///
/// With `threads <= 1` (or a trivially small range) the computation runs on
/// the calling thread, which keeps the function cheap to use unconditionally.
pub fn parallel_map_reduce<R, M, Rd>(
    total: u64,
    threads: usize,
    identity: R,
    map: M,
    reduce: Rd,
) -> R
where
    R: Send,
    M: Fn(Range<u64>) -> R + Sync,
    Rd: Fn(R, R) -> R,
{
    let ranges = split_range(total, threads.max(1));
    if ranges.is_empty() {
        return identity;
    }
    if ranges.len() == 1 {
        return reduce(identity, map(ranges.into_iter().next().expect("one range")));
    }
    let partials: Vec<R> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| scope.spawn(|_| map(range)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
    .expect("crossbeam scope");
    partials.into_iter().fold(identity, reduce)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_range_covers_everything_once() {
        for total in [0u64, 1, 7, 100, 101] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = split_range(total, parts);
                let mut covered = 0u64;
                let mut prev_end = 0u64;
                for r in &ranges {
                    assert_eq!(r.start, prev_end, "ranges must be contiguous");
                    assert!(r.end > r.start);
                    covered += r.end - r.start;
                    prev_end = r.end;
                }
                assert_eq!(covered, total);
                assert!(ranges.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn parallel_sum_matches_sequential() {
        let f = |x: u64| x * x % 97;
        let sequential: u64 = (0..10_000).map(f).sum();
        for threads in [1, 2, 3, 4, 7, 8] {
            let parallel =
                parallel_map_reduce(10_000, threads, 0, |range| range.map(f).sum(), |a, b| a + b);
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn empty_ranges_return_identity() {
        let r = parallel_map_reduce(0, 0, 42u64, |_| 0, |a, b| a + b);
        assert_eq!(r, 42);
        let r = parallel_map_reduce(0, 4, 42u64, |_| 0, |a, b| a + b);
        assert_eq!(r, 42);
    }

    #[test]
    fn map_reduce_with_vectors() {
        // Collect squares in order by reducing vectors of (index, value).
        let result = parallel_map_reduce(
            100,
            4,
            Vec::new(),
            |range| range.map(|x| (x, x * x)).collect::<Vec<_>>(),
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        let mut sorted = result.clone();
        sorted.sort_by_key(|&(i, _)| i);
        assert_eq!(sorted.len(), 100);
        for (i, (idx, sq)) in sorted.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*sq, (i * i) as u64);
        }
    }
}

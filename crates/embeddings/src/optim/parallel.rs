//! Sharded annealing: N independently-seeded optimizer walks per call,
//! fanned out on the `topology::parallel` fork–join pool and reduced to the
//! lexicographically best `(cost, seed, shard)` result.
//!
//! The sequential walk of [`Optimizer`] is the single-trial
//! bottleneck (~10⁵ moves/s per core) and simulated annealing restarts are
//! embarrassingly parallel: walks share nothing but the read-only starting
//! table, so N shards explore N seeds in the wall-clock time of one. Under
//! [`ShardStrategy::Portfolio`] the shards stop being mere restarts and
//! become a *portfolio*: each non-zero shard also gets its own
//! [`MoveMix`] and temperature schedule from a fixed palette
//! ([`shard_config`]), so one call races the historical pairwise walk
//! against k-cycle-heavy, block-swap-heavy and hot-start variants. Shard
//! configs are a pure function of `(base config, shard index, strategy)` —
//! never of which worker ran the shard — so both strategies keep the two
//! contracts that make the fan-out safe to use everywhere:
//!
//! * **worker-count invariance** — every shard's seed is derived from the
//!   base seed and the shard index (never from which worker ran it), and the
//!   reduce picks the minimum of the totally ordered key
//!   `(best cost, shard seed, shard index)`, so the result is bit-identical
//!   for any worker count — the same invariance contract the explab executor
//!   enforces for whole sweeps;
//! * **shard-0 compatibility** — shard 0 runs the base seed *and the base
//!   config* unchanged under every strategy, so a 1-shard call is
//!   bit-identical to [`Optimizer::optimize`] with the same
//!   [`OptimizerConfig`], and the per-shard reports of an N-shard call
//!   expose "what the sequential walk would have found" as shard 0's entry
//!   (the sharded-vs-sequential tables in EXPERIMENTS.md are built from
//!   exactly that — including the portfolio columns, which compare the
//!   variant shards against that baseline).
//!
//! Each shard owns a private [`Objective`] built by the caller's factory —
//! objectives carry mutable incremental state (load vectors, cached routes)
//! and must never be shared across walks.
//!
//! # Example
//!
//! Seeded, sharded refinement of a paper pair — the (4, 6)-torus into the
//! (2, 2, 2, 3)-mesh (dilation 2 by Theorem 32's expansion construction):
//!
//! ```
//! use embeddings::auto::embed;
//! use embeddings::optim::parallel::{optimize_sharded, ShardedConfig};
//! use embeddings::optim::{CongestionObjective, OptimizerConfig};
//! use topology::{Grid, Shape};
//!
//! let guest = Grid::torus(Shape::new(vec![4, 6]).unwrap());
//! let host = Grid::mesh(Shape::new(vec![2, 2, 2, 3]).unwrap());
//! let constructive = embed(&guest, &host).unwrap();
//!
//! let config = ShardedConfig {
//!     base: OptimizerConfig { seed: 1987, steps: 300, ..OptimizerConfig::default() },
//!     shards: 4,
//!     workers: 0, // automatic
//!     ..ShardedConfig::default()
//! };
//! let sharded = optimize_sharded(
//!     &constructive,
//!     || CongestionObjective::new(&guest, &host),
//!     &config,
//! )
//! .unwrap();
//!
//! // One per-shard report per walk; the winner is the lexicographic best.
//! assert_eq!(sharded.shards.len(), 4);
//! assert!(sharded.outcome.report.best <= sharded.outcome.report.initial);
//! assert!(sharded.outcome.embedding.is_injective());
//! // The best-of-N result is never worse than any single shard's.
//! assert!(sharded.shards.iter().all(|s| sharded.outcome.report.best <= s.report.best));
//! ```

use topology::parallel::{parallel_map_reduce, recommended_threads, splitmix64};

use super::{
    refined_embedding, MoveMix, Objective, OptimOutcome, OptimReport, Optimizer, OptimizerConfig,
};
use crate::embedding::Embedding;
use crate::error::Result;

/// The seed shard `shard` anneals with, for a base seed of `base`.
///
/// Shard 0 keeps the base seed unchanged — a 1-shard run is bit-identical to
/// the sequential [`Optimizer`] — and every other shard mixes its index
/// through SplitMix64 so neighboring shards' walks are uncorrelated.
pub fn shard_seed(base: u64, shard: u32) -> u64 {
    if shard == 0 {
        base
    } else {
        splitmix64(base ^ u64::from(shard))
    }
}

/// How the shards of one sharded run differ from each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ShardStrategy {
    /// Every shard runs the base config; only the seed varies. The
    /// historical best-of-N-restarts behavior.
    #[default]
    Restarts,
    /// Shard 0 still runs the base config (preserving shard-0 ≡ sequential),
    /// but every other shard also draws a [`MoveMix`] and temperature
    /// schedule from the fixed [`shard_config`] palette, racing compound
    /// move repertoires against the pairwise baseline.
    Portfolio,
}

/// The palette entries behind [`ShardStrategy::Portfolio`], cycled by the
/// non-zero shards: a style name plus the mix/temperature the style anneals
/// with. Kept as data so reports, docs and tests all name the same styles.
const PORTFOLIO: [(&str, MoveMix, f64); 4] = [
    (
        "kcycle",
        MoveMix {
            reverse_per_mille: 150,
            kcycle_per_mille: 300,
            block_per_mille: 50,
        },
        1.0,
    ),
    (
        "block",
        MoveMix {
            reverse_per_mille: 150,
            kcycle_per_mille: 50,
            block_per_mille: 300,
        },
        1.0,
    ),
    ("hot", MoveMix::pairwise(), 4.0),
    ("hot-compound", MoveMix::compound(), 4.0),
];

/// The exact config shard `shard` anneals with, plus its style name — a
/// pure function of `(base, shard, strategy)` so results stay worker-count
/// invariant and externally reproducible.
///
/// Shard 0 always runs `base` itself (only the seed rule of [`shard_seed`]
/// applies, which leaves shard 0's seed unchanged too); under
/// [`ShardStrategy::Restarts`] so does every other shard. Under
/// [`ShardStrategy::Portfolio`] the non-zero shards cycle the palette:
/// `"kcycle"` (rotation-heavy mix), `"block"` (block-swap-heavy mix),
/// `"hot"` (pairwise mix, 4× initial temperature), `"hot-compound"`
/// ([`MoveMix::compound`], 4× initial temperature).
pub fn shard_config(
    base: &OptimizerConfig,
    shard: u32,
    strategy: ShardStrategy,
) -> (OptimizerConfig, &'static str) {
    let mut config = OptimizerConfig {
        seed: shard_seed(base.seed, shard),
        ..*base
    };
    if shard == 0 || strategy == ShardStrategy::Restarts {
        return (config, "base");
    }
    let (style, mix, heat) = PORTFOLIO[((shard - 1) % PORTFOLIO.len() as u32) as usize];
    config.mix = mix;
    config.initial_temperature = base.initial_temperature * heat;
    (config, style)
}

/// Configuration of one sharded optimization: the per-walk annealing config
/// plus how many walks to run, how they differ, and on how many workers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardedConfig {
    /// The per-shard annealing configuration. `base.seed` is the *base*
    /// seed; shard `s` anneals with [`shard_config`]`(base, s, strategy)`.
    pub base: OptimizerConfig,
    /// The number of independently-seeded walks (`0` is treated as `1`).
    pub shards: u32,
    /// How the walks differ: seed-only restarts or a mix/temperature
    /// portfolio.
    pub strategy: ShardStrategy,
    /// Worker threads for the fork–join pool (`0` = automatic). Purely a
    /// scheduling knob: results are bit-identical for any value.
    pub workers: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            base: OptimizerConfig::default(),
            shards: 4,
            strategy: ShardStrategy::Restarts,
            workers: 0,
        }
    }
}

/// One shard's walk, in the provenance trail of a sharded run.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardReport {
    /// The shard index (`0..shards`).
    pub shard: u32,
    /// The seed the shard annealed with ([`shard_seed`] of the base seed).
    pub seed: u64,
    /// The [`shard_config`] style name the shard ran: `"base"` for the
    /// unmodified config (always shard 0, and every shard under
    /// [`ShardStrategy::Restarts`]), otherwise the portfolio palette entry.
    pub style: &'static str,
    /// The shard's run statistics. Shard 0's entry is exactly what the
    /// sequential optimizer would have reported.
    pub report: OptimReport,
}

/// The result of [`optimize_sharded`]: the winning walk's outcome plus the
/// full per-shard provenance.
#[derive(Clone, Debug)]
pub struct ShardedOutcome {
    /// The lexicographically best walk's refined embedding, table and
    /// statistics (same shape as a sequential [`Optimizer::optimize`]
    /// outcome).
    pub outcome: OptimOutcome,
    /// The index of the winning shard.
    pub winner: u32,
    /// Every shard's report, ordered by shard index.
    pub shards: Vec<ShardReport>,
}

/// Runs `config.shards` independently-seeded annealing walks over
/// `embedding`'s placement table — each with a private objective built by
/// `factory` — and returns the lexicographically best `(cost, seed, shard)`
/// result together with per-shard provenance.
///
/// Results are bit-identical for any `config.workers`; see the
/// [module docs](self) for the invariance contract.
///
/// # Errors
///
/// Returns [`crate::error::EmbeddingError::TooLarge`] for guests too large
/// to materialize as a table, and propagates the first (by shard index)
/// error any `factory` call reports.
pub fn optimize_sharded<O, F>(
    embedding: &Embedding,
    factory: F,
    config: &ShardedConfig,
) -> Result<ShardedOutcome>
where
    O: Objective,
    F: Fn() -> Result<O> + Sync,
{
    let shards = config.shards.max(1);
    let workers = if config.workers == 0 {
        recommended_threads()
    } else {
        config.workers
    };
    let start_table = embedding.to_table()?;
    let base = config.base;
    let strategy = config.strategy;
    let guest = embedding.guest().shape();

    type ShardRun = (u32, &'static str, Result<(Vec<u64>, OptimReport)>);
    let mut runs: Vec<ShardRun> = parallel_map_reduce(
        u64::from(shards),
        workers,
        Vec::new(),
        |range| {
            range
                .map(|s| {
                    let shard = s as u32;
                    let (shard_cfg, style) = shard_config(&base, shard, strategy);
                    let result = factory().map(|mut objective| {
                        let optimizer = Optimizer::new(shard_cfg);
                        optimizer.refine_table(guest, start_table.clone(), &mut objective)
                    });
                    (shard, style, result)
                })
                .collect::<Vec<_>>()
        },
        |mut a, mut b| {
            a.append(&mut b);
            a
        },
    );
    // The fold already appends chunks in range order, but the winner must
    // not depend on how the range was split: re-establish shard order
    // explicitly before reducing.
    runs.sort_unstable_by_key(|(shard, _, _)| *shard);

    let mut tables: Vec<Vec<u64>> = Vec::with_capacity(runs.len());
    let mut reports: Vec<ShardReport> = Vec::with_capacity(runs.len());
    for (shard, style, result) in runs {
        let (table, report) = result?;
        tables.push(table);
        reports.push(ShardReport {
            shard,
            seed: shard_seed(base.seed, shard),
            style,
            report,
        });
    }
    let winner = reports
        .iter()
        .min_by_key(|s| (s.report.best, s.seed, s.shard))
        .expect("at least one shard")
        .shard;
    let best = &reports[winner as usize];
    let best_table = std::mem::take(&mut tables[winner as usize]);
    let refined = refined_embedding(embedding, best.report.objective, &best_table)?;
    Ok(ShardedOutcome {
        outcome: OptimOutcome {
            embedding: refined,
            table: best_table,
            report: best.report.clone(),
        },
        winner,
        shards: reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auto::embed;
    use crate::optim::CongestionObjective;
    use topology::{Grid, Shape};

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    fn paper_pair() -> (Grid, Grid) {
        (
            Grid::torus(shape(&[4, 6])),
            Grid::mesh(shape(&[2, 2, 2, 3])),
        )
    }

    #[test]
    fn shard_zero_keeps_the_base_seed() {
        assert_eq!(shard_seed(1987, 0), 1987);
        assert_ne!(shard_seed(1987, 1), 1987);
        assert_ne!(shard_seed(1987, 1), shard_seed(1987, 2));
        assert_ne!(shard_seed(1987, 1), shard_seed(1988, 1));
    }

    #[test]
    fn shard_config_palette_is_a_pure_function_of_shard_and_strategy() {
        let base = OptimizerConfig {
            seed: 1987,
            steps: 123,
            ..OptimizerConfig::default()
        };
        // Restarts: every shard is "base" with only the seed varied.
        for shard in 0..6 {
            let (config, style) = shard_config(&base, shard, ShardStrategy::Restarts);
            assert_eq!(style, "base");
            assert_eq!(config.seed, shard_seed(base.seed, shard));
            assert_eq!(config.mix, base.mix);
            assert_eq!(config.initial_temperature, base.initial_temperature);
        }
        // Portfolio: shard 0 stays base; shards 1.. cycle the palette.
        let (zero, style) = shard_config(&base, 0, ShardStrategy::Portfolio);
        assert_eq!((style, zero.mix), ("base", base.mix));
        let styles: Vec<&str> = (1..=PORTFOLIO.len() as u32 + 1)
            .map(|s| shard_config(&base, s, ShardStrategy::Portfolio).1)
            .collect();
        assert_eq!(styles[0], styles[PORTFOLIO.len()], "palette cycles");
        assert_eq!(
            styles[..PORTFOLIO.len()]
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            PORTFOLIO.len(),
            "palette entries are distinct styles"
        );
        for shard in 1..=PORTFOLIO.len() as u32 {
            let (config, style) = shard_config(&base, shard, ShardStrategy::Portfolio);
            let (name, mix, heat) = PORTFOLIO[(shard as usize - 1) % PORTFOLIO.len()];
            assert_eq!(style, name);
            assert_eq!(config.mix, mix);
            assert_eq!(config.initial_temperature, base.initial_temperature * heat);
            assert_eq!(config.seed, shard_seed(base.seed, shard));
            assert_eq!(config.steps, base.steps, "budget knobs never diversify");
        }
    }

    #[test]
    fn portfolio_results_are_bit_identical_for_any_worker_count() {
        let (guest, host) = paper_pair();
        let e = embed(&guest, &host).unwrap();
        let base = OptimizerConfig {
            seed: 9,
            steps: 250,
            ..OptimizerConfig::default()
        };
        let run = |workers: usize| {
            optimize_sharded(
                &e,
                || CongestionObjective::new(&guest, &host),
                &ShardedConfig {
                    base,
                    shards: 6,
                    strategy: ShardStrategy::Portfolio,
                    workers,
                },
            )
            .unwrap()
        };
        let reference = run(1);
        assert_eq!(reference.shards[1].style, PORTFOLIO[0].0);
        for workers in [2, 3, 8] {
            let other = run(workers);
            assert_eq!(reference.outcome.table, other.outcome.table, "{workers}");
            assert_eq!(reference.winner, other.winner);
            assert_eq!(reference.shards, other.shards);
        }
    }

    #[test]
    fn results_are_bit_identical_for_any_worker_count() {
        let (guest, host) = paper_pair();
        let e = embed(&guest, &host).unwrap();
        let base = OptimizerConfig {
            seed: 9,
            steps: 250,
            ..OptimizerConfig::default()
        };
        let reference = optimize_sharded(
            &e,
            || CongestionObjective::new(&guest, &host),
            &ShardedConfig {
                base,
                shards: 5,
                workers: 1,
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        for workers in [2, 3, 8] {
            let other = optimize_sharded(
                &e,
                || CongestionObjective::new(&guest, &host),
                &ShardedConfig {
                    base,
                    shards: 5,
                    workers,
                    ..ShardedConfig::default()
                },
            )
            .unwrap();
            assert_eq!(reference.outcome.table, other.outcome.table, "{workers}");
            assert_eq!(reference.winner, other.winner);
            assert_eq!(reference.shards, other.shards);
        }
    }

    #[test]
    fn one_shard_matches_the_sequential_optimizer() {
        let (guest, host) = paper_pair();
        let e = embed(&guest, &host).unwrap();
        let base = OptimizerConfig {
            seed: 42,
            steps: 300,
            ..OptimizerConfig::default()
        };
        let mut objective = CongestionObjective::new(&guest, &host).unwrap();
        let sequential = Optimizer::new(base).optimize(&e, &mut objective).unwrap();
        let sharded = optimize_sharded(
            &e,
            || CongestionObjective::new(&guest, &host),
            &ShardedConfig {
                base,
                shards: 1,
                workers: 4,
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        assert_eq!(sharded.outcome.table, sequential.table);
        assert_eq!(sharded.outcome.report, sequential.report);
        assert_eq!(sharded.winner, 0);
    }

    #[test]
    fn winner_is_the_lexicographic_best_shard() {
        let (guest, host) = paper_pair();
        let e = embed(&guest, &host).unwrap();
        let sharded = optimize_sharded(
            &e,
            || CongestionObjective::new(&guest, &host),
            &ShardedConfig {
                base: OptimizerConfig {
                    seed: 3,
                    steps: 400,
                    ..OptimizerConfig::default()
                },
                shards: 6,
                workers: 2,
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        assert_eq!(sharded.shards.len(), 6);
        let min = sharded
            .shards
            .iter()
            .map(|s| (s.report.best, s.seed, s.shard))
            .min()
            .unwrap();
        assert_eq!(min.2, sharded.winner);
        assert_eq!(sharded.outcome.report.best, min.0);
        // Best-of-N never loses to any single shard, and the winning table
        // re-measures to the reported best.
        for s in &sharded.shards {
            assert!(sharded.outcome.report.best <= s.report.best);
        }
        let mut fresh = CongestionObjective::new(&guest, &host).unwrap();
        assert_eq!(
            fresh.rebuild(&sharded.outcome.table),
            sharded.outcome.report.best
        );
    }

    #[test]
    fn zero_shards_are_treated_as_one() {
        let (guest, host) = paper_pair();
        let e = embed(&guest, &host).unwrap();
        let sharded = optimize_sharded(
            &e,
            || CongestionObjective::new(&guest, &host),
            &ShardedConfig {
                base: OptimizerConfig {
                    seed: 1,
                    steps: 50,
                    ..OptimizerConfig::default()
                },
                shards: 0,
                workers: 0,
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        assert_eq!(sharded.shards.len(), 1);
    }

    #[test]
    fn factory_errors_propagate() {
        let (guest, host) = paper_pair();
        let wrong_host = Grid::mesh(shape(&[4, 4]));
        let e = embed(&guest, &host).unwrap();
        let result = optimize_sharded(
            &e,
            || CongestionObjective::new(&guest, &wrong_host),
            &ShardedConfig::default(),
        );
        assert!(result.is_err());
    }
}

//! Integration tests of the `optim` subsystem, from outside the crate:
//! seeded determinism, monotone non-worsening, the incremental-vs-full
//! differential, and bijectivity of every move the optimizer applies.

use std::sync::Arc;

use embeddings::auto::embed;
use embeddings::congestion::congestion_sequential;
use embeddings::optim::parallel::{optimize_sharded, ShardStrategy, ShardedConfig};
use embeddings::optim::{
    CongestionObjective, Cost, MoveMix, Objective, Optimizer, OptimizerConfig, WirelengthObjective,
};
use embeddings::verify::verify_sequential;
use embeddings::Embedding;
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};
use topology::{Grid, Shape};

fn shape(radices: &[u32]) -> Shape {
    Shape::new(radices.to_vec()).unwrap()
}

fn pairs() -> Vec<(Grid, Grid)> {
    vec![
        (
            Grid::torus(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[4, 2, 3])),
        ),
        (Grid::hypercube(4).unwrap(), Grid::mesh(shape(&[4, 4]))),
        (Grid::ring(24).unwrap(), Grid::torus(shape(&[4, 6]))),
        (
            Grid::torus(shape(&[4, 6])),
            Grid::mesh(shape(&[2, 2, 2, 3])),
        ),
    ]
}

/// Wraps an objective and asserts, at every single `apply_swap`,
/// `apply_disjoint_swaps` and `apply_bounded` call, that the table the
/// optimizer hands over is still a permutation of `0..n` — i.e. that
/// *every* move (accepted, rejected-then-undone, pairwise, segment
/// reversal, k-cycle rotation batch, or block swap) preserves bijectivity —
/// and that every batched move keeps its disjointness contract: no index
/// appears twice in one batch. Bounded calls reach the inner objective as
/// bounded calls, so the audit covers the walk the annealer really takes.
/// They are counted apart by their limit: a judged call's limit accepts the
/// zero cost, and an unjudged one's, which rejects it, rejects every cost.
struct BijectivityAuditor<'a> {
    inner: &'a mut dyn Objective,
    seen: Vec<bool>,
    calls: u64,
    batches: u64,
    bounded: u64,
    unjudged: u64,
}

impl<'a> BijectivityAuditor<'a> {
    fn new(inner: &'a mut dyn Objective) -> Self {
        BijectivityAuditor {
            inner,
            seen: Vec::new(),
            calls: 0,
            batches: 0,
            bounded: 0,
            unjudged: 0,
        }
    }

    fn assert_disjoint(swaps: &[(u64, u64)]) {
        let mut touched = std::collections::HashSet::new();
        for &(a, b) in swaps {
            assert_ne!(a, b, "degenerate transposition ({a}, {b})");
            assert!(touched.insert(a), "index {a} appears twice in one batch");
            assert!(touched.insert(b), "index {b} appears twice in one batch");
        }
    }

    fn assert_permutation(&mut self, table: &[u64]) {
        self.seen.clear();
        self.seen.resize(table.len(), false);
        for &image in table {
            let slot = image as usize;
            assert!(slot < table.len(), "image {image} out of range");
            assert!(!self.seen[slot], "image {image} assigned twice");
            self.seen[slot] = true;
        }
    }
}

impl Objective for BijectivityAuditor<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn rebuild(&mut self, table: &[u64]) -> Cost {
        self.assert_permutation(table);
        self.inner.rebuild(table)
    }

    fn apply_swap(&mut self, table: &[u64], a: u64, b: u64) -> Cost {
        self.calls += 1;
        self.assert_permutation(table);
        self.inner.apply_swap(table, a, b)
    }

    fn apply_disjoint_swaps(&mut self, table: &mut [u64], swaps: &[(u64, u64)]) -> Cost {
        self.batches += 1;
        Self::assert_disjoint(swaps);
        let cost = self.inner.apply_disjoint_swaps(table, swaps);
        self.assert_permutation(table);
        cost
    }

    fn apply_bounded(
        &mut self,
        table: &mut [u64],
        swaps: &[(u64, u64)],
        accepts: &dyn Fn(Cost) -> bool,
    ) -> Cost {
        let zero = Cost {
            primary: 0,
            secondary: 0,
        };
        if accepts(zero) {
            self.bounded += 1;
        } else {
            self.unjudged += 1;
        }
        Self::assert_disjoint(swaps);
        let cost = self.inner.apply_bounded(table, swaps, accepts);
        self.assert_permutation(table);
        cost
    }
}

#[test]
fn every_applied_move_preserves_bijectivity() {
    for (guest, host) in pairs() {
        let e = embed(&guest, &host).unwrap();
        let mut congestion = CongestionObjective::new(&guest, &host).unwrap();
        let mut auditor = BijectivityAuditor::new(&mut congestion);
        let outcome = Optimizer::new(OptimizerConfig {
            seed: 23,
            steps: 600,
            ..OptimizerConfig::default()
        })
        .optimize(&e, &mut auditor)
        .unwrap();
        assert_eq!(
            auditor.bounded, 600,
            "every step proposes its move through `apply_bounded`"
        );
        assert_eq!(auditor.unjudged, 0, "only rotations have unjudged batches");
        assert!(
            auditor.calls > 0,
            "rejected swaps are undone by `apply_swap`"
        );
        assert!(outcome.embedding.is_injective(), "{guest} -> {host}");
        assert!(verify_sequential(&outcome.embedding).injective);
    }
}

#[test]
fn every_compound_move_preserves_bijectivity_and_disjointness() {
    // Same audit, but with the full repertoire in the mix: k-cycle
    // rotations and block swaps reach the objective as disjoint batches,
    // and the auditor checks both the permutation and the disjointness
    // contract on every one — including the undo batches of rejected moves.
    for (guest, host) in pairs() {
        let e = embed(&guest, &host).unwrap();
        let mut congestion = CongestionObjective::new(&guest, &host).unwrap();
        let mut auditor = BijectivityAuditor::new(&mut congestion);
        let outcome = Optimizer::new(OptimizerConfig {
            seed: 23,
            steps: 600,
            mix: MoveMix::compound(),
            ..OptimizerConfig::default()
        })
        .optimize(&e, &mut auditor)
        .unwrap();
        assert_eq!(auditor.bounded, 600, "one judged bounded call per step");
        // A rotation's first batch, and the first batch of its undo, go
        // through `apply_bounded` under a limit that rejects every cost.
        assert!(auditor.unjudged > 0, "no rotation reached `apply_bounded`");
        assert!(
            auditor.batches >= 100,
            "compound mix must issue batched moves ({} batches)",
            auditor.batches
        );
        assert!(auditor.calls >= 100, "pairwise swaps stay in the mix");
        assert!(outcome.embedding.is_injective(), "{guest} -> {host}");
        assert!(verify_sequential(&outcome.embedding).injective);
    }
}

/// A deliberately bad starting point: the images of a constructive
/// embedding, shuffled by a seeded Fisher–Yates — still a bijection, but
/// with plenty of congestion headroom for the optimizer to recover.
fn shuffled_embedding(guest: &Grid, host: &Grid, seed: u64) -> Embedding {
    let e = embed(guest, host).unwrap();
    let mut table = e.to_table().unwrap();
    table.shuffle(&mut StdRng::seed_from_u64(seed));
    let host_clone = host.clone();
    Embedding::new(
        guest.clone(),
        host.clone(),
        "shuffled",
        Arc::new(move |x| host_clone.coord(table[x as usize]).unwrap()),
    )
    .unwrap()
}

#[test]
fn same_seed_produces_identical_tables_different_seeds_diverge() {
    let (guest, host) = (Grid::torus(shape(&[4, 6])), Grid::mesh(shape(&[4, 6])));
    // Start from a shuffled table so the walk has real improvements to find
    // (a near-optimal start can leave every seed sitting on its starting
    // table, which would make the divergence check vacuous).
    let e = shuffled_embedding(&guest, &host, 99);
    let config = OptimizerConfig {
        seed: 77,
        steps: 800,
        ..OptimizerConfig::default()
    };
    let run = |config: OptimizerConfig| {
        let mut objective = CongestionObjective::new(&guest, &host).unwrap();
        Optimizer::new(config).optimize(&e, &mut objective).unwrap()
    };
    let first = run(config);
    let second = run(config);
    assert_eq!(first.table, second.table);
    assert_eq!(first.report, second.report);

    // Different seeds explore different move sequences.
    let other = run(OptimizerConfig { seed: 78, ..config });
    assert!(
        other.report != first.report || other.table != first.table,
        "seeds 77 and 78 produced identical walks"
    );
}

#[test]
fn optimization_never_worsens_any_objective() {
    for (guest, host) in pairs() {
        let e = embed(&guest, &host).unwrap();
        let initial_congestion = congestion_sequential(&e).unwrap();

        let mut congestion = CongestionObjective::new(&guest, &host).unwrap();
        let outcome = Optimizer::new(OptimizerConfig {
            seed: 5,
            steps: 400,
            ..OptimizerConfig::default()
        })
        .optimize(&e, &mut congestion)
        .unwrap();
        assert!(outcome.report.best <= outcome.report.initial);
        // Re-measured from the outside, not trusting optimizer bookkeeping.
        let refined = congestion_sequential(&outcome.embedding).unwrap();
        assert!(
            refined.max_congestion <= initial_congestion.max_congestion,
            "{guest} -> {host}: {} > {}",
            refined.max_congestion,
            initial_congestion.max_congestion
        );

        let mut dilation = WirelengthObjective::new(&guest, &host).unwrap();
        let outcome = Optimizer::new(OptimizerConfig {
            seed: 5,
            steps: 400,
            ..OptimizerConfig::default()
        })
        .optimize(&e, &mut dilation)
        .unwrap();
        assert!(outcome.report.best <= outcome.report.initial);
        let initial_avg = verify_sequential(&e).average_dilation;
        let refined_avg = verify_sequential(&outcome.embedding).average_dilation;
        assert!(refined_avg <= initial_avg + 1e-12, "{guest} -> {host}");
    }
}

#[test]
fn incremental_cost_matches_full_resweep_after_optimization() {
    for (guest, host) in pairs() {
        let e = embed(&guest, &host).unwrap();
        let mut objective = CongestionObjective::new(&guest, &host).unwrap();
        let outcome = Optimizer::new(OptimizerConfig {
            seed: 11,
            steps: 500,
            ..OptimizerConfig::default()
        })
        .optimize(&e, &mut objective)
        .unwrap();
        // The best cost the incremental path reported must equal a full
        // congestion re-sweep of the returned embedding.
        let report = congestion_sequential(&outcome.embedding).unwrap();
        assert_eq!(report.max_congestion, outcome.report.best.primary);
        assert_eq!(report.total_path_length, outcome.report.best.secondary);
        // And a freshly rebuilt objective agrees on the returned table.
        let mut fresh = CongestionObjective::new(&guest, &host).unwrap();
        assert_eq!(fresh.rebuild(&outcome.table), outcome.report.best);
    }
}

#[test]
fn portfolio_shards_are_deterministic_and_keep_shard_zero_sequential() {
    // The portfolio strategy must preserve both parallel invariants from
    // the outside: bit-identical results for any worker count, and shard 0
    // reporting exactly what a sequential run of the base config reports —
    // diversified mixes and temperatures live strictly on shards >= 1.
    let (guest, host) = (Grid::torus(shape(&[4, 6])), Grid::mesh(shape(&[4, 6])));
    let e = shuffled_embedding(&guest, &host, 17);
    let base = OptimizerConfig {
        seed: 31,
        steps: 400,
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
    let one = run(1);
    let many = run(4);
    assert_eq!(one.winner, many.winner);
    assert_eq!(one.outcome.table, many.outcome.table);
    assert_eq!(one.shards, many.shards);

    // Shard 0 ≡ sequential, untouched by the portfolio palette.
    let mut objective = CongestionObjective::new(&guest, &host).unwrap();
    let sequential = Optimizer::new(base).optimize(&e, &mut objective).unwrap();
    assert_eq!(one.shards[0].style, "base");
    assert_eq!(one.shards[0].report, sequential.report);

    // The non-zero shards actually diversify: more than one style ran, and
    // a single-shard portfolio degenerates to exactly the sequential run.
    let styles: std::collections::HashSet<&str> = one.shards.iter().map(|s| s.style).collect();
    assert!(styles.len() > 1, "portfolio ran only {styles:?}");
    let single = optimize_sharded(
        &e,
        || CongestionObjective::new(&guest, &host),
        &ShardedConfig {
            base,
            shards: 1,
            strategy: ShardStrategy::Portfolio,
            workers: 3,
        },
    )
    .unwrap();
    assert_eq!(single.outcome.table, sequential.table);
    assert_eq!(single.outcome.report, sequential.report);
}

#[test]
fn walks_through_a_boxed_objective_take_the_bounded_path() {
    // explab's shard factories hand the annealer a `Box<dyn Objective>`; a
    // box that dropped `apply_bounded` would silently price every sweep
    // move exactly. A boxed auditor goes through the same `Box<T>` impl: the
    // walk must reach its bounded method with one judged call per step, and
    // with its rotations' unjudged batches, and end exactly where the
    // unboxed walk ends.
    let (guest, host) = (Grid::torus(shape(&[4, 6])), Grid::mesh(shape(&[4, 6])));
    let e = embed(&guest, &host).unwrap();
    let config = OptimizerConfig {
        seed: 41,
        steps: 500,
        mix: MoveMix::compound(),
        ..OptimizerConfig::default()
    };
    let mut congestion = CongestionObjective::new(&guest, &host).unwrap();
    let mut boxed = Box::new(BijectivityAuditor::new(&mut congestion));
    let through_box = Optimizer::new(config).optimize(&e, &mut boxed).unwrap();
    assert_eq!(boxed.bounded, 500);
    assert!(boxed.unjudged > 0);
    let mut direct = CongestionObjective::new(&guest, &host).unwrap();
    let direct = Optimizer::new(config).optimize(&e, &mut direct).unwrap();
    assert_eq!(through_box.table, direct.table);
    assert_eq!(through_box.report, direct.report);
}

#[test]
fn random_starting_tables_are_refined_toward_the_constructive_range() {
    // Start from a shuffled placement of a torus in a mesh and check the
    // optimizer recovers a meaningful fraction of the congestion gap —
    // local search must actually search, not just hold the line.
    let guest = Grid::torus(shape(&[4, 6]));
    let host = Grid::mesh(shape(&[2, 2, 2, 3]));
    let naive = shuffled_embedding(&guest, &host, 4);
    let before = congestion_sequential(&naive).unwrap();
    let mut objective = CongestionObjective::new(&guest, &host).unwrap();
    let outcome = Optimizer::new(OptimizerConfig {
        seed: 2,
        steps: 4_000,
        ..OptimizerConfig::default()
    })
    .optimize(&naive, &mut objective)
    .unwrap();
    let after = congestion_sequential(&outcome.embedding).unwrap();
    assert!(
        after.max_congestion < before.max_congestion,
        "no improvement: {} -> {}",
        before.max_congestion,
        after.max_congestion
    );
}

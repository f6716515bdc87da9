//! Benchmark: optimizer move throughput (proposed annealing moves/second).
//!
//! The workload is a (16,16)-torus embedded in a (16,16)-mesh (256 nodes,
//! 512 guest edges) — large enough that a full congestion re-sweep per move
//! would dominate, so the number measures the *incremental* delta-evaluation
//! path (`O(degree × path length)` per swap). `congestion` runs the
//! incremental objective; `full_rebuild` measures the full re-sweep the
//! incremental path replaces, for the contrast. Results are recorded in
//! `BENCH_optim.json` at the repo root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use emb_bench::{mesh, torus};
use embeddings::auto::embed;
use embeddings::optim::{CongestionObjective, Objective, Optimizer, OptimizerConfig};
use embeddings::Embedding;

const STEPS: u64 = 5_000;

fn bench_embedding() -> Embedding {
    let guest = torus(&[16, 16]);
    let host = mesh(&[16, 16]);
    embed(&guest, &host).unwrap()
}

fn bench_optim(c: &mut Criterion) {
    let embedding = bench_embedding();
    let guest = embedding.guest().clone();
    let host = embedding.host().clone();
    let config = OptimizerConfig {
        seed: 1987,
        steps: STEPS,
        ..OptimizerConfig::default()
    };

    let mut group = c.benchmark_group("optim_throughput");
    group.throughput(Throughput::Elements(STEPS));

    group.bench_function(BenchmarkId::new("optim", "congestion"), |b| {
        b.iter(|| {
            let mut objective = CongestionObjective::new(&guest, &host).unwrap();
            Optimizer::new(config)
                .optimize(&embedding, &mut objective)
                .unwrap()
                .report
                .best
                .primary
        })
    });

    // The contrast: what one full congestion re-sweep costs. The element
    // count is still STEPS, so this group reads as "moves/s if every move
    // paid a full rebuild" when divided by STEPS.
    let table = embedding.to_table().unwrap();
    let mut rebuild_objective = CongestionObjective::new(&guest, &host).unwrap();
    group.bench_function(BenchmarkId::new("optim", "full_rebuild"), |b| {
        b.iter(|| rebuild_objective.rebuild(&table).primary)
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(8))
        .sample_size(10);
    targets = bench_optim
}
criterion_main!(benches);

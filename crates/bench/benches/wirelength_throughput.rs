//! Benchmark: wirelength-objective move throughput (proposed annealing
//! moves/second).
//!
//! The workload matches `optim_throughput` — a (16,16)-torus embedded in a
//! (16,16)-mesh (256 nodes, 512 guest edges) — so the wirelength numbers
//! read directly against the congestion objective. The wirelength delta
//! only touches the affected edges' distances (no routed path walks), so it
//! is the cheapest incremental objective; `weighted` adds the per-edge
//! weight lookup, `rebuild` measures the full re-sweep the incremental path
//! replaces. Results are recorded in `BENCH_optim.json`
//! (group `optim/wirelength`, gated via `summary.wirelength_moves_per_second`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use emb_bench::{mesh, torus};
use embeddings::auto::embed;
use embeddings::optim::{Objective, Optimizer, OptimizerConfig, WirelengthObjective};
use embeddings::Embedding;

const STEPS: u64 = 5_000;

fn bench_embedding() -> Embedding {
    let guest = torus(&[16, 16]);
    let host = mesh(&[16, 16]);
    embed(&guest, &host).unwrap()
}

fn bench_wirelength(c: &mut Criterion) {
    let embedding = bench_embedding();
    let guest = embedding.guest().clone();
    let host = embedding.host().clone();
    let config = OptimizerConfig {
        seed: 1987,
        steps: STEPS,
        ..OptimizerConfig::default()
    };

    let mut group = c.benchmark_group("wirelength_throughput");
    group.throughput(Throughput::Elements(STEPS));

    group.bench_function(BenchmarkId::new("wirelength", "unit"), |b| {
        b.iter(|| {
            let mut objective = WirelengthObjective::new(&guest, &host).unwrap();
            Optimizer::new(config)
                .optimize(&embedding, &mut objective)
                .unwrap()
                .report
                .best
                .primary
        })
    });
    group.bench_function(BenchmarkId::new("wirelength", "weighted"), |b| {
        b.iter(|| {
            let mut objective =
                WirelengthObjective::with_weights(&guest, &host, |t, h| 1 + (t ^ h) % 4).unwrap();
            Optimizer::new(config)
                .optimize(&embedding, &mut objective)
                .unwrap()
                .report
                .best
                .primary
        })
    });

    // The contrast: one full wirelength re-sweep. Dividing by STEPS reads as
    // "moves/s if every move paid a full rebuild".
    let table = embedding.to_table().unwrap();
    let mut rebuild_objective = WirelengthObjective::new(&guest, &host).unwrap();
    group.bench_function(BenchmarkId::new("wirelength", "full_rebuild"), |b| {
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
    targets = bench_wirelength
}
criterion_main!(benches);

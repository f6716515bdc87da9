//! Benchmark: the batched allocation-free evaluation pipeline on a
//! ~2²⁰-node grid.
//!
//! `batched` is the library path built on `Embedding::for_each_edge_mapped`
//! and flat load/histogram vectors; `batched_parallel_N` fans the same
//! sweep out over N crossbeam workers. Results are recorded in
//! `BENCH_pipeline.json` at the repo root; its `per_call` figures are
//! recorded history that no bench re-measures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use emb_bench::torus;
use embeddings::auto::embed;
use embeddings::congestion::{congestion_parallel, congestion_sequential};
use embeddings::verify::{verify, verify_sequential};
use embeddings::Embedding;

/// (1024,1024)-torus into a (32,32,32,32)-torus: 2²⁰ nodes, 2²¹ guest edges.
fn million_node_embedding() -> Embedding {
    let guest = torus(&[1024, 1024]);
    let host = torus(&[32, 32, 32, 32]);
    embed(&guest, &host).unwrap()
}

fn bench_pipeline(c: &mut Criterion) {
    let embedding = million_node_embedding();
    let edges = embedding.guest().num_edges();

    let mut group = c.benchmark_group("pipeline_throughput");
    group.throughput(Throughput::Elements(edges));

    group.bench_function(BenchmarkId::new("verify", "batched"), |b| {
        b.iter(|| verify_sequential(&embedding).dilation)
    });
    group.bench_function(BenchmarkId::new("verify", "batched_parallel_8"), |b| {
        b.iter(|| verify(&embedding, 8).unwrap().dilation)
    });

    group.bench_function(BenchmarkId::new("congestion", "batched"), |b| {
        b.iter(|| congestion_sequential(&embedding).unwrap().max_congestion)
    });
    group.bench_function(BenchmarkId::new("congestion", "batched_parallel_8"), |b| {
        b.iter(|| congestion_parallel(&embedding, 8).unwrap().max_congestion)
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(12))
        .sample_size(10);
    targets = bench_pipeline
}
criterion_main!(benches);

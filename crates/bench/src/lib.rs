//! Measurement infrastructure: the criterion benchmark suite and the
//! `benchgate` bench-regression gate.
//!
//! This crate (`emb-bench`) is where the repository's performance claims
//! live and are *enforced*:
//!
//! * **benches/** — eight criterion benchmarks, each backing a checked-in
//!   `BENCH_*.json` baseline: the batched `verify`/`congestion` pipeline
//!   (`pipeline_throughput`) and the digit-plane codec under it
//!   (`soa_codec`), the sweep engine (`explab_throughput`), the annealing
//!   optimizer and its objectives (`optim_throughput`,
//!   `wirelength_throughput`, `move_mix`), sharded annealing and the
//!   delta-aware makespan objective (`shard_scaling`), and degraded routing
//!   (`chaos_routing`);
//! * **`benchgate` bin** — the CI regression gate: re-measures the gated
//!   figures recorded in the checked-in `BENCH_*.json` baselines
//!   (best-of-N wall-clock, so one scheduler hiccup cannot fail the gate)
//!   and exits non-zero when any metric drops below
//!   `--min-ratio` × baseline (CI: 0.7). Its measured-throughput table is
//!   uploaded as a per-run CI artifact, giving a cheap longitudinal perf
//!   history without a dashboard service.
//!
//! Library-side, [`gate`] is a minimal offline JSON parser (the workspace
//! vendors no serde) plus the baseline-extraction and ratio-check logic
//! `benchgate` drives.
//!
//! Everything here measures; nothing here is measured. The crate is not
//! published and exports no stability guarantees — benches and gates may
//! reshape freely as the hot paths move.

pub mod gate;

use topology::{Grid, Shape};

/// Builds a shape from a slice, panicking on invalid input (benchmarks only
/// use known-good shapes).
fn shape(radices: &[u32]) -> Shape {
    Shape::new(radices.to_vec()).expect("valid shape")
}

/// A torus of the given shape.
pub fn torus(radices: &[u32]) -> Grid {
    Grid::torus(shape(radices))
}

/// A mesh of the given shape.
pub fn mesh(radices: &[u32]) -> Grid {
    Grid::mesh(shape(radices))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_expected_graphs() {
        assert_eq!(torus(&[4, 2, 3]).size(), 24);
        assert!(mesh(&[4, 2, 3]).is_mesh());
    }
}

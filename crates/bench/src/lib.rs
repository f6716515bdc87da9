//! Measurement infrastructure: the workload table and the `benchgate`
//! runner and bench-regression gate.
//!
//! This crate (`emb-bench`) is where the repository's performance claims
//! live and are *enforced*:
//!
//! * [`workloads`] — one table with a row for every group the checked-in
//!   `BENCH_*.json` baselines record: the batched `verify`/`congestion`
//!   pipeline and the digit-plane codec under it, the sweep engine, the
//!   annealing objectives and move mixes, sharded annealing and the
//!   delta-aware makespan objective, degraded routing, and `MAP` queries
//!   over loopback TCP. Each row says what it counts, and may name the
//!   baseline `summary` key that gates it;
//! * **`benchgate` bin** — the only runner of that table, and the CI
//!   regression gate: given baseline files, it times every row of those
//!   files (best of three, so one scheduler hiccup cannot fail the gate)
//!   and exits non-zero when a gated row drops below `--min-ratio` ×
//!   baseline (default 0.7). Its table is uploaded as a per-run CI
//!   artifact, a cheap longitudinal perf history without a dashboard
//!   service.
//!
//! [`gate`] is a minimal offline JSON parser (the workspace vendors no
//! serde) plus the baseline lookup and ratio check `benchgate` drives.
//!
//! Everything here measures; nothing here is measured. The crate is not
//! published and exports no stability guarantees — workloads and gates may
//! reshape freely as the hot paths move.

pub mod gate;
pub mod workloads;

use topology::{Grid, Shape};

/// Builds a shape from a slice, panicking on invalid input (workloads only
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

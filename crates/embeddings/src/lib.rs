//! Dilation-minimizing embeddings among toruses and meshes.
//!
//! This crate implements the constructions of *Eva Ma and Lixin Tao,
//! "Embeddings Among Toruses and Meshes"* (ICPP 1987; UPenn TR MS-CIS-88-63):
//! injective mappings between toruses, meshes, rings, lines and hypercubes of
//! equal size that minimize (or provably approach) the **dilation cost** —
//! the maximum host distance between images of adjacent guest nodes.
//!
//! # Module map
//!
//! * [`basic`] — Section 3: a line or ring into a mesh or torus
//!   (`f_L`, `t_n`, `g_L`, `r_L`, `h_L`).
//! * [`same_shape`] — Lemma 36: equal shapes, the `T_L` map.
//! * [`expansion`] / [`increase`] — Section 4.1: increasing dimension
//!   (`F_V`, `G_V`, `H_V`, Theorems 32–33).
//! * [`reduction`] — Section 4.2.1: simple reduction (`U_V`, Theorem 39,
//!   Corollary 40).
//! * [`general_reduction`] — Section 4.2.2: general reduction via supernodes
//!   (`F′_S`, `G′_S`, `G″_S`, Theorem 43).
//! * [`square`] — Section 5: square graphs (Theorems 48, 51, 52, 53).
//! * [`lower_bound`] — Theorem 47's dilation lower bound, plus Tang's exact
//!   minimum-wirelength bound for hypercubes in toruses and meshes
//!   (arXiv:2302.13237) — the crate's second analytic target.
//! * [`optimal`] — known optimal costs (FitzGerald, Harper, Ma–Narahari) and
//!   the appendix's `ε_d` analysis.
//! * [`exhaustive`] — branch-and-bound optimal dilation on tiny instances,
//!   used to cross-check optimality claims.
//! * [`auto`] — the planner: [`auto::embed`] picks the right construction for
//!   an arbitrary pair.
//! * [`verify`] — independent (parallel) measurement of dilation and
//!   injectivity on the batched allocation-free edge sweep
//!   ([`Embedding::for_each_edge_mapped`]).
//! * [`congestion`] — edge congestion under dimension-ordered routing (the
//!   next-hop rule shared with `netsim` via `topology::routing`), a
//!   library-level extension of the paper's cost model.
//! * [`metrics`] — a one-stop [`metrics::EmbeddingMetrics`] quality report
//!   (dilation, distribution, congestion, prediction, lower bound).
//! * [`optim`] — seeded local-search / simulated-annealing refinement of any
//!   embedding's placement table under pluggable, incrementally-evaluated
//!   objectives (max congestion, average dilation, weighted wirelength, …).
//! * [`plan`] — Plan-as-value: serializable embedding descriptions (graph
//!   pair, construction, dilation, optional explicit table) with a one-line
//!   text format, rebuilt into live embeddings by [`Plan::to_embedding`].
//! * [`chain`] — multi-step embedding chains with per-step dilation reports.
//! * [`paper_examples`] — the paper's worked instances (Figures 1–12,
//!   Definitions 30 and 41) as reusable constructors.
//!
//! # Example
//!
//! ```
//! use embeddings::auto::{embed, predicted_dilation};
//! use topology::{Grid, Shape};
//!
//! // Embed a (4,2,3)-torus in a (4,6)-mesh of the same size.
//! let guest = Grid::torus(Shape::new(vec![4, 2, 3]).unwrap());
//! let host = Grid::mesh(Shape::new(vec![4, 6]).unwrap());
//! let embedding = embed(&guest, &host).unwrap();
//! assert!(embedding.dilation() <= predicted_dilation(&guest, &host).unwrap());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod auto;
pub mod basic;
pub mod chain;
pub mod congestion;
pub mod embedding;
pub mod error;
pub mod exhaustive;
pub mod expansion;
pub mod general_reduction;
pub mod increase;
pub mod lower_bound;
pub mod metrics;
pub mod optim;
pub mod optimal;
pub mod paper_examples;
pub mod plan;
pub mod reduction;
pub mod same_shape;
pub mod square;
pub mod verify;

pub use embedding::Embedding;
pub use error::{EmbeddingError, Result};
pub use plan::{Plan, PlanError};

/// Commonly used items.
pub mod prelude {
    pub use crate::auto::{embed, predicted_dilation};
    pub use crate::basic::{embed_line_in, embed_ring_in};
    pub use crate::chain::{ChainReport, ChainStep, EmbeddingChain};
    pub use crate::congestion::{
        congestion, congestion_parallel, congestion_sequential, CongestionReport,
    };
    pub use crate::embedding::Embedding;
    pub use crate::error::EmbeddingError;
    pub use crate::expansion::{find_expansion_factor, ExpansionFactor};
    pub use crate::general_reduction::{embed_general_reduction, GeneralReduction};
    pub use crate::increase::embed_increasing;
    pub use crate::lower_bound::{dilation_lower_bound, wirelength_lower_bound};
    pub use crate::metrics::EmbeddingMetrics;
    pub use crate::optim::parallel::{optimize_sharded, ShardedConfig, ShardedOutcome};
    pub use crate::optim::{
        CongestionObjective, Cost, Objective, OptimOutcome, OptimReport, Optimizer,
        OptimizerConfig, WirelengthObjective,
    };
    pub use crate::plan::{format_grid_spec, parse_grid_spec, Plan, PlanError};
    pub use crate::reduction::embed_simple_reduction;
    pub use crate::same_shape::embed_same_shape;
    pub use crate::square::embed_square;
    pub use crate::verify::{verify, VerificationReport};
}

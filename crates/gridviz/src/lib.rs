//! Text rendering for torus/mesh embeddings: aligned tables and ASCII
//! pictures of where guest nodes land in the host.
//!
//! The paper communicates its constructions through figures — the
//! `f_L`/`g_L`/`h_L` tables of Figure 9, the line/ring-in-mesh pictures of
//! Figure 10, the supernode view of Figure 12. This crate regenerates those
//! artifacts as plain text so the examples can show an embedding rather
//! than just its dilation number:
//!
//! * [`table`] — a small column-aligned table builder with plain-text,
//!   Markdown and CSV output;
//! * [`render`] — ASCII pictures of a host grid with each cell labeled by the
//!   guest node mapped onto it (2-D hosts as one block, higher-dimensional
//!   hosts as a series of 2-D slices).
//!
//! The crate deliberately depends only on `topology` and `embeddings` and
//! allocates nothing fancier than strings: it is the presentation layer for
//! every human-readable artifact in the workspace. The examples print their
//! figure reproductions through [`render`]; the `lab` CLI, the
//! `benchgate` gate and the generated EXPERIMENTS.md render every summary
//! through [`Table`] — which is why [`Table`] output is byte-stable across
//! runs and machines (fixed column widths from content, fixed float
//! formatting at the call sites, no locale dependence). If a diffable
//! document drifts, the drift is in the numbers, never the renderer.
//!
//! # Examples
//!
//! An embedding picture (Figure 10's line-in-mesh view):
//!
//! ```
//! use embeddings::basic::embed_ring_in;
//! use gridviz::render::render_embedding;
//! use topology::{Grid, Shape};
//!
//! let host = Grid::mesh(Shape::new(vec![4, 6]).unwrap());
//! let embedding = embed_ring_in(&host).unwrap();
//! let picture = render_embedding(&embedding).unwrap();
//! assert!(picture.contains("23"));  // every guest label appears
//! ```
//!
//! A table in all three output formats:
//!
//! ```
//! use gridviz::{Alignment, Table};
//!
//! let mut table = Table::new(vec!["guest", "dilation"])
//!     .with_alignments(vec![Alignment::Left, Alignment::Right]);
//! table.push_row(vec!["ring(24)", "1"]);
//! assert!(table.to_markdown().starts_with("| guest | dilation |"));
//! assert!(table.to_csv().contains("ring(24),1"));
//! assert!(format!("{table}").contains("ring(24)"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod render;
pub mod table;

pub use render::{render_embedding, render_grid_indices};
pub use table::{Alignment, Table};

/// Commonly used items.
pub mod prelude {
    pub use crate::render::{render_embedding, render_grid_indices};
    pub use crate::table::{Alignment, Table};
}

//! Integration tests for the reporting layer: multi-step embedding chains,
//! the one-stop `EmbeddingMetrics` report, the closed-form network metrics,
//! and the text renderings — all cross-checked against the independent
//! verification sweep.

use embeddings::chain::EmbeddingChain;
use embeddings::metrics::EmbeddingMetrics;
use embeddings::paper_examples;
use embeddings::verify::verify;
use gridviz::render::{render_embedding, render_grid_indices};
use gridviz::table::{Alignment, Table};
use topology::metrics::GridMetrics;
use torus_mesh_embeddings::prelude::*;

fn shape(radices: &[u32]) -> Shape {
    Shape::new(radices.to_vec()).unwrap()
}

#[test]
fn metrics_agree_with_the_verification_report_across_construction_families() {
    let cases: Vec<(Grid, Grid)> = vec![
        (Grid::ring(24).unwrap(), Grid::mesh(shape(&[4, 2, 3]))),
        (Grid::line(24).unwrap(), Grid::torus(shape(&[4, 2, 3]))),
        (
            Grid::torus(shape(&[4, 6])),
            Grid::mesh(shape(&[2, 2, 2, 3])),
        ),
        (Grid::mesh(shape(&[3, 3, 6])), Grid::mesh(shape(&[6, 9]))),
        (Grid::hypercube(6).unwrap(), Grid::torus(shape(&[8, 8]))),
        (Grid::mesh(shape(&[4, 4, 4])), Grid::mesh(shape(&[8, 8]))),
    ];
    for (guest, host) in cases {
        let embedding = embed(&guest, &host).unwrap();
        let metrics = EmbeddingMetrics::measure(&embedding).unwrap();
        let report = verify(&embedding, 0).unwrap();
        assert_eq!(metrics.injective, report.injective, "{guest} -> {host}");
        assert_eq!(metrics.dilation, report.dilation, "{guest} -> {host}");
        assert_eq!(metrics.guest_edges, report.edges, "{guest} -> {host}");
        assert!(
            (metrics.average_dilation - report.average_dilation).abs() < 1e-9,
            "{guest} -> {host}"
        );
        assert!(metrics.meets_prediction(), "{guest} -> {host}");
        // Congestion is at least the worst per-edge stretch divided by ... at
        // minimum it is 1 whenever there is at least one edge.
        assert!(metrics.congestion.max_congestion >= 1);
    }
}

#[test]
fn paper_example_chain_reports_every_intermediate_step() {
    // The Theorem 51 flavour of chain: square mesh, dimension not divisible,
    // expressed explicitly as a chain through the intermediate shape the
    // paper constructs ((4,4,4) -> (8,8) is one general-reduction step, so we
    // build a longer chain through a 6-dimensional hypercube-shaped mesh to
    // exercise several steps).
    let guest = Grid::mesh(shape(&[2, 2, 2, 2, 2, 2]));
    let mid_a = Grid::mesh(shape(&[4, 4, 4]));
    let mid_b = Grid::mesh(shape(&[8, 8]));
    let host = Grid::line(64).unwrap();
    let chain = EmbeddingChain::through(&guest, &[mid_a, mid_b], &host).unwrap();
    assert_eq!(chain.len(), 3);

    let report = chain.report();
    assert_eq!(report.steps.len(), 3);
    assert!(report.steps.iter().all(|step| step.dilation >= 1));
    assert_eq!(report.product_bound, chain.dilation_product_bound());
    assert!(report.within_bound());

    let composed = chain.compose().unwrap();
    let verified = verify(&composed, 0).unwrap();
    assert!(verified.injective);
    assert_eq!(verified.dilation, composed.dilation());
    assert_eq!(report.composed_dilation, composed.dilation());
    assert!(composed.dilation() <= chain.dilation_product_bound());

    // The direct planner result for the same endpoints cannot be worse than
    // the explicit chain's product bound.
    let direct = embed(&guest, &host).unwrap();
    assert!(direct.dilation() <= chain.dilation_product_bound());
}

#[test]
fn figure12_metrics_lower_bound_and_rendering_are_consistent() {
    let (guest, host) = paper_examples::fig12_grids();
    let embedding = embed(&guest, &host).unwrap();
    let metrics = EmbeddingMetrics::measure(&embedding).unwrap();
    assert_eq!(metrics.dilation, 3);
    assert_eq!(metrics.predicted_dilation, Some(3));
    if let Some(bound) = metrics.lower_bound {
        assert!(bound <= metrics.dilation);
    }

    let picture = render_embedding(&embedding).unwrap();
    // Every guest node index appears exactly once in the picture.
    let labels: Vec<u64> = picture
        .split_whitespace()
        .filter_map(|token| token.parse().ok())
        .collect();
    let mut sorted = labels.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..guest.size()).collect::<Vec<u64>>());
}

#[test]
fn grid_metrics_closed_forms_hold_for_the_papers_graphs() {
    let torus = paper_examples::fig1_torus();
    let mesh = paper_examples::fig2_mesh();
    let torus_metrics = GridMetrics::measure(&torus);
    let mesh_metrics = GridMetrics::measure(&mesh);
    assert_eq!(torus_metrics.nodes, 24);
    assert_eq!(mesh_metrics.nodes, 24);
    assert_eq!(torus_metrics.edges, 24 + 12 + 24);
    assert!(mesh_metrics.edges < torus_metrics.edges);
    assert_eq!(torus_metrics.diameter, 4);
    assert_eq!(mesh_metrics.diameter, 3 + 1 + 2);
    assert!(torus_metrics.mean_distance < mesh_metrics.mean_distance);
    assert!(torus_metrics.bisection_width >= mesh_metrics.bisection_width);
}

#[test]
fn tables_render_the_experiment_rows_they_are_given() {
    // The gridviz table is what the examples and the `lab` CLI print;
    // make sure a realistic experiment table round-trips through all three
    // output formats without losing rows.
    let mut table =
        Table::new(vec!["guest", "host", "predicted", "measured"]).with_alignments(vec![
            Alignment::Left,
            Alignment::Left,
            Alignment::Right,
            Alignment::Right,
        ]);
    let cases: Vec<(Grid, Grid)> = vec![
        (Grid::ring(24).unwrap(), Grid::mesh(shape(&[4, 2, 3]))),
        (Grid::mesh(shape(&[8, 8])), Grid::line(64).unwrap()),
        (Grid::hypercube(4).unwrap(), Grid::mesh(shape(&[4, 4]))),
    ];
    for (guest, host) in &cases {
        let predicted = predicted_dilation(guest, host).unwrap();
        let measured = embed(guest, host).unwrap().dilation();
        assert!(measured <= predicted);
        table.push_row(vec![
            guest.to_string(),
            host.to_string(),
            predicted.to_string(),
            measured.to_string(),
        ]);
    }
    assert_eq!(table.len(), cases.len());
    let text = table.to_text();
    let markdown = table.to_markdown();
    let csv = table.to_csv();
    for output in [&text, &markdown, &csv] {
        assert_eq!(
            output.lines().count(),
            cases.len() + 2 - usize::from(output == &csv)
        );
        assert!(output.contains("ring(24)") || output.contains("(24)"));
    }

    // The index legend for the paper's mesh shows all 24 node indices.
    let legend = render_grid_indices(&paper_examples::fig2_mesh());
    for x in 0..24 {
        assert!(legend.split_whitespace().any(|t| t == x.to_string()));
    }
}

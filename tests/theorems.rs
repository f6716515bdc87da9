//! Cross-crate sweeps over the paper's theorems: for families of shapes,
//! check that the planner produces injective embeddings whose measured
//! dilation equals (or is bounded by) the theorem's guarantee.

use torus_mesh_embeddings::prelude::*;

use embeddings::lower_bound::dilation_lower_bound;
use embeddings::verify::verify;
use topology::GraphKind;

fn shape(radices: &[u32]) -> Shape {
    Shape::new(radices.to_vec()).unwrap()
}

fn grids_of(radices: &[u32]) -> [Grid; 2] {
    [Grid::torus(shape(radices)), Grid::mesh(shape(radices))]
}

/// Checks planner output against its prediction and returns the measured
/// dilation.
fn check(guest: &Grid, host: &Grid) -> u64 {
    let predicted = predicted_dilation(guest, host)
        .unwrap_or_else(|e| panic!("prediction failed for {guest} -> {host}: {e}"));
    let embedding =
        embed(guest, host).unwrap_or_else(|e| panic!("embed failed for {guest} -> {host}: {e}"));
    let report = verify(&embedding, 0).unwrap();
    assert!(report.injective, "not injective: {guest} -> {host}");
    assert!(
        report.dilation <= predicted,
        "dilation {} exceeds prediction {predicted} for {guest} -> {host} ({})",
        report.dilation,
        embedding.name()
    );
    report.dilation
}

#[test]
fn basic_embedding_sweep() {
    // Lines and rings into every small host shape.
    let host_shapes: Vec<Vec<u32>> = vec![
        vec![6],
        vec![7],
        vec![3, 3],
        vec![4, 3],
        vec![2, 2, 2],
        vec![4, 2, 3],
        vec![3, 3, 3],
        vec![5, 4],
        vec![2, 9],
        vec![3, 2, 2, 2],
        vec![2, 2, 2, 2],
        vec![6, 6],
        vec![5, 5, 5],
    ];
    for radices in &host_shapes {
        for host in grids_of(radices) {
            let n = host.size();
            let line_dilation = check(&Grid::line(n).unwrap(), &host);
            assert_eq!(line_dilation, 1, "line into {host}");

            let ring_dilation = check(&Grid::ring(n).unwrap(), &host);
            let expected = if host.is_torus() || (host.dim() >= 2 && n % 2 == 0) {
                1
            } else {
                2
            };
            assert_eq!(ring_dilation, expected, "ring into {host}");
        }
    }
}

#[test]
fn increasing_dimension_sweep() {
    // (guest radices, host radices, expected dilation for mesh guest,
    // expected dilation for torus guest into a mesh host).
    let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
        (vec![4, 6], vec![2, 2, 2, 3]),
        (vec![8, 9], vec![2, 4, 3, 3]),
        (vec![6, 6], vec![2, 3, 2, 3]),
        (vec![12, 2], vec![3, 4, 2]),
        (vec![9, 9], vec![3, 3, 3, 3]),
        (vec![16], vec![4, 4]),
        (vec![6, 12], vec![6, 3, 2, 2]),
        (vec![9, 15], vec![3, 3, 3, 5]),
        (vec![16, 16], vec![4, 4, 4, 4]),
        // Corollary 34: power-of-two guests into Q₆ (the binary 6-mesh).
        (vec![8, 8], vec![2, 2, 2, 2, 2, 2]),
        (vec![4, 4, 4], vec![2, 2, 2, 2, 2, 2]),
        (vec![32, 2], vec![2, 2, 2, 2, 2, 2]),
        (vec![4, 4, 2, 2], vec![2, 2, 2, 2, 2, 2]),
        (vec![64], vec![2, 2, 2, 2, 2, 2]),
    ];
    for (guest_radices, host_radices) in cases {
        for guest_kind in [GraphKind::Mesh, GraphKind::Torus] {
            for host_kind in [GraphKind::Mesh, GraphKind::Torus] {
                let guest = Grid::new(guest_kind, shape(&guest_radices));
                let host = Grid::new(host_kind, shape(&host_radices));
                let dilation = check(&guest, &host);
                // Theorem 32: unit dilation except possibly torus -> mesh.
                if guest.is_mesh() || host.is_torus() {
                    assert_eq!(dilation, 1, "{guest} -> {host}");
                } else {
                    assert!(dilation <= 2, "{guest} -> {host}");
                    if guest.size() % 2 == 1 {
                        assert_eq!(dilation, 2, "odd torus {guest} -> {host}");
                    }
                }
            }
        }
    }
}

#[test]
fn lowering_dimension_sweep() {
    let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
        (vec![4, 2, 3], vec![4, 6]),
        (vec![2, 2, 2, 2], vec![4, 4]),
        (vec![3, 3, 3], vec![9, 3]),
        (vec![2, 3, 2, 3], vec![6, 6]),
        (vec![4, 4, 4], vec![16, 4]),
        (vec![3, 3, 6], vec![6, 9]),
        (vec![5, 5, 4], vec![10, 10]),
        (vec![2, 2, 2, 2, 2], vec![4, 8]),
        (vec![2, 2, 2, 2, 2, 2], vec![8, 8]),
        (vec![2, 2, 2, 2], vec![16]),
        (vec![4, 4, 4], vec![64]),
        // Theorem 47's lower bound against the achieved dilation.
        (vec![8, 8], vec![64]),
        (vec![16, 16], vec![256]),
        (vec![4, 4, 4], vec![8, 8]),
        (vec![2, 2, 2, 2, 2, 2, 2, 2], vec![16, 16]),
    ];
    for (guest_radices, host_radices) in cases {
        for guest_kind in [GraphKind::Mesh, GraphKind::Torus] {
            for host_kind in [GraphKind::Mesh, GraphKind::Torus] {
                let guest = Grid::new(guest_kind, shape(&guest_radices));
                let host = Grid::new(host_kind, shape(&host_radices));
                let dilation = check(&guest, &host);
                // The Theorem 47 lower bound must hold for whatever we built.
                let bound = dilation_lower_bound(&guest, &host).unwrap();
                assert!(
                    bound <= dilation,
                    "lower bound {bound} exceeds measured dilation {dilation} for {guest} -> {host}"
                );
            }
        }
    }
}

#[test]
fn square_graph_sweep() {
    // (ℓ, d, c) triples with ℓ^d = side^c for some integer side.
    let cases: Vec<(u32, usize, usize)> = vec![
        (4, 2, 1),
        (2, 4, 2),
        (4, 3, 2),
        (2, 6, 3),
        (8, 2, 3),
        (4, 2, 4),
        (9, 2, 4),
        (3, 4, 2),
        (64, 2, 3),
        (8, 2, 1),
        (4, 5, 2),
        (9, 2, 1),
        (16, 1, 2),
        (27, 2, 3),
        (16, 3, 4),
        (64, 1, 3),
    ];
    for (ell, d, c) in cases {
        let guest_shape = Shape::square(ell, d).unwrap();
        let size = guest_shape.size();
        let side = (size as f64).powf(1.0 / c as f64).round() as u32;
        assert_eq!((side as u64).pow(c as u32), size, "test case is consistent");
        let host_shape = Shape::square(side, c).unwrap();
        for guest_kind in [GraphKind::Mesh, GraphKind::Torus] {
            for host_kind in [GraphKind::Mesh, GraphKind::Torus] {
                let guest = Grid::new(guest_kind, guest_shape.clone());
                let host = Grid::new(host_kind, host_shape.clone());
                check(&guest, &host);
            }
        }
    }
}

#[test]
fn hamiltonian_corollaries_from_ring_embeddings() {
    use topology::hamiltonian::{admits_hamiltonian_circuit, is_hamiltonian_circuit};
    let shapes: Vec<Vec<u32>> = vec![
        vec![3, 3],
        vec![4, 3],
        vec![2, 2, 3],
        vec![5, 5],
        vec![4, 2, 3],
        vec![3, 3, 3],
        vec![7],
        vec![8],
    ];
    for radices in shapes {
        for grid in grids_of(&radices) {
            let expected = admits_hamiltonian_circuit(&grid);
            let ring = Grid::ring(grid.size()).unwrap();
            let embedding = embed(&ring, &grid).unwrap();
            let circuit: Vec<u64> = (0..grid.size()).map(|x| embedding.map_index(x)).collect();
            let is_circuit = is_hamiltonian_circuit(&grid, &circuit);
            // A unit-dilation ring embedding is exactly a Hamiltonian circuit.
            assert_eq!(embedding.dilation() == 1, is_circuit);
            assert_eq!(
                is_circuit,
                expected,
                "Hamiltonicity mismatch for {grid} (dilation {})",
                embedding.dilation()
            );
        }
    }
}

/// Pins the paper's running example `L = (4, 2, 3)` to exact values:
/// the δ_m/δ_t distances of Lemmas 5–6 and the unit-dilation ring-in-mesh
/// embedding of Theorem 24. These are hard-coded regressions — if a
/// refactor changes any of these numbers it has broken the paper's math,
/// not the test.
#[test]
fn running_example_4_2_3_pins_lemmas_5_6_and_theorem_24() {
    use mixedradix::distance::{delta_m_index, delta_t_index, mesh_diameter, torus_diameter};
    use mixedradix::{Digits, RadixBase};
    use topology::bfs::bfs;

    let base = RadixBase::new(vec![4, 2, 3]).unwrap();
    assert_eq!(base.size(), 24);

    // Lemmas 5–6: hand-computed distances for concrete digit pairs.
    // Each entry is (a, b, δ_m, δ_t) with δ_m = Σ|a_k − b_k| and
    // δ_t = Σ min{|a_k − b_k|, l_k − |a_k − b_k|}.
    let pinned: [(&[u32], &[u32], u64, u64); 4] = [
        // Opposite corners: mesh walks the full diameter, the torus
        // wraps every dimension it can.
        (&[0, 0, 0], &[3, 1, 2], 6, 3),
        // Differ in the first (wrappable) dimension only.
        (&[0, 0, 0], &[3, 0, 0], 3, 1),
        // Mixed pair where wrapping never strictly helps (dimension 0
        // ties: min{2, 4−2} = 2), so δ_t = δ_m.
        (&[1, 1, 2], &[3, 0, 1], 4, 4),
        // Adjacent nodes agree under both metrics.
        (&[2, 1, 0], &[2, 1, 1], 1, 1),
    ];
    let torus = Grid::torus(shape(&[4, 2, 3]));
    let mesh = Grid::mesh(shape(&[4, 2, 3]));
    for (a, b, dm, dt) in pinned {
        let x = base.to_index(&Digits::from_slice(a).unwrap()).unwrap();
        let y = base.to_index(&Digits::from_slice(b).unwrap()).unwrap();
        assert_eq!(delta_m_index(&base, x, y).unwrap(), dm, "δ_m({a:?}, {b:?})");
        assert_eq!(delta_t_index(&base, x, y).unwrap(), dt, "δ_t({a:?}, {b:?})");
        // The lemmas' real content: δ_m/δ_t *are* the graph distances in
        // the (4,2,3)-mesh and (4,2,3)-torus.
        assert_eq!(bfs(&mesh, x).unwrap().distance(y).unwrap(), dm);
        assert_eq!(bfs(&torus, x).unwrap().distance(y).unwrap(), dt);
    }

    // The diameters those distances imply: Σ(l_k − 1) and Σ⌊l_k/2⌋.
    assert_eq!(mesh_diameter(&base), 6);
    assert_eq!(torus_diameter(&base), 4);

    // Theorem 24: the 24-ring embeds in the (4,2,3)-mesh with dilation
    // exactly 1, i.e. the image walk is a Hamiltonian circuit.
    let ring = Grid::ring(24).unwrap();
    let plan = embed(&ring, &mesh).unwrap();
    let report = verify(&plan, 0).unwrap();
    assert!(report.injective);
    assert_eq!(
        report.dilation, 1,
        "Theorem 24: ring in (4,2,3)-mesh is unit-dilation"
    );
    assert_eq!(plan.dilation(), 1);
}

#[test]
fn facade_prelude_covers_the_whole_pipeline() {
    // One end-to-end flow through the facade crate: build graphs, embed,
    // verify, simulate.
    let guest = Grid::torus(Shape::new(vec![4, 4]).unwrap());
    let host = Grid::mesh(Shape::new(vec![2, 2, 2, 2]).unwrap());
    let embedding = embed(&guest, &host).unwrap();
    assert_eq!(embedding.dilation(), 1);

    let stats = simulate_embedding(&embedding, 2);
    assert_eq!(stats.max_hops, 1);
    assert_eq!(stats.messages, 2 * 2 * guest.num_edges());
}

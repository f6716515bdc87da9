//! Property-based tests for the embedding constructions.
//!
//! Every property here is a theorem of the paper, checked on randomly drawn
//! shapes rather than hand-picked examples.

use embeddings::auto::{embed, predicted_dilation};
use embeddings::basic::{embed_line_in, embed_ring_in, f_l, f_l_inverse, g_l, h_l, t_n};
use embeddings::verify::{verify, verify_sequential};
use mixedradix::sequence::{FnSequence, RadixSequence};
use proptest::prelude::*;
use topology::{Grid, Shape};

/// A small random shape (dimension 1–4, radices 2–6, size ≤ 400).
fn small_shape() -> impl Strategy<Value = Shape> {
    proptest::collection::vec(2u32..=6, 1..=4)
        .prop_filter("bounded size", |radices| {
            radices.iter().map(|&l| l as u64).product::<u64>() <= 400
        })
        .prop_map(|radices| Shape::new(radices).unwrap())
}

/// A small random grid.
fn small_grid() -> impl Strategy<Value = Grid> {
    (small_shape(), proptest::bool::ANY).prop_map(|(shape, torus)| {
        if torus {
            Grid::torus(shape)
        } else {
            Grid::mesh(shape)
        }
    })
}

/// Drives `objective` through `moves` random moves drawn from the
/// optimizer's full repertoire — pairwise swaps, segment reversals, k-cycle
/// rotations and dimension-aligned block swaps — decomposed into exactly the
/// disjoint-transposition batches `Optimizer` issues. Roughly a third of the
/// moves are undone again (the optimizer's rejection path), and every undo
/// must restore the cost bit-exactly. Every cost the walk is handed, from a
/// move, an undo or a rotation's first batch, must equal `fresh`'s rebuild
/// of the table at that step. Returns the final incremental cost for the
/// caller to compare against a fresh rebuild.
fn compound_move_walk(
    objective: &mut dyn embeddings::optim::Objective,
    fresh: &mut dyn embeddings::optim::Objective,
    guest: &Shape,
    table: &mut [u64],
    seed: u64,
    moves: usize,
) -> Result<embeddings::optim::Cost, TestCaseError> {
    use embeddings::optim::Cost;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut step = |cost: Cost, table: &[u64]| -> Result<Cost, TestCaseError> {
        prop_assert_eq!(cost, fresh.rebuild(table), "incremental cost != rebuild");
        Ok(cost)
    };

    /// Fills `swaps` with the disjoint transpositions of `reverse(start..=end)`.
    fn reversal_batch(start: u64, end: u64, swaps: &mut Vec<(u64, u64)>) {
        swaps.clear();
        let (mut i, mut j) = (start, end);
        while i < j {
            swaps.push((i, j));
            i += 1;
            j -= 1;
        }
    }

    let n = table.len() as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cost = step(objective.rebuild(table), table)?;
    let mut swaps: Vec<(u64, u64)> = Vec::new();
    let block_dims: Vec<usize> = (0..guest.dim()).filter(|&d| guest.radix(d) >= 2).collect();
    for _ in 0..moves {
        if n < 2 {
            break;
        }
        let before = cost;
        // (kind, payload): 0 = swap(a, b), 1 = reverse(start, end),
        // 2 = rotate(start, end), 3 = block swap with its batch in `swaps`.
        let mut kind = rng.gen_range(0u32..4);
        if kind == 2 && n < 3 {
            kind = 0;
        }
        if kind == 3 && block_dims.is_empty() {
            kind = 0;
        }
        let payload = match kind {
            0 => {
                let a = rng.gen_range(0u64..n);
                let mut b = rng.gen_range(0u64..n - 1);
                if b >= a {
                    b += 1;
                }
                table.swap(a as usize, b as usize);
                cost = step(objective.apply_swap(table, a, b), table)?;
                (a, b)
            }
            1 => {
                let len = rng.gen_range(2u64..=n.min(8));
                let start = rng.gen_range(0u64..=n - len);
                let end = start + len - 1;
                reversal_batch(start, end, &mut swaps);
                cost = step(objective.apply_disjoint_swaps(table, &swaps), table)?;
                (start, end)
            }
            2 => {
                // Rotate left by one: reverse the whole run, then all but
                // its last element — the optimizer's two-batch decomposition.
                let len = rng.gen_range(3u64..=n.min(8));
                let start = rng.gen_range(0u64..=n - len);
                let end = start + len - 1;
                reversal_batch(start, end, &mut swaps);
                step(objective.apply_disjoint_swaps(table, &swaps), table)?;
                reversal_batch(start, end - 1, &mut swaps);
                cost = step(objective.apply_disjoint_swaps(table, &swaps), table)?;
                (start, end)
            }
            _ => {
                let dim = block_dims[rng.gen_range(0..block_dims.len())];
                let radix = u64::from(guest.radix(dim));
                let first = rng.gen_range(0u64..radix);
                let mut second = rng.gen_range(0u64..radix - 1);
                if second >= first {
                    second += 1;
                }
                let (low, high) = (first.min(second), first.max(second));
                let stride = guest.weight(dim + 1);
                let plane = stride * radix;
                let shift = (high - low) * stride;
                swaps.clear();
                let mut base = low * stride;
                while base < n {
                    for x in base..base + stride {
                        swaps.push((x, x + shift));
                    }
                    base += plane;
                }
                cost = step(objective.apply_disjoint_swaps(table, &swaps), table)?;
                (0, 0)
            }
        };
        if rng.gen_bool(0.35) {
            // The optimizer's rejection path: undo by the involution (swap,
            // reversal, block swap) or the inverse rotation.
            match kind {
                0 => {
                    let (a, b) = payload;
                    table.swap(a as usize, b as usize);
                    cost = step(objective.apply_swap(table, a, b), table)?;
                }
                1 => {
                    let (start, end) = payload;
                    reversal_batch(start, end, &mut swaps);
                    cost = step(objective.apply_disjoint_swaps(table, &swaps), table)?;
                }
                2 => {
                    let (start, end) = payload;
                    reversal_batch(start, end - 1, &mut swaps);
                    step(objective.apply_disjoint_swaps(table, &swaps), table)?;
                    reversal_batch(start, end, &mut swaps);
                    cost = step(objective.apply_disjoint_swaps(table, &swaps), table)?;
                }
                _ => {
                    // `swaps` still holds the block batch.
                    cost = step(objective.apply_disjoint_swaps(table, &swaps), table)?;
                }
            }
            prop_assert_eq!(cost, before, "undone move must restore the cost");
        }
    }
    Ok(cost)
}

/// Forwards only the three methods every objective had before
/// [`Objective::apply_bounded`](embeddings::optim::Objective::apply_bounded),
/// so the wrapped objective sees every move through the exact default.
struct ExactOnly(Box<dyn embeddings::optim::Objective>);

impl embeddings::optim::Objective for ExactOnly {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn rebuild(&mut self, table: &[u64]) -> embeddings::optim::Cost {
        self.0.rebuild(table)
    }

    fn apply_swap(&mut self, table: &[u64], a: u64, b: u64) -> embeddings::optim::Cost {
        self.0.apply_swap(table, a, b)
    }

    fn apply_disjoint_swaps(
        &mut self,
        table: &mut [u64],
        swaps: &[(u64, u64)],
    ) -> embeddings::optim::Cost {
        self.0.apply_disjoint_swaps(table, swaps)
    }
}

/// A grid of the given kind and radices.
fn grid(torus: bool, radices: Vec<u32>) -> Grid {
    let shape = Shape::new(radices).unwrap();
    if torus {
        Grid::torus(shape)
    } else {
        Grid::mesh(shape)
    }
}

/// `radices` rotated left by `by` places: a dimension order the planner
/// has to permute back.
fn rotated(mut radices: Vec<u32>, by: usize) -> Vec<u32> {
    let len = radices.len();
    radices.rotate_left(by % len);
    radices
}

/// A guest/host pair of `family`, built from factor lists whose factors
/// number at most six (4⁶ = 4096 nodes):
///
/// * 0 — one shape for both: the identity or `T_L`;
/// * 1 — each guest radix split into its list, the host in rotated order:
///   an increasing map `π ∘ F_V`, `G_V` or `H_V`;
/// * 2 — a general-reduction witness: the multiplicant `base`, one
///   multiplier splitting into the first list (at least two factors, one
///   per leading multiplicant radix), the guest in rotated order: some
///   `β ∘ F′_S`, `G′_S` or `G″_S ∘ α`, or a simple reduction where one
///   also applies;
/// * 3 — family 1 reversed: the simple reduction `U_V ∘ π` or
///   `U_V ∘ T_L ∘ π`.
fn family_pair(
    family: usize,
    mut lists: Vec<Vec<u32>>,
    base: Vec<u32>,
    turn: usize,
    guest_torus: bool,
    host_torus: bool,
) -> (Grid, Grid) {
    let mut budget = 6;
    for list in &mut lists {
        list.truncate(budget.max(1));
        budget = budget.saturating_sub(list.len());
    }
    let products: Vec<u32> = lists.iter().map(|list| list.iter().product()).collect();
    let flat: Vec<u32> = lists.concat();
    let (guest, host) = match family {
        0 => (products.clone(), products),
        1 => (products, rotated(flat, turn)),
        2 => {
            let mut factors = lists[0].clone();
            factors.truncate(base.len());
            if factors.len() < 2 {
                factors = vec![2, 2];
            }
            let mut guest = base.clone();
            guest.push(factors.iter().product());
            let mut host = base;
            for (h, s) in host.iter_mut().zip(&factors) {
                *h *= s;
            }
            (rotated(guest, turn), host)
        }
        _ => (rotated(flat, turn), products),
    };
    (grid(guest_torus, guest), grid(host_torus, host))
}

/// Whether `e`'s table equals its per-node images.
fn table_matches_per_node_images(e: &embeddings::Embedding) -> bool {
    let per_node: Vec<u64> = (0..e.size()).map(|x| e.map_index(x)).collect();
    e.to_table().unwrap() == per_node
}

#[test]
fn each_construction_tabulates_its_per_node_images() {
    for (guest, host, name) in [
        ("mesh:4x3", "torus:4x3", "identity"),
        ("torus:4x3", "mesh:4x3", "T_L"),
        ("mesh:4x6", "mesh:2x2x3x2", "π ∘ F_V"),
        ("torus:6x3", "mesh:3x2x3", "π ∘ G_V"),
        ("torus:4x6", "torus:2x2x2x3", "π ∘ H_V"),
        ("mesh:5x5x4", "mesh:10x10", "β ∘ F′_S ∘ α"),
        ("torus:5x5x4", "torus:10x10", "β ∘ G′_S ∘ α"),
        ("torus:5x4x5", "mesh:10x10", "β ∘ G″_S ∘ α"),
        ("mesh:2x3x4", "mesh:6x4", "U_V ∘ π"),
        ("torus:2x3x4", "mesh:6x4", "U_V ∘ T_L ∘ π"),
        // Not separable: the last step applies t to sums of digit terms.
        (
            "torus:4x4x4x4x4",
            "mesh:32x32",
            "Theorem 51 chain (3 steps)",
        ),
    ] {
        let guest = embeddings::plan::parse_grid_spec(guest).unwrap();
        let host = embeddings::plan::parse_grid_spec(host).unwrap();
        let e = embed(&guest, &host).unwrap();
        assert_eq!(e.name(), name, "{guest} -> {host}");
        assert!(
            table_matches_per_node_images(&e),
            "{guest} -> {host} ({name})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn to_table_matches_per_node_images(
        family in 0usize..4,
        lists in proptest::collection::vec(proptest::collection::vec(2u32..=4, 1..=3), 1..=3),
        base in proptest::collection::vec(2u32..=5, 2..=3),
        turn in 0usize..4,
        guest_torus in proptest::bool::ANY,
        host_torus in proptest::bool::ANY,
    ) {
        let (guest, host) = family_pair(family, lists, base, turn, guest_torus, host_torus);
        let e = embed(&guest, &host);
        prop_assert!(e.is_ok(), "{} -> {} is not embedded", guest, host);
        let e = e.unwrap();
        prop_assert!(table_matches_per_node_images(&e), "{} -> {} ({})", guest, host, e.name());
    }

    #[test]
    fn f_l_is_a_unit_spread_bijection(shape in small_shape()) {
        let inner = shape.clone();
        let seq = FnSequence::new(shape.clone(), shape.size(), move |x| f_l(&inner, x));
        prop_assert!(seq.is_bijection());
        prop_assert_eq!(seq.acyclic_spread_mesh(), 1);
        prop_assert_eq!(seq.acyclic_spread_torus(), 1);
    }

    #[test]
    fn f_l_inverse_round_trips(shape in small_shape(), x in 0u64..400) {
        let x = x % shape.size();
        prop_assert_eq!(f_l_inverse(&shape, &f_l(&shape, x)), x);
    }

    #[test]
    fn g_l_cyclic_mesh_spread_at_most_two(shape in small_shape()) {
        let inner = shape.clone();
        let seq = FnSequence::new(shape.clone(), shape.size(), move |x| g_l(&inner, x));
        prop_assert!(seq.is_bijection());
        prop_assert!(seq.cyclic_spread_mesh() <= 2);
    }

    #[test]
    fn h_l_cyclic_torus_spread_is_one(shape in small_shape()) {
        let inner = shape.clone();
        let seq = FnSequence::new(shape.clone(), shape.size(), move |x| h_l(&inner, x));
        prop_assert!(seq.is_bijection());
        prop_assert_eq!(seq.cyclic_spread_torus(), 1);
    }

    #[test]
    fn h_l_cyclic_mesh_spread_is_one_when_l1_even(shape in small_shape()) {
        if shape.radix(0) % 2 == 0 && shape.dim() >= 2 {
            let inner = shape.clone();
            let seq = FnSequence::new(shape.clone(), shape.size(), move |x| h_l(&inner, x));
            prop_assert_eq!(seq.cyclic_spread_mesh(), 1);
        }
    }

    #[test]
    fn t_n_is_an_involution_free_bijection_with_small_steps(n in 2u64..500) {
        let mut seen = vec![false; n as usize];
        for x in 0..n {
            let y = t_n(n, x);
            prop_assert!(y < n);
            prop_assert!(!seen[y as usize]);
            seen[y as usize] = true;
            let next = t_n(n, (x + 1) % n);
            let diff = (y as i64 - next as i64).unsigned_abs();
            prop_assert!(diff <= 2);
        }
    }

    #[test]
    fn line_embeddings_always_have_unit_dilation(host in small_grid()) {
        let e = embed_line_in(&host).unwrap();
        prop_assert!(e.is_injective());
        prop_assert_eq!(e.dilation(), 1);
    }

    #[test]
    fn ring_embeddings_match_the_paper_dilation(host in small_grid()) {
        let e = embed_ring_in(&host).unwrap();
        prop_assert!(e.is_injective());
        let unit = host.is_torus()
            || (host.dim() >= 2 && host.size() % 2 == 0)
            || host.size() == 2;
        let expected = if unit { 1 } else { 2 };
        prop_assert_eq!(e.dilation(), expected, "host {}", host);
    }

    #[test]
    fn planner_respects_its_own_prediction(guest in small_grid(), host_kind in proptest::bool::ANY) {
        // Build a host by regrouping the guest's prime factorization into a
        // host of different dimension but equal size: here simply collapse
        // the guest to one dimension (d > 1) or split nothing (d = 1).
        let host_shape = if guest.dim() > 1 && guest.size() <= u32::MAX as u64 {
            Shape::new(vec![guest.size() as u32]).unwrap()
        } else {
            guest.shape().clone()
        };
        let host = if host_kind {
            Grid::torus(host_shape)
        } else {
            Grid::mesh(host_shape)
        };
        match (embed(&guest, &host), predicted_dilation(&guest, &host)) {
            (Ok(e), Ok(bound)) => {
                prop_assert!(e.is_injective());
                prop_assert!(e.dilation() <= bound,
                    "dilation {} > bound {} for {} -> {}", e.dilation(), bound, guest, host);
            }
            (Err(_), Err(_)) => {}
            (Ok(_), Err(err)) => {
                return Err(TestCaseError::fail(format!(
                    "embed succeeded but prediction failed for {guest} -> {host}: {err}"
                )));
            }
            (Err(err), Ok(_)) => {
                return Err(TestCaseError::fail(format!(
                    "prediction succeeded but embed failed for {guest} -> {host}: {err}"
                )));
            }
        }
    }

    #[test]
    fn increasing_dimension_into_hypercubes(exponents in proptest::collection::vec(1u32..=3, 1..=3), torus in proptest::bool::ANY) {
        // Any power-of-two-size torus or mesh embeds in the hypercube of the
        // same size with dilation at most 2, and exactly 1 for meshes
        // (Corollary 34).
        let radices: Vec<u32> = exponents.iter().map(|&e| 1u32 << e).collect();
        let shape = Shape::new(radices).unwrap();
        let bits = shape.size().trailing_zeros() as usize;
        if bits >= 1 && shape.size() <= 256 {
            let guest = if torus { Grid::torus(shape) } else { Grid::mesh(shape) };
            let host = Grid::hypercube(bits).unwrap();
            let e = embed(&guest, &host).unwrap();
            prop_assert!(e.is_injective());
            if guest.is_mesh() {
                prop_assert_eq!(e.dilation(), 1);
            } else {
                prop_assert!(e.dilation() <= 2);
            }
        }
    }

    #[test]
    fn incremental_wirelength_matches_rebuild_after_random_moves(
        host in small_grid(),
        seed in 0u64..(1 << 16),
        weighted in proptest::bool::ANY,
    ) {
        // Differential pin for the wirelength objective: a random sequence
        // of swap and segment-reversal moves — reversals batched through
        // `apply_disjoint_swaps`, exactly as the optimizer issues them —
        // must leave the incremental state bit-exact against a full
        // recompute, with and without per-edge weights.
        use embeddings::optim::{Objective, WirelengthObjective};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let e = embed_ring_in(&host).unwrap();
        let guest = e.guest().clone();
        let build = || {
            if weighted {
                WirelengthObjective::with_weights(&guest, &host, |t, h| (t ^ h) % 4)
            } else {
                WirelengthObjective::new(&guest, &host)
            }
        };
        let mut table = e.to_table().unwrap();
        let mut objective = build().unwrap();
        let mut cost = objective.rebuild(&table);
        let n = table.len() as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut swaps: Vec<(u64, u64)> = Vec::new();
        for _ in 0..40 {
            if n >= 2 && rng.gen_bool(0.3) {
                let len = rng.gen_range(2u64..=n.min(8));
                let start = rng.gen_range(0u64..=n - len);
                swaps.clear();
                let (mut i, mut j) = (start, start + len - 1);
                while i < j {
                    swaps.push((i, j));
                    i += 1;
                    j -= 1;
                }
                cost = objective.apply_disjoint_swaps(&mut table, &swaps);
            } else {
                let a = rng.gen_range(0u64..n);
                let mut b = rng.gen_range(0u64..n - 1);
                if b >= a {
                    b += 1;
                }
                table.swap(a as usize, b as usize);
                cost = objective.apply_swap(&table, a, b);
            }
        }
        prop_assert_eq!(cost, build().unwrap().rebuild(&table));
    }

    #[test]
    fn incremental_congestion_matches_rebuild_after_compound_moves(
        shape in small_shape(),
        seed in 0u64..(1 << 16),
        torus in proptest::bool::ANY,
    ) {
        // Differential pin for the congestion objective under the full move
        // repertoire: random swaps, reversals, k-cycle rotations and block
        // swaps (some undone again, from the objective's saved state) must
        // price every step, and leave the incremental state, bit-exact
        // against a full recompute. Torus and mesh guests both run, so
        // block swaps pair twin edges across wrap edges and at the mesh's
        // boundary planes alike.
        use embeddings::optim::{CongestionObjective, Objective};
        let guest = if torus { Grid::torus(shape.clone()) } else { Grid::mesh(shape.clone()) };
        let host = Grid::mesh(shape);
        let e = embed(&guest, &host).unwrap();
        let mut table = e.to_table().unwrap();
        let build = || CongestionObjective::new(&guest, &host).unwrap();
        let (mut objective, mut fresh) = (build(), build());
        let cost =
            compound_move_walk(&mut objective, &mut fresh, guest.shape(), &mut table, seed, 40)?;
        prop_assert_eq!(cost, build().rebuild(&table));
    }

    #[test]
    fn incremental_wirelength_matches_rebuild_after_compound_moves(
        shape in small_shape(),
        seed in 0u64..(1 << 16),
        weighted in proptest::bool::ANY,
    ) {
        // Same differential wall for the wirelength objective, with and
        // without per-edge weights.
        use embeddings::optim::{Objective, WirelengthObjective};
        let guest = Grid::torus(shape.clone());
        let host = Grid::mesh(shape);
        let e = embed(&guest, &host).unwrap();
        let build = || {
            if weighted {
                WirelengthObjective::with_weights(&guest, &host, |t, h| (t ^ h) % 4)
            } else {
                WirelengthObjective::new(&guest, &host)
            }
        };
        let mut table = e.to_table().unwrap();
        let mut objective = build().unwrap();
        let mut fresh = build().unwrap();
        let cost =
            compound_move_walk(&mut objective, &mut fresh, guest.shape(), &mut table, seed, 40)?;
        prop_assert_eq!(cost, build().unwrap().rebuild(&table));
    }

    #[test]
    fn parallel_verification_agrees_with_sequential(host in small_grid(), threads in 1usize..6) {
        let e = embed_ring_in(&host).unwrap();
        let sequential = verify_sequential(&e);
        let parallel = verify(&e, threads).unwrap();
        prop_assert_eq!(sequential, parallel);
    }

    #[test]
    fn parallel_congestion_agrees_with_sequential(host in small_grid(), threads in 1usize..6) {
        use embeddings::congestion::{congestion_parallel, congestion_sequential};
        for e in [embed_ring_in(&host).unwrap(), embed_line_in(&host).unwrap()] {
            let sequential = congestion_sequential(&e).unwrap();
            let parallel = congestion_parallel(&e, threads).unwrap();
            prop_assert_eq!(sequential, parallel);
        }
    }

    #[test]
    fn batched_edge_sweep_agrees_with_per_call_dilation(host in small_grid()) {
        // The chunk-materializing sweep must measure exactly what naive
        // per-call arithmetic measures.
        let e = embed_ring_in(&host).unwrap();
        let report = verify_sequential(&e);
        let per_call: u64 = e
            .guest()
            .edges()
            .map(|(a, b)| e.host().distance(&e.map(a), &e.map(b)))
            .max()
            .unwrap_or(0);
        prop_assert_eq!(report.dilation, per_call);
        prop_assert_eq!(report.edges, e.guest().num_edges());
        prop_assert!(report.injective);
    }

    #[test]
    fn incremental_makespan_matches_rebuild_after_compound_moves(
        shape in proptest::collection::vec(2u32..=5, 1..=3)
            .prop_filter("bounded size", |radices| {
                let size: u64 = radices.iter().map(|&l| l as u64).product();
                (4..=100).contains(&size)
            })
            .prop_map(|radices| Shape::new(radices).unwrap()),
        seed in 0u64..(1 << 16),
        rounds in 1usize..=2,
    ) {
        // The simulation-backed objective joins the differential wall: the
        // contention-component replay of `netsim::optimize` must stay
        // bit-exact against a fresh full-arbitration rebuild through the
        // same compound-move walks (its `Cost` is the makespan itself, so
        // any skipped-but-affected component shows up here immediately).
        use embeddings::optim::Objective;
        use netsim::optimize::MakespanObjective;
        use netsim::{Network, Workload};
        let guest = Grid::torus(shape.clone());
        let host = Grid::mesh(shape);
        let e = embed(&guest, &host).unwrap();
        let workload = Workload::from_task_graph(&guest);
        let mut table = e.to_table().unwrap();
        let build = || {
            MakespanObjective::new(Network::new(host.clone()), workload.clone(), rounds).unwrap()
        };
        let (mut objective, mut fresh) = (build(), build());
        let cost =
            compound_move_walk(&mut objective, &mut fresh, guest.shape(), &mut table, seed, 25)?;
        prop_assert_eq!(cost, build().rebuild(&table));
    }

    #[test]
    fn incremental_bounded_walks_match_exact_walks(
        shape in proptest::collection::vec(2u32..=5, 1..=3)
            .prop_filter("bounded size", |radices| {
                let size: u64 = radices.iter().map(|&l| l as u64).product();
                (4..=64).contains(&size)
            })
            .prop_map(|radices| Shape::new(radices).unwrap()),
        torus_host in proptest::bool::ANY,
        shuffled in proptest::bool::ANY,
        seed in 0u64..(1 << 16),
        objective in 0usize..3,
        mix in 0usize..3,
    ) {
        // A walk whose objective may answer a move with a bound ends
        // exactly where the same walk priced exactly ends: same table,
        // same report. The exact walk runs through a wrapper that forwards
        // only `rebuild`, `apply_swap` and `apply_disjoint_swaps`, so every
        // move takes `apply_bounded`'s exact default.
        use embeddings::optim::parallel::{shard_config, ShardStrategy};
        use embeddings::optim::{
            CongestionObjective, MoveMix, Objective, Optimizer, OptimizerConfig,
            WirelengthObjective,
        };
        use embeddings::Embedding;
        use netsim::optimize::MakespanObjective;
        use netsim::{Network, Workload};
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let guest = Grid::torus(shape.clone());
        let host = if torus_host { Grid::torus(shape) } else { Grid::mesh(shape) };
        let mut table = embed(&guest, &host).unwrap().to_table().unwrap();
        if shuffled {
            table.shuffle(&mut StdRng::seed_from_u64(seed));
        }
        let start = Embedding::from_table(guest.clone(), host.clone(), "start", table).unwrap();
        let base = OptimizerConfig { seed, steps: 150, ..OptimizerConfig::default() };
        let (block, style) = shard_config(&base, 2, ShardStrategy::Portfolio);
        prop_assert_eq!(style, "block");
        let config = OptimizerConfig {
            mix: [MoveMix::pairwise(), MoveMix::compound(), block.mix][mix],
            ..base
        };
        let build = || -> Box<dyn Objective> {
            match objective {
                0 => Box::new(CongestionObjective::new(&guest, &host).unwrap()),
                1 => Box::new(WirelengthObjective::new(&guest, &host).unwrap()),
                _ => Box::new(
                    MakespanObjective::new(
                        Network::new(host.clone()),
                        Workload::from_task_graph(&guest),
                        1 + (seed % 2) as usize,
                    )
                    .unwrap(),
                ),
            }
        };
        let optimizer = Optimizer::new(config);
        let bounded = optimizer.optimize(&start, &mut build()).unwrap();
        let exact = optimizer.optimize(&start, &mut ExactOnly(build())).unwrap();
        prop_assert_eq!(&bounded.table, &exact.table);
        prop_assert_eq!(&bounded.report, &exact.report);
    }

    #[test]
    fn square_lowering_respects_the_formula(ell in 2u32..=4, d in 2usize..=3, torus in proptest::bool::ANY) {
        // Square guest of dimension d and side ℓ into a line/ring of the same
        // size: dilation ℓ^{d-1} (×2 for torus into line).
        let size = (ell as u64).pow(d as u32);
        if size <= 128 {
            let guest = if torus {
                Grid::torus(Shape::square(ell, d).unwrap())
            } else {
                Grid::mesh(Shape::square(ell, d).unwrap())
            };
            for host in [Grid::line(size).unwrap(), Grid::ring(size).unwrap()] {
                let bound = predicted_dilation(&guest, &host).unwrap();
                let e = embed(&guest, &host).unwrap();
                prop_assert!(e.is_injective());
                prop_assert!(e.dilation() <= bound);
                let base = (ell as u64).pow((d - 1) as u32);
                if guest.is_torus() && host.is_mesh() && !guest.is_hypercube() {
                    prop_assert_eq!(bound, 2 * base);
                } else {
                    prop_assert_eq!(bound, base);
                }
            }
        }
    }
}

/// The edges of `guest` whose tail lies in `nodes`, in the order of
/// [`Grid::edges`]: each tail's coordinates decoded with [`Grid::coord`],
/// then its coordinate increased in each dimension in turn.
fn decoded_edges(guest: &Grid, nodes: std::ops::Range<u64>) -> Vec<(u64, u64)> {
    let shape = guest.shape();
    let mut edges = Vec::new();
    for x in nodes {
        let coord = guest.coord(x).unwrap();
        for j in 0..guest.dim() {
            let (l, i) = (shape.radix(j), coord.get(j));
            let mut next = coord;
            if i + 1 < l {
                next.set(j, i + 1);
            } else if guest.is_torus() && l > 2 {
                next.set(j, 0);
            } else {
                continue;
            }
            edges.push((x, guest.index(&next).unwrap()));
        }
    }
    edges
}

#[test]
#[should_panic(expected = "reach past the last node")]
fn mapped_sweeps_reject_a_range_past_the_last_node() {
    // A map that answers past the last node too, so only the sweep's own
    // range check can stop it.
    let guest = Grid::torus(Shape::new(vec![4, 2, 3]).unwrap());
    let shape = guest.shape().clone();
    let e = embeddings::Embedding::new(
        guest.clone(),
        guest,
        "wrapping identity",
        std::sync::Arc::new(move |x| shape.to_digits(x % shape.size()).unwrap()),
    )
    .unwrap();
    e.for_each_edge_mapped(20..25, |_, _, _, _| ());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mapped_sweeps_of_any_subrange_match_per_node_decodes(
        selector in 0u8..3,
        ring in 2u32..=(1 << 20),
        radices in proptest::collection::vec(2u32..=9, 1..=8),
        torus in proptest::bool::ANY,
        start_seed in 0u64..u64::MAX,
        len_seed in 0u64..u64::MAX,
    ) {
        // A single ring of up to 2²⁰ nodes, the 32-dimensional binary shape
        // or a ragged mixed base; a range of up to 2¹⁵ nodes from a nonzero
        // start, so it can cross the sweep's 2¹⁴-node chunk boundary.
        let radices = match selector {
            0 => vec![ring],
            1 => vec![2; 32],
            _ => radices,
        };
        let guest = grid(torus, radices);
        let n = guest.size();
        prop_assume!(n > 1);
        let a = 1 + start_seed % (n - 1);
        let b = a + 1 + len_seed % (n - a).min(1 << 15);
        let e = embeddings::Embedding::identity(guest.clone(), guest.clone()).unwrap();
        // `map` of every node in the range, evaluated once up front.
        let images: Vec<_> = (a..b).map(|x| e.map(x)).collect();
        let map = |x: u64| if (a..b).contains(&x) { images[(x - a) as usize] } else { e.map(x) };
        let (mut nodes, mut edges) = (Vec::new(), Vec::new());
        let (mut node_images_match, mut edge_images_match) = (true, true);
        e.for_each_mapped(
            a..b,
            |x, fx| {
                nodes.push(x);
                node_images_match &= *fx == map(x);
            },
            |x, y, fx, fy| {
                edges.push((x, y));
                edge_images_match &= *fx == map(x) && *fy == map(y);
            },
        );
        prop_assert_eq!(nodes, (a..b).collect::<Vec<u64>>(), "{} over {}..{}", guest, a, b);
        prop_assert!(edges == decoded_edges(&guest, a..b), "{} over {}..{}", guest, a, b);
        prop_assert!(node_images_match && edge_images_match, "{} over {}..{}", guest, a, b);
    }

    #[test]
    fn digit_table_rows_match_per_node_decodes(
        hypercube in proptest::bool::ANY,
        radices in proptest::collection::vec(2u32..=300, 1..=16),
        torus in proptest::bool::ANY,
    ) {
        // The 16-dimensional hypercube, or the longest prefix of the radices
        // with at most 2¹⁶ nodes (never empty: the first radix is ≤ 300).
        let mut size = 1u64;
        let radices: Vec<u32> = if hypercube {
            vec![2; 16]
        } else {
            radices.into_iter().take_while(|&l| { size *= u64::from(l); size <= 1 << 16 }).collect()
        };
        let grid = grid(torus, radices);
        let table = grid.digit_table();
        for x in grid.nodes() {
            let coord = grid.coord(x).unwrap();
            prop_assert_eq!(table.row(x), coord.as_slice(), "row {} of {}", x, grid);
        }
    }
}

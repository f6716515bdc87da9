//! Property-based tests for the mixed-radix numbering system.

use mixedradix::distance::{delta_m_index, delta_t_index, mesh_diameter, torus_diameter};
use mixedradix::prelude::*;
use proptest::prelude::*;

/// Strategy producing a small radix base (dimension 1–5, radices 2–7, size
/// capped so that exhaustive loops stay cheap).
fn small_base() -> impl Strategy<Value = RadixBase> {
    proptest::collection::vec(2u32..=7, 1..=5)
        .prop_filter("keep sizes manageable", |radices| {
            radices.iter().map(|&l| l as u64).product::<u64>() <= 2000
        })
        .prop_map(|radices| RadixBase::new(radices).unwrap())
}

proptest! {
    #[test]
    fn digits_round_trip(base in small_base(), x in 0u64..2000) {
        let x = x % base.size();
        let digits = base.to_digits(x).unwrap();
        prop_assert!(base.contains(&digits));
        prop_assert_eq!(base.to_index(&digits).unwrap(), x);
    }

    #[test]
    fn every_digit_is_within_its_radix(base in small_base(), x in 0u64..2000) {
        let x = x % base.size();
        let digits = base.to_digits(x).unwrap();
        for j in 0..base.dim() {
            prop_assert!(digits.get(j) < base.radix(j));
        }
    }

    #[test]
    fn representation_is_unique(base in small_base()) {
        // Distinct integers have distinct radix-L representations.
        let mut seen = std::collections::HashSet::new();
        for x in 0..base.size() {
            let digits = base.to_digits(x).unwrap();
            prop_assert!(seen.insert(digits.as_slice().to_vec()));
        }
    }

    #[test]
    fn mesh_distance_dominates_torus_distance(
        base in small_base(),
        x in 0u64..2000,
        y in 0u64..2000,
    ) {
        let x = x % base.size();
        let y = y % base.size();
        let dm = delta_m_index(&base, x, y).unwrap();
        let dt = delta_t_index(&base, x, y).unwrap();
        prop_assert!(dm >= dt);
        prop_assert!(dm <= mesh_diameter(&base));
        prop_assert!(dt <= torus_diameter(&base));
    }

    #[test]
    fn distances_are_metrics(
        base in small_base(),
        x in 0u64..2000,
        y in 0u64..2000,
        z in 0u64..2000,
    ) {
        let n = base.size();
        let (x, y, z) = (x % n, y % n, z % n);
        let dm = |a, b| delta_m_index(&base, a, b).unwrap();
        let dt = |a, b| delta_t_index(&base, a, b).unwrap();
        // Identity of indiscernibles.
        prop_assert_eq!(dm(x, x), 0);
        prop_assert_eq!(dt(x, x), 0);
        prop_assert_eq!(dm(x, y) == 0, x == y);
        prop_assert_eq!(dt(x, y) == 0, x == y);
        // Symmetry.
        prop_assert_eq!(dm(x, y), dm(y, x));
        prop_assert_eq!(dt(x, y), dt(y, x));
        // Triangle inequality.
        prop_assert!(dm(x, z) <= dm(x, y) + dm(y, z));
        prop_assert!(dt(x, z) <= dt(x, y) + dt(y, z));
    }

    #[test]
    fn natural_sequence_is_a_bijection_with_spread_gt_one(base in small_base()) {
        let p = NaturalSequence::new(base.clone());
        prop_assert!(p.is_bijection());
        if base.dim() > 1 {
            prop_assert!(p.acyclic_spread_mesh() > 1);
        } else {
            prop_assert_eq!(p.acyclic_spread_mesh(), 1);
        }
    }

    #[test]
    fn permutation_preserves_distances_up_to_relabelling(
        base in small_base(),
        x in 0u64..2000,
        y in 0u64..2000,
        seed in 0u64..1000,
    ) {
        // Applying the same permutation to the base and to both operands
        // leaves both distance measures unchanged.
        let d = base.dim();
        // Build a deterministic permutation from the seed (Fisher–Yates with
        // a tiny LCG so the test stays dependency-free).
        let mut map: Vec<usize> = (0..d).collect();
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for i in (1..d).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            map.swap(i, j);
        }
        let perm = Permutation::new(map).unwrap();
        let pbase = base.permute(&perm).unwrap();

        let x = x % base.size();
        let y = y % base.size();
        let a = base.to_digits(x).unwrap();
        let b = base.to_digits(y).unwrap();
        let pa = perm.apply_digits(&a).unwrap();
        let pb = perm.apply_digits(&b).unwrap();

        prop_assert_eq!(
            delta_m(&base, &a, &b).unwrap(),
            delta_m(&pbase, &pa, &pb).unwrap()
        );
        prop_assert_eq!(
            delta_t(&base, &a, &b).unwrap(),
            delta_t(&pbase, &pa, &pb).unwrap()
        );
    }

    #[test]
    fn binary_gray_neighbours_differ_in_one_bit(i in 0u64..1_000_000) {
        let a = binary_gray(i);
        let b = binary_gray(i + 1);
        prop_assert_eq!((a ^ b).count_ones(), 1);
        prop_assert_eq!(binary_gray_inverse(a), i);
    }

    #[test]
    fn concat_to_index_is_positional(base in small_base(), other in small_base(), x in 0u64..2000, y in 0u64..2000) {
        // u_{L∘M}^{-1}(a ∘ b) = u_L^{-1}(a) * |M| + u_M^{-1}(b)
        if base.dim() + other.dim() <= MAX_DIM {
            let x = x % base.size();
            let y = y % other.size();
            let joined = base.concat(&other).unwrap();
            let a = base.to_digits(x).unwrap();
            let b = other.to_digits(y).unwrap();
            let ab = a.concat(&b).unwrap();
            prop_assert_eq!(joined.to_index(&ab).unwrap(), x * other.size() + y);
        }
    }

    #[test]
    fn radix_one_dimensions_are_rejected_before_either_codec(
        mut radices in proptest::collection::vec(2u32..=9, 1..=7),
        position in 0usize..64,
    ) {
        // Definition 7 requires l_j > 1, so neither the scalar decode nor a
        // digit odometer ever sees a radix-1 dimension: construction
        // already fails.
        radices.insert(position % (radices.len() + 1), 1);
        let rejected = matches!(
            RadixBase::new(radices),
            Err(MixedRadixError::RadixTooSmall { .. })
        );
        prop_assert!(rejected);
    }
}

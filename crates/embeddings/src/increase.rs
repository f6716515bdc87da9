//! Generalized embeddings for increasing dimension (Section 4.1,
//! Definition 31, Theorems 32 and 33).
//!
//! Given shapes `L` (dimension `d`) and `M` (dimension `c > d`) with `M` an
//! expansion of `L` by a factor `V = (V_1, …, V_d)`, every guest node
//! `(i_1, …, i_d)` is mapped through one basic sequence per dimension and the
//! results are concatenated:
//!
//! * `F_V` uses `f_{V_i}` — mesh guests, dilation 1;
//! * `G_V` uses `g_{V_i}` — torus guests into mesh hosts, dilation 2;
//! * `H_V` uses `h_{V_i}` — torus guests into torus hosts (dilation 1), and
//!   torus guests of even size into mesh hosts when every `V_i` has at least
//!   two components with an even first component (dilation 1).
//!
//! A final dimension permutation `π` (with `π(V) = M`) rearranges the host
//! coordinates into the host's own dimension order.

use std::sync::Arc;

use mixedradix::{Digits, Permutation};
use topology::{Coord, Grid, Shape};

use crate::basic::{f_l, g_l, h_l};
use crate::embedding::Embedding;
use crate::error::{EmbeddingError, Result};
use crate::expansion::{find_expansion_factor, find_expansion_factor_even_first, ExpansionFactor};

/// Which per-dimension basic sequence an increasing-dimension embedding uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncreaseFunction {
    /// `F_V`: per-dimension `f_{V_i}` (guest read as a mesh).
    F,
    /// `G_V`: per-dimension `g_{V_i}` (torus guest, mesh host, dilation 2).
    G,
    /// `H_V`: per-dimension `h_{V_i}` (torus guest; unit dilation cases).
    H,
}

impl IncreaseFunction {
    /// The paper's name for the composed map.
    pub fn name(self) -> &'static str {
        match self {
            IncreaseFunction::F => "π ∘ F_V",
            IncreaseFunction::G => "π ∘ G_V",
            IncreaseFunction::H => "π ∘ H_V",
        }
    }
}

/// Builds the per-dimension sub-shapes `V_1, …, V_d` of an expansion factor,
/// one [`Shape`] (with its radix weights and reciprocal constants) per list.
///
/// Embedding map closures run once per guest node; constructing these shapes
/// there would redo a heap allocation and a divider computation per dimension
/// per node. Build them once and evaluate with [`map_increase_over`].
pub fn factor_shapes(factor: &ExpansionFactor) -> Vec<Shape> {
    factor
        .lists()
        .iter()
        .map(|list| Shape::new(list.clone()).expect("factor lists are valid shapes"))
        .collect()
}

/// Evaluates `F_V`, `G_V` or `H_V` (Definition 31) on a guest coordinate,
/// producing a coordinate of the intermediate graph `H'` of shape
/// `V_1 ∘ V_2 ∘ … ∘ V_d`, over the sub-shapes `V_i` prepared once by
/// [`factor_shapes`].
///
/// # Panics
///
/// Panics if the coordinate's dimension differs from the sub-shape count or a
/// digit is out of range for its sub-shape.
pub fn map_increase_over(subs: &[Shape], function: IncreaseFunction, coord: &Coord) -> Digits {
    assert_eq!(
        coord.dim(),
        subs.len(),
        "coordinate dimension must match the expansion factor"
    );
    let mut out = Digits::empty();
    for (i, sub) in subs.iter().enumerate() {
        let digit = coord.get(i) as u64;
        let image = match function {
            IncreaseFunction::F => f_l(sub, digit),
            IncreaseFunction::G => g_l(sub, digit),
            IncreaseFunction::H => h_l(sub, digit),
        };
        out = out.concat(&image).expect("total dimension within bounds");
    }
    out
}

/// Embeds `guest` in `host` with an explicitly chosen expansion factor and
/// per-dimension function.
///
/// # Errors
///
/// Returns an error if the factor is not a valid expansion factor of the
/// guest's shape into the host's shape.
pub fn embed_increasing_with(
    guest: &Grid,
    host: &Grid,
    factor: &ExpansionFactor,
    function: IncreaseFunction,
) -> Result<Embedding> {
    factor.validate(guest.shape(), host.shape())?;
    let perm: Permutation = factor.permutation_to(host.shape())?;
    let guest_shape = guest.shape().clone();
    let subs = factor_shapes(factor);
    let map = match increase_tables(&guest_shape, &subs, function, &perm) {
        Some(tables) => {
            // Table-driven fast path: the map is separable per guest
            // dimension, so the per-node work collapses to a scalar decode,
            // one table load per dimension and a disjoint-position merge.
            let mover: Arc<dyn Fn(u64) -> Digits + Send + Sync> = Arc::new(move |x| {
                let coord = guest_shape.to_digits(x).expect("index in range");
                let mut out = tables[0][coord.get(0) as usize];
                for (i, table) in tables.iter().enumerate().skip(1) {
                    let partial = &table[coord.get(i) as usize];
                    for j in 0..out.dim() {
                        out.set(j, out.get(j) | partial.get(j));
                    }
                }
                out
            });
            mover
        }
        None => Arc::new(move |x| {
            let coord = guest_shape.to_digits(x).expect("index in range");
            let image = map_increase_over(&subs, function, &coord);
            perm.apply_digits(&image)
                .expect("permutation matches dimension")
        }),
    };
    // Guest digit i alone fills its own block of host digits: separable.
    Embedding::new_separable(guest.clone(), host.clone(), function.name(), map)
}

/// Guest radices beyond which [`increase_tables`] declines to tabulate: the
/// tables hold `Σ l_i` [`Digits`] entries, and past this bound the per-node
/// lookups stop fitting in cache while construction cost starts to show.
const TABLE_ENTRY_LIMIT: u64 = 1 << 12;

/// Precomputes, for every guest dimension `i` and digit `v < l_i`, the
/// permuted partial image of `v` — a host coordinate with dimension `i`'s
/// sub-image spread over its final (post-`π`) positions and zeros elsewhere.
/// Because `F_V`/`G_V`/`H_V` act dimension-by-dimension and `π` only moves
/// positions, the full image of a coordinate is the digit-wise merge of one
/// partial per dimension (their nonzero positions are disjoint).
///
/// Returns `None` when the guest's radices sum past [`TABLE_ENTRY_LIMIT`];
/// callers then fall back to evaluating [`map_increase_over`] per node.
fn increase_tables(
    guest_shape: &Shape,
    subs: &[Shape],
    function: IncreaseFunction,
    perm: &Permutation,
) -> Option<Vec<Vec<Digits>>> {
    let entries: u64 = guest_shape.radices().iter().map(|&l| l as u64).sum();
    if entries > TABLE_ENTRY_LIMIT {
        return None;
    }
    let c = perm.len();
    // Recover π's position map by pushing the identity through it:
    // host position j reads concatenated position π(j).
    let identity: Vec<usize> = (0..c).collect();
    let positions = perm.apply_slice(&identity).expect("lengths match");
    let mut host_position = vec![0usize; c];
    for (j, &p) in positions.iter().enumerate() {
        host_position[p] = j;
    }
    let mut tables = Vec::with_capacity(subs.len());
    let mut offset = 0usize;
    for (i, sub) in subs.iter().enumerate() {
        let l = guest_shape.radix(i) as u64;
        let mut table = Vec::with_capacity(l as usize);
        for v in 0..l {
            let image = match function {
                IncreaseFunction::F => f_l(sub, v),
                IncreaseFunction::G => g_l(sub, v),
                IncreaseFunction::H => h_l(sub, v),
            };
            let mut partial = Digits::zero(c).expect("host dimension within bounds");
            for k in 0..sub.dim() {
                partial.set(host_position[offset + k], image.get(k));
            }
            table.push(partial);
        }
        offset += sub.dim();
        tables.push(table);
    }
    Some(tables)
}

/// The dilation cost Theorem 32 guarantees for [`embed_increasing`], or an
/// error if the shapes do not satisfy the condition of expansion.
pub fn predicted_dilation_increasing(guest: &Grid, host: &Grid) -> Result<u64> {
    plan_increasing(guest, host).map(|(_, _, dilation)| dilation)
}

/// Embeds `guest` in `host` for the increasing-dimension case (Theorem 32),
/// choosing the function and factor the paper prescribes:
///
/// * guest mesh → `π ∘ F_V`, dilation 1 (optimal);
/// * guest torus, host torus → `π ∘ H_V`, dilation 1 (optimal);
/// * guest torus, host mesh → `π ∘ H_V` with an even-first factor when the
///   guest has even size and such a factor exists (dilation 1, optimal);
///   otherwise `π ∘ G_V`, dilation 2 (optimal whenever the guest has odd
///   size).
///
/// # Errors
///
/// Returns [`EmbeddingError::ConditionNotSatisfied`] if the host's shape is
/// not an expansion of the guest's shape, and [`EmbeddingError::SizeMismatch`]
/// if the sizes differ.
pub fn embed_increasing(guest: &Grid, host: &Grid) -> Result<Embedding> {
    let (factor, function, _) = plan_increasing(guest, host)?;
    embed_increasing_with(guest, host, &factor, function)
}

fn plan_increasing(guest: &Grid, host: &Grid) -> Result<(ExpansionFactor, IncreaseFunction, u64)> {
    if guest.size() != host.size() {
        return Err(EmbeddingError::SizeMismatch {
            guest: guest.size(),
            host: host.size(),
        });
    }
    if guest.dim() >= host.dim() {
        return Err(EmbeddingError::Unsupported {
            details: format!(
                "increasing-dimension embedding needs dim G < dim H, got {} and {}",
                guest.dim(),
                host.dim()
            ),
        });
    }
    let base_factor = find_expansion_factor(guest.shape(), host.shape()).ok_or(
        EmbeddingError::ConditionNotSatisfied {
            condition: "expansion",
            details: format!("{} is not an expansion of {}", host.shape(), guest.shape()),
        },
    )?;
    if guest.is_mesh() {
        return Ok((base_factor, IncreaseFunction::F, 1));
    }
    if host.is_torus() {
        return Ok((base_factor, IncreaseFunction::H, 1));
    }
    // Torus guest, mesh host.
    if guest.size().is_multiple_of(2) {
        if let Some(even_factor) = find_expansion_factor_even_first(guest.shape(), host.shape()) {
            return Ok((even_factor, IncreaseFunction::H, 1));
        }
    }
    Ok((base_factor, IncreaseFunction::G, 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    fn check(guest: Grid, host: Grid, expected_dilation: u64) {
        let e = embed_increasing(&guest, &host).unwrap();
        assert!(e.is_injective(), "injective: {guest} -> {host}");
        assert_eq!(
            e.dilation(),
            expected_dilation,
            "dilation of {} for {guest} -> {host}",
            e.name()
        );
        assert_eq!(
            predicted_dilation_increasing(&guest, &host).unwrap(),
            expected_dilation
        );
    }

    #[test]
    fn theorem_32_i_mesh_guests_unit_dilation() {
        check(
            Grid::mesh(shape(&[4, 6])),
            Grid::mesh(shape(&[2, 2, 2, 3])),
            1,
        );
        check(
            Grid::mesh(shape(&[4, 6])),
            Grid::torus(shape(&[2, 2, 2, 3])),
            1,
        );
        check(
            Grid::mesh(shape(&[8, 9])),
            Grid::mesh(shape(&[2, 4, 3, 3])),
            1,
        );
        check(Grid::mesh(shape(&[12])), Grid::torus(shape(&[3, 4])), 1);
        check(
            Grid::mesh(shape(&[6, 6])),
            Grid::mesh(shape(&[2, 3, 3, 2])),
            1,
        );
    }

    #[test]
    fn theorem_32_ii_torus_into_torus_unit_dilation() {
        check(
            Grid::torus(shape(&[4, 6])),
            Grid::torus(shape(&[2, 2, 2, 3])),
            1,
        );
        check(
            Grid::torus(shape(&[9, 4])),
            Grid::torus(shape(&[3, 3, 2, 2])),
            1,
        );
        check(Grid::torus(shape(&[8])), Grid::torus(shape(&[2, 2, 2])), 1);
        check(
            Grid::torus(shape(&[15, 4])),
            Grid::torus(shape(&[3, 5, 4])),
            1,
        );
    }

    #[test]
    fn theorem_32_iii_even_torus_into_mesh_unit_dilation_with_even_factor() {
        // Each dimension of G has even length and the factor lists can be
        // chosen with at least two components and an even first component.
        check(
            Grid::torus(shape(&[4, 6])),
            Grid::mesh(shape(&[2, 2, 2, 3])),
            1,
        );
        check(
            Grid::torus(shape(&[6, 12])),
            Grid::mesh(shape(&[6, 3, 2, 2])),
            1,
        );
        check(
            Grid::torus(shape(&[4, 4])),
            Grid::mesh(shape(&[2, 2, 2, 2])),
            1,
        );
    }

    #[test]
    fn theorem_32_iii_odd_torus_into_mesh_dilation_two() {
        check(
            Grid::torus(shape(&[9, 15])),
            Grid::mesh(shape(&[3, 3, 3, 5])),
            2,
        );
        check(Grid::torus(shape(&[9])), Grid::mesh(shape(&[3, 3])), 2);
        check(
            Grid::torus(shape(&[25, 3])),
            Grid::mesh(shape(&[5, 5, 3])),
            2,
        );
    }

    #[test]
    fn even_torus_without_even_factor_falls_back_to_dilation_two() {
        // G = (2, 8): the dimension of length 2 cannot receive a factor list
        // with two components, so H_V is unavailable and G_V's dilation 2 is
        // used.
        check(
            Grid::torus(shape(&[2, 8])),
            Grid::mesh(shape(&[2, 4, 2])),
            2,
        );
    }

    #[test]
    fn corollary_34_power_of_two_graphs_into_hypercubes() {
        for radices in [vec![4u32, 8], vec![2, 16], vec![8, 4, 2], vec![16, 4]] {
            let l = shape(&radices);
            let bits = (l.size() as f64).log2() as usize;
            let hypercube = Grid::hypercube(bits).unwrap();
            check(Grid::mesh(l.clone()), hypercube.clone(), 1);
            // Toruses of even size also embed with unit dilation: every
            // dimension of the hypercube factor has at least two binary
            // components when l_i >= 4; dimensions of length 2 are handled by
            // the torus=mesh coincidence on length-2 dimensions.
            let torus_dilation = embed_increasing(&Grid::torus(l.clone()), &hypercube)
                .unwrap()
                .dilation();
            assert!(
                torus_dilation <= 2,
                "torus {l} into hypercube dilated by {torus_dilation}"
            );
        }
    }

    #[test]
    fn figure_11_functions_for_l_4_6_into_2_2_2_3() {
        // Figure 11 tabulates F_V, G_V, H_V for L = (4,6), M = (2,2,2,3) with
        // V = ((2,2),(2,3)); here M = V_1 ∘ V_2 so π is the identity.
        let factor = ExpansionFactor::new(vec![vec![2, 2], vec![2, 3]]).unwrap();
        let guest_mesh = Grid::mesh(shape(&[4, 6]));
        let guest_torus = Grid::torus(shape(&[4, 6]));
        let host_mesh = Grid::mesh(shape(&[2, 2, 2, 3]));
        let host_torus = Grid::torus(shape(&[2, 2, 2, 3]));

        let f =
            embed_increasing_with(&guest_mesh, &host_mesh, &factor, IncreaseFunction::F).unwrap();
        let g =
            embed_increasing_with(&guest_torus, &host_mesh, &factor, IncreaseFunction::G).unwrap();
        let h =
            embed_increasing_with(&guest_torus, &host_torus, &factor, IncreaseFunction::H).unwrap();

        // Spot-check the map structure: node (1, 4) of G maps under F_V to
        // f_{(2,2)}(1) ∘ f_{(2,3)}(4) = (0,1) ∘ (1,1) = (0,1,1,1).
        let x = shape(&[4, 6])
            .to_index(&Digits::from_slice(&[1, 4]).unwrap())
            .unwrap();
        assert_eq!(f.map(x).as_slice(), &[0, 1, 1, 1]);

        assert_eq!(f.dilation(), 1);
        assert_eq!(h.dilation(), 1);
        assert_eq!(g.dilation(), 2);
        assert!(f.is_injective() && g.is_injective() && h.is_injective());
    }

    #[test]
    fn mismatched_sizes_and_dimensions_are_rejected() {
        let a = Grid::mesh(shape(&[4, 6]));
        let b = Grid::mesh(shape(&[2, 2, 2, 2]));
        assert!(matches!(
            embed_increasing(&a, &b),
            Err(EmbeddingError::SizeMismatch { .. })
        ));
        let c = Grid::mesh(shape(&[2, 3, 4]));
        let d = Grid::mesh(shape(&[24]));
        assert!(embed_increasing(&c, &d).is_err());
        // Shapes of equal size that do not satisfy expansion.
        let e = Grid::mesh(shape(&[6, 6]));
        let f = Grid::mesh(shape(&[4, 3, 3]));
        assert!(matches!(
            embed_increasing(&e, &f),
            Err(EmbeddingError::ConditionNotSatisfied { .. })
        ));
    }

    #[test]
    fn factor_choice_ablation_matches_the_papers_discussion() {
        // Section 4.1 discusses L = (6,12), M = (6,3,2,2): the expansion
        // factor ((6),(3,2,2)) yields dilation 2 for a torus guest in a mesh
        // host, while ((2,3),(6,2)) reaches dilation 1. Reproduce both.
        let guest = Grid::torus(shape(&[6, 12]));
        let host = Grid::mesh(shape(&[6, 3, 2, 2]));

        let bad_factor = ExpansionFactor::new(vec![vec![6], vec![3, 2, 2]]).unwrap();
        let bad = embed_increasing_with(&guest, &host, &bad_factor, IncreaseFunction::G).unwrap();
        assert!(bad.is_injective());
        assert_eq!(bad.dilation(), 2);

        let good_factor = ExpansionFactor::new(vec![vec![2, 3], vec![6, 2]]).unwrap();
        let good = embed_increasing_with(&guest, &host, &good_factor, IncreaseFunction::H).unwrap();
        assert!(good.is_injective());
        assert_eq!(good.dilation(), 1);

        // The planner picks the good factor automatically.
        assert_eq!(embed_increasing(&guest, &host).unwrap().dilation(), 1);
    }

    #[test]
    fn explicit_factor_is_validated() {
        let guest = Grid::mesh(shape(&[4, 6]));
        let host = Grid::mesh(shape(&[2, 2, 2, 3]));
        let bad = ExpansionFactor::new(vec![vec![2, 3], vec![2, 2]]).unwrap();
        assert!(embed_increasing_with(&guest, &host, &bad, IncreaseFunction::F).is_err());
    }
}

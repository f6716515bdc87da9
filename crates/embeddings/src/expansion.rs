//! The *expansion* relation between shapes (Definition 30).
//!
//! A shape `M = (m_1, …, m_c)` is an expansion of a shape `L = (l_1, …, l_d)`
//! (`d < c`) if the components of `M` can be partitioned into `d` lists
//! `V_1, …, V_d` with `Π V_i = l_i`; `V = (V_1, …, V_d)` is an *expansion
//! factor* of `L` into `M`. Expansion factors drive the increasing-dimension
//! embeddings of Section 4.1 and, read backwards, the *simple reduction*
//! embeddings of Section 4.2.1.

use mixedradix::Permutation;
use topology::Shape;

use crate::error::{EmbeddingError, Result};

/// An expansion factor `V = (V_1, …, V_d)` of a shape `L` into a shape `M`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpansionFactor {
    lists: Vec<Vec<u32>>,
}

impl ExpansionFactor {
    /// Creates an expansion factor from its lists. Every component must be
    /// greater than 1 and every list non-empty.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::InvalidFactor`] on malformed input.
    pub fn new(lists: Vec<Vec<u32>>) -> Result<Self> {
        if lists.is_empty() {
            return Err(EmbeddingError::InvalidFactor {
                details: "an expansion factor needs at least one list".into(),
            });
        }
        for (i, list) in lists.iter().enumerate() {
            if list.is_empty() {
                return Err(EmbeddingError::InvalidFactor {
                    details: format!("list V_{} is empty", i + 1),
                });
            }
            if let Some(&bad) = list.iter().find(|&&v| v < 2) {
                return Err(EmbeddingError::InvalidFactor {
                    details: format!("list V_{} contains the component {bad} < 2", i + 1),
                });
            }
        }
        Ok(ExpansionFactor { lists })
    }

    /// The lists `V_1, …, V_d`.
    pub fn lists(&self) -> &[Vec<u32>] {
        &self.lists
    }

    /// The number of lists `d`.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// Whether the factor has no lists (never true for a validated factor).
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// The concatenation `V = V_1 ∘ V_2 ∘ … ∘ V_d`.
    pub fn flattened(&self) -> Vec<u32> {
        self.lists.iter().flatten().copied().collect()
    }

    /// The product `Π V_i`.
    pub fn product(&self, i: usize) -> u64 {
        self.lists[i].iter().map(|&v| v as u64).product()
    }

    /// Checks that this factor is a valid expansion factor of `l` into `m`:
    /// `Π V_i = l_i` for all `i`, and `m` is a permutation of the flattened
    /// list.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::InvalidFactor`] describing the first
    /// violation found.
    pub fn validate(&self, l: &Shape, m: &Shape) -> Result<()> {
        if self.len() != l.dim() {
            return Err(EmbeddingError::InvalidFactor {
                details: format!(
                    "factor has {} lists but L has dimension {}",
                    self.len(),
                    l.dim()
                ),
            });
        }
        for i in 0..self.len() {
            if self.product(i) != l.radix(i) as u64 {
                return Err(EmbeddingError::InvalidFactor {
                    details: format!(
                        "Π V_{} = {} but l_{} = {}",
                        i + 1,
                        self.product(i),
                        i + 1,
                        l.radix(i)
                    ),
                });
            }
        }
        let mut flat = self.flattened();
        let mut target = m.radices().to_vec();
        flat.sort_unstable();
        target.sort_unstable();
        if flat != target {
            return Err(EmbeddingError::InvalidFactor {
                details: format!("M = {m} is not a permutation of the flattened factor"),
            });
        }
        Ok(())
    }

    /// The permutation `π` with `π(V) = M`, where `V` is the flattened factor.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::InvalidFactor`] if `M` is not a permutation
    /// of the flattened factor.
    pub fn permutation_to(&self, m: &Shape) -> Result<Permutation> {
        Permutation::mapping(&self.flattened(), m.radices()).ok_or(EmbeddingError::InvalidFactor {
            details: format!("M = {m} is not a permutation of the flattened factor"),
        })
    }

    /// Whether every list has at least two components, the first of which is
    /// even — the condition of Theorem 32(iii) under which an even-size torus
    /// embeds in a mesh with unit dilation.
    pub fn all_even_first(&self) -> bool {
        self.lists
            .iter()
            .all(|list| list.len() >= 2 && list[0] % 2 == 0)
    }

    /// Reorders each list so that an even component (if present) comes first.
    /// Returns `true` if afterwards [`ExpansionFactor::all_even_first`] holds.
    pub fn reorder_even_first(&mut self) -> bool {
        for list in &mut self.lists {
            if let Some(pos) = list.iter().position(|&v| v % 2 == 0) {
                list.swap(0, pos);
            }
        }
        self.all_even_first()
    }
}

/// Whether `m` is an expansion of `l` (Definition 30). Requires `dim L < dim M`.
pub fn is_expansion(l: &Shape, m: &Shape) -> bool {
    l.dim() < m.dim() && find_expansion_factor(l, m).is_some()
}

/// Finds an expansion factor of `l` into `m`, if one exists.
///
/// The components of `m` are assigned to the dimensions of `l` by
/// backtracking on divisibility; shapes in this library are tiny (≤ 32
/// components), so the search is immediate in practice.
pub fn find_expansion_factor(l: &Shape, m: &Shape) -> Option<ExpansionFactor> {
    find_expansion_factor_with(l, m, false)
}

/// Finds an expansion factor of `l` into `m` in which every list has at least
/// two components, one of them even, and reorders each list even-first —
/// the factor shape needed for the unit-dilation torus-in-mesh embedding of
/// Theorem 32(iii).
pub fn find_expansion_factor_even_first(l: &Shape, m: &Shape) -> Option<ExpansionFactor> {
    let mut factor = find_expansion_factor_with(l, m, true)?;
    if factor.reorder_even_first() {
        Some(factor)
    } else {
        None
    }
}

fn find_expansion_factor_with(
    l: &Shape,
    m: &Shape,
    require_even_pairs: bool,
) -> Option<ExpansionFactor> {
    if l.size() != m.size() || l.dim() >= m.dim() {
        return None;
    }
    let d = l.dim();
    // Sort the host components in descending order: large components are the
    // most constrained, so placing them first prunes aggressively.
    let mut components: Vec<u32> = m.radices().to_vec();
    components.sort_unstable_by(|a, b| b.cmp(a));

    let mut remaining: Vec<u64> = l.radices().iter().map(|&x| x as u64).collect();
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); d];

    fn assign(
        idx: usize,
        components: &[u32],
        remaining: &mut [u64],
        groups: &mut [Vec<u32>],
        require_even_pairs: bool,
    ) -> bool {
        if idx == components.len() {
            if remaining.iter().any(|&r| r != 1) {
                return false;
            }
            if require_even_pairs
                && groups
                    .iter()
                    .any(|g| g.len() < 2 || g.iter().all(|&v| v % 2 != 0))
            {
                return false;
            }
            return true;
        }
        let value = components[idx];
        let mut tried: Vec<u64> = Vec::new();
        for i in 0..remaining.len() {
            if !remaining[i].is_multiple_of(value as u64) {
                continue;
            }
            // Skip branches symmetric to one already tried (same remaining
            // product means the same sub-problem).
            if tried.contains(&remaining[i]) {
                continue;
            }
            tried.push(remaining[i]);
            remaining[i] /= value as u64;
            groups[i].push(value);
            if assign(idx + 1, components, remaining, groups, require_even_pairs) {
                return true;
            }
            groups[i].pop();
            remaining[i] *= value as u64;
        }
        false
    }

    if assign(
        0,
        &components,
        &mut remaining,
        &mut groups,
        require_even_pairs,
    ) {
        Some(ExpansionFactor { lists: groups })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    #[test]
    fn paper_example_6_8_80() {
        // M = (2,4,3,8,5,4) is an expansion of L = (6,8,80); one factor is
        // V_1 = (2,3), V_2 = (8), V_3 = (4,5,4).
        let l = shape(&[6, 8, 80]);
        let m = shape(&[2, 4, 3, 8, 5, 4]);
        assert!(is_expansion(&l, &m));
        let factor = find_expansion_factor(&l, &m).unwrap();
        factor.validate(&l, &m).unwrap();
        assert_eq!(factor.len(), 3);
        assert_eq!(factor.product(0), 6);
        assert_eq!(factor.product(1), 8);
        assert_eq!(factor.product(2), 80);
        // The flattened factor is a permutation of M.
        let perm = factor.permutation_to(&m).unwrap();
        assert_eq!(
            perm.apply_slice(&factor.flattened()).unwrap(),
            m.radices().to_vec()
        );
    }

    #[test]
    fn paper_example_6_12_into_6_3_2_2() {
        // Both ((6),(3,2,2)) and ((2,3),(6,2)) are expansion factors of
        // L = (6,12) into M = (6,3,2,2); only the latter gives even-first
        // lists of length >= 2.
        let l = shape(&[6, 12]);
        let m = shape(&[6, 3, 2, 2]);
        assert!(find_expansion_factor(&l, &m).is_some());
        let even = find_expansion_factor_even_first(&l, &m).unwrap();
        assert!(even.all_even_first());
        even.validate(&l, &m).unwrap();
        for list in even.lists() {
            assert!(list.len() >= 2);
            assert_eq!(list[0] % 2, 0);
        }
    }

    #[test]
    fn hypercube_shapes_are_expansions_of_power_of_two_shapes() {
        // Theorem 33.
        for radices in [vec![4u32, 8], vec![2, 16], vec![8, 8, 4], vec![32]] {
            let l = shape(&radices);
            let bits = (l.size() as f64).log2() as usize;
            let m = Shape::binary(bits).unwrap();
            assert!(is_expansion(&l, &m), "hypercube expansion of {l}");
            let factor = find_expansion_factor(&l, &m).unwrap();
            factor.validate(&l, &m).unwrap();
        }
    }

    #[test]
    fn non_expansions_are_rejected() {
        // Same size but the components cannot be regrouped: neither group of
        // product 6 can absorb the component 4.
        let l = shape(&[6, 6]);
        let m = shape(&[4, 3, 3]);
        assert!(find_expansion_factor(&l, &m).is_none());
        // Different sizes are never expansions.
        assert!(!is_expansion(&shape(&[4]), &shape(&[2, 3])));
        // d >= c is never an expansion.
        assert!(!is_expansion(&shape(&[2, 2]), &shape(&[4])));
        assert!(!is_expansion(&shape(&[2, 2]), &shape(&[2, 2])));
    }

    #[test]
    fn even_first_requires_even_components_in_every_list() {
        // L = (9, 4): the list for 9 can only contain odd components, so the
        // even-first factor does not exist even though an expansion factor
        // does.
        let l = shape(&[9, 4]);
        let m = shape(&[3, 3, 2, 2]);
        assert!(find_expansion_factor(&l, &m).is_some());
        assert!(find_expansion_factor_even_first(&l, &m).is_none());
    }

    #[test]
    fn even_first_requires_at_least_two_components_per_list() {
        // L = (2, 8) into M = (2, 4, 2): the dimension of length 2 must map to
        // the single component (2), so no factor with all lists of length >= 2
        // exists.
        let l = shape(&[2, 8]);
        let m = shape(&[2, 4, 2]);
        assert!(find_expansion_factor(&l, &m).is_some());
        assert!(find_expansion_factor_even_first(&l, &m).is_none());
    }

    #[test]
    fn factor_construction_validates_input() {
        assert!(ExpansionFactor::new(vec![]).is_err());
        assert!(ExpansionFactor::new(vec![vec![2, 3], vec![]]).is_err());
        assert!(ExpansionFactor::new(vec![vec![2, 1]]).is_err());
        let ok = ExpansionFactor::new(vec![vec![2, 3], vec![4]]).unwrap();
        assert_eq!(ok.flattened(), vec![2, 3, 4]);
        assert_eq!(ok.len(), 2);
        assert!(!ok.is_empty());
    }

    #[test]
    fn validate_rejects_wrong_products_and_wrong_multisets() {
        let l = shape(&[6, 4]);
        let m = shape(&[2, 3, 2, 2]);
        let good = ExpansionFactor::new(vec![vec![2, 3], vec![2, 2]]).unwrap();
        good.validate(&l, &m).unwrap();
        let wrong_product = ExpansionFactor::new(vec![vec![2, 2], vec![3, 2]]).unwrap();
        assert!(wrong_product.validate(&l, &m).is_err());
        let wrong_dim = ExpansionFactor::new(vec![vec![6, 4]]).unwrap();
        assert!(wrong_dim.validate(&l, &m).is_err());
        let wrong_multiset = ExpansionFactor::new(vec![vec![6], vec![4]]).unwrap();
        assert!(wrong_multiset.validate(&l, &m).is_err());
    }

    #[test]
    fn reorder_even_first_moves_even_components() {
        let mut factor = ExpansionFactor::new(vec![vec![3, 2], vec![5, 4, 3]]).unwrap();
        assert!(!factor.all_even_first());
        assert!(factor.reorder_even_first());
        assert_eq!(factor.lists()[0][0], 2);
        assert_eq!(factor.lists()[1][0], 4);
    }
}

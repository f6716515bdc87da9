//! Collective operations scheduled over embedded rings.
//!
//! The paper's Hamiltonian-circuit corollaries (every torus, and every
//! even-size mesh of dimension ≥ 2, has a Hamiltonian circuit — Corollaries
//! 25 and 29, realized by the `h_L` embedding) are exactly what a ring-based
//! collective needs: a cyclic order of all nodes in which successive nodes
//! are physically adjacent. This module builds the classic ring
//! reduce-scatter / all-gather ("ring allreduce") schedule on top of such an
//! order and simulates it, so the benefit of a dilation-1 ring over an
//! arbitrary node order can be measured in cycles rather than asserted.
//!
//! A ring allreduce over `n` nodes runs `2(n − 1)` phases; in each phase
//! every node sends one chunk to its successor on the ring. With a
//! dilation-1 ring every phase is a single-hop, contention-free exchange, so
//! the whole collective finishes in `2(n − 1)` cycles — the textbook bound.
//! With a poor ring order the same schedule pays both longer routes and link
//! contention.

use embeddings::basic::embed_ring_in;
use embeddings::Embedding;
use topology::Grid;

use crate::network::Network;
use crate::sim::{simulate, Placement};
use crate::traffic::Workload;

/// A cyclic order of the nodes of a network, used as the logical ring of a
/// ring-based collective.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingOrder {
    nodes: Vec<u64>,
}

impl RingOrder {
    /// The natural order `0, 1, …, n − 1` — the naive ring a library would
    /// use if it ignored the topology.
    pub fn natural(n: u64) -> RingOrder {
        RingOrder {
            nodes: (0..n).collect(),
        }
    }

    /// The ring order induced by the paper's ring embedding of the host: the
    /// `k`-th ring position is the host node `h_L(k)` (Theorems 24 and 28).
    /// For toruses and even-size meshes of dimension ≥ 2 this is a
    /// Hamiltonian circuit, so successive ring positions are neighbors.
    ///
    /// # Errors
    ///
    /// Propagates the error of [`embed_ring_in`] for hosts that admit no
    /// ring embedding of the requested size (never happens for valid grids).
    pub fn from_paper_embedding(host: &Grid) -> embeddings::error::Result<RingOrder> {
        let embedding = embed_ring_in(host)?;
        Ok(RingOrder::from_embedding(&embedding))
    }

    /// The ring order induced by an arbitrary ring-guest embedding.
    pub fn from_embedding(embedding: &Embedding) -> RingOrder {
        RingOrder {
            nodes: (0..embedding.size())
                .map(|k| embedding.map_index(k))
                .collect(),
        }
    }

    /// The number of ring positions.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The maximum host distance between successive ring positions — the
    /// dilation of the ring order seen as a ring embedding.
    pub fn dilation(&self, network: &Network) -> u64 {
        let n = self.nodes.len();
        (0..n)
            .map(|k| network.hops(self.nodes[k], self.nodes[(k + 1) % n]))
            .max()
            .unwrap_or(0)
    }

    /// The single-phase workload of the collective: every ring position
    /// sends one chunk to its successor.
    pub fn phase_workload(&self, network: &Network) -> Workload {
        let n = self.nodes.len();
        let pairs = (0..n)
            .map(|k| (self.nodes[k], self.nodes[(k + 1) % n]))
            .collect();
        Workload::try_new(network.size(), pairs).expect("ring nodes are network nodes")
    }
}

/// The result of simulating a ring collective.
#[derive(Clone, Debug, PartialEq)]
pub struct CollectiveStats {
    /// Number of phases (2·(n − 1) for allreduce, n − 1 for reduce-scatter).
    pub phases: u64,
    /// Total cycles across all phases (phases are serialized: a phase cannot
    /// start before the previous one delivered every chunk).
    pub total_cycles: u64,
    /// Total link traversals across all phases.
    pub total_hops: u64,
    /// Worst per-phase cycle count.
    pub worst_phase_cycles: u64,
    /// The ring order's dilation (1 for the paper's Hamiltonian rings).
    pub ring_dilation: u64,
}

impl CollectiveStats {
    /// Slowdown relative to the unit-dilation ring, whose textbook count is
    /// one cycle per phase.
    pub fn slowdown(&self) -> f64 {
        if self.phases == 0 {
            1.0
        } else {
            self.total_cycles as f64 / self.phases as f64
        }
    }
}

/// Simulates a ring allreduce (reduce-scatter followed by all-gather) over
/// the given ring order: `2·(n − 1)` identical neighbor-shift phases, each
/// phase completing before the next begins.
///
/// # Panics
///
/// Panics if the ring order's length differs from the network size.
pub fn simulate_ring_allreduce(network: &Network, order: &RingOrder) -> CollectiveStats {
    simulate_ring_collective(network, order, 2 * (network.size().saturating_sub(1)))
}

fn simulate_ring_collective(network: &Network, order: &RingOrder, phases: u64) -> CollectiveStats {
    assert_eq!(
        order.len() as u64,
        network.size(),
        "ring order must cover every network node"
    );
    let workload = order.phase_workload(network);
    let placement = Placement::identity(network.size());
    // Every phase sends the same pattern, so simulate one phase and scale;
    // the phase barrier makes phases independent.
    let phase = simulate(network, &workload, &placement, 1);
    CollectiveStats {
        phases,
        total_cycles: phase.cycles * phases,
        total_hops: phase.total_hops * phases,
        worst_phase_cycles: phase.cycles,
        ring_dilation: order.dilation(network),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::Shape;

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    #[test]
    fn paper_ring_order_is_a_unit_dilation_hamiltonian_circuit() {
        for grid in [
            Grid::torus(shape(&[4, 2, 3])),
            Grid::torus(shape(&[5, 5])),
            Grid::mesh(shape(&[4, 6])),
            Grid::hypercube(4).unwrap(),
        ] {
            let network = Network::new(grid.clone());
            let order = RingOrder::from_paper_embedding(&grid).unwrap();
            assert_eq!(order.len() as u64, grid.size());
            assert!(!order.is_empty());
            assert_eq!(order.dilation(&network), 1, "{grid}");
        }
    }

    #[test]
    fn allreduce_on_the_paper_ring_meets_the_textbook_cycle_count() {
        let grid = Grid::mesh(shape(&[4, 6]));
        let network = Network::new(grid.clone());
        let order = RingOrder::from_paper_embedding(&grid).unwrap();
        let stats = simulate_ring_allreduce(&network, &order);
        assert_eq!(stats.phases, 2 * 23);
        assert_eq!(stats.ring_dilation, 1);
        assert_eq!(stats.worst_phase_cycles, 1);
        assert_eq!(stats.total_cycles, stats.phases);
        assert!((stats.slowdown() - 1.0).abs() < 1e-12);
        assert_eq!(stats.total_hops, 24 * 2 * 23);
    }

    #[test]
    fn natural_order_is_slower_than_the_paper_ring_on_a_mesh() {
        let grid = Grid::mesh(shape(&[8, 8]));
        let network = Network::new(grid.clone());
        let paper = RingOrder::from_paper_embedding(&grid).unwrap();
        let naive = RingOrder::natural(64);
        let good = simulate_ring_allreduce(&network, &paper);
        let bad = simulate_ring_allreduce(&network, &naive);
        assert_eq!(good.ring_dilation, 1);
        assert!(bad.ring_dilation > 1);
        assert!(bad.total_cycles > good.total_cycles);
        assert!(bad.total_hops > good.total_hops);
        assert!(bad.slowdown() > 1.0);
    }

    /// Simulates a ring reduce-scatter: `n − 1` neighbor-shift phases.
    fn simulate_ring_reduce_scatter(network: &Network, order: &RingOrder) -> CollectiveStats {
        simulate_ring_collective(network, order, network.size().saturating_sub(1))
    }

    #[test]
    fn reduce_scatter_is_half_an_allreduce() {
        let grid = Grid::torus(shape(&[4, 4]));
        let network = Network::new(grid.clone());
        let order = RingOrder::from_paper_embedding(&grid).unwrap();
        let rs = simulate_ring_reduce_scatter(&network, &order);
        let ar = simulate_ring_allreduce(&network, &order);
        assert_eq!(rs.phases, 15);
        assert_eq!(ar.phases, 30);
        assert_eq!(2 * rs.total_cycles, ar.total_cycles);
    }

    #[test]
    #[should_panic(expected = "ring order must cover")]
    fn mismatched_ring_length_is_rejected() {
        let network = Network::new(Grid::mesh(shape(&[4, 4])));
        let order = RingOrder::natural(8);
        let _ = simulate_ring_allreduce(&network, &order);
    }
}

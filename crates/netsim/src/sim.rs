//! A synchronous store-and-forward routing simulator.
//!
//! The model is deliberately simple and deterministic:
//!
//! * tasks are placed on network nodes by a [`Placement`] (usually an
//!   embedding from the `embeddings` crate);
//! * each round, every workload pair injects one message at its source node;
//! * messages follow dimension-ordered shortest routes;
//! * each directed link carries at most one message per cycle; messages that
//!   lose arbitration wait in FIFO order.
//!
//! The simulator reports both distance statistics (hops, which the embedding
//! theorems bound via the dilation cost) and the schedule makespan in cycles
//! (which additionally reflects link contention).

use embeddings::Embedding;

use crate::engine;
use crate::network::Network;
use crate::traffic::Workload;

/// Why an explicit placement table was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementError {
    /// Two tasks were assigned to the same network node.
    NotInjective {
        /// The first task assigned to the node.
        first_task: u64,
        /// The later task assigned to the same node.
        second_task: u64,
        /// The doubly-assigned node.
        node: u64,
    },
}

impl core::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlacementError::NotInjective {
                first_task,
                second_task,
                node,
            } => write!(
                f,
                "placement must be injective: tasks {first_task} and {second_task} \
                 are both assigned to node {node}"
            ),
        }
    }
}

impl std::error::Error for PlacementError {}

/// An assignment of logical tasks to network nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    map: Vec<u64>,
}

impl Placement {
    /// The identity placement: task `i` runs on node `i`.
    pub fn identity(tasks: u64) -> Self {
        Placement {
            map: (0..tasks).collect(),
        }
    }

    /// A placement defined by an explicit table, rejecting non-injective
    /// tables as an error — the fallible path for library code assembling
    /// placements from untrusted input.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::NotInjective`] naming the colliding tasks
    /// if two tasks share a node.
    pub fn try_from_table(map: Vec<u64>) -> Result<Self, PlacementError> {
        let mut first_assignment = std::collections::HashMap::new();
        for (task, &node) in map.iter().enumerate() {
            if let Some(&first_task) = first_assignment.get(&node) {
                return Err(PlacementError::NotInjective {
                    first_task,
                    second_task: task as u64,
                    node,
                });
            }
            first_assignment.insert(node, task as u64);
        }
        Ok(Placement { map })
    }

    /// The placement induced by an embedding: task `x` (a guest node) runs on
    /// host node `f(x)`.
    pub fn from_embedding(embedding: &Embedding) -> Self {
        Placement {
            map: (0..embedding.size())
                .map(|x| embedding.map_index(x))
                .collect(),
        }
    }

    /// The network node hosting `task`.
    pub fn node_of(&self, task: u64) -> u64 {
        self.map[task as usize]
    }

    /// The number of placed tasks.
    pub fn tasks(&self) -> u64 {
        self.map.len() as u64
    }
}

/// Aggregate results of a simulation.
///
/// On a pristine network every injected message is delivered, so
/// `delivered == messages` and the degradation counters stay zero; under a
/// [`crate::chaos::FaultPlan`] the invariant is instead
/// `delivered + dropped == messages`.
#[derive(Clone, Debug, PartialEq)]
pub struct SimStats {
    /// Total number of messages injected (delivered plus dropped).
    pub messages: u64,
    /// Messages that reached their destination.
    pub delivered: u64,
    /// Messages abandoned because no masked route existed (always 0 on a
    /// pristine network).
    pub dropped: u64,
    /// Sum of route lengths over all delivered messages.
    pub total_hops: u64,
    /// Longest route of any delivered message — bounded by
    /// `dilation × guest diameter` when the workload is a task graph embedded
    /// with that dilation (pristine networks only).
    pub max_hops: u64,
    /// Hops taken beyond the pristine shortest-path distance, summed over
    /// delivered messages (always 0 on a pristine network).
    pub detour_hops: u64,
    /// Cycles needed to deliver every message under one-message-per-link
    /// arbitration.
    pub cycles: u64,
}

impl SimStats {
    /// Mean hops per delivered message.
    pub fn average_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.delivered as f64
        }
    }

    /// Fraction of injected messages that were delivered (1.0 for an empty
    /// simulation, so pristine runs read as fully delivered).
    pub fn delivered_fraction(&self) -> f64 {
        if self.messages == 0 {
            1.0
        } else {
            self.delivered as f64 / self.messages as f64
        }
    }
}

/// Runs `rounds` rounds of the workload on the network under the given
/// placement and returns aggregate statistics.
///
/// # Panics
///
/// Panics if the workload has more tasks than the placement, or the
/// placement references nodes outside the network.
pub fn simulate(
    network: &Network,
    workload: &Workload,
    placement: &Placement,
    rounds: usize,
) -> SimStats {
    assert!(
        workload.tasks() <= placement.tasks(),
        "workload has more tasks than the placement"
    );
    assert!(
        (0..placement.tasks()).all(|t| placement.node_of(t) < network.size()),
        "placement references nodes outside the network"
    );

    // Every round injects the same pairs along the same routes, so one
    // round's routes are expanded once and the engine replays them.
    let pairs = if rounds == 0 {
        &[][..]
    } else {
        workload.pairs()
    };
    let mut routes = engine::RouteTable::with_routes(pairs.len());
    for &(src_task, dst_task) in pairs {
        let (from, to) = (placement.node_of(src_task), placement.node_of(dst_task));
        routes.push(|slots| engine::push_dor_route(network, from, to, slots));
    }
    let cycles = engine::cycles_to_deliver(network.grid(), &routes, rounds);
    let messages = (pairs.len() * rounds) as u64;
    SimStats {
        messages,
        delivered: messages,
        dropped: 0,
        total_hops: routes.stored() as u64 * rounds as u64,
        max_hops: routes
            .routes()
            .map(|route| route.len() as u64)
            .max()
            .unwrap_or(0),
        detour_hops: 0,
        cycles,
    }
}

/// Convenience wrapper: simulate the neighbor-exchange workload of
/// `embedding.guest()` on a network built over `embedding.host()`, placing
/// tasks with the embedding itself.
pub fn simulate_embedding(embedding: &Embedding, rounds: usize) -> SimStats {
    let network = Network::new(embedding.host().clone());
    let workload = Workload::from_task_graph(embedding.guest());
    let placement = Placement::from_embedding(embedding);
    simulate(&network, &workload, &placement, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use embeddings::basic::embed_ring_in;
    use topology::{Grid, Shape};

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    #[test]
    fn identity_placement_on_a_ring_delivers_in_one_cycle_per_direction() {
        // Neighbor exchange on a ring placed identically on the same ring:
        // every message travels one hop; opposite directions use different
        // directed links, so everything lands in a single cycle.
        let ring = Grid::ring(8).unwrap();
        let network = Network::new(ring.clone());
        let workload = Workload::from_task_graph(&ring);
        let placement = Placement::identity(8);
        let stats = simulate(&network, &workload, &placement, 1);
        assert_eq!(stats.messages, 16);
        assert_eq!(stats.total_hops, 16);
        assert_eq!(stats.max_hops, 1);
        assert_eq!(stats.cycles, 1);
        assert!((stats.average_hops() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn good_embeddings_deliver_neighbor_exchange_with_unit_hops() {
        // A unit-dilation embedding keeps every neighbor exchange at one hop.
        let host = Grid::mesh(shape(&[4, 2, 3]));
        let embedding = embed_ring_in(&host).unwrap();
        assert_eq!(embedding.dilation(), 1);
        let stats = simulate_embedding(&embedding, 1);
        assert_eq!(stats.max_hops, 1);
        assert_eq!(stats.total_hops, stats.messages);
    }

    #[test]
    fn naive_placement_is_worse_than_the_paper_embedding() {
        // Ring task graph on a (4,6)-mesh: the paper's embedding keeps
        // neighbors adjacent; the row-major placement pays the mesh width on
        // the wrap-around edge.
        let host = Grid::mesh(shape(&[4, 6]));
        let ring = Grid::ring(24).unwrap();
        let network = Network::new(host.clone());
        let workload = Workload::from_task_graph(&ring);

        let good = Placement::from_embedding(&embed_ring_in(&host).unwrap());
        let naive = Placement::identity(24);

        let good_stats = simulate(&network, &workload, &good, 1);
        let naive_stats = simulate(&network, &workload, &naive, 1);
        assert!(good_stats.total_hops < naive_stats.total_hops);
        assert!(good_stats.max_hops < naive_stats.max_hops);
        assert!(good_stats.cycles <= naive_stats.cycles);
    }

    #[test]
    fn multiple_rounds_scale_message_counts() {
        let host = Grid::torus(shape(&[3, 3]));
        let embedding = embed_ring_in(&host).unwrap();
        let one = simulate_embedding(&embedding, 1);
        let three = simulate_embedding(&embedding, 3);
        assert_eq!(three.messages, 3 * one.messages);
        assert_eq!(three.total_hops, 3 * one.total_hops);
        assert!(three.cycles >= one.cycles);
    }

    #[test]
    fn random_workload_runs_to_completion() {
        let network = Network::new(Grid::mesh(shape(&[4, 4])));
        let workload = Workload::uniform_random(16, 64, 42);
        let placement = Placement::identity(16);
        let stats = simulate(&network, &workload, &placement, 2);
        assert_eq!(stats.messages, 128);
        assert!(stats.cycles >= stats.max_hops);
        assert!(stats.total_hops >= stats.messages); // no self messages
    }

    #[test]
    fn try_from_table_reports_the_collision() {
        let placement = Placement::try_from_table(vec![3, 0, 2]).unwrap();
        assert_eq!(placement.tasks(), 3);
        assert_eq!(placement.node_of(0), 3);
        match Placement::try_from_table(vec![0, 5, 1, 5]) {
            Err(PlacementError::NotInjective {
                first_task,
                second_task,
                node,
            }) => {
                assert_eq!((first_task, second_task, node), (1, 3, 5));
            }
            other => panic!("expected NotInjective, got {other:?}"),
        }
        let message = Placement::try_from_table(vec![0, 0])
            .unwrap_err()
            .to_string();
        assert!(message.contains("injective"));
        assert!(message.contains("node 0"));
    }

    #[test]
    fn zero_rounds_deliver_nothing() {
        let ring = Grid::ring(4).unwrap();
        let network = Network::new(ring.clone());
        let workload = Workload::from_task_graph(&ring);
        let stats = simulate(&network, &workload, &Placement::identity(4), 0);
        assert_eq!(stats.messages, 0);
        assert_eq!(stats.cycles, 0);
    }
}

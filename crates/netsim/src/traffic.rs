//! Traffic patterns: which pairs of tasks exchange messages.
//!
//! The paper's motivation for graph embeddings is matching a task graph's
//! communication pattern to a physical network. A [`Workload`] is exactly
//! that task graph, flattened to a list of communicating task pairs; the
//! simulator sends one message per pair per round after the tasks have been
//! placed on network nodes by an embedding (or any other placement).
//!
//! Beyond task-graph and uniform-random traffic, this module composes the
//! adversarial multi-tenant workload the `chaos` subsystem measures: several
//! embedded guests placed onto one shared host ([`multi_tenant`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topology::Grid;

use crate::sim::Placement;

/// Why an explicit workload pair list was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkloadError {
    /// A pair references a task outside `[0, tasks)`.
    TaskOutOfRange {
        /// The position of the offending pair in the list.
        pair_index: usize,
        /// The offending pair.
        pair: (u64, u64),
        /// The declared number of tasks.
        tasks: u64,
    },
    /// A multi-tenant guest placement maps a task onto a node outside the
    /// shared host.
    GuestOutsideHost {
        /// The position of the guest in the tenant list.
        guest_index: usize,
        /// The offending host node.
        node: u64,
        /// The number of host nodes.
        host_nodes: u64,
    },
    /// A multi-tenant guest workload has more tasks than its placement maps.
    GuestExceedsPlacement {
        /// The position of the guest in the tenant list.
        guest_index: usize,
        /// The guest workload's task count.
        tasks: u64,
        /// The guest placement's task count.
        placed: u64,
    },
}

impl core::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WorkloadError::TaskOutOfRange {
                pair_index,
                pair: (a, b),
                tasks,
            } => write!(
                f,
                "workload pair #{pair_index} ({a}, {b}) references tasks outside [0, {tasks})"
            ),
            WorkloadError::GuestOutsideHost {
                guest_index,
                node,
                host_nodes,
            } => write!(
                f,
                "tenant #{guest_index} places a task on node {node}, \
                 outside the {host_nodes}-node host"
            ),
            WorkloadError::GuestExceedsPlacement {
                guest_index,
                tasks,
                placed,
            } => write!(
                f,
                "tenant #{guest_index} has {tasks} tasks but its placement \
                 only maps {placed}"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A communication workload over `tasks` logical tasks: a list of directed
/// (source task, destination task) pairs, each carrying one message per
/// simulated round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Workload {
    tasks: u64,
    pairs: Vec<(u64, u64)>,
}

impl Workload {
    /// Creates a workload from explicit pairs, rejecting out-of-range task
    /// references as an error, so generated or untrusted pair lists never
    /// panic deep in the simulator.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::TaskOutOfRange`] naming the first offending
    /// pair if any pair references a task `>= tasks`.
    pub fn try_new(tasks: u64, pairs: Vec<(u64, u64)>) -> Result<Self, WorkloadError> {
        for (pair_index, &(a, b)) in pairs.iter().enumerate() {
            if a >= tasks || b >= tasks {
                return Err(WorkloadError::TaskOutOfRange {
                    pair_index,
                    pair: (a, b),
                    tasks,
                });
            }
        }
        Ok(Workload { tasks, pairs })
    }

    /// The neighbor-exchange workload of a task graph: every edge of `graph`
    /// becomes a pair of messages, one in each direction. This is the
    /// workload whose dilation the embedding theorems bound.
    pub fn from_task_graph(graph: &Grid) -> Self {
        let mut pairs = Vec::with_capacity(2 * graph.num_edges() as usize);
        for (a, b) in graph.edges() {
            pairs.push((a, b));
            pairs.push((b, a));
        }
        Workload {
            tasks: graph.size(),
            pairs,
        }
    }

    /// A uniform-random workload: `messages` pairs drawn uniformly (source ≠
    /// destination), seeded for reproducibility.
    pub fn uniform_random(tasks: u64, messages: usize, seed: u64) -> Self {
        assert!(tasks >= 2, "need at least two tasks");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs = Vec::with_capacity(messages);
        for _ in 0..messages {
            let a = rng.gen_range(0..tasks);
            let mut b = rng.gen_range(0..tasks);
            while b == a {
                b = rng.gen_range(0..tasks);
            }
            pairs.push((a, b));
        }
        Workload { tasks, pairs }
    }

    /// The number of logical tasks.
    pub fn tasks(&self) -> u64 {
        self.tasks
    }

    /// The communicating pairs.
    pub fn pairs(&self) -> &[(u64, u64)] {
        &self.pairs
    }

    /// The number of messages per round.
    pub fn messages_per_round(&self) -> usize {
        self.pairs.len()
    }
}

/// Composes `K` embedded guests' workloads onto one shared host: each guest
/// pair `(a, b)` becomes the host-node pair `(P(a), P(b))` under that guest's
/// placement, and the result is a host-level workload over `host_nodes`
/// tasks, simulated with [`Placement::identity`]. Different guests may place
/// tasks on the same host node — that contention is exactly what the
/// multi-tenant scenario measures — but each guest's own placement must stay
/// within the host.
///
/// # Errors
///
/// Returns [`WorkloadError::GuestExceedsPlacement`] when a guest workload
/// references more tasks than its placement maps, and
/// [`WorkloadError::GuestOutsideHost`] when a placement maps a task outside
/// `[0, host_nodes)`.
pub fn multi_tenant(
    host_nodes: u64,
    guests: &[(&Workload, &Placement)],
) -> Result<Workload, WorkloadError> {
    let mut pairs = Vec::with_capacity(guests.iter().map(|(w, _)| w.pairs().len()).sum());
    for (guest_index, &(workload, placement)) in guests.iter().enumerate() {
        if workload.tasks() > placement.tasks() {
            return Err(WorkloadError::GuestExceedsPlacement {
                guest_index,
                tasks: workload.tasks(),
                placed: placement.tasks(),
            });
        }
        for task in 0..workload.tasks() {
            let node = placement.node_of(task);
            if node >= host_nodes {
                return Err(WorkloadError::GuestOutsideHost {
                    guest_index,
                    node,
                    host_nodes,
                });
            }
        }
        for &(a, b) in workload.pairs() {
            pairs.push((placement.node_of(a), placement.node_of(b)));
        }
    }
    Ok(Workload {
        tasks: host_nodes,
        pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::Shape;

    #[test]
    fn task_graph_workload_has_two_messages_per_edge() {
        let ring = Grid::ring(8).unwrap();
        let w = Workload::from_task_graph(&ring);
        assert_eq!(w.tasks(), 8);
        assert_eq!(w.messages_per_round() as u64, 2 * ring.num_edges());
        // Every pair is an edge.
        for &(a, b) in w.pairs() {
            assert!(ring.adjacent(a, b).unwrap());
        }
    }

    #[test]
    fn uniform_random_is_reproducible_and_loop_free() {
        let a = Workload::uniform_random(16, 100, 7);
        let b = Workload::uniform_random(16, 100, 7);
        let c = Workload::uniform_random(16, 100, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.pairs().iter().all(|&(x, y)| x != y && x < 16 && y < 16));
    }

    #[test]
    fn mesh_task_graph_workload() {
        let mesh = Grid::mesh(Shape::new(vec![3, 3]).unwrap());
        let w = Workload::from_task_graph(&mesh);
        assert_eq!(w.messages_per_round() as u64, 2 * mesh.num_edges());
    }

    #[test]
    fn uniform_random_pins_message_counts_with_no_self_pairs() {
        // Self-pairs are rejected at generation by redrawing the
        // destination, so the requested message count is delivered exactly —
        // no pair is silently lost to the filter.
        for (tasks, messages, seed) in [(2u64, 37usize, 1u64), (16, 100, 7), (24, 48, 1987)] {
            let w = Workload::uniform_random(tasks, messages, seed);
            assert_eq!(w.messages_per_round(), messages);
            assert_eq!(w.pairs().len(), messages);
            assert!(w.pairs().iter().all(|&(a, b)| a != b));
        }
    }

    #[test]
    fn multi_tenant_composes_guests_through_their_placements() {
        let guest = Workload::try_new(3, vec![(0, 1), (1, 2)]).unwrap();
        let p0 = Placement::try_from_table(vec![0, 1, 2]).unwrap();
        let p1 = Placement::try_from_table(vec![3, 4, 5]).unwrap();
        let composed = multi_tenant(6, &[(&guest, &p0), (&guest, &p1)]).unwrap();
        assert_eq!(composed.tasks(), 6);
        assert_eq!(
            composed.pairs(),
            &[(0, 1), (1, 2), (3, 4), (4, 5)],
            "guest pairs mapped through each tenant's placement"
        );

        // Overlapping tenant placements are allowed — contention is the
        // scenario being measured.
        let overlapping = multi_tenant(6, &[(&guest, &p0), (&guest, &p0)]).unwrap();
        assert_eq!(overlapping.messages_per_round(), 4);

        // A placement that leaves the host is rejected with a typed error.
        match multi_tenant(4, &[(&guest, &p0), (&guest, &p1)]) {
            Err(WorkloadError::GuestOutsideHost {
                guest_index,
                node,
                host_nodes,
            }) => assert_eq!((guest_index, node, host_nodes), (1, 4, 4)),
            other => panic!("expected GuestOutsideHost, got {other:?}"),
        }

        // A guest bigger than its placement is rejected too.
        let big = Workload::try_new(4, vec![(0, 3)]).unwrap();
        match multi_tenant(6, &[(&big, &p0)]) {
            Err(WorkloadError::GuestExceedsPlacement {
                guest_index,
                tasks,
                placed,
            }) => assert_eq!((guest_index, tasks, placed), (0, 4, 3)),
            other => panic!("expected GuestExceedsPlacement, got {other:?}"),
        }
    }

    #[test]
    fn try_new_reports_the_offending_pair() {
        let ok = Workload::try_new(4, vec![(0, 1), (3, 2)]).unwrap();
        assert_eq!(ok.tasks(), 4);
        assert_eq!(ok.messages_per_round(), 2);
        match Workload::try_new(4, vec![(0, 1), (5, 2)]) {
            Err(WorkloadError::TaskOutOfRange {
                pair_index,
                pair,
                tasks,
            }) => {
                assert_eq!((pair_index, pair, tasks), (1, (5, 2), 4));
            }
            other => panic!("expected TaskOutOfRange, got {other:?}"),
        }
        let message = Workload::try_new(2, vec![(0, 2)]).unwrap_err().to_string();
        assert!(message.contains("outside [0, 2)"));
        assert!(message.contains("pair #0"));
    }
}

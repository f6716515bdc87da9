//! A small synchronous store-and-forward routing simulator over torus and
//! mesh networks.
//!
//! The paper motivates graph embeddings as a way to match the communication
//! pattern of a parallel task graph to the interconnection network of a
//! machine. This crate closes that loop for the examples and benchmarks of
//! the repository: given a task graph, a network, and a placement (usually an
//! embedding produced by the `embeddings` crate), it measures how many hops
//! and cycles the neighbor-exchange traffic actually takes — so the effect of
//! dilation on routed latency can be observed rather than asserted.
//!
//! Beyond the aggregate simulator ([`sim`]), the crate provides
//!
//! * [`patterns`] — classic permutation and collective traffic patterns
//!   (transpose, bit reversal, bit complement, shuffle, shift, tornado,
//!   hot spot, all-to-all, broadcast);
//! * [`optimize`] — a simulated-makespan [`embeddings::optim::Objective`],
//!   so the local-search optimizer can refine placements against the
//!   simulator itself;
//! * [`collective`] — ring allreduce schedules built on the
//!   paper's Hamiltonian-circuit embeddings (Corollaries 25 and 29);
//! * [`chaos`] — fault injection ([`chaos::FaultPlan`] overlays), degraded
//!   routing with typed [`chaos::RouteOutcome`]s, and the faulted simulator
//!   [`chaos::simulate_chaos`].
//!
//! Every simulator arbitrates links by one rule: each directed link carries
//! one message per cycle, and the message injected first wins. [`simulate`],
//! [`simulate_chaos`] and [`MakespanObjective`] all hand their routes, as
//! directed link slots, to one crate-private contention engine that applies
//! it, walking the messages one at a time in injection order.
//!
//! # Example
//!
//! ```
//! use embeddings::basic::embed_ring_in;
//! use netsim::sim::simulate_embedding;
//! use topology::{Grid, Shape};
//!
//! let host = Grid::mesh(Shape::new(vec![4, 6]).unwrap());
//! let embedding = embed_ring_in(&host).unwrap();
//! let stats = simulate_embedding(&embedding, 1);
//! // Unit dilation ⇒ every neighbor exchange is a single hop.
//! assert_eq!(stats.max_hops, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod collective;
mod engine;
pub mod network;
pub mod optimize;
pub mod patterns;
pub mod sim;
pub mod traffic;

pub use chaos::{
    simulate_chaos, ChaosRouting, DetourRouter, FaultMask, FaultPlan, RouteOutcome, TableRouter,
};
pub use collective::{simulate_ring_allreduce, CollectiveStats, RingOrder};
pub use network::Network;
pub use optimize::{MakespanError, MakespanObjective};
pub use sim::{simulate, simulate_embedding, Placement, PlacementError, SimStats};
pub use traffic::{multi_tenant, Workload, WorkloadError};

/// Commonly used items.
pub mod prelude {
    pub use crate::chaos::{
        simulate_chaos, ChaosRouting, DetourRouter, FaultMask, FaultPlan, RouteOutcome, TableRouter,
    };
    pub use crate::collective::{simulate_ring_allreduce, CollectiveStats, RingOrder};
    pub use crate::network::Network;
    pub use crate::optimize::{MakespanError, MakespanObjective};
    pub use crate::patterns;
    pub use crate::sim::{simulate, simulate_embedding, Placement, PlacementError, SimStats};
    pub use crate::traffic::{multi_tenant, Workload, WorkloadError};
}

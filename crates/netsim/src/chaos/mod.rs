//! Fault injection, degraded routing, and faulted end-to-end simulation.
//!
//! The paper's dilation and congestion bounds hold on *pristine* toruses and
//! meshes; this subsystem measures what happens to them when the network
//! degrades. It is built around one invariant: **faults are an overlay, not
//! a new graph**. A [`FaultPlan`] expands to a [`FaultMask`] — two flat
//! boolean vectors indexed by [`topology::Grid::link_index`] slot and node
//! index — and every degraded code path consults that mask while the
//! pristine [`crate::Network`] (its adjacency, distances, and DOR rule)
//! stays untouched. That keeps fault application O(faults), keeps pristine
//! and degraded results comparable on the same structures, and makes "no
//! faults" bit-identical to the pristine simulator.
//!
//! The pieces:
//!
//! * [`faults`] — [`FaultPlan`] (seeded, serializable, scheduled failures)
//!   and the [`FaultMask`] overlay;
//! * [`reroute`] — the online [`DetourRouter`] (DOR with greedy misroute and
//!   a BFS escape) and the offline [`TableRouter`] ground truth, both
//!   returning [`RouteOutcome`] instead of panicking;
//! * [`scenario`] — [`simulate_chaos`], the faulted counterpart of
//!   [`crate::simulate`], reporting delivered/dropped/detour counters in
//!   [`crate::SimStats`]. Its routers' node paths become directed link
//!   slots, and the crate's one contention engine arbitrates them exactly
//!   as it arbitrates the pristine simulator's routes;
//! * the adversarial multi-tenant workload lives in [`crate::traffic`]
//!   ([`crate::traffic::multi_tenant`]).
//!
//! # Example
//!
//! ```
//! use netsim::chaos::{simulate_chaos, ChaosRouting, FaultPlan};
//! use netsim::{Network, Placement, Workload};
//! use topology::{Grid, Shape};
//!
//! let network = Network::new(Grid::torus(Shape::new(vec![4, 4]).unwrap()));
//! let workload = Workload::uniform_random(16, 64, 7);
//! let plan = FaultPlan::random_link_percent(network.grid(), 10, 1987);
//! let stats = simulate_chaos(
//!     &network,
//!     &workload,
//!     &Placement::identity(16),
//!     2,
//!     &plan,
//!     ChaosRouting::Detour,
//! );
//! // Typed outcomes: every message is accounted for, none panics.
//! assert_eq!(stats.delivered + stats.dropped, stats.messages);
//! ```

pub mod faults;
pub mod reroute;
pub mod scenario;

pub use faults::{
    link_slot_between, live_link_slots, FailAt, FaultError, FaultMask, FaultParseError, FaultPlan,
};
pub use reroute::{masked_distances_to, DetourRouter, RouteOutcome, TableRouter};
pub use scenario::{simulate_chaos, ChaosRouting};

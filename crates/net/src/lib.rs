//! # april-net — the ALEWIFE interconnection network
//!
//! A deterministic simulator for the low-dimension direct network of
//! the ALEWIFE machine (paper, Section 2.1): a k-ary n-cube with
//! bidirectional channels, dimension-order routing, virtual-cut-through
//! switching, and finite channel bandwidth (so contention emerges as
//! queueing for busy channels).
//!
//! * [`topology`] — coordinates, distances, dimension-order routing.
//! * [`network`] — the packet-level event simulator and its statistics
//!   (average latency, hops, channel utilization), used to validate the
//!   analytical network model of Section 8.
//! * [`calendar`] — the simulator's bucketed calendar event queue.
//! * [`fault`] — deterministic seeded fault injection (packet drop,
//!   duplication, delay, transient link outages) for robustness testing
//!   of the coherence protocol and run-time system above.
//! * [`snapshot`] — wire encoding of the complete network state
//!   (event queue, in-flight packets, channel reservations, fault plan)
//!   for machine checkpoints (DESIGN.md §11).

#![warn(missing_docs)]

pub mod calendar;
pub mod fault;
pub mod network;
pub mod snapshot;
pub mod topology;

pub use fault::{FaultPlan, FaultRule, FaultStats, Outage};
pub use network::{NetConfig, NetStats, Network};
pub use topology::{Channel, Topology, TopologyError};

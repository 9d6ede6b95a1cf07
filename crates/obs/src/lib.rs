//! # april-obs — unified observability for the APRIL simulators
//!
//! The paper's entire evaluation (Sections 7–8, Tables 4–7, Figure 9)
//! rests on measurement: per-processor utilization breakdowns,
//! context-switch counts, and cache/network stall attribution. This
//! crate is the one instrumentation substrate every scheduler variant
//! feeds identically:
//!
//! * [`Probe`] — a zero-allocation-on-hot-path, fixed-capacity ring of
//!   structured [`Event`]s owned by each instrumented component (one
//!   *lane* per component per node), with order-independent seeded
//!   sampling.
//! * [`Trace`] — the merged, canonically ordered event stream,
//!   exportable as JSONL and as Chrome `trace_event` JSON for
//!   chrome://tracing.
//! * [`StatsReport`] — a named counter/gauge/histogram registry
//!   snapshot reproducing the paper's utilization and miss-rate
//!   breakdowns, serializable as a single JSON object.
//!
//! # Determinism contract
//!
//! Events carry a `(cycle, lane, seq)` key. Within one lane the
//! simulators emit a deterministic stream (the lockstep and
//! event-driven schedulers are bit-exact per component), sampling
//! decisions are pure hashes of the event content (never of a stateful
//! generator), and each lane's ring evicts oldest-first within that
//! lane alone. Sorting the merged stream by the key therefore yields
//! the *identical* trace — and identical [`StatsReport`] snapshots —
//! for lockstep and event-driven runs. Scheduler-internal events
//! ([`Component::Meta`]: watchdog arming and firing) are the one
//! exception; they describe the scheduler rather than the simulated
//! machine and are excluded by [`Trace::retain_semantic`].

#![deny(missing_docs)]

mod event;
mod json;
mod probe;
mod report;
mod trace;

pub use event::{lane, lane_component, lane_node, Component, Event, EventKind};
pub use json::{validate_json, JsonWriter};
pub use probe::{Probe, TraceConfig, MAX_RING_CAPACITY};
pub use report::{Hist, QHist, Section, StatsReport};
pub use trace::Trace;

//! # april-runtime — the APRIL run-time software system
//!
//! APRIL migrates thread scheduling, trap handling and future support
//! out of hardware into a run-time system (paper, Sections 3 and 6).
//! This crate is that system:
//!
//! * [`abi`] — the register conventions, run-time service numbers and
//!   entry stubs shared with the Mul-T compiler.
//! * [`thread`] — virtual threads: unlimited, dynamically created,
//!   cached in the four hardware task frames.
//! * [`sched`] — per-node ready queues, lazy-task queues, and work
//!   stealing.
//! * [`futures`] — future records (resolution state lives in the
//!   full/empty bit of the value slot) and wait queues.
//! * [`layout`] — per-node heaps and recycled thread stacks.
//! * [`config`] — handler policies (spin / switch-spin / block) and
//!   the paper's cycle costs (11-cycle context switch, 23-cycle
//!   resolved touch).
//! * [`runtime`] — the trap handlers and scheduler driving a
//!   [`april_machine::Machine`].
//! * [`snapshot`] — checkpoint/restore of the whole run-time
//!   (embedding a machine snapshot), for bit-exact resumption.

#![warn(missing_docs)]

pub mod abi;
pub mod config;
pub mod futures;
pub mod layout;
pub mod runtime;
pub mod sched;
pub mod snapshot;
pub mod thread;

pub use config::{FePolicy, RtConfig, TouchPolicy};
pub use runtime::{Pool, RunError, RunResult, Runtime};
pub use snapshot::RuntimeSnapshot;
pub use thread::{Thread, ThreadId, ThreadState};

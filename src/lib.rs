//! # april — reproduction of *APRIL: A Processor Architecture for
//! # Multiprocessing* (Agarwal, Lim, Kranz, Kubiatowicz; ISCA 1990)
//!
//! This facade re-exports the whole system. The pieces:
//!
//! * [`core`] — the APRIL processor: tagged words, the
//!   instruction set with full/empty-bit memory operations and
//!   `Jfull`/`Jempty`, four hardware task frames, the trap mechanism,
//!   and a cycle-accounted execution engine.
//! * [`mem`] — caches, the full-map directory coherence
//!   protocol, and word-addressed memory with full/empty bits.
//! * [`net`] — the k-ary n-cube packet-switched network.
//! * [`machine`] — the ALEWIFE machine (and the ideal
//!   zero-latency machine used for the paper's Table 3).
//! * [`runtime`] — the run-time software system:
//!   virtual threads, scheduling, futures, lazy task creation, trap
//!   handlers.
//! * [`mult`] — the Mul-T compiler (T-seq / Encore / APRIL
//!   targets) and the paper's four benchmarks.
//! * [`model`] — the Section 8 analytical utilization
//!   model.
//! * [`obs`] — the observability layer: structured event
//!   tracing (JSONL / Chrome `trace_event` exports) and the metrics
//!   registry snapshot, deterministic across both schedulers.
//! * [`serve`] — simulation as a service: the april-serve daemon,
//!   its Unix-socket wire protocol (PROTOCOL.md), and snapshot warm
//!   starts that fork one registered checkpoint per sweep job.
//!
//! # Quick start
//!
//! ```
//! use april::mult::{compile, CompileOptions};
//! use april::machine::IdealMachine;
//! use april::runtime::{RtConfig, Runtime};
//!
//! let prog = compile(
//!     "(define (fib n)
//!        (if (< n 2) n (+ (future (fib (- n 1))) (future (fib (- n 2))))))
//!      (define (main) (fib 10))",
//!     &CompileOptions::april(),
//! )?;
//! let machine = IdealMachine::new(4, 64 << 20, prog);
//! let mut rt = Runtime::new(machine, RtConfig { region_bytes: 16 << 20, ..RtConfig::default() });
//! let result = rt.run().expect("program completes");
//! assert_eq!(result.value.as_fixnum(), Some(55));
//! # Ok::<(), april::mult::CompileError>(())
//! ```

#![warn(missing_docs)]

pub use april_core as core;
pub use april_machine as machine;
pub use april_mem as mem;
pub use april_model as model;
pub use april_mult as mult;
pub use april_net as net;
pub use april_obs as obs;
pub use april_runtime as runtime;
pub use april_serve as serve;

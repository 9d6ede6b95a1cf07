//! # april-mult — the Mul-T compiler
//!
//! Mul-T is the paper's "extended version of Scheme" whose `future`
//! construct generates concurrency (Section 2.2). This crate compiles
//! a Mul-T subset to APRIL machine code against the run-time ABI of
//! `april-runtime`:
//!
//! * [`sexpr`] — the reader.
//! * [`ast`] — the AST and lowering.
//! * [`target`] — compilation targets: T-seq (futures elided, no
//!   checks), Encore (software future detection — the ~2× sequential
//!   overhead of Table 3), and APRIL (hardware tag traps), with eager
//!   or lazy task creation.
//! * [`codegen`] — the accumulator-style code generator.
//! * [`programs`] — the paper's four benchmarks: `fib`, `factor`,
//!   `queens`, `speech`.
//! * [`interp`] — the one Mul-T evaluator: the differential-testing
//!   oracle for the whole compile-and-run pipeline, and the tracer.
//! * [`trace`], [`postmortem`] — the paper's Figure 4 trace-driven
//!   path: recorded parallel task graphs, and their post-mortem
//!   schedule onto abstract processors.
//!
//! # Examples
//!
//! ```
//! use april_mult::{compile, CompileOptions};
//!
//! let prog = compile("(define (main) (+ 20 22))", &CompileOptions::april())?;
//! assert!(prog.len() > 0);
//! # Ok::<(), april_mult::CompileError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod codegen;
pub mod interp;
pub mod postmortem;
pub mod programs;
pub mod sexpr;
pub mod target;
pub mod trace;

pub use codegen::{compile, compile_ast, CompileError};
pub use target::{CheckMode, CompileOptions, FutureMode};

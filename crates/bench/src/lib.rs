//! # april-bench — experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md's
//! experiment index):
//!
//! * `table3` — Mul-T benchmark grid (Encore / APRIL / APRIL-lazy ×
//!   T-seq / Mul-T-seq / 1–16 processors).
//! * `figure5` — the utilization model sweep and Table 4 parameters.
//! * `microbench` — the 11-cycle context switch and 23-cycle future
//!   touch of Section 6.
//! * `validate_model` — the cache and network model terms against the
//!   simulators (Section 8's "validated through simulations").
//! * `utilization` — measured utilization on the full ALEWIFE machine
//!   vs. the analytical model.
//! * `ablations` — switch cost, full/empty policy and task-grain
//!   sweeps over the design choices the paper argues for.
//! * `postmortem` — Figure 4's trace-driven path against the
//!   execution-driven simulator.
//!
//! Host performance of the simulator itself is measured by the
//! repository benchmark (`benchmark/`, `BENCHMARK.json`), not here.

#![warn(missing_docs)]

use april_machine::IdealMachine;
use april_mult::CompileOptions;
use april_runtime::{RtConfig, RunResult, Runtime};

/// Region size used by the experiment harness (per node).
pub const REGION: u32 = 16 << 20;

/// Compiles `src` for `opts` and runs it on an ideal machine of
/// `procs` processors, returning the run result.
///
/// # Panics
///
/// Panics on compile or run failure (experiment inputs are trusted).
pub fn run_ideal(src: &str, opts: &CompileOptions, procs: usize) -> RunResult {
    let prog = april_mult::compile(src, opts).expect("benchmark compiles");
    let m = IdealMachine::new(procs, procs * REGION as usize, prog);
    let mut rt = Runtime::new(
        m,
        RtConfig {
            region_bytes: REGION,
            max_cycles: 20_000_000_000,
            ..RtConfig::default()
        },
    );
    rt.run().expect("benchmark completes")
}

/// Formats a normalized time like the paper's Table 3 (two and three
/// significant digits across the magnitude ranges the table uses).
pub fn fmt_norm(x: f64) -> String {
    if x >= 10.0 {
        format!("{x:5.1}")
    } else {
        format!("{x:5.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_matches_table_style() {
        assert_eq!(fmt_norm(28.94).trim(), "28.9");
        assert_eq!(fmt_norm(1.0).trim(), "1.00");
        assert_eq!(fmt_norm(0.097).trim(), "0.10");
    }

    #[test]
    fn harness_runs_a_tiny_program() {
        let r = run_ideal("(define (main) 7)", &CompileOptions::t_seq(), 1);
        assert_eq!(r.value.as_fixnum(), Some(7));
    }
}

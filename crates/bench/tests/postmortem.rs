//! E9 (Figure 4): the trace-driven path is optimistic. The post-mortem
//! scheduler sees only the task graph, so at 16 processors it predicts
//! a higher speedup than the execution-driven simulator measures on
//! the same program — §7's reason to prefer execution-driven
//! simulation.

use april_bench::run_ideal;
use april_mult::postmortem::{schedule, PmConfig};
use april_mult::trace::trace_program;
use april_mult::{programs, CompileOptions};

/// The `postmortem` binary's `--quick` programs.
#[test]
fn post_mortem_speedup_exceeds_execution_driven_at_16_procs() {
    let cfg = PmConfig::default();
    let april = CompileOptions::april();
    for (name, src) in [
        ("fib(10)", programs::fib(10)),
        ("queens(5)", programs::queens(5)),
        ("factor(60)", programs::factor(60)),
    ] {
        let (trace, _) = trace_program(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let pm =
            schedule(&trace, 1, cfg).makespan as f64 / schedule(&trace, 16, cfg).makespan as f64;
        let ex =
            run_ideal(&src, &april, 1).cycles as f64 / run_ideal(&src, &april, 16).cycles as f64;
        assert!(
            pm > ex,
            "{name}: post-mortem {pm:.2}x is not above execution-driven {ex:.2}x"
        );
    }
}

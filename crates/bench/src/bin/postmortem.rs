//! Figure 4's two simulation paths, side by side: the trace-driven
//! post-mortem scheduler vs. the execution-driven APRIL simulator, on
//! the same programs.
//!
//! "The simulator has proved to be a useful tool ... as it provides
//! more accurate results than a trace driven simulation" (paper,
//! Section 7). This binary quantifies the gap: the post-mortem
//! scheduler sees only the task graph (no task-creation contention, no
//! scheduling cost asymmetries), so its predicted speedups are
//! systematically optimistic.
//!
//! Usage: `postmortem [--quick]`

use april_bench::run_ideal;
use april_mult::interp::interpret;
use april_mult::postmortem::{schedule, PmConfig};
use april_mult::trace::trace_program;
use april_mult::{programs, CompileOptions};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (fib_n, queens_n) = if quick { (10, 5) } else { (12, 6) };
    let procs = [1usize, 2, 4, 8, 16];

    println!("Trace-driven (post-mortem) vs execution-driven speedups");
    println!("(speedup over each method's own 1-processor run)");
    println!();

    for (name, src) in [
        ("fib", programs::fib(fib_n)),
        ("queens", programs::queens(queens_n)),
        ("factor", programs::factor(if quick { 60 } else { 150 })),
    ] {
        let (trace, value) = trace_program(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(Ok(value), interpret(&src), "{name}: traced value");
        println!(
            "{name}: {} tasks, {} total work units in the trace",
            trace.len(),
            trace.total_work()
        );
        println!(
            "{:>6} {:>14} {:>14} {:>10}",
            "procs", "post-mortem", "exec-driven", "gap"
        );
        // The default overheads are calibrated to the runtime's
        // eager-task costs in work units (1 work unit ~ 10 cycles of
        // compiled code).
        let cfg = PmConfig::default();
        let pm1 = schedule(&trace, 1, cfg).makespan as f64;
        let ex1 = run_ideal(&src, &CompileOptions::april(), 1).cycles as f64;
        for &p in &procs {
            let pm = pm1 / schedule(&trace, p, cfg).makespan as f64;
            let ex = ex1 / run_ideal(&src, &CompileOptions::april(), p).cycles as f64;
            println!(
                "{:>6} {:>13.2}x {:>13.2}x {:>9.1}%",
                p,
                pm,
                ex,
                (pm / ex - 1.0) * 100.0
            );
        }
        println!();
    }
    println!("The post-mortem path is cheap (no machine state) but optimistic: it");
    println!("misses scheduling contention and the serialization of task creation —");
    println!("the reason ALEWIFE's evaluation is execution-driven (Section 7).");
}

//! Figure 4's trace-driven path: the task graphs that E9 schedules
//! post-mortem.

use april_mult::interp::Value;
use april_mult::postmortem::{schedule, PmConfig};
use april_mult::programs;
use april_mult::trace::{trace_program, TraceEvent};

/// The overheads the `postmortem` bench binary charges.
const E9: PmConfig = PmConfig {
    spawn_overhead: 10,
    touch_overhead: 2,
    block_overhead: 10,
};

/// A program generator, its size, and the figures pinned for it.
type Pin = (fn(u32) -> String, u32, [u64; 4]);

/// E9's programs at the `postmortem` binary's full and `--quick`
/// sizes: task count, total work, and the post-mortem makespans at 1
/// and 16 processors. A change to how programs are traced must keep
/// every figure.
#[test]
fn e9_traces_are_pinned() {
    let want: [Pin; 6] = [
        (programs::fib, 12, [465, 4_647, 12_071, 774]),
        (programs::queens, 6, [153, 59_856, 62_592, 4_244]),
        (programs::factor, 150, [149, 19_466, 22_426, 1_464]),
        (programs::fib, 10, [177, 1_767, 4_583, 307]),
        (programs::queens, 5, [54, 13_097, 14_069, 1_109]),
        (programs::factor, 60, [59, 5_894, 7_054, 505]),
    ];
    for (program, n, figures) in want {
        let (trace, _) = trace_program(&program(n)).unwrap_or_else(|e| panic!("size {n}: {e}"));
        let got = [
            trace.len() as u64,
            trace.total_work(),
            schedule(&trace, 1, E9).makespan,
            schedule(&trace, 16, E9).makespan,
        ];
        assert_eq!(got, figures, "size {n}");
    }
}

/// `pmap!` and `preduce` call `f` and `op` through procedure values.
/// Their trace holds one task per `future` they run, and the
/// post-mortem scheduler finds parallelism in it.
#[test]
fn higher_order_programs_trace() {
    let src = format!(
        "{lib}
        (define (sq x) (* x x))
        (define (add a b) (+ a b))
        (define (main)
          (let ((v (make-vector 64 3)))
            (pmap! sq v 4)
            (preduce add 0 v 0 64 4)))",
        lib = programs::data_parallel_lib()
    );
    let (trace, v) = trace_program(&src).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(v, Value::Int(64 * 9));
    // Each range wider than the grain runs one future and splits.
    fn futures(width: u32, grain: u32) -> usize {
        if width <= grain {
            return 0;
        }
        1 + futures(width / 2, grain) + futures(width - width / 2, grain)
    }
    let spawns = trace
        .tasks
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| matches!(e, TraceEvent::Spawn(_)))
        .count();
    assert_eq!(spawns, 2 * futures(64, 4));
    assert_eq!(trace.len(), spawns + 1);
    let one = schedule(&trace, 1, E9).makespan;
    let four = schedule(&trace, 4, E9).makespan;
    assert!(one > four, "4 processors: {one} -> {four} work units");
}

//! Parallel traces — the left path of the paper's Figure 4:
//! "T-Mul-T emulator/tracer → parallel traces → post-mortem
//! scheduler".
//!
//! A trace is the **task graph** a parallel execution would have: one
//! task per `future`, with the work (in evaluation steps) each task
//! performs between its spawn and touch events. The tracer is the
//! reference interpreter itself: [`trace_program`] runs it with a
//! recorder (see [`crate::interp`]). The [`postmortem`](crate::postmortem)
//! scheduler then replays the graph onto P abstract processors.

pub use crate::interp::{trace_ast, trace_program};

/// An event separating two work segments of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// This task created task `n`.
    Spawn(usize),
    /// This task touched (joined on) task `n`'s result.
    Touch(usize),
}

/// One task's recorded behavior: `segments[0]`, then `events[0]`, then
/// `segments[1]`, … — always one more segment than events.
#[derive(Debug, Clone, Default)]
pub struct TaskTrace {
    /// Work amounts (evaluation steps) between events.
    pub segments: Vec<u64>,
    /// Spawn/touch events between segments.
    pub events: Vec<TraceEvent>,
}

impl TaskTrace {
    /// Total work in this task.
    pub fn total_work(&self) -> u64 {
        self.segments.iter().sum()
    }
}

/// A recorded parallel trace: task 0 is the root (main).
#[derive(Debug, Clone, Default)]
pub struct ParallelTrace {
    /// All tasks, indexed by id.
    pub tasks: Vec<TaskTrace>,
}

impl ParallelTrace {
    /// Total work across all tasks (the T₁ of Brent's bound).
    pub fn total_work(&self) -> u64 {
        self.tasks.iter().map(TaskTrace::total_work).sum()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Value;

    #[test]
    fn fib_trace_has_one_task_per_future() {
        let src =
            "(define (fib n) (if (< n 2) n (+ (future (fib (- n 1))) (future (fib (- n 2))))))
                   (define (main) (fib 6))";
        let (trace, v) = trace_program(src).unwrap();
        assert_eq!(v, Value::Int(8));
        // calls(6) = 25; every non-leaf call spawns 2 futures.
        assert!(trace.len() > 10, "only {} tasks", trace.len());
        // Every spawned task is eventually touched by someone.
        let mut touched = vec![false; trace.len()];
        for t in &trace.tasks {
            for e in &t.events {
                if let TraceEvent::Touch(n) = e {
                    touched[*n] = true;
                }
            }
        }
        assert!(touched.iter().skip(1).all(|&t| t), "untouched task");
    }

    #[test]
    fn sequential_program_is_one_task() {
        let (trace, v) = trace_program("(define (main) (+ 1 2))").unwrap();
        assert_eq!(v, Value::Int(3));
        assert_eq!(trace.len(), 1);
        assert!(trace.tasks[0].events.is_empty());
        assert!(trace.total_work() > 0);
    }

    #[test]
    fn segments_bracket_events() {
        let (trace, _) = trace_program("(define (main) (touch (future 5)))").unwrap();
        for t in &trace.tasks {
            assert_eq!(t.segments.len(), t.events.len() + 1);
        }
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn work_is_conserved_across_spawning() {
        // The same computation with and without futures does the same
        // total work (futures only move work between tasks).
        let seq =
            trace_program("(define (f n) (if (= n 0) 0 (+ n (f (- n 1))))) (define (main) (f 10))")
                .unwrap()
                .0;
        let par = trace_program(
            "(define (f n) (if (= n 0) 0 (+ n (touch (future (f (- n 1))))))) (define (main) (f 10))",
        )
        .unwrap()
        .0;
        assert_eq!(seq.len(), 1);
        assert_eq!(par.len(), 11);
        // Touch/future wrappers add a couple of eval steps per level.
        let diff = par.total_work() as i64 - seq.total_work() as i64;
        assert!(diff.unsigned_abs() < 40, "work diverged by {diff}");
    }
}

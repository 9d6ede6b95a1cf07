//! Cross-crate integration: Mul-T programs running on the full
//! ALEWIFE machine (coherent caches, directories, k-ary n-cube
//! network) under the run-time system — every crate in one test.

use april::machine::alewife::Alewife;
use april::machine::config::MachineConfig;
use april::machine::IdealMachine;
use april::mult::{compile, programs, CompileOptions};
use april::net::topology::Topology;
use april::runtime::{Pool, RtConfig, RunError, Runtime};

const REGION: u32 = 4 << 20;

fn rt_cfg() -> RtConfig {
    RtConfig {
        region_bytes: REGION,
        max_cycles: 400_000_000,
        ..RtConfig::default()
    }
}

fn alewife(
    nodes_dim: usize,
    radix: usize,
    src: &str,
    opts: &CompileOptions,
) -> april::runtime::RunResult {
    let prog = compile(src, opts).expect("compiles");
    let cfg = MachineConfig {
        topology: Topology::new(nodes_dim, radix),
        region_bytes: REGION,
        ..MachineConfig::default()
    };
    let m = Alewife::new(cfg, prog);
    let mut rt = Runtime::new(m, rt_cfg());
    rt.run()
        .unwrap_or_else(|e| panic!("alewife run failed: {e}"))
}

fn ideal(procs: usize, src: &str, opts: &CompileOptions) -> april::runtime::RunResult {
    let prog = compile(src, opts).expect("compiles");
    let m = IdealMachine::new(procs, procs * REGION as usize, prog);
    let mut rt = Runtime::new(m, rt_cfg());
    rt.run().unwrap_or_else(|e| panic!("ideal run failed: {e}"))
}

#[test]
fn sequential_program_on_full_machine() {
    let src = "(define (fact n) (if (= n 0) 1 (* n (fact (- n 1)))))
               (define (main) (fact 8))";
    let r = alewife(2, 2, src, &CompileOptions::april_seq());
    assert_eq!(r.value.as_fixnum(), Some(40_320));
    // Everything ran on node 0 with local memory: no remote misses,
    // but real cache fills stalled the processor.
    assert!(r.total.stall_cycles > 0);
}

#[test]
fn parallel_fib_on_full_machine_matches_ideal() {
    let src = programs::fib(9);
    let a = alewife(2, 2, &src, &CompileOptions::april());
    let i = ideal(4, &src, &CompileOptions::april());
    assert_eq!(a.value.as_fixnum(), Some(34));
    assert_eq!(a.value, i.value, "coherence must preserve results");
    // The full machine pays latency the ideal machine does not.
    assert!(a.cycles > i.cycles);
    // Work spread across nodes, so coherence traffic flowed.
    let busy = a.per_cpu.iter().filter(|s| s.instructions > 100).count();
    assert!(busy >= 2, "only {busy} nodes did work");
}

#[test]
fn remote_misses_cause_context_switches_on_full_machine() {
    // Futures placed remotely force cross-node data movement: the
    // spawned tasks read closures allocated on node 0.
    let src = "
        (define (work n acc)
          (if (= n 0) acc (work (- n 1) (+ acc n))))
        (define (main)
          (+ (touch (future-on 1 (work 40 0)))
             (touch (future-on 2 (work 40 0)))))";
    let r = alewife(2, 2, src, &CompileOptions::april());
    assert_eq!(r.value.as_fixnum(), Some(820 * 2));
    assert!(r.total.remote_misses > 0, "remote data must miss");
    assert!(r.total.context_switches > 0, "misses must switch contexts");
}

#[test]
fn lazy_futures_work_on_full_machine() {
    let src = programs::fib(8);
    let r = alewife(2, 2, &src, &CompileOptions::april_lazy());
    assert_eq!(r.value.as_fixnum(), Some(21));
    assert!(r.sched.lazy_created > 0);
}

#[test]
fn queens_on_larger_mesh() {
    let src = programs::queens(5);
    let r = alewife(2, 3, &src, &CompileOptions::april());
    assert_eq!(r.value.as_fixnum(), Some(10), "5-queens has 10 solutions");
}

#[test]
fn alewife_runs_are_deterministic() {
    let src = programs::fib(8);
    let a = alewife(2, 2, &src, &CompileOptions::april());
    let b = alewife(2, 2, &src, &CompileOptions::april());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.total, b.total);
}

/// The scheduler-equivalence contract at the run-time layer: lockstep,
/// which steps every instruction on its own cycle, and the
/// event-driven skip agree on the value, the clock, every processor's
/// ledger and the whole stats report. The run-time mutates the machine
/// between cycles — `mem_mut` on every future allocation, `cpu_mut` on
/// every thread load, `charge_handler` on every trap — paths the
/// machine-level suites, driven by a switch-spin driver, barely touch.
#[test]
fn runtime_runs_agree_across_schedulers() {
    let cases = [
        (4, programs::fib(12), CompileOptions::april_lazy(), 144),
        (3, programs::queens(5), CompileOptions::april(), 10),
    ];
    for (radix, src, opts, want) in cases {
        let prog = compile(&src, &opts).expect("compiles");
        let runs: Vec<_> = [true, false]
            .into_iter()
            .map(|lockstep| {
                let cfg = MachineConfig {
                    topology: Topology::new(2, radix),
                    region_bytes: REGION,
                    lockstep,
                    ..MachineConfig::default()
                };
                let mut rt = Runtime::new(Alewife::new(cfg, prog.clone()), rt_cfg());
                let r = rt
                    .run()
                    .unwrap_or_else(|e| panic!("alewife run failed: {e}"));
                let report = rt.stats_report().to_json();
                (r.value, r.cycles, r.total, r.per_cpu, report)
            })
            .collect();
        assert_eq!(runs[0].0.as_fixnum(), Some(want));
        assert_eq!(runs[0], runs[1], "{radix}x{radix}: event-driven diverged");
    }
}

#[test]
fn eager_fib_that_drains_its_stack_pool_fails_with_a_typed_error() {
    // Eager futures hold a stack per started, unfinished task; half of
    // a 512 KiB region is 16 stacks of 16 KiB, which fib(14) outgrows.
    // The run ends in an error naming the pool, not a panic.
    let region = 512 << 10;
    let prog = compile(&programs::fib(14), &CompileOptions::april()).expect("compiles");
    let cfg = MachineConfig {
        topology: Topology::new(2, 2),
        region_bytes: region,
        ..MachineConfig::default()
    };
    let rt_cfg = RtConfig {
        region_bytes: region,
        stack_bytes: 16 << 10,
        ..rt_cfg()
    };
    let err = Runtime::new(Alewife::new(cfg, prog), rt_cfg)
        .run()
        .unwrap_err();
    assert!(
        matches!(
            err,
            RunError::Exhausted {
                pool: Pool::Stacks,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn speech_pipeline_on_full_machine() {
    let src = programs::speech(3, 4);
    let a = alewife(2, 2, &src, &CompileOptions::april());
    let i = ideal(1, &src, &CompileOptions::t_seq());
    assert_eq!(a.value, i.value);
}

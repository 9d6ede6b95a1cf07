//! The paper's programs on the paper's machine: Mul-T runs under
//! `Runtime<Alewife>` on 2-D and 3-D meshes whose direct-mapped caches
//! alias every node's run-time layout, the case the window of
//! vulnerability is about (paper §3.1, DESIGN.md §4 item 7).
//!
//! Each run goes once under lockstep and once under the event-driven
//! skip: the two must agree on value and cycle, and the value must be
//! the interpreter's. The two grids are release only (`scripts/ci.sh`
//! runs them): they take a few seconds there and minutes in a debug
//! build.

use april::machine::alewife::Alewife;
use april::machine::config::MachineConfig;
use april::machine::Machine;
use april::mult::interp::{interpret, Value};
use april::mult::{compile, programs, CompileOptions};
use april::net::topology::Topology;
use april::runtime::{RtConfig, Runtime};

fn runtime(
    (dims, radix): (usize, usize),
    region: u32,
    prog: &april::core::program::Program,
    lockstep: bool,
) -> Runtime<Alewife> {
    let cfg = MachineConfig {
        topology: Topology::new(dims, radix),
        region_bytes: region,
        lockstep,
        ..MachineConfig::default()
    };
    let rt_cfg = RtConfig {
        region_bytes: region,
        max_cycles: 400_000_000,
        ..RtConfig::default()
    };
    Runtime::new(Alewife::new(cfg, prog.clone()), rt_cfg)
}

/// One run: its value, cycles and remote misses.
fn run(
    mesh: (usize, usize),
    region: u32,
    prog: &april::core::program::Program,
    lockstep: bool,
) -> (Option<i32>, u64, u64) {
    let r = runtime(mesh, region, prog, lockstep)
        .run()
        .unwrap_or_else(|e| panic!("{mesh:?}, lockstep {lockstep}: {e}"));
    (r.value.as_fixnum(), r.cycles, r.total.remote_misses)
}

/// Runs `src` under both schedulers and checks them against each other
/// and the interpreter; returns the skip's remote misses.
fn agree(mesh: (usize, usize), region: u32, src: &str, opts: &CompileOptions) -> u64 {
    let Ok(Value::Int(want)) = interpret(src) else {
        panic!("the interpreter gives no fixnum");
    };
    let prog = compile(src, opts).expect("compiles");
    let lockstep = run(mesh, region, &prog, true);
    let skip = run(mesh, region, &prog, false);
    assert_eq!(lockstep.0, Some(want), "{mesh:?}: wrong value");
    assert_eq!(lockstep, skip, "{mesh:?}: the skip diverged from lockstep");
    skip.2
}

const CUBE: (usize, usize) = (3, 2);
const MESH_4: (usize, usize) = (2, 4);
const MESH_5: (usize, usize) = (2, 5);

/// The five eager runs that livelocked when a sibling frame's fill
/// could evict a line pinned for a woken frame: four frames of one
/// node took turns missing on four blocks of one direct-mapped set,
/// each fill evicting the last before its frame could use it.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn aliasing_eager_runs_complete() {
    let region = 4 << 20;
    for (mesh, src) in [
        (CUBE, programs::fib(12)),
        (MESH_5, programs::fib(12)),
        (MESH_4, programs::queens(6)),
        (MESH_4, programs::queens(7)),
        (CUBE, programs::queens(7)),
    ] {
        agree(mesh, region, &src, &CompileOptions::april());
    }
}

/// `queens(8)`, eager and lazy, on a 2x2x2 cube and 4x4 and 5x5 meshes
/// with 16 MiB regions.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn queens_8_on_the_paper_meshes() {
    let src = programs::queens(8);
    for mesh in [CUBE, MESH_4, MESH_5] {
        agree(mesh, 16 << 20, &src, &CompileOptions::april());
        let misses = agree(mesh, 16 << 20, &src, &CompileOptions::april_lazy());
        // Lazy on 4x4 took 14,637 remote misses while a sibling's fill
        // could evict a pinned line (8,959 such evictions); holding the
        // line for its frame removes the re-misses.
        if mesh == MESH_4 {
            assert!(misses <= 14_637 * 6 / 10, "{misses} remote misses");
        }
    }
}

/// A checkpoint cut while a line is held aside for a woken frame, with
/// a home demand deferred on it, restores under the other scheduler
/// and finishes exactly as the unbroken run: the held line and its
/// demands are machine state.
#[test]
fn a_checkpoint_cut_while_a_line_is_held_resumes_exactly() {
    let region = 4 << 20;
    let prog = compile(&programs::fib(12), &CompileOptions::april()).expect("compiles");
    let mut a = runtime(CUBE, region, &prog, true);
    let held = |rt: &Runtime<Alewife>| {
        rt.machine()
            .nodes
            .iter()
            .any(|n| n.ctl.held_lines().iter().any(|&(_, demands)| demands > 0))
    };
    while !held(&a) {
        let now = a.machine().now();
        let done = a.run_until(now + 1).expect("runs");
        assert!(
            done.is_none(),
            "the run ended with no demand on a held line"
        );
    }
    let snap = a.checkpoint().unwrap();
    let mut b = runtime(CUBE, region, &prog, false);
    b.restore(&snap).unwrap();
    let (ra, rb) = (a.run().unwrap(), b.run().unwrap());
    assert_eq!(ra.value.as_fixnum(), Some(144));
    assert_eq!(
        (ra.value, ra.cycles, ra.total, ra.per_cpu),
        (rb.value, rb.cycles, rb.total, rb.per_cpu)
    );
    assert_eq!(a.stats_report().to_json(), b.stats_report().to_json());
    let (sa, sb) = (a.checkpoint().unwrap(), b.checkpoint().unwrap());
    assert!(sa.as_bytes() == sb.as_bytes(), "final state differs");
}

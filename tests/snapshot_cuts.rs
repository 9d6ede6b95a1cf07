//! The Mul-T stack checkpointed mid-run under both schedulers: the
//! event-driven skip's booked runs (DESIGN.md §13) leave no trace in
//! the machine or run-time state a checkpoint captures. Counts alone
//! would miss a slip in a cache's LRU stamps or access counters, or a
//! line's dirty state; the whole `RuntimeSnapshot` does not.
//!
//! Each program runs once under the skip and once under lockstep; both
//! stop at eight cuts spread over the run (`Runtime::run_until` lands
//! on each exactly), and the two checkpoints must be byte-identical.

use april::core::program::Program;
use april::machine::alewife::Alewife;
use april::machine::config::MachineConfig;
use april::machine::snapshot::diff_snapshots;
use april::machine::Machine;
use april::mult::{compile, programs, CompileOptions};
use april::net::topology::Topology;
use april::runtime::{RtConfig, Runtime, RuntimeSnapshot};

const REGION: u32 = 4 << 20;

fn runtime((dims, radix): (usize, usize), prog: &Program, lockstep: bool) -> Runtime<Alewife> {
    let cfg = MachineConfig {
        topology: Topology::new(dims, radix),
        region_bytes: REGION,
        lockstep,
        ..MachineConfig::default()
    };
    let rt_cfg = RtConfig {
        region_bytes: REGION,
        ..RtConfig::default()
    };
    Runtime::new(Alewife::new(cfg, prog.clone()), rt_cfg)
}

/// `None` if the two checkpoints are byte-identical, else the first
/// place they differ: a machine section, or the run-time state.
fn first_difference(a: &RuntimeSnapshot, b: &RuntimeSnapshot) -> Option<String> {
    if a.as_bytes() == b.as_bytes() {
        return None;
    }
    let (ma, mb) = (a.machine_snapshot().unwrap(), b.machine_snapshot().unwrap());
    Some(diff_snapshots(&ma, &mb).unwrap_or_else(|| "run-time state".to_string()))
}

/// Cuts `src`'s run at eight cycles under both schedulers and compares
/// the checkpoints.
fn agree_at_cuts(mesh: (usize, usize), src: &str, opts: &CompileOptions) {
    let prog = compile(src, opts).expect("compiles");
    let total = runtime(mesh, &prog, false).run().expect("runs").cycles;
    let mut skip = runtime(mesh, &prog, false);
    let mut lockstep = runtime(mesh, &prog, true);
    for k in 1..=8 {
        let cut = k * total / 9;
        for rt in [&mut skip, &mut lockstep] {
            assert!(rt.run_until(cut).expect("runs").is_none());
            assert_eq!(rt.machine().now(), cut);
        }
        let (a, b) = (lockstep.checkpoint().unwrap(), skip.checkpoint().unwrap());
        assert_eq!(
            first_difference(&a, &b),
            None,
            "{mesh:?}: cut {k} of 8 at cycle {cut} of {total}"
        );
    }
    let (a, b) = (lockstep.run().expect("runs"), skip.run().expect("runs"));
    assert_eq!((a.value, a.cycles), (b.value, b.cycles));
}

#[test]
fn lazy_fib_on_a_4x4_mesh() {
    agree_at_cuts((2, 4), &programs::fib(12), &CompileOptions::april_lazy());
}

#[test]
fn queens_on_a_3x3_mesh() {
    agree_at_cuts((2, 3), &programs::queens(6), &CompileOptions::april());
}

#[test]
fn eager_fib_on_a_2x2x2_cube() {
    agree_at_cuts((3, 2), &programs::fib(12), &CompileOptions::april());
}

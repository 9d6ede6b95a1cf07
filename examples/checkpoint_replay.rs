//! Checkpoint, restore, and replay-bisection.
//!
//! Three demonstrations of the snapshot subsystem (DESIGN.md §11):
//!
//! 1. **Pause/resume a full run-time.** A Mul-T fib(12) run on a
//!    4-node ALEWIFE is cut mid-flight, checkpointed to bytes,
//!    restored into a brand-new runtime, and finished there — with
//!    the result, cycle count, and statistics identical to an
//!    unbroken run.
//! 2. **Cross-scheduler resume.** A machine-level checkpoint taken on
//!    the event-driven scheduler is resumed under lockstep, and the
//!    final memory images match.
//! 3. **Replay bisection.** Given a reference trace and a snapshot, a
//!    deliberately perturbed run-time policy is bisected to the first
//!    cycle at which its semantic event stream departs, in O(log n)
//!    replays.
//!
//! Run with: `cargo run --release --example checkpoint_replay`

use april::core::cpu::StepEvent;
use april::core::frame::FrameState;
use april::core::trap::Trap;
use april::machine::alewife::Alewife;
use april::machine::config::MachineConfig;
use april::machine::driver::{drive_sequential, drive_sequential_until, EventCtx, NodeDriver};
use april::machine::{Machine, Replayer, SwitchSpin};
use april::mult::{compile, programs, CompileOptions};
use april::net::topology::Topology;
use april::obs::TraceConfig;
use april::runtime::snapshot::RuntimeSnapshot;
use april::runtime::{RtConfig, Runtime};

const REGION: u32 = 4 << 20;

fn mcfg() -> MachineConfig {
    MachineConfig {
        topology: Topology::new(2, 2),
        region_bytes: REGION,
        ..MachineConfig::default()
    }
}

fn rtcfg() -> RtConfig {
    RtConfig {
        region_bytes: REGION,
        ..RtConfig::default()
    }
}

fn fresh_rt() -> Runtime<Alewife> {
    let src = programs::fib(12);
    let prog = compile(&src, &CompileOptions::april()).expect("compiles");
    let mut rt = Runtime::new(Alewife::new(mcfg(), prog), rtcfg());
    rt.attach_tracer(TraceConfig::default());
    rt
}

/// Part 1: checkpoint a running run-time, resume it elsewhere.
fn pause_and_resume() {
    let mut reference = fresh_rt();
    let unbroken = reference.run().expect("reference completes");

    let mut rt = fresh_rt();
    let paused = rt.run_until(20_000).expect("run proceeds");
    assert!(paused.is_none(), "fib(12) is still in flight at cycle 20k");
    let snap = rt.checkpoint().expect("mid-run checkpoint");
    println!(
        "checkpointed fib(12) at cycle {} ({} bytes)",
        snap.cycle(),
        snap.as_bytes().len()
    );

    // The bytes are self-contained: round-trip through a plain buffer
    // (a file would do) and restore into a brand-new runtime.
    let bytes = snap.as_bytes().to_vec();
    let reloaded = RuntimeSnapshot::from_bytes(bytes).expect("valid snapshot");
    let mut resumed = fresh_rt();
    resumed.restore(&reloaded).expect("restore succeeds");
    let finished = resumed.run().expect("resumed run completes");

    println!(
        "unbroken: fib(12)={} in {} cycles | resumed: fib(12)={} in {} cycles",
        unbroken.value.as_fixnum().unwrap(),
        unbroken.cycles,
        finished.value.as_fixnum().unwrap(),
        finished.cycles,
    );
    assert_eq!(unbroken.value, finished.value);
    assert_eq!(unbroken.cycles, finished.cycles);
    assert_eq!(unbroken.total, finished.total);
    assert_eq!(
        reference.collect_trace().events(),
        resumed.collect_trace().events(),
        "stitched-together trace must equal the unbroken one"
    );
    println!("resumed run is bit-identical to the unbroken run\n");
}

/// The false-sharing increment stress from the equivalence suites.
fn stress_prog() -> april::core::program::Program {
    april::core::isa::asm::assemble(
        "
        .entry main
        main:
            ldio 1, r8
            movi 0x200, r9
            add r9, r8, r9
            movi 50, r10
        loop:
            ld r9+0, r11
            add r11, 4, r11
            st r11, r9+0
            sub r10, 1, r10
            jne loop
            nop
            halt
        ",
    )
    .unwrap()
}

/// Part 2: checkpoint event-driven, resume under lockstep.
fn cross_scheduler() {
    let scfg = MachineConfig {
        topology: Topology::new(2, 2),
        region_bytes: 1 << 20,
        ..MachineConfig::default()
    };
    let mut event = Alewife::new(scfg, stress_prog());
    event.attach_tracer(TraceConfig::default());
    for i in 0..event.num_procs() {
        event.cpu_mut(i).boot(0);
    }
    drive_sequential_until(&mut event, &SwitchSpin::default(), 500, 1_000_000);
    let snap = event.checkpoint().expect("checkpoint");
    println!(
        "event-driven checkpoint at cycle {}; resuming under lockstep",
        snap.cycle()
    );

    let lcfg = MachineConfig {
        lockstep: true,
        ..scfg
    };
    let mut lockstep = Alewife::new(lcfg, stress_prog());
    lockstep.attach_tracer(TraceConfig::default());
    lockstep.restore(&snap).expect("cross-scheduler restore");
    drive_sequential(&mut lockstep, &SwitchSpin::default(), 1_000_000);

    // Finish the event-driven run too; final memories must agree.
    drive_sequential(&mut event, &SwitchSpin::default(), 1_000_000);
    for addr in (0..0x1000u32).step_by(4) {
        assert_eq!(event.mem().read(addr), lockstep.mem().read(addr));
    }
    println!("lockstep resume reached the same final memory image\n");
}

/// A deliberately wasteful run-time: never parks a missing frame, so
/// the faulting instruction re-traps every handler interval.
struct HotRetry;

impl NodeDriver for HotRetry {
    fn on_event(&self, node: usize, ev: StepEvent, ctx: &mut dyn EventCtx) {
        match ev {
            StepEvent::Trapped(Trap::RemoteMiss { .. }) => {
                let cpu = ctx.cpu();
                let fp = cpu.fp();
                let fr = cpu.frame_mut(fp);
                fr.state = FrameState::Ready;
                fr.psr.in_trap = false;
                ctx.charge_handler(6);
            }
            StepEvent::Trapped(t) => panic!("node {node}: {t}"),
            StepEvent::NoReadyFrame => {
                let cpu = ctx.cpu();
                match cpu.next_ready_frame() {
                    Some(f) => cpu.set_fp(f),
                    None => ctx.charge_idle(1),
                }
            }
            _ => {}
        }
    }
}

/// Part 3: bisect the first divergent cycle of a perturbed replay.
fn bisect_divergence() {
    let scfg = MachineConfig {
        topology: Topology::new(2, 2),
        region_bytes: 1 << 20,
        ..MachineConfig::default()
    };
    let mut m = Alewife::new(scfg, stress_prog());
    m.attach_tracer(TraceConfig::default());
    for i in 0..m.num_procs() {
        m.cpu_mut(i).boot(0);
    }
    drive_sequential_until(&mut m, &SwitchSpin::default(), 10, 1_000_000);
    let snap = m.checkpoint().expect("checkpoint");
    drive_sequential(&mut m, &SwitchSpin::default(), 1_000_000);
    let reference = m.collect_trace();
    let end = m.now();

    let rep = Replayer::new(scfg, stress_prog(), TraceConfig::default());

    // A faithful replay never diverges…
    let ok = rep
        .bisect(&snap, &SwitchSpin::default(), &reference, end, 1_000_000)
        .expect("replay runs");
    assert!(ok.is_none());
    println!("faithful replay from cycle {}: no divergence", snap.cycle());

    // …while the hot-retry policy departs at its first remote miss,
    // and the bisection pins the exact cycle and lane.
    let d = rep
        .bisect(&snap, &HotRetry, &reference, end, 1_000_000)
        .expect("replay runs")
        .expect("perturbed policy must diverge");
    println!("perturbed replay: {d}");
}

fn main() {
    pause_and_resume();
    cross_scheduler();
    bisect_divergence();
}

//! Warm-start forks are byte-identical to cold boots.
//!
//! The april-serve daemon's headline feature — register one warmed
//! checkpoint, fork it per sweep job — rests on a machine-layer
//! contract: constructing a machine directly from a snapshot
//! (`from_snapshot`) and installing the sweep-varied fault plan at the
//! warm point must behave exactly like booting cold, re-executing the
//! warmup to the same cycle, and installing the same plan there. These
//! tests pin that contract on both schedulers (lockstep and
//! event-driven), comparing the full stats report JSON and the semantic
//! trace JSONL byte-for-byte.

use april_core::program::Program;
use april_machine::alewife::Alewife;
use april_machine::config::MachineConfig;
use april_machine::driver::{drive_sequential, drive_sequential_until, SwitchSpin};
use april_machine::{Machine, Snapshot};
use april_net::fault::{FaultPlan, FaultRule};
use april_net::topology::Topology;
use april_obs::TraceConfig;

const WARM: u64 = 400;
const MAX: u64 = 3_000_000;

fn cfg() -> MachineConfig {
    MachineConfig {
        topology: Topology::new(2, 2),
        region_bytes: 1 << 20,
        ..MachineConfig::default()
    }
}

/// The contended false-sharing workload: every node hammers its own
/// word of one shared block, so the warm point lands mid-protocol.
fn prog() -> Program {
    april_core::isa::asm::assemble(
        "
        .entry main
        main:
            ldio 1, r8         ; node id (fixnum == 4*id: byte offset!)
            movi 0x200, r9
            add r9, r8, r9     ; my word within the shared block
            movi 50, r10
        loop:
            ld r9+0, r11
            add r11, 4, r11    ; increment (fixnum +1)
            st r11, r9+0
            sub r10, 1, r10
            jne loop
            nop
            halt
        ",
    )
    .unwrap()
}

/// The sweep-varied knob: a seeded delay/drop/dup plan.
fn plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_default_rule(FaultRule {
        drop: 0.01,
        dup: 0.01,
        delay: 0.04,
        max_delay: 40,
    })
}

fn trace_jsonl(m_trace: april_obs::Trace) -> String {
    let mut t = m_trace;
    t.retain_semantic();
    t.to_jsonl()
}

/// Builds the warm image the way the daemon does: cold boot, no fault
/// plan, run to the warm point on the event-driven scheduler, cut.
fn warm_image() -> Snapshot {
    let mut m = Alewife::new(cfg(), prog());
    m.attach_tracer(TraceConfig::default());
    m.boot_all();
    drive_sequential_until(&mut m, &SwitchSpin::default(), WARM, MAX);
    assert!(!m.all_halted(), "workload must outlive the warm point");
    m.checkpoint().unwrap()
}

/// The cold twin: boot, re-execute the warmup, install the plan at the
/// warm point, finish. Returns (stats JSON, semantic trace JSONL).
fn cold_reference(lockstep: bool, seed: u64) -> (String, String) {
    let mut m = Alewife::new(MachineConfig { lockstep, ..cfg() }, prog());
    m.attach_tracer(TraceConfig::default());
    m.boot_all();
    drive_sequential_until(&mut m, &SwitchSpin::default(), WARM, MAX);
    m.set_fault_plan(plan(seed));
    drive_sequential(&mut m, &SwitchSpin::default(), MAX);
    assert!(m.fault().is_none());
    (m.stats_report().to_json(), trace_jsonl(m.collect_trace()))
}

#[test]
fn warm_fork_matches_cold_boot_on_every_scheduler() {
    let snap = warm_image();
    let seed = 0x1990;
    let (ref_stats, ref_trace) = cold_reference(false, seed);

    // Event-driven fork.
    let mut seq =
        Alewife::from_snapshot(cfg(), prog(), Some(TraceConfig::default()), &snap).unwrap();
    seq.set_fault_plan(plan(seed));
    drive_sequential(&mut seq, &SwitchSpin::default(), MAX);
    assert_eq!(seq.stats_report().to_json(), ref_stats, "seq fork: stats");
    assert_eq!(
        trace_jsonl(seq.collect_trace()),
        ref_trace,
        "seq fork: trace"
    );

    // Lockstep fork (and a lockstep cold twin, which must also match).
    let mut lock = Alewife::from_snapshot(
        MachineConfig {
            lockstep: true,
            ..cfg()
        },
        prog(),
        Some(TraceConfig::default()),
        &snap,
    )
    .unwrap();
    lock.set_fault_plan(plan(seed));
    drive_sequential(&mut lock, &SwitchSpin::default(), MAX);
    assert_eq!(
        lock.stats_report().to_json(),
        ref_stats,
        "lockstep fork: stats"
    );
    assert_eq!(
        trace_jsonl(lock.collect_trace()),
        ref_trace,
        "lockstep fork: trace"
    );
    let (lock_cold_stats, lock_cold_trace) = cold_reference(true, seed);
    assert_eq!(lock_cold_stats, ref_stats, "lockstep cold twin: stats");
    assert_eq!(lock_cold_trace, ref_trace, "lockstep cold twin: trace");
}

#[test]
fn warm_forks_with_different_seeds_diverge() {
    // Sanity for the equivalence above: the fault plan installed at
    // the warm point actually steers the run — two forks of the same
    // image with different seeds must not produce identical traces.
    let snap = warm_image();
    let mut outs = Vec::new();
    for seed in [0x1990u64, 0x2026] {
        let mut m =
            Alewife::from_snapshot(cfg(), prog(), Some(TraceConfig::default()), &snap).unwrap();
        m.set_fault_plan(plan(seed));
        drive_sequential(&mut m, &SwitchSpin::default(), MAX);
        outs.push(trace_jsonl(m.collect_trace()));
    }
    assert_ne!(outs[0], outs[1], "fault seed had no effect on the fork");
}

#[test]
fn boot_all_matches_manual_per_node_boot() {
    // boot_all is the daemon's boot path; the sweep harness and older
    // tests boot each node by hand. Same machine either way.
    let drive = |mut m: Alewife| {
        drive_sequential(&mut m, &SwitchSpin::default(), MAX);
        (m.stats_report().to_json(), trace_jsonl(m.collect_trace()))
    };
    let mut a = Alewife::new(cfg(), prog());
    a.attach_tracer(TraceConfig::default());
    a.boot_all();
    let mut b = Alewife::new(cfg(), prog());
    b.attach_tracer(TraceConfig::default());
    for i in 0..b.num_procs() {
        b.cpu_mut(i).boot(0);
    }
    assert_eq!(drive(a), drive(b));
}

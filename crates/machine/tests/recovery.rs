//! Fail-stop fault recovery, end to end: a seeded link-kill run that
//! used to die with a `MachineFault` must now complete under the
//! [`RecoveryManager`] via quarantine + rollback — and the recovered
//! run must be bit-identical (semantic trace, stats report, memory) to
//! a fresh run launched from the same checkpoint with the quarantined
//! config, on the lockstep and event-driven schedulers.
//! Alongside the acceptance path: the watchdog false-positive guard, a
//! deeper-rollback scenario with retries disabled, a structured
//! failure for an unrecoverable node kill, and a bounded recovery
//! soak.

use april_core::isa::asm::assemble;
use april_core::program::Program;
use april_machine::alewife::Alewife;
use april_machine::config::MachineConfig;
use april_machine::driver::{drive_sequential, drive_sequential_until, SwitchSpin};
use april_machine::recovery::{RecoveryConfig, RecoveryFailure, RecoveryManager, RecoveryReport};
use april_machine::snapshot::diff_snapshots;
use april_machine::watchdog::{MachineFault, WatchdogConfig};
use april_machine::Machine;
use april_mem::{CtlConfig, DirConfig, RetryConfig};
use april_net::fault::FaultPlan;
use april_net::topology::{Channel, Topology};
use april_obs::{Component, EventKind, Trace, TraceConfig};

/// The false-sharing increment stress: each node bumps its own word of
/// one home-0 block 50 times — steady all-pairs traffic through node 0.
fn stress_program() -> Program {
    assemble(
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

/// Only node 1 reads a remote (home-0) block; everyone else halts.
/// With retries disabled, swallowing the one reply wedges exactly one
/// transaction — the cleanest deeper-rollback scenario.
fn single_reader_program() -> Program {
    assemble(
        "
        .entry main
        main:
            ldio 1, r8         ; node id (fixnum == 4*id)
            sub r8, 4, r8
            jne done           ; not node 1
            movi 0x200, r1
            ld r1+0, r2
        done:
            halt
        ",
    )
    .unwrap()
}

fn mesh_cfg(retry: RetryConfig, horizon: u64) -> MachineConfig {
    MachineConfig {
        topology: Topology::new(2, 2),
        region_bytes: 1 << 20,
        ctl: CtlConfig {
            retry,
            ..CtlConfig::default()
        },
        dir: DirConfig {
            retry,
            ..DirConfig::default()
        },
        watchdog: WatchdogConfig {
            enabled: true,
            horizon,
        },
        ..MachineConfig::default()
    }
}

fn fast_retry() -> RetryConfig {
    RetryConfig {
        enabled: true,
        timeout: 50,
        backoff_cap: 200,
        max_retries: 5,
    }
}

/// The channel the acceptance scenario kills: node 0's +x link (used
/// by every reply 0 -> 1); the 0 -> 2 -> 3 -> 1 detour survives.
fn killed_channel() -> Channel {
    Channel {
        node: 0,
        dim: 0,
        plus: true,
    }
}

fn kill_plan(seed: u64, onset: u64) -> FaultPlan {
    FaultPlan::new(seed).with_link_kill(killed_channel(), onset)
}

fn recovery_cfg() -> RecoveryConfig {
    RecoveryConfig {
        checkpoint_interval: 500,
        ring_capacity: 8,
        max_attempts: 4,
        max_cycles: 2_000_000,
    }
}

fn semantic(mut t: Trace) -> Trace {
    t.retain_semantic();
    t
}

/// Everything the equivalence assertions need from one supervised run.
struct Recovered {
    report: RecoveryReport,
    trace: Trace,
    stats_json: String,
    mem: Vec<(u64, bool)>,
    snapshot: april_machine::Snapshot,
    recovery_trace: Trace,
}

fn mem_image(mem: &april_mem::femem::FeMemory) -> Vec<(u64, bool)> {
    (0..0x1000u32)
        .step_by(4)
        .map(|a| {
            let (w, full) = mem.word_state(a);
            (w.0 as u64, full)
        })
        .collect()
}

/// Supervises one sequential machine (lockstep or event-driven) to a
/// recovered completion.
fn recover_seq(lockstep: bool) -> Recovered {
    let mut cfg = mesh_cfg(fast_retry(), 20_000);
    cfg.lockstep = lockstep;
    let mut m = Alewife::new(cfg, stress_program());
    m.set_fault_plan(kill_plan(0x5eed, 200));
    m.attach_tracer(TraceConfig::default());
    for i in 0..m.num_procs() {
        m.cpu_mut(i).boot(0);
    }
    let mut mgr = RecoveryManager::new(recovery_cfg());
    mgr.attach_tracer(TraceConfig::default());
    let report = mgr.run(&mut m, &SwitchSpin::default());
    assert!(
        report.recovered,
        "lockstep={lockstep}: recovery failed: {:?}",
        report.failure
    );
    Recovered {
        report,
        trace: semantic(m.collect_trace()),
        stats_json: m.stats_report().to_json(),
        mem: mem_image(m.mem()),
        snapshot: m.checkpoint().unwrap(),
        recovery_trace: mgr.collect_trace(),
    }
}

#[test]
fn link_kill_without_recovery_is_fatal() {
    let mut m = Alewife::new(mesh_cfg(fast_retry(), 20_000), stress_program());
    m.set_fault_plan(kill_plan(0x5eed, 200));
    for i in 0..m.num_procs() {
        m.cpu_mut(i).boot(0);
    }
    let fault = drive_sequential(&mut m, &SwitchSpin::default(), 2_000_000);
    match fault {
        Some(MachineFault::Protocol { .. }) | Some(MachineFault::NoForwardProgress(_)) => {}
        other => panic!("link kill must be fatal without recovery, got {other:?}"),
    }
    assert!(
        m.fault_stats().failstop_drops > 0,
        "the kill never swallowed a packet"
    );
}

#[test]
fn recovered_run_completes_and_matches_fresh_run_from_checkpoint() {
    let rec = recover_seq(false);
    assert!(rec.report.attempts >= 1, "recovery never rolled back");
    assert!(
        !rec.report.quarantine.is_empty(),
        "recovery never quarantined anything"
    );
    // The workload's result survived the fault.
    for i in 0..4 {
        assert_eq!(
            rec.mem[(0x200 / 4) + i].0,
            april_core::word::Word::fixnum(50).0 as u64,
            "node {i}'s count corrupted across recovery"
        );
    }

    // Fresh machine, same config + program + plan; launched straight
    // from the checkpoint the last rollback restored, with the
    // quarantined config and the backed-off horizon.
    let (ckpt_cycle, snap) = rec.report.last_restored.clone().expect("rolled back");
    let mut fresh = Alewife::new(mesh_cfg(fast_retry(), 20_000), stress_program());
    fresh.set_fault_plan(kill_plan(0x5eed, 200));
    fresh.attach_tracer(TraceConfig::default());
    fresh.restore(&snap).unwrap();
    assert_eq!(Machine::now(&fresh), ckpt_cycle);
    rec.report.quarantine.apply(&mut fresh);
    fresh.set_watchdog_horizon(rec.report.final_horizon);
    assert_eq!(
        drive_sequential(&mut fresh, &SwitchSpin::default(), 2_000_000),
        None,
        "fresh run from the quarantined checkpoint must complete"
    );

    assert_eq!(
        rec.trace.events(),
        semantic(fresh.collect_trace()).events(),
        "recovered trace != fresh-from-checkpoint trace"
    );
    assert_eq!(
        rec.stats_json,
        fresh.stats_report().to_json(),
        "recovered stats != fresh-from-checkpoint stats"
    );
    assert_eq!(
        rec.mem,
        mem_image(fresh.mem()),
        "recovered memory != fresh-from-checkpoint memory"
    );
    let d = diff_snapshots(&rec.snapshot, &fresh.checkpoint().unwrap());
    assert!(
        d.is_none() || d.as_deref() == Some("section meta@0"),
        "recovered machine state diverged from fresh run: {d:?}"
    );
}

#[test]
fn recovery_is_scheduler_invariant() {
    let lockstep = recover_seq(true);
    let event = recover_seq(false);

    assert_eq!(
        lockstep.report.attempts, event.report.attempts,
        "event: attempt count diverged"
    );
    assert_eq!(
        lockstep.report.quarantine, event.report.quarantine,
        "event: quarantine decision diverged"
    );
    assert_eq!(
        lockstep.trace.events(),
        event.trace.events(),
        "event: semantic trace diverged"
    );
    assert_eq!(
        lockstep.stats_json, event.stats_json,
        "event: stats report diverged"
    );
    assert_eq!(lockstep.mem, event.mem, "event: final memory diverged");
    assert_eq!(
        lockstep.recovery_trace.events(),
        event.recovery_trace.events(),
        "event: recovery saga diverged"
    );
    let d = diff_snapshots(&lockstep.snapshot, &event.snapshot);
    assert!(
        d.is_none() || d.as_deref() == Some("section meta@0"),
        "event: final machine state diverged: {d:?}"
    );

    // The saga rode the recovery lane: checkpoints, a quarantine, a
    // rollback, a re-execution.
    let kinds: Vec<EventKind> = lockstep
        .recovery_trace
        .events()
        .iter()
        .map(|e| e.kind)
        .collect();
    assert!(kinds.contains(&EventKind::CheckpointTaken));
    assert!(kinds.contains(&EventKind::QuarantineApplied));
    assert!(kinds.contains(&EventKind::Rollback));
    assert!(kinds.contains(&EventKind::ReExecute));
    for e in lockstep.recovery_trace.events() {
        assert_eq!(
            april_obs::lane_component(e.lane),
            Component::Recovery,
            "recovery saga must ride the recovery lane"
        );
    }
}

#[test]
fn retries_disabled_wedge_recovers_via_deeper_rollback() {
    // With retries disabled the lost reply is never resent, so every
    // checkpoint after the wedge forms is itself wedged: recovery must
    // walk back past the last restore point to the initial checkpoint.
    let mut m = Alewife::new(
        mesh_cfg(RetryConfig::disabled(), 1_500),
        single_reader_program(),
    );
    m.set_fault_plan(kill_plan(0x0dd, 5));
    for i in 0..m.num_procs() {
        m.cpu_mut(i).boot(0);
    }
    let mut mgr = RecoveryManager::new(RecoveryConfig {
        checkpoint_interval: 1_000,
        ring_capacity: 8,
        max_attempts: 4,
        max_cycles: 2_000_000,
    });
    let report = mgr.run(&mut m, &SwitchSpin::default());
    assert!(
        report.recovered,
        "deeper rollback failed: {:?}",
        report.failure
    );
    assert!(
        report.attempts >= 2,
        "the wedged checkpoint should have forced at least one re-fault"
    );
    let (ckpt_cycle, _) = report.last_restored.expect("rolled back");
    assert_eq!(
        ckpt_cycle, 0,
        "only the pre-wedge initial checkpoint is resumable without retries"
    );
    assert!(m.cpu(1).is_halted(), "node 1 never finished its read");
}

#[test]
fn dead_home_node_fails_with_structured_report() {
    // Node 0 homes the shared block; killing it is unrecoverable — no
    // quarantine can conjure the data back. The manager must spend its
    // attempts and give up with a structured report, not hang or panic.
    let mut m = Alewife::new(mesh_cfg(fast_retry(), 10_000), stress_program());
    m.set_fault_plan(FaultPlan::new(0xbad).with_node_kill(0, 100));
    for i in 0..m.num_procs() {
        m.cpu_mut(i).boot(0);
    }
    let mut mgr = RecoveryManager::new(RecoveryConfig {
        checkpoint_interval: 500,
        ring_capacity: 4,
        max_attempts: 2,
        max_cycles: 2_000_000,
    });
    let report = mgr.run(&mut m, &SwitchSpin::default());
    assert!(!report.recovered);
    match report.failure {
        Some(RecoveryFailure::AttemptsExhausted(_)) | Some(RecoveryFailure::Unquarantinable(_)) => {
        }
        other => panic!("expected a structured giving-up report, got {other:?}"),
    }
    assert_eq!(report.attempts, 2, "both attempts must have been spent");
}

#[test]
fn quiescent_machine_never_trips_watchdog_on_any_scheduler() {
    // No node is ever booted: an unbooted CPU is not halted, so the
    // machine sits forever at "no ready frame" — quiescence, not
    // deadlock. Held 10x the horizon, the watchdog must stay silent on
    // both schedulers.
    let horizon = 500;
    let cfg = mesh_cfg(RetryConfig::default(), horizon);
    let hold = 10 * horizon;

    for lockstep in [false, true] {
        let mut c = cfg;
        c.lockstep = lockstep;
        let mut m = Alewife::new(c, stress_program());
        drive_sequential_until(&mut m, &SwitchSpin::default(), hold, hold + 1);
        assert!(
            Machine::now(&m) >= hold,
            "lockstep={lockstep}: machine stopped early"
        );
        assert!(
            Machine::fault(&m).is_none(),
            "lockstep={lockstep}: watchdog fired on a quiescent machine: {:?}",
            Machine::fault(&m)
        );
    }
}

#[test]
fn fail_stop_schedules_are_scheduler_invariant() {
    // A fail-stop plan (link kill + node kill with deterministic
    // onsets) must produce byte-identical semantic traces and the same
    // fault on lockstep and event-driven.
    let plan = || {
        FaultPlan::new(0xfa11)
            .with_link_kill(killed_channel(), 300)
            .with_node_kill(3, 900)
    };
    let cfg = mesh_cfg(fast_retry(), 5_000);

    let run_seq = |lockstep: bool| {
        let mut c = cfg;
        c.lockstep = lockstep;
        let mut m = Alewife::new(c, stress_program());
        m.set_fault_plan(plan());
        m.attach_tracer(TraceConfig::default());
        for i in 0..m.num_procs() {
            m.cpu_mut(i).boot(0);
        }
        let fault = drive_sequential(&mut m, &SwitchSpin::default(), 2_000_000);
        (fault, semantic(m.collect_trace()), m.fault_stats())
    };
    let (ref_fault, ref_trace, ref_stats) = run_seq(true);
    assert!(ref_fault.is_some(), "kills must wedge this workload");
    assert!(ref_stats.failstop_drops > 0);

    let (f, t, s) = run_seq(false);
    assert_eq!(ref_fault, f, "event-driven fault diverged");
    assert_eq!(
        ref_trace.events(),
        t.events(),
        "event-driven trace diverged"
    );
    assert_eq!(ref_stats, s);
}

#[test]
fn bounded_recovery_soak() {
    // Every single directed-link kill on the 2x2 mesh leaves the mesh
    // connected, so recovery must always succeed — try a few channels
    // and seeds and insist on the workload's result every time.
    let channels = [
        Channel {
            node: 0,
            dim: 0,
            plus: true,
        },
        Channel {
            node: 1,
            dim: 1,
            plus: true,
        },
        Channel {
            node: 2,
            dim: 1,
            plus: false,
        },
    ];
    for (i, ch) in channels.iter().enumerate() {
        let seed = 0x50a0_u64.wrapping_add(i as u64);
        let mut m = Alewife::new(mesh_cfg(fast_retry(), 20_000), stress_program());
        m.set_fault_plan(FaultPlan::new(seed).with_link_kill(*ch, 250));
        for k in 0..m.num_procs() {
            m.cpu_mut(k).boot(0);
        }
        let mut mgr = RecoveryManager::new(RecoveryConfig {
            checkpoint_interval: 500,
            ring_capacity: 8,
            max_attempts: 6,
            max_cycles: 4_000_000,
        });
        let report = mgr.run(&mut m, &SwitchSpin::default());
        assert!(
            report.recovered,
            "soak {i} (kill {ch:?}): {:?}",
            report.failure
        );
        for n in 0..4u32 {
            assert_eq!(
                m.mem().read(0x200 + 4 * n),
                april_core::word::Word::fixnum(50),
                "soak {i}: node {n}'s count corrupted"
            );
        }
        let s = mgr.stats_section();
        assert!(s.get_counter("rollbacks").unwrap_or(0) >= 1);
        assert!(s.get_counter("checkpoints_taken").unwrap_or(0) >= 1);
    }
}

#[test]
fn quarantine_with_no_alive_route_dead_letters_with_typed_post_mortem() {
    // Quarantining every link out of node 1 makes its traffic
    // undeliverable: the run must end in a typed post-mortem naming
    // the dead letters, not a silent hang (and not a panic).
    let mut m = Alewife::new(
        mesh_cfg(RetryConfig::disabled(), 1_000),
        single_reader_program(),
    );
    // Node 1's only links: -x back to 0 and +y up to 3.
    m.quarantine_channel(Channel {
        node: 1,
        dim: 0,
        plus: false,
    });
    m.quarantine_channel(Channel {
        node: 1,
        dim: 1,
        plus: true,
    });
    for i in 0..m.num_procs() {
        m.cpu_mut(i).boot(0);
    }
    let fault = drive_sequential(&mut m, &SwitchSpin::default(), 2_000_000);
    let Some(MachineFault::NoForwardProgress(pm)) = fault else {
        panic!("expected a watchdog post-mortem, got {fault:?}");
    };
    assert!(
        !pm.undeliverable.is_empty(),
        "post-mortem lost the dead letters: {pm}"
    );
    assert!(pm.fault_stats.dead_letters > 0);
    assert!(pm.to_string().contains("undeliverable messages"));
}

/// The `ckpt2000_16node` benchmark workload's oracle: a fault-free run
/// supervised at a 2000-cycle checkpoint interval recovers with no
/// attempt and ends exactly where the unsupervised run ends — the same
/// memory image and statistics — so supervision costs host time only.
#[test]
fn fault_free_supervised_run_matches_unsupervised_run() {
    let cfg = MachineConfig {
        topology: Topology::new(2, 4),
        ..mesh_cfg(fast_retry(), 50_000)
    };
    let prog = assemble(
        "
        .entry main
        main:
            ldio 1, r8         ; node id (fixnum == 4*id: byte offset!)
            movi 0x200, r9
            add r9, r8, r9     ; my word within the shared region
            movi 120, r10
        loop:
            ld r9+0, r11
            add r11, 4, r11
            st r11, r9+0
            sub r10, 1, r10
            jne loop
            nop
            flush r9+0
            halt
        ",
    )
    .unwrap();
    let boot = || {
        let mut m = Alewife::new(cfg, prog.clone());
        m.boot_all();
        m
    };
    let mut plain = boot();
    assert_eq!(
        drive_sequential(&mut plain, &SwitchSpin::default(), 10_000_000),
        None
    );

    let mut supervised = boot();
    let mut mgr = RecoveryManager::new(RecoveryConfig {
        checkpoint_interval: 2000,
        ring_capacity: 4,
        max_attempts: 4,
        max_cycles: 100_000_000,
    });
    let report = mgr.run(&mut supervised, &SwitchSpin::default());
    assert!(report.recovered, "{:?}", report.failure);
    assert_eq!(report.attempts, 0, "a fault-free run never rolls back");
    assert!(report.checkpoints_taken > 2, "{report:?}");

    assert_eq!(mem_image(supervised.mem()), mem_image(plain.mem()));
    for node in 0..16 {
        let word = plain.mem().read(0x200 + 4 * node).as_fixnum();
        assert_eq!(word, Some(120), "node {node}'s increments");
    }
    assert_eq!(
        supervised.stats_report().to_json(),
        plain.stats_report().to_json()
    );
    assert_eq!(supervised.halted_cycles(), plain.halted_cycles());
}

//! Open-loop traffic determinism (DESIGN.md §15): the same seed must
//! yield a byte-identical arrival trace and latency report across the
//! lockstep and event-driven schedulers — fault-free, under a seeded
//! drop/dup/delay fault plan with protocol
//! retry recovery enabled, and across a mid-run checkpoint/restore cut
//! (which exercises the per-edge-node `SEC_TRAFFIC` snapshot section
//! and the derived injection-cursor recompute).

use april_core::isa::asm::assemble;
use april_core::program::Program;
use april_machine::alewife::Alewife;
use april_machine::config::MachineConfig;
use april_machine::driver::{drive_sequential, drive_sequential_until, SwitchSpin};
use april_machine::{service_program, Machine, TrafficConfig};
use april_net::fault::{FaultPlan, FaultRule};
use april_net::topology::Topology;
use april_obs::{StatsReport, Trace, TraceConfig};

const MAX: u64 = 10_000_000;

/// A small bursty workload: both edge nodes (0 and 2 of a 2x2 mesh)
/// absorb 24 requests each, with remote work so every request forces
/// cache misses and context switches through the service loop.
fn traffic() -> TrafficConfig {
    TrafficConfig {
        seed: 0x0417_beef,
        edge_every: 2,
        requests_per_edge: 24,
        mean_gap: 150,
        phase_len: 1024,
        off_mul: 2,
        ring_offset: 0x400,
        ring_slots: 8,
        work_remote: 2,
        work_local: 8,
    }
}

fn cfg() -> MachineConfig {
    MachineConfig {
        topology: Topology::new(2, 2),
        region_bytes: 1 << 16,
        traffic: Some(traffic()),
        ..MachineConfig::default()
    }
}

fn prog() -> Program {
    assemble(&service_program(&cfg())).expect("service program assembles")
}

/// Drops, duplicates, and reordering jitter, deterministically seeded;
/// the default retry configuration recovers every lost protocol
/// message, so the run still drains to quiescence.
fn fault_plan() -> FaultPlan {
    FaultPlan::new(0x50a1).with_default_rule(FaultRule {
        drop: 0.02,
        dup: 0.02,
        delay: 0.04,
        max_delay: 40,
    })
}

fn semantic(mut t: Trace) -> String {
    t.retain_semantic();
    t.to_jsonl()
}

fn run_seq(plan: Option<FaultPlan>, lockstep: bool) -> Alewife {
    let mut m = Alewife::new(MachineConfig { lockstep, ..cfg() }, prog());
    m.attach_tracer(TraceConfig::default());
    if let Some(plan) = plan {
        m.set_fault_plan(plan);
    }
    for i in 0..m.num_procs() {
        m.cpu_mut(i).boot(0);
    }
    drive_sequential(&mut m, &SwitchSpin::default(), MAX);
    m
}

/// Sanity-checks the merged traffic section of a quiesced run: every
/// offered request was injected or dropped, every injected request was
/// retired before the poison word, and the latency histogram holds one
/// sample per retirement with a finite tail quantile.
fn assert_traffic_sane(report: &StatsReport, who: &str) {
    let t = cfg().traffic.unwrap();
    let offered_expected = 2 * t.requests_per_edge as u64;
    let s = report.section("traffic").expect("traffic section present");
    let offered = s.get_counter("offered").unwrap();
    let injected = s.get_counter("injected").unwrap();
    let dropped = s.get_counter("dropped").unwrap();
    let retired = s.get_counter("retired").unwrap();
    assert_eq!(offered, offered_expected, "{who}: offered count");
    assert_eq!(injected + dropped, offered, "{who}: arrival accounting");
    assert_eq!(retired, injected, "{who}: ring drained before poison");
    assert!(retired > 0, "{who}: no requests retired");
    let hist = s.get_qhist("latency").expect("latency histogram present");
    assert_eq!(
        hist.count(),
        retired,
        "{who}: one latency sample per retire"
    );
    let p999 = hist.quantile(0.999);
    assert!(
        p999 > 0 && p999 < MAX,
        "{who}: p999 latency must be finite and positive, got {p999}"
    );
}

/// The core contract: lockstep is the reference; the event-driven skip
/// must reproduce its semantic trace (arrivals, drops, retires
/// included) and its stats report byte for byte.
fn assert_open_loop_equivalent(plan: Option<FaultPlan>) {
    let reference = run_seq(plan.clone(), true);
    assert_eq!(reference.fault(), None, "lockstep: fatal fault");
    assert!(reference.all_halted(), "lockstep: machine did not quiesce");
    let ref_trace = semantic(reference.collect_trace());
    let ref_report = reference.stats_report();
    let ref_json = ref_report.to_json();
    assert_traffic_sane(&ref_report, "lockstep");

    let skipping = run_seq(plan, false);
    assert_eq!(skipping.fault(), None, "event-driven: fatal fault");
    assert_eq!(
        ref_trace,
        semantic(skipping.collect_trace()),
        "event-driven: arrival/latency trace diverged"
    );
    assert_eq!(
        ref_json,
        skipping.stats_report().to_json(),
        "event-driven: latency report diverged"
    );
}

#[test]
fn arrival_trace_and_latency_report_identical_across_schedulers() {
    assert_open_loop_equivalent(None);
}

#[test]
fn fault_seed_with_retry_recovery_is_byte_identical() {
    // Same contract under message loss: drops force controller
    // retransmissions (recovery is enabled via the default retry
    // policy), which stretch individual service times — but the
    // stretched latencies must stretch identically everywhere.
    assert_open_loop_equivalent(Some(fault_plan()));
    // Prove the fault seed actually exercised the recovery machinery.
    let m = run_seq(Some(fault_plan()), true);
    let report = m.stats_report();
    let cache = report.section("cache").unwrap();
    let faults = report.section("faults").unwrap();
    assert!(faults.get_counter("dropped").unwrap() > 0, "no drops fired");
    assert!(
        cache.get_counter("retransmits").unwrap() > 0,
        "drops never forced a retransmit — recovery untested"
    );
}

#[test]
fn checkpoint_restore_resumes_open_loop_run_bit_exact() {
    // Unbroken reference: event-skipping run to quiescence.
    let reference = run_seq(None, false);
    let ref_trace = semantic(reference.collect_trace());
    let ref_json = reference.stats_report().to_json();

    // Cut the same run mid-workload — after some arrivals are in
    // flight, before the rings drain — and checkpoint. The snapshot
    // carries the per-edge-node SEC_TRAFFIC sections; the injection
    // cursor is recomputed from the plan at restore.
    let mut cut = Alewife::new(
        MachineConfig {
            lockstep: false,
            ..cfg()
        },
        prog(),
    );
    cut.attach_tracer(TraceConfig::default());
    for i in 0..cut.num_procs() {
        cut.cpu_mut(i).boot(0);
    }
    drive_sequential_until(&mut cut, &SwitchSpin::default(), 1_000, MAX);
    assert!(
        !cut.all_halted(),
        "checkpoint cycle must land mid-run for the test to mean anything"
    );
    let mid = cut.stats_report();
    let mid_traffic = mid.section("traffic").unwrap();
    assert!(
        mid_traffic.get_counter("injected").unwrap() > 0,
        "cut must land after the first injections"
    );
    let snap = cut.checkpoint().unwrap();

    // Resume on the lockstep scheduler.
    let mut lockstep = Alewife::new(
        MachineConfig {
            lockstep: true,
            ..cfg()
        },
        prog(),
    );
    lockstep.attach_tracer(TraceConfig::default());
    lockstep.restore(&snap).unwrap();
    drive_sequential(&mut lockstep, &SwitchSpin::default(), MAX);
    assert_eq!(
        ref_trace,
        semantic(lockstep.collect_trace()),
        "lockstep resume: trace diverged"
    );
    assert_eq!(
        ref_json,
        lockstep.stats_report().to_json(),
        "lockstep resume: report diverged"
    );
}

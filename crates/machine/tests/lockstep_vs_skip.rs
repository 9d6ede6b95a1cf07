//! Scheduler equivalence: the event-driven `advance()` must be
//! *bit-exact* with the strict cycle-by-cycle reference path, lockstep,
//! whose CPUs never park and never book a run, so every instruction
//! steps on its own cycle. Every workload here runs under the identical
//! [`SwitchSpin`] driver on both schedulers, and the machines must end
//! in bit-identical states: the same final memory
//! image (data words *and* full/empty bits), the same per-node
//! `CpuStats`/`CtlStats`/`DirStats`, the same per-node halt cycles, the
//! same network and fault-injection counters, and the same structured
//! fault — post-mortem included — for the watchdog workloads.
//!
//! Runs drain to full quiescence (every CPU halted, no protocol work
//! pending, network idle), so "final state" is well-defined: past
//! quiescence a machine can only tick time forward, never change state.

use april_core::isa::asm::assemble;
use april_core::program::Program;
use april_machine::alewife::Alewife;
use april_machine::config::MachineConfig;
use april_machine::driver::{drive_sequential, drive_sequential_until, SwitchSpin};
use april_machine::watchdog::{MachineFault, WatchdogConfig};
use april_machine::Machine;
use april_mem::{ProtocolError, RetryConfig};
use april_net::fault::{FaultPlan, FaultRule};
use april_net::topology::{Channel, Topology};
use april_obs::{validate_json, TraceConfig};

/// Builds, boots (all nodes), and drives one sequential machine.
fn run_seq(
    mut cfg: MachineConfig,
    prog: Program,
    plan: Option<FaultPlan>,
    lockstep: bool,
    max: u64,
) -> Alewife {
    cfg.lockstep = lockstep;
    let mut m = Alewife::new(cfg, prog);
    if let Some(plan) = plan {
        m.set_fault_plan(plan);
    }
    for i in 0..m.num_procs() {
        m.cpu_mut(i).boot(0);
    }
    drive_sequential(&mut m, &SwitchSpin::default(), max);
    m
}

/// Asserts the full-memory images (words and full/empty bits) match.
fn assert_same_memory(a: &april_mem::femem::FeMemory, b: &april_mem::femem::FeMemory, who: &str) {
    assert_eq!(a.len_bytes(), b.len_bytes());
    for addr in (0..a.len_bytes() as u32).step_by(4) {
        assert_eq!(
            a.word_state(addr),
            b.word_state(addr),
            "{who}: memory diverged at {addr:#x}"
        );
    }
}

/// Asserts an event-skipping run ended bit-identical to the lockstep
/// reference, cycle for cycle (the stop cycle included).
fn assert_seq_matches(reference: &Alewife, skipping: &Alewife, who: &str) {
    assert_eq!(
        reference.now(),
        skipping.now(),
        "{who}: halt/fault cycle diverged"
    );
    assert_eq!(
        reference.fault(),
        skipping.fault(),
        "{who}: fault outcome diverged"
    );
    for i in 0..reference.num_procs() {
        assert_eq!(
            reference.nodes[i].cpu.stats, skipping.nodes[i].cpu.stats,
            "{who}: node {i} CpuStats diverged"
        );
        assert_eq!(
            reference.nodes[i].ctl.stats, skipping.nodes[i].ctl.stats,
            "{who}: node {i} CtlStats diverged"
        );
        assert_eq!(
            reference.nodes[i].dir.stats, skipping.nodes[i].dir.stats,
            "{who}: node {i} DirStats diverged"
        );
    }
    assert_eq!(
        reference.halted_cycles(),
        skipping.halted_cycles(),
        "{who}: halt cycles diverged"
    );
    assert_eq!(
        reference.net_stats(),
        skipping.net_stats(),
        "{who}: network stats diverged"
    );
    assert_eq!(
        reference.fault_stats(),
        skipping.fault_stats(),
        "{who}: fault-injection stats diverged"
    );
    assert_same_memory(reference.mem(), skipping.mem(), who);
}

/// Runs `prog` under both schedulers and asserts bit-exact
/// equivalence: lockstep vs event-skip.
fn assert_equivalent(cfg: MachineConfig, prog: Program, plan: Option<FaultPlan>, max: u64) {
    let reference = run_seq(cfg, prog.clone(), plan.clone(), true, max);
    let skipping = run_seq(cfg, prog, plan, false, max);
    assert_seq_matches(&reference, &skipping, "skip");
}

/// The false-sharing increment stress of `coherence_stress.rs`.
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

fn stress_cfg() -> MachineConfig {
    MachineConfig {
        topology: Topology::new(2, 2),
        region_bytes: 1 << 20,
        ..MachineConfig::default()
    }
}

/// Like `stress_cfg`, but with a 2-cycle loopback: a node's messages
/// to itself arrive a cycle later than under the default timing.
fn slow_loopback_cfg() -> MachineConfig {
    MachineConfig {
        net: april_net::network::NetConfig {
            hop_latency: 1,
            loopback_latency: 2,
        },
        ..stress_cfg()
    }
}

#[test]
fn coherence_stress_is_cycle_exact() {
    assert_equivalent(stress_cfg(), stress_program(), None, 3_000_000);
}

#[test]
fn coherence_stress_is_cycle_exact_with_slow_loopback() {
    // Same stress with the local directory's replies one cycle slower.
    assert_equivalent(slow_loopback_cfg(), stress_program(), None, 3_000_000);
}

#[test]
fn coherence_stress_is_cycle_exact_on_a_larger_mesh() {
    // More nodes, longer remote-miss stalls: the regime where the
    // event-driven skip actually earns its keep.
    let cfg = MachineConfig {
        topology: Topology::new(2, 8),
        region_bytes: 1 << 20,
        ..MachineConfig::default()
    };
    assert_equivalent(cfg, stress_program(), None, 10_000_000);
}

#[test]
fn fault_soak_is_cycle_exact() {
    // Drops force controller retransmissions, dups exercise the dedup
    // paths, delays reorder packets: both schedulers must track every
    // retransmit deadline and fault verdict cycle for cycle.
    for seed in [0x50a1_u64, 2, 3] {
        let plan = FaultPlan::new(seed).with_default_rule(FaultRule {
            drop: 0.02,
            dup: 0.02,
            delay: 0.04,
            max_delay: 40,
        });
        assert_equivalent(stress_cfg(), stress_program(), Some(plan), 30_000_000);
    }
}

#[test]
fn fault_soak_is_cycle_exact_with_slow_loopback() {
    let plan = FaultPlan::new(0x50a1).with_default_rule(FaultRule {
        drop: 0.02,
        dup: 0.02,
        delay: 0.04,
        max_delay: 40,
    });
    assert_equivalent(
        slow_loopback_cfg(),
        stress_program(),
        Some(plan),
        30_000_000,
    );
}

/// The read fan-in of the `fanin_1089node` benchmark on a `radix`²
/// mesh under a limited-pointer directory: every node writes a private
/// block homed at node 0, then reads the one block everyone shares, so
/// most CPUs sit parked while node 0's directory serves the queue.
fn fan_in(radix: usize) -> (MachineConfig, Program) {
    let mut cfg = MachineConfig {
        topology: Topology::new(2, radix),
        region_bytes: 0x1_0000,
        ..MachineConfig::default()
    };
    cfg.dir.kind = april_mem::DirectoryKind::LimitedPtr { ptrs: 8 };
    let prog = assemble(
        "
        .entry main
        main:
            ldio 1, r8         ; node id (fixnum == 4*id)
            add r8, r8, r8
            add r8, r8, r8     ; 16*id: one whole block per node
            movi 0x1000, r9
            add r9, r8, r9     ; my private block
            movi 4, r10
            st r10, r9+0
            movi 0x200, r4
            ld r4+0, r11       ; the block everyone shares
            halt
        ",
    )
    .unwrap();
    (cfg, prog)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "1089 nodes: run in release (scripts/ci.sh)"
)]
fn fan_in_is_cycle_exact_at_1089_nodes() {
    let (cfg, prog) = fan_in(33);
    assert_equivalent(cfg, prog, None, 1_000_000);
}

#[test]
fn ledgers_read_mid_run_match_lockstep() {
    // The skip charges parked CPUs their idle cycles lazily, so every
    // reader of a ledger must add what is owed. Cut the fan-in while
    // most of its nodes are parked and hold the skip's readers to
    // lockstep's, whose CPUs never park: their ledgers are always
    // settled.
    let (cfg, prog) = fan_in(9);
    let driver = SwitchSpin::default();
    // Every report section but the network's, whose channel occupancy
    // is charged as hops are routed — which the skip does ahead of the
    // clock.
    let ledgers = |m: &Alewife| {
        let report = m.stats_report();
        let sections = report.sections().iter().filter(|s| s.name() != "net");
        (m.total_stats(), sections.cloned().collect::<Vec<_>>())
    };
    let cut_at = |lockstep: bool, cut: u64| {
        let mut m = Alewife::new(MachineConfig { lockstep, ..cfg }, prog.clone());
        m.boot_all();
        assert_eq!(drive_sequential_until(&mut m, &driver, cut, 100_000), None);
        assert!(m.now() == cut && !m.finished(), "cut {cut} is mid-run");
        m
    };
    for cut in [300, 700, 1100] {
        let settled = cut_at(true, cut);
        let skip = cut_at(false, cut);
        for i in 0..cfg.num_nodes() {
            let node = &settled.nodes[i].cpu.stats;
            assert_eq!(
                &settled.cpu_stats(i),
                node,
                "cut {cut}: lockstep owes node {i}"
            );
            assert_eq!(&skip.cpu_stats(i), node, "cut {cut}: node {i} ledger");
        }
        assert_eq!(
            ledgers(&skip),
            ledgers(&settled),
            "cut {cut}: total, report"
        );
    }
}

/// A 2-node machine where every packet leaving node 0 is dropped (as in
/// `fault_soak.rs`), parameterized by retry/watchdog policy.
fn dead_link(retry: RetryConfig, watchdog: WatchdogConfig) -> (MachineConfig, Program, FaultPlan) {
    let cfg = MachineConfig {
        topology: Topology::new(1, 2),
        region_bytes: 1 << 20,
        ctl: april_mem::CtlConfig {
            retry,
            ..april_mem::CtlConfig::default()
        },
        dir: april_mem::DirConfig {
            retry,
            ..april_mem::DirConfig::default()
        },
        watchdog,
        ..MachineConfig::default()
    };
    let prog = assemble(
        "
        movi 0x100000, r1
        ld r1+0, r2
        halt
        ",
    )
    .unwrap();
    let plan = FaultPlan::new(0xdead)
        .with_channel_rule(
            Channel {
                node: 0,
                dim: 0,
                plus: true,
            },
            FaultRule::drop(1.0),
        )
        .with_channel_rule(
            Channel {
                node: 0,
                dim: 0,
                plus: false,
            },
            FaultRule::drop(1.0),
        );
    (cfg, prog, plan)
}

#[test]
fn watchdog_fires_at_the_identical_cycle() {
    // With no retries, the only future event on the dead link is the
    // watchdog itself. The equivalence check covers the structured
    // fault, including the post-mortem's cycle, in-flight list, and
    // per-node entries.
    let wd = WatchdogConfig {
        enabled: true,
        horizon: 3_000,
    };
    let (cfg, prog, plan) = dead_link(RetryConfig::disabled(), wd);
    assert_equivalent(cfg, prog.clone(), Some(plan.clone()), 200_000);
    // And the fault really is the watchdog.
    let m = run_seq(cfg, prog, Some(plan), false, 200_000);
    assert!(
        matches!(m.fault(), Some(MachineFault::NoForwardProgress(_))),
        "expected a watchdog fault, got {:?}",
        m.fault()
    );
}

#[test]
fn retries_exhaust_at_the_identical_cycle() {
    // With retries enabled, the controller's retransmit deadlines are
    // the machine's only heartbeat: the skip must stop at each backoff
    // expiry so the RetriesExhausted fault lands on the same cycle.
    let retry = RetryConfig {
        enabled: true,
        timeout: 50,
        backoff_cap: 200,
        max_retries: 5,
    };
    let wd = WatchdogConfig {
        enabled: true,
        horizon: 100_000,
    };
    let (cfg, prog, plan) = dead_link(retry, wd);
    assert_equivalent(cfg, prog.clone(), Some(plan.clone()), 500_000);
    let m = run_seq(cfg, prog, Some(plan), false, 500_000);
    assert!(
        matches!(
            m.fault(),
            Some(MachineFault::Protocol {
                node: 0,
                error: ProtocolError::RetriesExhausted {
                    block: 0x100000,
                    retries: 5,
                    ..
                },
            })
        ),
        "expected retries-exhausted on node 0, got {:?}",
        m.fault()
    );
}

#[test]
fn quiescent_machine_skips_without_diverging() {
    // A machine that halts immediately: both schedulers must sit
    // still, never fire the watchdog, and agree on every counter.
    let cfg = MachineConfig {
        topology: Topology::new(1, 2),
        region_bytes: 1 << 20,
        watchdog: WatchdogConfig {
            enabled: true,
            horizon: 500,
        },
        ..MachineConfig::default()
    };
    let prog = assemble("halt").unwrap();
    let mut lockstep = Alewife::new(
        MachineConfig {
            lockstep: true,
            ..cfg
        },
        prog.clone(),
    );
    let mut skipping = Alewife::new(cfg, prog.clone());
    lockstep.boot();
    skipping.boot();
    for _ in 0..5_000 {
        lockstep.advance();
        skipping.advance();
    }
    assert_eq!(lockstep.fault(), None);
    assert_eq!(skipping.fault(), None);
    assert_eq!(lockstep.nodes[0].cpu.stats, skipping.nodes[0].cpu.stats);
    assert_eq!(lockstep.nodes[1].cpu.stats, skipping.nodes[1].cpu.stats);
}

#[test]
fn lockstep_steps_every_instruction_and_ledgers_show_it() {
    // A straight-line ALU loop of single-cycle ops retires exactly one
    // instruction per cycle. Lockstep never books a run, so its CPU's
    // own count keeps step with the clock after every advance; the
    // skip books the loop body, and its ledger reader adds what the
    // open run has executed so far.
    let body = "add r1, 1, r1\nxor r2, r1, r2\n".repeat(8);
    let prog = assemble(&format!("top:\n{body}jmp top\nnop\n")).unwrap();
    let cfg = MachineConfig {
        topology: Topology::new(1, 2),
        region_bytes: 1 << 20,
        ..MachineConfig::default()
    };
    for lockstep in [true, false] {
        let mut m = Alewife::new(MachineConfig { lockstep, ..cfg }, prog.clone());
        m.boot();
        while m.now() < 300 {
            // Node 1 never boots: park it, so the skip jumps the runs.
            for (i, _) in m.advance() {
                m.charge_idle(i, 1);
            }
            if lockstep {
                assert_eq!(m.nodes[0].cpu.stats.instructions, m.now());
            }
            let ledger = m.cpu_stats(0);
            assert_eq!(ledger.instructions, m.now(), "lockstep={lockstep}");
            assert_eq!(ledger.useful_cycles, m.now(), "lockstep={lockstep}");
        }
    }
}

/// Like [`run_seq`], with event probes attached before boot.
fn run_seq_traced(
    mut cfg: MachineConfig,
    prog: Program,
    plan: Option<FaultPlan>,
    lockstep: bool,
    max: u64,
    tc: TraceConfig,
) -> Alewife {
    cfg.lockstep = lockstep;
    let mut m = Alewife::new(cfg, prog);
    m.attach_tracer(tc);
    if let Some(plan) = plan {
        m.set_fault_plan(plan);
    }
    for i in 0..m.num_procs() {
        m.cpu_mut(i).boot(0);
    }
    drive_sequential(&mut m, &SwitchSpin::default(), max);
    m
}

/// Runs `prog` under both schedulers with probes attached and asserts
/// the observability contract: the semantic trace (JSONL, after
/// dropping the scheduler-internal meta lane) and the `StatsReport`
/// JSON are byte-identical across lockstep and event-driven runs.
fn assert_obs_equivalent(
    cfg: MachineConfig,
    prog: Program,
    plan: Option<FaultPlan>,
    max: u64,
    tc: TraceConfig,
) {
    let reference = run_seq_traced(cfg, prog.clone(), plan.clone(), true, max, tc);
    let mut ref_trace = reference.collect_trace();
    ref_trace.retain_semantic();
    let ref_jsonl = ref_trace.to_jsonl();
    let ref_report = reference.stats_report().to_json();
    assert!(
        !ref_trace.events().is_empty(),
        "reference trace is empty — the workload exercised no probes"
    );

    let skipping = run_seq_traced(cfg, prog, plan, false, max, tc);
    let mut t = skipping.collect_trace();
    t.retain_semantic();
    assert_eq!(ref_jsonl, t.to_jsonl(), "event-driven trace diverged");
    assert_eq!(
        ref_report,
        skipping.stats_report().to_json(),
        "event-driven report diverged"
    );
}

#[test]
fn trace_and_report_identical_across_schedulers() {
    // Two fault seeds over the coherence stress: drops, dups, and
    // delays give every lane real traffic (cache misses, NACKs,
    // retransmits, directory transitions, hop/drop/dup/delay events)
    // while both schedulers must still produce byte-identical traces
    // and reports.
    for seed in [0x50a1_u64, 7] {
        let plan = FaultPlan::new(seed).with_default_rule(FaultRule {
            drop: 0.02,
            dup: 0.02,
            delay: 0.04,
            max_delay: 40,
        });
        assert_obs_equivalent(
            stress_cfg(),
            stress_program(),
            Some(plan),
            30_000_000,
            TraceConfig::default(),
        );
    }
    // And with a 2-cycle loopback.
    let plan = FaultPlan::new(0x50a1).with_default_rule(FaultRule {
        drop: 0.02,
        dup: 0.02,
        delay: 0.04,
        max_delay: 40,
    });
    assert_obs_equivalent(
        slow_loopback_cfg(),
        stress_program(),
        Some(plan),
        30_000_000,
        TraceConfig::default(),
    );
}

#[test]
fn sampled_trace_identical_across_schedulers() {
    // Sampling decisions are pure hashes of event content, so a 25%
    // sample must keep exactly the same events under every scheduler.
    let tc = TraceConfig {
        sample: 0.25,
        seed: 0xfeed,
        ..TraceConfig::default()
    };
    let plan = FaultPlan::new(2).with_default_rule(FaultRule {
        drop: 0.02,
        dup: 0.02,
        delay: 0.04,
        max_delay: 40,
    });
    assert_obs_equivalent(stress_cfg(), stress_program(), Some(plan), 30_000_000, tc);

    // The sample rate actually bites: a full-rate run emits strictly
    // more retained events.
    let full = run_seq_traced(
        stress_cfg(),
        stress_program(),
        None,
        false,
        3_000_000,
        TraceConfig::default(),
    );
    let sampled = run_seq_traced(stress_cfg(), stress_program(), None, false, 3_000_000, tc);
    let full_trace = full.collect_trace();
    let sampled_trace = sampled.collect_trace();
    assert_eq!(full_trace.sampled_out(), 0);
    assert!(
        sampled_trace.sampled_out() > 0,
        "25% sampling discarded nothing"
    );
    assert!(sampled_trace.events().len() < full_trace.events().len());
}

#[test]
fn chrome_trace_of_16_node_run_is_valid_json() {
    // A 16-node mesh run exported as Chrome trace_event JSON: the
    // whole document must parse as strict JSON, and so must every
    // JSONL line.
    let cfg = MachineConfig {
        topology: Topology::new(2, 4),
        region_bytes: 1 << 16,
        ..MachineConfig::default()
    };
    let m = run_seq_traced(
        cfg,
        stress_program(),
        None,
        false,
        10_000_000,
        TraceConfig::default(),
    );
    let trace = m.collect_trace();
    assert!(!trace.events().is_empty());
    let chrome = m.collect_trace().to_chrome_trace();
    validate_json(&chrome).expect("chrome trace is valid JSON");
    for line in trace.to_jsonl().lines() {
        validate_json(line).expect("JSONL line is valid JSON");
    }
    // The report snapshot is valid JSON too, and carries the headline
    // utilization gauge.
    let report = m.stats_report();
    validate_json(&report.to_json()).expect("report is valid JSON");
    assert!(report
        .section("cpu")
        .unwrap()
        .get_gauge("utilization")
        .is_some());
}

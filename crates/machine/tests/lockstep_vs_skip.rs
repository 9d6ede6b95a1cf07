//! Three-way scheduler equivalence: the event-driven `advance()` and
//! the conservative-window parallel machine must both be *bit-exact*
//! with the strict cycle-by-cycle reference path. Every workload here
//! runs under the identical [`SwitchSpin`] driver on all three
//! schedulers (the parallel one at several worker counts), and the
//! machines must end in bit-identical states: the same final memory
//! image (data words *and* full/empty bits), the same per-node
//! `CpuStats`/`CtlStats`/`DirStats`, the same per-node halt cycles, the
//! same network and fault-injection counters, and the same structured
//! fault — post-mortem included — for the watchdog workloads.
//!
//! Runs drain to full quiescence (every CPU halted, no protocol work
//! pending, network idle), so "final state" is well-defined even though
//! the schedulers' clocks stop at different cycles: past quiescence a
//! machine can only tick time forward, never change state.

use april_core::isa::asm::assemble;
use april_core::program::Program;
use april_machine::alewife::Alewife;
use april_machine::config::MachineConfig;
use april_machine::driver::{drive_sequential, drive_sequential_until, SwitchSpin};
use april_machine::parallel::ParallelAlewife;
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

/// Builds, boots (all nodes), and runs one parallel machine.
fn run_par(
    mut cfg: MachineConfig,
    prog: Program,
    plan: Option<FaultPlan>,
    workers: usize,
    max: u64,
) -> ParallelAlewife {
    cfg.workers = workers;
    let mut m = ParallelAlewife::new(cfg, prog);
    if let Some(plan) = plan {
        m.set_fault_plan(plan);
    }
    for i in 0..m.num_procs() {
        m.cpu_mut(i).boot(0);
    }
    m.run(&SwitchSpin::default(), max);
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

/// Asserts a parallel run ended bit-identical to the lockstep
/// reference.
fn assert_par_matches(reference: &Alewife, par: &ParallelAlewife, workers: usize) {
    let who = format!("parallel x{workers}");
    assert_eq!(
        reference.fault(),
        par.fault(),
        "{who}: fault outcome diverged"
    );
    for i in 0..reference.nodes.len() {
        assert_eq!(
            reference.nodes[i].cpu.stats,
            par.node(i).cpu.stats,
            "{who}: node {i} CpuStats diverged"
        );
        assert_eq!(
            reference.nodes[i].ctl.stats,
            par.node(i).ctl.stats,
            "{who}: node {i} CtlStats diverged"
        );
        assert_eq!(
            reference.nodes[i].dir.stats,
            par.node(i).dir.stats,
            "{who}: node {i} DirStats diverged"
        );
    }
    assert_eq!(
        reference.halted_cycles(),
        par.halted_cycles(),
        "{who}: halt cycles diverged"
    );
    assert_eq!(
        reference.net_stats(),
        par.net_stats(),
        "{who}: network stats diverged"
    );
    assert_eq!(
        reference.fault_stats(),
        par.fault_stats(),
        "{who}: fault-injection stats diverged"
    );
    assert_same_memory(reference.mem(), par.mem(), &who);
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

/// Runs `prog` under all three schedulers and asserts bit-exact
/// equivalence: lockstep vs event-skip, with the decode engine and
/// with `decode: false` (the per-instruction interpreter the engine
/// falls back to), and lockstep vs parallel at 2 and 3 workers (full
/// final state; the parallel clock may coast a partial window past the
/// sequential stop cycle, so `now` itself is not compared).
fn assert_equivalent(cfg: MachineConfig, prog: Program, plan: Option<FaultPlan>, max: u64) {
    let reference = run_seq(cfg, prog.clone(), plan.clone(), true, max);
    let skipping = run_seq(cfg, prog.clone(), plan.clone(), false, max);
    assert_seq_matches(&reference, &skipping, "skip");
    let mut decode_off = cfg;
    decode_off.decode = false;
    let interpreted = run_seq(decode_off, prog.clone(), plan.clone(), false, max);
    assert_seq_matches(&reference, &interpreted, "skip, decode off");

    for workers in [2, 3] {
        let par = run_par(cfg, prog.clone(), plan.clone(), workers, max);
        assert_par_matches(&reference, &par, workers);
    }
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

/// Like `stress_cfg`, but with a 2-cycle loopback so the parallel
/// scheduler earns full-width (2-cycle) windows; the default 1-cycle
/// loopback caps the lookahead — and thus the window — at 1.
fn wide_window_cfg() -> MachineConfig {
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
fn coherence_stress_is_cycle_exact_with_wide_windows() {
    // Same stress under a 2-cycle conservative window: the parallel
    // barrier merge now batches two cycles of staged sends at a time.
    assert_equivalent(wide_window_cfg(), stress_program(), None, 3_000_000);
}

#[test]
fn coherence_stress_is_cycle_exact_on_a_larger_mesh() {
    // More nodes, longer remote-miss stalls: the regime where the
    // event-driven skip actually earns its keep, and where the
    // parallel shards (64 nodes over 2 and 3 workers) carry uneven
    // node counts.
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
    // paths, delays reorder packets: every scheduler must track every
    // retransmit deadline and fault verdict cycle for cycle. The
    // parallel machine additionally proves that the deterministic
    // merge order reproduces the sequential packet ids — the fault
    // RNG draws hang off them.
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
fn fault_soak_is_cycle_exact_with_wide_windows() {
    let plan = FaultPlan::new(0x50a1).with_default_rule(FaultRule {
        drop: 0.02,
        dup: 0.02,
        delay: 0.04,
        max_delay: 40,
    });
    assert_equivalent(wide_window_cfg(), stress_program(), Some(plan), 30_000_000);
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
    // The sequential schedulers charge parked CPUs their idle cycles
    // lazily, so every reader of a ledger must add what is owed. Cut the
    // fan-in while most of its nodes are parked and hold lockstep's and
    // the skip's readers to the window scheduler's, whose shards never
    // park: their ledgers are always settled.
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
    for cut in [300, 700, 1100] {
        let mut settled = ParallelAlewife::new(MachineConfig { workers: 2, ..cfg }, prog.clone());
        settled.boot_all();
        assert_eq!(settled.run_until(&driver, cut, 100_000), None);
        for lockstep in [true, false] {
            let mut m = Alewife::new(MachineConfig { lockstep, ..cfg }, prog.clone());
            m.boot_all();
            assert_eq!(drive_sequential_until(&mut m, &driver, cut, 100_000), None);
            assert!(m.now() == cut && !m.finished(), "cut {cut} is mid-run");
            for i in 0..cfg.num_nodes() {
                let node = &settled.node(i).cpu.stats;
                assert_eq!(&m.cpu_stats(i), node, "cut {cut}: node {i} ledger");
            }
            assert_eq!(ledgers(&m), ledgers(&settled), "cut {cut}: total, report");
        }
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
    // per-node fragments — the parallel machine assembles its
    // post-mortem from shard fragments and must produce the identical
    // report.
    let wd = WatchdogConfig {
        enabled: true,
        horizon: 3_000,
    };
    let (cfg, prog, plan) = dead_link(RetryConfig::disabled(), wd);
    assert_equivalent(cfg, prog.clone(), Some(plan.clone()), 200_000);
    // And the fault really is the watchdog, on all schedulers.
    let m = run_seq(cfg, prog.clone(), Some(plan.clone()), false, 200_000);
    assert!(
        matches!(m.fault(), Some(MachineFault::NoForwardProgress(_))),
        "expected a watchdog fault, got {:?}",
        m.fault()
    );
    let p = run_par(cfg, prog, Some(plan), 2, 200_000);
    assert!(
        matches!(p.fault(), Some(MachineFault::NoForwardProgress(_))),
        "expected a watchdog fault in parallel mode, got {:?}",
        p.fault()
    );
}

#[test]
fn retries_exhaust_at_the_identical_cycle() {
    // With retries enabled, the controller's retransmit deadlines are
    // the machine's only heartbeat: every scheduler must stop at each
    // backoff expiry so the RetriesExhausted fault lands on the same
    // cycle — the parallel machine shrinks its window to end on it.
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
    // A machine that halts immediately: all schedulers must sit still,
    // never fire the watchdog, and agree on every counter.
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
    // The parallel run drains to quiescence: with both nodes booted
    // into an immediate halt, it stops on its own and agrees.
    let par = run_par(cfg, prog, None, 2, 10_000);
    assert_eq!(par.fault(), None);
    assert!(par.cpu(0).is_halted() && par.cpu(1).is_halted());
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

/// Like [`run_par`], with event probes attached before boot.
fn run_par_traced(
    mut cfg: MachineConfig,
    prog: Program,
    plan: Option<FaultPlan>,
    workers: usize,
    max: u64,
    tc: TraceConfig,
) -> ParallelAlewife {
    cfg.workers = workers;
    let mut m = ParallelAlewife::new(cfg, prog);
    m.attach_tracer(tc);
    if let Some(plan) = plan {
        m.set_fault_plan(plan);
    }
    for i in 0..m.num_procs() {
        m.cpu_mut(i).boot(0);
    }
    m.run(&SwitchSpin::default(), max);
    m
}

/// Runs `prog` under all three schedulers with probes attached and
/// asserts the observability contract: the semantic trace (JSONL, after
/// dropping the scheduler-internal meta lane) and the `StatsReport`
/// JSON are byte-identical across lockstep, event-driven, and parallel
/// runs at every worker count.
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

    let skipping = run_seq_traced(cfg, prog.clone(), plan.clone(), false, max, tc);
    let mut t = skipping.collect_trace();
    t.retain_semantic();
    assert_eq!(ref_jsonl, t.to_jsonl(), "event-driven trace diverged");
    assert_eq!(
        ref_report,
        skipping.stats_report().to_json(),
        "event-driven report diverged"
    );

    for workers in [2, 3] {
        let par = run_par_traced(cfg, prog.clone(), plan.clone(), workers, max, tc);
        let mut t = par.collect_trace();
        t.retain_semantic();
        assert_eq!(
            ref_jsonl,
            t.to_jsonl(),
            "parallel x{workers} trace diverged"
        );
        assert_eq!(
            ref_report,
            par.stats_report().to_json(),
            "parallel x{workers} report diverged"
        );
    }
}

#[test]
fn trace_and_report_identical_across_schedulers() {
    // Two fault seeds over the coherence stress: drops, dups, and
    // delays give every lane real traffic (cache misses, NACKs,
    // retransmits, directory transitions, hop/drop/dup/delay events)
    // while the three schedulers must still produce byte-identical
    // traces and reports.
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
    // And with 2-cycle conservative windows, where the parallel
    // barrier merge batches two cycles of staged sends at a time.
    let plan = FaultPlan::new(0x50a1).with_default_rule(FaultRule {
        drop: 0.02,
        dup: 0.02,
        delay: 0.04,
        max_delay: 40,
    });
    assert_obs_equivalent(
        wide_window_cfg(),
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

#[test]
fn worker_count_does_not_change_the_run() {
    // Satellite determinism check: the same seed at 1, 2, 4, and 5
    // workers (5 does not divide the 64 nodes — uneven shards) must
    // produce identical cycle counts, CpuStats, fault stats, and the
    // identical full/empty memory image.
    let cfg = MachineConfig {
        topology: Topology::new(2, 8),
        region_bytes: 1 << 16,
        net: april_net::network::NetConfig {
            hop_latency: 1,
            loopback_latency: 2,
        },
        ..MachineConfig::default()
    };
    let plan = FaultPlan::new(0xc0de).with_default_rule(FaultRule {
        drop: 0.01,
        dup: 0.01,
        delay: 0.02,
        max_delay: 24,
    });
    let base = run_par(cfg, stress_program(), Some(plan.clone()), 1, 30_000_000);
    for workers in [2, 4, 5] {
        let other = run_par(
            cfg,
            stress_program(),
            Some(plan.clone()),
            workers,
            30_000_000,
        );
        assert_eq!(base.fault(), other.fault(), "x{workers}: fault diverged");
        assert_eq!(
            base.halted_cycles(),
            other.halted_cycles(),
            "x{workers}: halt cycles diverged"
        );
        for i in 0..base.num_procs() {
            assert_eq!(
                base.node(i).cpu.stats,
                other.node(i).cpu.stats,
                "x{workers}: node {i} CpuStats diverged"
            );
        }
        assert_eq!(
            base.fault_stats(),
            other.fault_stats(),
            "x{workers}: fault stats diverged"
        );
        assert_eq!(
            base.net_stats(),
            other.net_stats(),
            "x{workers}: net stats diverged"
        );
        assert_same_memory(base.mem(), other.mem(), &format!("x{workers}"));
    }
}

//! Benchmarks of the simulator's hot paths: these bound how big an
//! APRIL workload the repository can simulate per second.
//!
//! Self-contained timing harness (no external bench framework): each
//! benchmark runs its body in batches until ~0.2 s has elapsed and
//! reports the best per-iteration time. Run with `cargo bench`.

use april_core::cpu::{Cpu, CpuConfig, StepEvent};
use april_core::decoded::DecodedProgram;
use april_core::frame::FrameState;
use april_core::isa::asm::assemble;
use april_core::memport::{AccessCtx, LoadReply, MemoryPort, StoreReply};
use april_core::program::Program;
use april_core::trap::Trap;
use april_core::word::Word;
use april_machine::alewife::Alewife;
use april_machine::config::MachineConfig;
use april_machine::Machine;
use april_mem::cache::{Cache, CacheConfig, LineState};
use april_mem::directory::Directory;
use april_mem::femem::FeMemory;
use april_net::fault::{FaultPlan, FaultRule};
use april_net::network::{NetConfig, Network};
use april_net::topology::Topology;
use std::hint::black_box;
use std::time::Instant;

/// Times `f` (which performs `elems` logical operations per call) and
/// prints a `name: ns/op` line.
fn bench(name: &str, elems: u64, mut f: impl FnMut()) {
    // Warm up.
    f();
    let mut best = f64::INFINITY;
    let deadline = Instant::now() + std::time::Duration::from_millis(200);
    while Instant::now() < deadline {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt / elems as f64);
    }
    println!("{name:<28} {:>10.1} ns/op", best * 1e9);
}

struct NullMem;
impl MemoryPort for NullMem {
    fn load(&mut self, _: u32, _: april_core::isa::LoadFlavor, _: AccessCtx) -> LoadReply {
        LoadReply::Data {
            word: Word::ZERO,
            fe: true,
        }
    }
    fn store(
        &mut self,
        _: u32,
        _: Word,
        _: april_core::isa::StoreFlavor,
        _: AccessCtx,
    ) -> StoreReply {
        StoreReply::Done { fe: false }
    }
}

fn bench_cpu_step() {
    let prog = assemble(
        "
        top:
            add r1, 1, r1
            sub r2, 1, r2
            xor r3, r1, r3
            jmp top
            nop
        ",
    )
    .unwrap();
    let mut cpu = Cpu::new(CpuConfig::default());
    cpu.boot(0);
    bench("cpu/step_alu", 1000, || {
        for _ in 0..1000 {
            cpu.step(&prog, &mut NullMem);
        }
    });
}

/// Decode-engine dispatch: a 64-op safe straight-line run executed
/// through the flat bytecode (one `bookable_run` + `run_decoded` per
/// block, then two `step`s for the loop-closing jump and its delay
/// slot) against the same block walked instruction by instruction
/// through `Cpu::step`. The gap between the two lines is what
/// DESIGN.md §13 buys per visited cycle.
fn bench_decoded_dispatch() {
    let body = "add r1, 1, r1\n".repeat(64);
    let prog = assemble(&format!("top:\n{body}jmp top\n nop\n")).unwrap();
    let dec = DecodedProgram::lower(&prog);
    let mut cpu = Cpu::new(CpuConfig::default());
    cpu.boot(0);
    // 64 booked ops, then the jump *and its delay slot* through `step`:
    // `bookable_run` reports 0 until the slot has retired, so stepping
    // only the jump would skip every second block.
    bench("decoded/run_64", 16 * 66, || {
        for _ in 0..16 {
            let k = cpu.bookable_run(&dec);
            cpu.run_decoded(&dec, k);
            cpu.step(&prog, &mut NullMem);
            cpu.step(&prog, &mut NullMem);
        }
    });
    let mut cpu = Cpu::new(CpuConfig::default());
    cpu.boot(0);
    bench("decoded/step_64_baseline", 16 * 66, || {
        for _ in 0..16 * 66 {
            cpu.step(&prog, &mut NullMem);
        }
    });
}

fn bench_memory() {
    let mut cache = Cache::new(CacheConfig::default());
    cache.fill(0x40, LineState::Modified);
    bench("mem/cache_hit", 1000, || {
        for i in 0..1000u32 {
            black_box(cache.access(0x40 + (i & 3) * 4, i & 1 == 0));
        }
    });
    bench("mem/cache_miss_fill", 1000, || {
        let mut cache = Cache::new(CacheConfig::default());
        for i in 0..1000u32 {
            let a = i * 16;
            if !cache.access(a, false) {
                cache.fill(a, LineState::Shared);
            }
        }
    });
    let mut mem = FeMemory::new(64 * 1024);
    let f = april_core::isa::LoadFlavor::from_mnemonic("ldett").unwrap();
    bench("mem/femem_fe_load", 1000, || {
        for i in 0..1000u32 {
            let a = (i % 1024) * 4;
            black_box(mem.apply_load(a, f));
            mem.set_fe(a, true);
        }
    });
}

fn bench_directory() {
    bench("directory/rd_wr_inval", 64, || {
        let mut d = Directory::new();
        for block in (0..64u32).map(|i| i * 16) {
            d.handle_request(1, block, false, 1);
            d.handle_request(2, block, false, 2);
            let out = d.handle_request(3, block, true, 3);
            for (dst, msg) in out {
                let ack = april_mem::msg::CohMsg::InvAck {
                    block: msg.block().unwrap(),
                    xid: msg.xid().unwrap(),
                };
                d.handle_ack(dst, ack).unwrap();
            }
        }
    });
}

fn bench_network() {
    bench("net/send_deliver_256", 256, || {
        let mut net = Network::<u32>::new(Topology::new(3, 6), NetConfig::default());
        let n = net.topology().num_nodes();
        for i in 0..256usize {
            net.send(0, i % n, (i * 37 + 5) % n, 4, i as u32);
        }
        let mut t = 0;
        let mut delivered = Vec::new();
        while !net.is_idle() {
            t += 1;
            delivered.clear();
            net.poll_into(t, &mut delivered);
            black_box(&delivered);
        }
    });
}

fn bench_toolchain() {
    let src = "
        movi 10, r1
    loop:
        sub r1, 1, r1
        jne loop
        nop
        halt
    ";
    bench("toolchain/assemble_loop", 1, || {
        black_box(assemble(black_box(src)).unwrap());
    });
    let fib = april_mult::programs::fib(10);
    let opts = april_mult::CompileOptions::april();
    bench("toolchain/compile_fib", 1, || {
        black_box(april_mult::compile(black_box(&fib), &opts).unwrap());
    });
}

// ---------------------------------------------------------------------
// Whole-machine workloads: simulated cycles per wall-second, lockstep
// versus event-driven, emitted as BENCH_hotpaths.json so the perf
// trajectory is tracked from PR to PR.
// ---------------------------------------------------------------------

/// The switch-spin driver the machine test suites use. Returns the
/// number of `advance()` calls — the cycles actually visited, which is
/// what the event-driven skip reduces.
fn drive(m: &mut Alewife, max: u64) -> u64 {
    let mut advances = 0;
    let mut evs = Vec::new();
    loop {
        assert!(m.now() < max, "bench workload timed out at {}", m.now());
        if m.fault().is_some() {
            return advances;
        }
        if (0..m.num_procs()).all(|i| m.cpu(i).is_halted()) {
            return advances;
        }
        advances += 1;
        m.advance_into(&mut evs);
        for (i, ev) in evs.drain(..) {
            match ev {
                StepEvent::Trapped(Trap::RemoteMiss { .. }) => {
                    let fp = m.cpu(i).fp();
                    let fr = m.cpu_mut(i).frame_mut(fp);
                    fr.state = FrameState::WaitingRemote;
                    fr.psr.in_trap = false;
                    m.charge_handler(i, 6);
                }
                StepEvent::Trapped(t) => panic!("node {i}: {t}"),
                StepEvent::NoReadyFrame => {
                    let cpu = m.cpu_mut(i);
                    match cpu.next_ready_frame() {
                        Some(f) => cpu.set_fp(f),
                        None => m.charge_idle(i, 1),
                    }
                }
                _ => {}
            }
        }
    }
}

/// All nodes increment their own word of one block homed at node 0,
/// flushing the line after every store: each iteration is a remote
/// read miss plus a write-upgrade miss, both full protocol round trips
/// serialized through node 0's directory, so every processor spends
/// nearly all of its time switched out waiting — the stall-dominated
/// regime the event-driven skip targets.
fn stall_heavy_program(iters: u32) -> Program {
    assemble(&format!(
        "
        .entry main
        main:
            ldio 1, r8         ; node id (fixnum == 4*id: byte offset!)
            movi 0x200, r9
            add r9, r8, r9     ; my word within the shared block
            movi {iters}, r10
        loop:
            ld r9+0, r11       ; remote read miss
            add r11, 4, r11    ; increment (fixnum +1)
            st r11, r9+0       ; write-upgrade miss
            flush r9+0         ; evict: the next ld misses again
            sub r10, 1, r10
            jne loop
            nop
            halt
        ",
    ))
    .unwrap()
}

/// Every node grinds a long straight-line ALU body between loop
/// branches, all frames resident, no remote traffic: the
/// compute-bound regime where the decode engine's booked runs carry
/// whole 64-op blocks per visited cycle. The counterpoint to
/// `stall_heavy_16node`, whose visited cycles are protocol-bound and
/// book nothing.
fn compute_program(iters: u32) -> Program {
    let body = "add r1, 4, r1\nxor r2, r1, r2\nsub r3, 4, r3\nadd r4, r2, r4\n".repeat(8);
    assemble(&format!(
        "
        .entry main
        main:
            movi {iters}, r10
        loop:
            {body}
            sub r10, 1, r10
            jne loop
            nop
            halt
        ",
    ))
    .unwrap()
}

/// Runs one workload in one mode; returns (simulated cycles, wall s,
/// cycles actually visited).
fn run_mode(
    mut cfg: MachineConfig,
    prog: &Program,
    plan: Option<&FaultPlan>,
    lockstep: bool,
    decode: bool,
    max: u64,
) -> (u64, f64, u64) {
    cfg.lockstep = lockstep;
    cfg.decode = decode;
    let mut m = Alewife::new(cfg, prog.clone());
    if let Some(plan) = plan {
        m.set_fault_plan(plan.clone());
    }
    for i in 0..m.num_procs() {
        m.cpu_mut(i).boot(0);
    }
    let t0 = Instant::now();
    let advances = drive(&mut m, max);
    (m.now(), t0.elapsed().as_secs_f64(), advances)
}

struct MachineBench {
    name: &'static str,
    cycles: u64,
    /// Cycles the event-driven path actually visited (advance calls).
    visited: u64,
    lockstep_wall: f64,
    event_wall: f64,
    /// Event-driven with the decode engine forced off: the legacy
    /// per-instruction interpreter on every visited cycle.
    event_nodecode_wall: f64,
}

impl MachineBench {
    fn lockstep_cps(&self) -> f64 {
        self.cycles as f64 / self.lockstep_wall
    }
    fn event_cps(&self) -> f64 {
        self.cycles as f64 / self.event_wall
    }
    fn event_nodecode_cps(&self) -> f64 {
        self.cycles as f64 / self.event_nodecode_wall
    }
    fn speedup(&self) -> f64 {
        self.lockstep_wall / self.event_wall
    }
    fn decode_speedup(&self) -> f64 {
        self.event_nodecode_wall / self.event_wall
    }
}

fn run_machine_workload(
    name: &'static str,
    cfg: MachineConfig,
    prog: Program,
    plan: Option<FaultPlan>,
    max: u64,
) -> MachineBench {
    // Best-of-3 per mode: machine time is deterministic, wall time is
    // not (shared hardware), and a quotient of two noisy walls is worse.
    let mut t_lock = f64::INFINITY;
    let mut t_evt = f64::INFINITY;
    let mut t_evt_nodec = f64::INFINITY;
    let mut c_lock = 0;
    let mut c_evt = 0;
    let mut c_evt_nodec = 0;
    let mut visited = 0;
    for _ in 0..3 {
        let (c, t, _) = run_mode(cfg, &prog, plan.as_ref(), true, true, max);
        c_lock = c;
        t_lock = t_lock.min(t);
        let (c, t, v) = run_mode(cfg, &prog, plan.as_ref(), false, true, max);
        c_evt = c;
        visited = v;
        t_evt = t_evt.min(t);
        let (c, t, _) = run_mode(cfg, &prog, plan.as_ref(), false, false, max);
        c_evt_nodec = c;
        t_evt_nodec = t_evt_nodec.min(t);
    }
    assert_eq!(
        c_lock, c_evt,
        "{name}: lockstep and event-driven disagree on the final cycle"
    );
    assert_eq!(
        c_evt, c_evt_nodec,
        "{name}: decode engine on/off disagree on the final cycle"
    );
    MachineBench {
        name,
        cycles: c_lock,
        visited,
        lockstep_wall: t_lock,
        event_wall: t_evt,
        event_nodecode_wall: t_evt_nodec,
    }
}

fn machine_workloads(smoke: bool) -> Vec<MachineBench> {
    // Smoke mode (CI) shrinks the iteration counts, not the shapes.
    let iters = if smoke { 20 } else { 200 };
    vec![
        // 16 nodes (a 4x4 mesh), remote-miss-dominated: the acceptance
        // workload. Memory and hop latencies model the long-latency regime
        // APRIL targets — a machine whose remote references cost hundreds
        // of cycles (§1 motivates context switching precisely to cover
        // such latencies): every processor spends nearly all its time
        // switched out waiting, which is when cycle-skipping pays.
        run_machine_workload(
            "stall_heavy_16node",
            MachineConfig {
                topology: Topology::new(2, 4),
                region_bytes: 1 << 20,
                mem_latency: 250,
                net: NetConfig {
                    hop_latency: 16,
                    loopback_latency: 1,
                },
                ..MachineConfig::default()
            },
            stall_heavy_program(iters),
            None,
            1_000_000_000,
        ),
        // 16 nodes, compute-bound: long safe straight-line runs, which
        // the decode engine executes as booked blocks — the workload
        // where the engine column separates from the legacy
        // interpreter.
        run_machine_workload(
            "compute_16node",
            MachineConfig {
                topology: Topology::new(2, 4),
                region_bytes: 1 << 20,
                ..MachineConfig::default()
            },
            compute_program(iters * 500),
            None,
            1_000_000_000,
        ),
        // Same contention with an unreliable network: retransmit deadlines
        // keep the event-driven path honest (and busy).
        run_machine_workload(
            "fault_soak_4node",
            MachineConfig {
                topology: Topology::new(2, 2),
                region_bytes: 1 << 20,
                ..MachineConfig::default()
            },
            stall_heavy_program(iters),
            Some(FaultPlan::new(0x50a1).with_default_rule(FaultRule {
                drop: 0.02,
                dup: 0.02,
                delay: 0.04,
                max_delay: 40,
            })),
            1_000_000_000,
        ),
    ]
}

fn emit_json(results: &[MachineBench]) {
    let path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_hotpaths.json".into());
    let mut body = String::from("{\n  \"workloads\": [\n");
    for (i, r) in results.iter().enumerate() {
        body.push_str(&format!(
            concat!(
                "    {{\"name\": \"{}\", \"cycles\": {}, ",
                "\"lockstep_wall_s\": {:.6}, \"event_wall_s\": {:.6}, ",
                "\"event_nodecode_wall_s\": {:.6}, ",
                "\"lockstep_cycles_per_sec\": {:.0}, ",
                "\"event_cycles_per_sec\": {:.0}, ",
                "\"event_nodecode_cycles_per_sec\": {:.0}, ",
                "\"speedup\": {:.2}, \"decode_speedup\": {:.2}}}{}\n"
            ),
            r.name,
            r.cycles,
            r.lockstep_wall,
            r.event_wall,
            r.event_nodecode_wall,
            r.lockstep_cps(),
            r.event_cps(),
            r.event_nodecode_cps(),
            r.speedup(),
            r.decode_speedup(),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    body.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&path, &body) {
        eprintln!("failed to write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

fn bench_machine() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let results = machine_workloads(smoke);
    println!("\nmachine workloads (simulated cycles per wall-second)");
    for r in &results {
        println!(
            "{:<24} {:>12} cycles  visited {:>5.1}%  lockstep {:>12.0} c/s  event {:>12.0} c/s  event/nodecode {:>12.0} c/s  speedup {:>5.2}x  decode {:>5.2}x",
            r.name,
            r.cycles,
            100.0 * r.visited as f64 / r.cycles as f64,
            r.lockstep_cps(),
            r.event_cps(),
            r.event_nodecode_cps(),
            r.speedup(),
            r.decode_speedup(),
        );
    }
    emit_json(&results);
}

fn main() {
    println!("sim_hotpaths (best-of per-iteration times)");
    bench_cpu_step();
    bench_decoded_dispatch();
    bench_memory();
    bench_directory();
    bench_network();
    bench_toolchain();
    bench_machine();
}

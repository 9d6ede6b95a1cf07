//! Scaling benchmark for the conservative-window parallel scheduler:
//! simulated cycles per wall-second at 1/2/4/8 workers on 16- and
//! 64-node machines, emitted as `BENCH_parallel.json` so the perf
//! trajectory is tracked from PR to PR.
//!
//! The workload keeps every processor compute-bound (a long ALU inner
//! loop between remote accesses) because that is the regime parallel
//! sharding targets: the per-window work must dominate the barrier
//! cost. Every point is asserted bit-identical to the 1-worker run —
//! the scheduler's determinism guarantee means a scaling number from a
//! diverged simulation would be meaningless.
//!
//! `BENCH_SMOKE=1` shrinks the grid to 16 nodes at 1 and 2 workers for
//! CI. `BENCH_PAR_OUT` overrides the output path.

use april_core::isa::asm::assemble;
use april_core::program::Program;
use april_machine::config::MachineConfig;
use april_machine::driver::SwitchSpin;
use april_machine::parallel::ParallelAlewife;
use april_machine::Machine;
use april_net::network::NetConfig;
use april_net::topology::Topology;
use std::time::Instant;

/// Each node spins a long ALU loop, then performs one remote
/// read-modify-write on its own word of a block region homed at node 0
/// (flushed so the next round misses again). High per-cycle CPU
/// utilization with real cross-node coherence traffic.
fn compute_heavy_program(outer: u32, inner: u32) -> Program {
    assemble(&format!(
        "
        .entry main
        main:
            ldio 1, r8         ; node id (fixnum == 4*id: byte offset!)
            movi 0x200, r9
            add r9, r8, r9     ; my word, homed at node 0
            movi {outer}, r10
        outer:
            movi {inner}, r12
        inner:
            add r13, 4, r13
            xor r14, r13, r14
            sub r12, 1, r12
            jne inner
            nop
            ld r9+0, r11       ; remote read miss
            add r11, 4, r11
            st r11, r9+0       ; write-upgrade miss
            flush r9+0         ; evict: the next round misses again
            sub r10, 1, r10
            jne outer
            nop
            halt
        ",
    ))
    .unwrap()
}

fn bench_cfg(dim: usize, radix: usize, workers: usize) -> MachineConfig {
    MachineConfig {
        topology: Topology::new(dim, radix),
        region_bytes: 1 << 16,
        // 4-cycle loopback / 2-cycle hops buy a 2-cycle conservative
        // window, halving the number of barriers per simulated cycle.
        net: NetConfig {
            hop_latency: 2,
            loopback_latency: 4,
        },
        workers,
        ..MachineConfig::default()
    }
}

/// Runs one point; returns the finished machine and the wall time.
fn run_point(cfg: MachineConfig, prog: &Program, max: u64) -> (ParallelAlewife, f64) {
    let mut m = ParallelAlewife::new(cfg, prog.clone());
    for i in 0..m.num_procs() {
        m.cpu_mut(i).boot(0);
    }
    let t0 = Instant::now();
    m.run(&SwitchSpin::default(), max);
    let wall = t0.elapsed().as_secs_f64();
    assert!(
        m.fault().is_none(),
        "bench workload faulted: {:?}",
        m.fault()
    );
    (m, wall)
}

/// Asserts two runs of the same machine ended bit-identical.
fn assert_identical(a: &ParallelAlewife, b: &ParallelAlewife, workers: usize) {
    assert_eq!(
        a.halted_cycles(),
        b.halted_cycles(),
        "x{workers}: halt cycles diverged from the 1-worker run"
    );
    for i in 0..a.num_procs() {
        assert_eq!(
            a.node(i).cpu.stats,
            b.node(i).cpu.stats,
            "x{workers}: node {i} CpuStats diverged from the 1-worker run"
        );
    }
    assert_eq!(
        a.net_stats(),
        b.net_stats(),
        "x{workers}: net stats diverged"
    );
    for addr in (0..a.mem().len_bytes() as u32).step_by(4) {
        assert_eq!(
            a.mem().word_state(addr),
            b.mem().word_state(addr),
            "x{workers}: memory diverged at {addr:#x}"
        );
    }
}

struct Point {
    nodes: usize,
    workers: usize,
    cycles: u64,
    wall_s: f64,
}

impl Point {
    fn cps(&self) -> f64 {
        self.cycles as f64 / self.wall_s
    }
}

fn run_grid(dim: usize, radix: usize, worker_counts: &[usize], prog: &Program) -> Vec<Point> {
    let nodes = Topology::new(dim, radix).num_nodes();
    let max = 1_000_000_000;
    let mut points = Vec::new();
    let mut baseline: Option<ParallelAlewife> = None;
    for &w in worker_counts {
        // Best-of-3: simulated time is deterministic, wall time is not.
        let mut wall = f64::INFINITY;
        let mut cycles = 0;
        let mut last = None;
        for _ in 0..3 {
            let (m, t) = run_point(bench_cfg(dim, radix, w), prog, max);
            wall = wall.min(t);
            cycles = m.now();
            last = Some(m);
        }
        let m = last.expect("ran at least once");
        match &baseline {
            None => baseline = Some(m),
            Some(base) => assert_identical(base, &m, w),
        }
        points.push(Point {
            nodes,
            workers: w,
            cycles,
            wall_s: wall,
        });
    }
    points
}

fn emit_json(points: &[Point]) {
    let path = std::env::var("BENCH_PAR_OUT").unwrap_or_else(|_| "BENCH_parallel.json".into());
    // Wall-clock speedup is bounded by min(workers, host cores). A
    // point with more workers than cores measures scheduler *overhead*,
    // not parallel speedup — it is still run (the bit-exactness
    // assertion is worker-count-independent) but marked core_limited
    // and given no speedup figure, so it can never be misread as a
    // scaling regression.
    let cores = host_cpus();
    let mut body = format!("{{\n  \"host_cpus\": {cores},\n  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        // Speedup is relative to the 1-worker point of the same size.
        let base = points
            .iter()
            .find(|q| q.nodes == p.nodes && q.workers == 1)
            .map(|q| q.wall_s)
            .unwrap_or(p.wall_s);
        let speedup = if p.workers > cores {
            "\"core_limited\": true".to_string()
        } else {
            format!("\"speedup\": {:.2}", base / p.wall_s)
        };
        body.push_str(&format!(
            concat!(
                "    {{\"nodes\": {}, \"workers\": {}, \"cycles\": {}, ",
                "\"wall_s\": {:.6}, \"cycles_per_sec\": {:.0}, {}}}{}\n"
            ),
            p.nodes,
            p.workers,
            p.cycles,
            p.wall_s,
            p.cps(),
            speedup,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    body.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&path, &body) {
        eprintln!("failed to write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let (outer, inner) = if smoke { (6, 200) } else { (40, 400) };
    let prog = compute_heavy_program(outer, inner);

    println!(
        "sim_parallel (simulated cycles per wall-second, deterministic sharding; \
         host cpus: {})",
        host_cpus()
    );
    let mut points = Vec::new();
    // 2-D meshes: radix 4 is the 16-node machine, radix 8 the 64-node
    // one (the acceptance workload).
    if smoke {
        points.extend(run_grid(2, 4, &[1, 2], &prog));
    } else {
        points.extend(run_grid(2, 4, &[1, 2, 4, 8], &prog));
        points.extend(run_grid(2, 8, &[1, 2, 4, 8], &prog));
    }
    for p in &points {
        let base = points
            .iter()
            .find(|q| q.nodes == p.nodes && q.workers == 1)
            .map(|q| q.wall_s)
            .unwrap_or(p.wall_s);
        let tail = if p.workers > host_cpus() {
            "core-limited (overhead only)".to_string()
        } else {
            format!("speedup {:>5.2}x", base / p.wall_s)
        };
        println!(
            "{:>3} nodes x{:<2} workers {:>10} cycles  {:>12.0} c/s  {}",
            p.nodes,
            p.workers,
            p.cycles,
            p.cps(),
            tail,
        );
    }
    emit_json(&points);
}

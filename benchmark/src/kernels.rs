//! Isolated kernels: each replays operations against one layer's public
//! API, outside any machine, and reports nanoseconds per operation. They
//! say what a layer costs per call; the workloads say how often it is
//! called. Each set runs in the traced pass of the one workload whose
//! end-to-end metric it is predicted to move (see the README's table).

use crate::measure::{median, Stopwatch};
use crate::workloads::Layers;
use april_core::cpu::{Cpu, CpuConfig};
use april_core::decoded::DecodedProgram;
use april_core::isa::asm::assemble;
use april_core::isa::{LoadFlavor, StoreFlavor};
use april_core::memport::{AccessCtx, LoadReply, MemoryPort, StoreReply};
use april_core::word::Word;
use april_mem::cache::{Cache, CacheConfig, LineState};
use april_mem::directory::Directory;
use april_mem::femem::FeMemory;
use april_mem::msg::CohMsg;
use april_net::network::{NetConfig, Network};
use april_net::topology::Topology;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median calibrated nanoseconds per operation of `f`, which performs
/// `ops` operations per call, over the calls that fit in `budget`.
fn ns_per_op(budget: Duration, ops: u64, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let watch = Stopwatch::start();
    let deadline = Instant::now() + budget;
    while samples.len() < 5 || Instant::now() < deadline {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as f64 / ops as f64);
    }
    let factor = watch.stop().factor();
    median(&samples) * factor
}

struct NullMem;

impl MemoryPort for NullMem {
    fn load(&mut self, _: u32, _: LoadFlavor, _: AccessCtx) -> LoadReply {
        LoadReply::Data {
            word: Word::ZERO,
            fe: true,
        }
    }
    fn store(&mut self, _: u32, _: Word, _: StoreFlavor, _: AccessCtx) -> StoreReply {
        StoreReply::Done { fe: false }
    }
}

/// april-core: the interpreter's step, and a 64-op booked run through
/// the decoded engine (plus the two steps closing the loop).
pub fn core(budget: Duration, layers: &mut Layers) {
    let alu = assemble("top:\nadd r1, 1, r1\nsub r2, 1, r2\nxor r3, r1, r3\njmp top\nnop\n")
        .expect("kernel assembles");
    let mut cpu = Cpu::new(CpuConfig::default());
    cpu.boot(0);
    let step = ns_per_op(budget, 1000, || {
        for _ in 0..1000 {
            black_box(cpu.step(&alu, &mut NullMem));
        }
    });
    layers.put("core.step_ns", step);

    let body = "add r1, 1, r1\n".repeat(64);
    let block = assemble(&format!("top:\n{body}jmp top\nnop\n")).expect("kernel assembles");
    let decoded = DecodedProgram::lower(&block);
    let mut cpu = Cpu::new(CpuConfig::default());
    cpu.boot(0);
    // 64 booked ops, then the jump and its delay slot through `step`:
    // nothing is bookable until the slot has retired.
    let run = ns_per_op(budget, 16 * 66, || {
        for _ in 0..16 {
            let k = cpu.bookable_run(&decoded);
            cpu.run_decoded(&decoded, k);
            black_box(cpu.step(&block, &mut NullMem));
            black_box(cpu.step(&block, &mut NullMem));
        }
    });
    layers.put("core.decoded_ns_per_instr", run);
}

/// april-mem: cache hit, miss + fill, a full/empty load, and the
/// directory's read, read, write-invalidate, acknowledge sequence.
/// april-net: 256 four-flit messages sent and polled to delivery on a
/// 6x6x6 cube.
pub fn mem_and_net(budget: Duration, layers: &mut Layers) {
    let mut cache = Cache::new(CacheConfig::default());
    cache.fill(0x40, LineState::Modified);
    let hit = ns_per_op(budget, 1000, || {
        for i in 0..1000u32 {
            black_box(cache.access(0x40 + (i & 3) * 4, i & 1 == 0));
        }
    });
    layers.put("mem.cache.hit_ns", hit);
    let miss = ns_per_op(budget, 1000, || {
        let mut cache = Cache::new(CacheConfig::default());
        for i in 0..1000u32 {
            let a = i * 16;
            if !cache.access(a, false) {
                cache.fill(a, LineState::Shared);
            }
        }
        black_box(&cache);
    });
    layers.put("mem.cache.miss_fill_ns", miss);
    let mut mem = FeMemory::new(64 * 1024);
    let ldett = LoadFlavor::from_mnemonic("ldett").expect("ldett is a load flavor");
    let fe = ns_per_op(budget, 1000, || {
        for i in 0..1000u32 {
            let a = (i % 1024) * 4;
            black_box(mem.apply_load(a, ldett));
            mem.set_fe(a, true);
        }
    });
    layers.put("mem.femem.fe_load_ns", fe);
    let dir = ns_per_op(budget, 64, || {
        let mut d = Directory::new();
        for block in (0..64u32).map(|i| i * 16) {
            d.handle_request(1, block, false, 1);
            d.handle_request(2, block, false, 2);
            for (dst, msg) in d.handle_request(3, block, true, 3) {
                if let (Some(block), Some(xid)) = (msg.block(), msg.xid()) {
                    let _ = d.handle_ack(dst, CohMsg::InvAck { block, xid });
                }
            }
        }
        black_box(&d);
    });
    layers.put("mem.directory.rd_wr_inval_ns", dir);

    let net = ns_per_op(budget, 256, || {
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
    layers.put("net.send_deliver_ns", net);
}

//! The CPU-level referee for booked runs (DESIGN.md §13): random
//! programs, executed once instruction by instruction through
//! `Cpu::step` and once through run-ahead with step fallback, must
//! produce the same machine-visible `StepEvent` stream, the same
//! statistics ledger, and the same final register, frame, and memory
//! state.
//!
//! Two generators. The register-only one drives the kernel API
//! (`bookable_run`/`run_decoded`) over every run-ahead register form
//! and the neighbours that end a run. The compiled-code one drives
//! `Cpu::run_ahead` over a memory that misses at seeded words: taken
//! and untaken branches with their delay slots, `jmpl` calls and
//! returns, tagged ALU ops on fixnums and on futures, and loads and
//! stores of every full/empty flavor, integer and FP, at aligned,
//! misaligned and future addresses. The driver answers every trap the
//! same way on both paths, so a divergence in what ran ahead shows.
//!
//! The generators are seeded with the workspace's vendored
//! deterministic RNG, so every failure reproduces from its printed
//! seed.

use april_core::cpu::{Cpu, CpuConfig, StepEvent};
use april_core::decoded::{DecodedProgram, RunState, MAX_RUN};
use april_core::isa::asm::assemble;
use april_core::isa::{LoadFlavor, Reg, StoreFlavor};
use april_core::memport::{AccessCtx, LoadReply, MemoryPort, RunMemory, StoreReply};
use april_core::program::Program;
use april_core::trap::Trap;
use april_core::word::Word;
use april_util::rng::Rng;
use std::collections::BTreeSet;

struct FlatMem {
    words: Vec<Word>,
}

impl MemoryPort for FlatMem {
    fn load(&mut self, addr: u32, _: april_core::isa::LoadFlavor, _: AccessCtx) -> LoadReply {
        LoadReply::Data {
            word: self.words[(addr / 4) as usize],
            fe: true,
        }
    }
    fn store(
        &mut self,
        addr: u32,
        v: Word,
        _: april_core::isa::StoreFlavor,
        _: AccessCtx,
    ) -> StoreReply {
        self.words[(addr / 4) as usize] = v;
        StoreReply::Done { fe: true }
    }
}

fn flat_mem() -> FlatMem {
    FlatMem {
        words: vec![Word::ZERO; 1024],
    }
}

/// A random data register: a local `r1`–`r12` mostly, a global
/// `g0`–`g7` one time in four (writes to `g0` must be discarded on
/// both paths). `r13`–`r15` are reserved for addresses, sanitized
/// operands and the loop counter.
fn reg(rng: &mut Rng) -> String {
    if rng.next_u64().is_multiple_of(4) {
        format!("g{}", rng.next_u64() % 8)
    } else {
        format!("r{}", 1 + rng.next_u64() % 12)
    }
}

/// One random instruction. Mixes every bookable form (`nop`, `movi`,
/// `fmovi`, the untagged add…sra ALU ops, `rdpsr`, `rdfp`) with its
/// non-bookable neighbours, which lower to `DecOp::Other` and end a
/// run: tagged ALU ops on fixnums, `mul`, `div`/`rem` by a nonzero
/// divisor, and (with `mem_ops`) loads and stores. Runs of every length
/// abut fallback steps.
fn push_random_op(rng: &mut Rng, src: &mut String, mem_ops: bool) {
    let (d, s1, s2) = (reg(rng), reg(rng), reg(rng));
    let alu = ["add", "sub", "and", "or", "xor", "sll", "srl", "sra"];
    match rng.next_u64() % 16 {
        0 => src.push_str(&format!("    movi {}, {d}\n", rng.next_u64() % 1000)),
        1 => src.push_str("    nop\n"),
        2 => {
            let op = ["add", "sub", "and", "or", "xor"][(rng.next_u64() % 5) as usize];
            src.push_str(&format!("    {op} {s1}, {s2}, {d}\n"));
        }
        3 => {
            let op = ["sll", "srl", "sra"][(rng.next_u64() % 3) as usize];
            src.push_str(&format!("    {op} {s1}, {}, {d}\n", rng.next_u64() % 31));
        }
        4 if mem_ops => {
            src.push_str(&format!("    movi {}, r13\n", 4 * (rng.next_u64() % 128)));
            src.push_str(&format!("    ld r13+{}, {d}\n", 4 * (rng.next_u64() % 8)));
        }
        5 if mem_ops => {
            src.push_str(&format!("    movi {}, r13\n", 4 * (rng.next_u64() % 128)));
            src.push_str(&format!("    st {s1}, r13+{}\n", 4 * (rng.next_u64() % 8)));
        }
        6 => {
            let bits = rng.next_u64() as u32;
            src.push_str(&format!("    fmovi 0x{bits:x}, f{}\n", rng.next_u64() % 8));
        }
        7 => {
            // The condition codes a CC-setting op just produced.
            let op = alu[(rng.next_u64() % 8) as usize];
            src.push_str(&format!(
                "    {op} {s1}, {s2}, {d}\n    rdpsr {}\n",
                reg(rng)
            ));
        }
        8 => src.push_str(&format!("    rdfp {d}\n")),
        9 => {
            // Tagged, on a fixnum (low tag bits clear), so it never
            // traps on a future.
            let op = alu[(rng.next_u64() % 8) as usize];
            let imm = rng.next_u64() % 64;
            src.push_str(&format!(
                "    and {s1}, -4, r14\n    t{op} r14, {imm}, {d}\n"
            ));
        }
        10 => src.push_str(&format!("    mul {s1}, {s2}, {d}\n")),
        11 => {
            let op = ["div", "rem"][(rng.next_u64() % 2) as usize];
            src.push_str(&format!(
                "    {op} {s1}, {}, {d}\n",
                1 + rng.next_u64() % 100
            ));
        }
        _ => {
            let op = ["add", "sub", "xor", "or"][(rng.next_u64() % 4) as usize];
            src.push_str(&format!("    {op} {s1}, {}, {d}\n", rng.next_u64() % 256));
        }
    }
}

/// A terminating random program: an outer counted loop around a chain
/// of blocks with forward conditional branches (never backward, so the
/// only loop is the counted one), every block a random mix of safe and
/// run-breaking instructions.
fn random_program(seed: u64, branchy: bool, mem_ops: bool) -> Program {
    let mut rng = Rng::seed_from(seed);
    let mut src = String::from(".entry main\nmain:\n");
    let (nblocks, outer) = if branchy {
        (3 + (rng.next_u64() % 4) as usize, 1 + rng.next_u64() % 4)
    } else {
        (1, 1)
    };
    src.push_str(&format!("    movi {outer}, r15\nouter:\n"));
    for b in 0..nblocks {
        src.push_str(&format!("b{b}:\n"));
        let len = if branchy {
            2 + rng.next_u64() % 10
        } else {
            // Straight-line shape: long enough to exercise the MAX_RUN
            // cap (64) within a single run.
            80 + rng.next_u64() % 80
        };
        for _ in 0..len {
            push_random_op(&mut rng, &mut src, mem_ops);
        }
        if branchy && b + 1 < nblocks && rng.next_u64().is_multiple_of(2) {
            let t = b + 1 + (rng.next_u64() as usize % (nblocks - b - 1));
            let j = ["jeq", "jne", "jlt", "jge", "jmp"][(rng.next_u64() % 5) as usize];
            src.push_str(&format!("    {j} b{t}\n    nop\n"));
        }
    }
    src.push_str("    sub r15, 1, r15\n    jne outer\n    nop\n    halt\n");
    assemble(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}"))
}

/// Steps to completion, recording the machine-visible events (the
/// schedulers swallow `Executed` and `Stalled`; everything else
/// reaches the driver).
fn drive_step(prog: &Program, max: u64) -> (Cpu, FlatMem, Vec<StepEvent>) {
    let mut cpu = Cpu::new(CpuConfig::default());
    cpu.boot(prog.entry);
    let mut mem = flat_mem();
    let mut evs = Vec::new();
    for _ in 0..max {
        if cpu.is_halted() {
            break;
        }
        match cpu.step(prog, &mut mem) {
            StepEvent::Executed | StepEvent::Stalled { .. } => {}
            e => evs.push(e),
        }
    }
    (cpu, mem, evs)
}

/// Same drive through the decode engine: execute every bookable run as
/// flat bytecode, fall back to `step` on anything else — the same
/// cut-over the machines perform per visited cycle.
fn drive_decoded(prog: &Program, max: u64) -> (Cpu, FlatMem, Vec<StepEvent>) {
    let dec = DecodedProgram::lower(prog);
    let mut cpu = Cpu::new(CpuConfig::default());
    cpu.boot(prog.entry);
    let mut mem = flat_mem();
    let mut evs = Vec::new();
    let mut budget = max;
    while budget > 0 {
        if cpu.is_halted() {
            break;
        }
        let k = cpu
            .bookable_run(&dec)
            .min(budget.min(u64::from(u32::MAX)) as u32);
        if k > 0 {
            cpu.run_decoded(&dec, k);
            budget -= u64::from(k);
        } else {
            match cpu.step(prog, &mut mem) {
                StepEvent::Executed | StepEvent::Stalled { .. } => {}
                e => evs.push(e),
            }
            budget -= 1;
        }
    }
    (cpu, mem, evs)
}

fn assert_equivalent(seed: u64, prog: &Program) {
    const MAX: u64 = 200_000;
    let (a, am, aev) = drive_step(prog, MAX);
    let (b, bm, bev) = drive_decoded(prog, MAX);
    assert!(a.is_halted(), "seed {seed}: step drive did not halt");
    assert!(b.is_halted(), "seed {seed}: decoded drive did not halt");
    assert_eq!(aev, bev, "seed {seed}: StepEvent streams diverged");
    assert_eq!(a.stats, b.stats, "seed {seed}: stats ledgers diverged");
    assert_eq!(a.fp(), b.fp(), "seed {seed}: frame pointers diverged");
    for f in 0..a.nframes() {
        assert_eq!(a.frame(f), b.frame(f), "seed {seed}: frame {f} diverged");
    }
    assert_eq!(am.words, bm.words, "seed {seed}: memory diverged");
}

#[test]
fn straight_line_programs_match_step() {
    for seed in 0..40 {
        let prog = random_program(0x5eed_0000 + seed, false, false);
        assert_equivalent(seed, &prog);
    }
}

#[test]
fn straight_line_with_memory_ops_match_step() {
    for seed in 0..40 {
        let prog = random_program(0x5eed_1000 + seed, false, true);
        assert_equivalent(seed, &prog);
    }
}

#[test]
fn branchy_programs_match_step() {
    for seed in 0..60 {
        let prog = random_program(0x5eed_2000 + seed, true, true);
        assert_equivalent(seed, &prog);
    }
}

/// Words of the compiled-code generator's memory (1 KiB).
const WORDS: usize = 256;

/// A memory with full/empty bits that misses at seeded words until a
/// miss is served: a trapping access's handler fills the word, a
/// waiting access fills it as it stalls.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MissMem {
    words: Vec<Word>,
    full: Vec<bool>,
    missing: BTreeSet<u32>,
}

impl MissMem {
    fn new(rng: &mut Rng) -> MissMem {
        let mut missing = BTreeSet::new();
        for _ in 0..24 {
            missing.insert(4 * rng.gen_below(WORDS as u64) as u32);
        }
        MissMem {
            words: (0..WORDS).map(|i| Word(4 * i as u32)).collect(),
            full: (0..WORDS).map(|i| i % 3 != 0).collect(),
            missing,
        }
    }

    fn at(addr: u32) -> usize {
        (addr / 4) as usize
    }

    /// The full/empty semantics of a load that reaches memory.
    fn apply_load(&mut self, addr: u32, flavor: LoadFlavor) -> Option<(Word, bool)> {
        let i = MissMem::at(addr);
        let fe = self.full[i];
        if flavor.fe_trap && !fe {
            return None;
        }
        if flavor.reset_fe {
            self.full[i] = false;
        }
        Some((self.words[i], fe))
    }

    /// The full/empty semantics of a store that reaches memory.
    fn apply_store(&mut self, addr: u32, value: Word, flavor: StoreFlavor) -> Option<bool> {
        let i = MissMem::at(addr);
        let fe = self.full[i];
        if flavor.fe_trap && fe {
            return None;
        }
        self.words[i] = value;
        if flavor.set_fe {
            self.full[i] = true;
        }
        Some(fe)
    }

    /// `step`'s view of a miss: trap, or hold while the word fills.
    fn miss(&mut self, addr: u32, wait: bool) -> bool {
        if wait {
            self.missing.remove(&addr);
        }
        wait
    }
}

impl MemoryPort for MissMem {
    fn load(&mut self, addr: u32, flavor: LoadFlavor, _: AccessCtx) -> LoadReply {
        if self.missing.contains(&addr) {
            return match self.miss(addr, flavor.miss_wait) {
                true => LoadReply::Stall { cycles: 1 },
                false => LoadReply::RemoteMiss,
            };
        }
        match self.apply_load(addr, flavor) {
            Some((word, fe)) => LoadReply::Data { word, fe },
            None => LoadReply::FeViolation,
        }
    }

    fn store(&mut self, addr: u32, v: Word, flavor: StoreFlavor, _: AccessCtx) -> StoreReply {
        if self.missing.contains(&addr) {
            return match self.miss(addr, flavor.miss_wait) {
                true => StoreReply::Stall { cycles: 1 },
                false => StoreReply::RemoteMiss,
            };
        }
        match self.apply_store(addr, v, flavor) {
            Some(fe) => StoreReply::Done { fe },
            None => StoreReply::FeViolation,
        }
    }
}

/// Run-ahead's view of [`MissMem`]: an access runs ahead when its word
/// is present and its full/empty bit lets it complete; it takes effect
/// at once, since this drive commits every op it runs ahead.
struct Ahead<'a> {
    mem: &'a mut MissMem,
    ops: u64,
}

impl RunMemory for Ahead<'_> {
    fn load(&mut self, _: u32, addr: u32, flavor: LoadFlavor) -> Option<(Word, bool)> {
        if self.mem.missing.contains(&addr) {
            return None;
        }
        let got = self.mem.apply_load(addr, flavor)?;
        self.ops += 1;
        Some(got)
    }

    fn store(&mut self, _: u32, addr: u32, v: Word, flavor: StoreFlavor) -> Option<bool> {
        if self.mem.missing.contains(&addr) {
            return None;
        }
        let fe = self.mem.apply_store(addr, v, flavor)?;
        self.ops += 1;
        Some(fe)
    }
}

/// A word-aligned address in the generator's memory, plus a byte
/// offset that is misaligned one time in eight.
fn address(rng: &mut Rng) -> (u32, u32) {
    let base = 4 * rng.gen_below(WORDS as u64 - 8) as u32;
    let off = if rng.gen_below(8) == 0 {
        1 + rng.gen_below(3) as u32
    } else {
        4 * rng.gen_below(8) as u32
    };
    (base, off)
}

/// One random compiled-code-like op: everything the register-only
/// generator makes, plus memory ops of every flavor, tagged ops and
/// addresses that are futures, FP memory ops, and calls.
fn push_compiled_op(rng: &mut Rng, src: &mut String, subs: usize) {
    let (d, s1) = (reg(rng), reg(rng));
    match rng.gen_below(14) {
        0 | 1 => {
            let f = LoadFlavor::ALL[rng.gen_below(8) as usize].mnemonic();
            let (base, off) = address(rng);
            src.push_str(&format!("    movi {base}, r13\n    {f} r13+{off}, {d}\n"));
        }
        2 | 3 => {
            let f = StoreFlavor::ALL[rng.gen_below(8) as usize].mnemonic();
            let (base, off) = address(rng);
            src.push_str(&format!("    movi {base}, r13\n    {f} {s1}, r13+{off}\n"));
        }
        4 => {
            let (base, off) = address(rng);
            let fr = rng.gen_below(8);
            let op = if rng.gen_below(2) == 0 {
                format!("ldf r13+{off}, f{fr}")
            } else {
                format!("stf f{fr}, r13+{off}")
            };
            src.push_str(&format!("    movi {base}, r13\n    {op}\n"));
        }
        5 => {
            // A future as an address: an implicit touch.
            let (base, _) = address(rng);
            src.push_str(&format!(
                "    movi {base}, r13\n    or r13, 1, r13\n    ld r13+0, {d}\n"
            ));
        }
        6 => {
            // A strict op on a future operand, or on a fixnum.
            let tag = rng.gen_below(2);
            src.push_str(&format!("    and {s1}, -4, r14\n    or r14, {tag}, r14\n"));
            src.push_str(&format!("    tadd r14, {}, {d}\n", 4 * rng.gen_below(16)));
        }
        7 => {
            // A short forward branch, taken or not, whose delay slot
            // holds a random op.
            let cond =
                ["jeq", "jne", "jlt", "jge", "jfull", "jempty", "jn"][rng.gen_below(7) as usize];
            let label = format!("s{}", rng.next_u64());
            src.push_str(&format!("    {cond} {label}\n"));
            push_random_op(rng, src, true);
            push_random_op(rng, src, false);
            src.push_str(&format!("{label}:\n"));
        }
        8 if subs > 0 => {
            src.push_str(&format!(
                "    call @sub{}, r31\n",
                rng.gen_below(subs as u64)
            ));
        }
        _ => push_random_op(rng, src, true),
    }
}

/// A terminating random program of compiled-code shape: a counted
/// outer loop around blocks joined by forward branches, calling leaf
/// subroutines that return through `jmpl`.
fn compiled_program(seed: u64) -> Program {
    let mut rng = Rng::seed_from(seed);
    let subs = 1 + rng.gen_below(3) as usize;
    let mut src = String::from(".entry main\nmain:\n");
    src.push_str(&format!("    movi {}, r15\nouter:\n", 1 + rng.gen_below(3)));
    let nblocks = 2 + rng.gen_below(4) as usize;
    for b in 0..nblocks {
        src.push_str(&format!("b{b}:\n"));
        for _ in 0..4 + rng.gen_below(12) {
            push_compiled_op(&mut rng, &mut src, subs);
        }
        if b + 1 < nblocks && rng.gen_below(2) == 0 {
            let t = b + 1 + rng.gen_below((nblocks - b - 1) as u64) as usize;
            src.push_str(&format!("    jne b{t}\n    nop\n"));
        }
    }
    src.push_str("    sub r15, 1, r15\n    jne outer\n    nop\n    halt\n");
    for k in 0..subs {
        src.push_str(&format!("sub{k}:\n"));
        for _ in 0..1 + rng.gen_below(5) {
            push_compiled_op(&mut rng, &mut src, 0);
        }
        src.push_str("    jmpl r31+0, g0\n    nop\n");
    }
    assemble(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}"))
}

/// The one trap handler both drives share: serve the miss, flip the
/// full/empty bit, untag the future, or skip the misaligned access;
/// then return from the trap so the instruction retries.
fn handle(cpu: &mut Cpu, mem: &mut MissMem, ev: StepEvent) {
    let StepEvent::Trapped(trap) = ev else {
        return;
    };
    let untag = |cpu: &mut Cpu, r: Reg| {
        let w = cpu.get_reg(r);
        cpu.set_reg(r, Word(w.0 & !3));
    };
    match trap {
        Trap::RemoteMiss { addr, .. } => {
            mem.missing.remove(&addr);
        }
        Trap::FullEmpty { addr, .. } => {
            let i = MissMem::at(addr);
            mem.full[i] = !mem.full[i];
        }
        Trap::FutureTouch { reg } | Trap::FutureAddr { reg } => untag(cpu, reg),
        Trap::Alignment { .. } => {
            let f = cpu.active_frame_mut();
            (f.pc, f.npc) = (f.npc, f.npc.wrapping_add(1));
        }
        other => panic!("unexpected trap {other:?}"),
    }
    cpu.active_frame_mut().psr.in_trap = false;
}

type Outcome = (Cpu, MissMem, Vec<StepEvent>);

/// Ops run ahead, and memory ops among them.
static AHEAD: [std::sync::atomic::AtomicU64; 2] = [
    std::sync::atomic::AtomicU64::new(0),
    std::sync::atomic::AtomicU64::new(0),
];

fn compiled_step(prog: &Program, seed: u64, max: u64) -> Outcome {
    let mut cpu = Cpu::new(CpuConfig::default());
    cpu.boot(prog.entry);
    let mut mem = MissMem::new(&mut Rng::seed_from(!seed));
    let mut evs = Vec::new();
    for _ in 0..max {
        if cpu.is_halted() {
            break;
        }
        let ev = cpu.step(prog, &mut mem);
        handle(&mut cpu, &mut mem, ev);
        if !matches!(ev, StepEvent::Executed | StepEvent::Stalled { .. }) {
            evs.push(ev);
        }
    }
    (cpu, mem, evs)
}

fn compiled_ahead(prog: &Program, seed: u64, max: u64) -> Outcome {
    let dec = DecodedProgram::lower(prog);
    let mut cpu = Cpu::new(CpuConfig::default());
    cpu.boot(prog.entry);
    let mut mem = MissMem::new(&mut Rng::seed_from(!seed));
    let mut evs = Vec::new();
    let (mut budget, mut run) = (max, RunState::default());
    while budget > 0 && !cpu.is_halted() {
        let cap = budget.min(MAX_RUN as u64) as u32;
        let mut ahead = Ahead {
            mem: &mut mem,
            ops: 0,
        };
        let k = cpu.run_ahead(&dec, cap, &mut ahead, &mut run);
        if k > 0 {
            let ops = ahead.ops;
            AHEAD[0].fetch_add(u64::from(k), std::sync::atomic::Ordering::Relaxed);
            AHEAD[1].fetch_add(ops, std::sync::atomic::Ordering::Relaxed);
            cpu.commit_run(&run, k);
            cpu.stats.mem_ops += ops;
            budget -= u64::from(k);
            continue;
        }
        let ev = cpu.step(prog, &mut mem);
        handle(&mut cpu, &mut mem, ev);
        if !matches!(ev, StepEvent::Executed | StepEvent::Stalled { .. }) {
            evs.push(ev);
        }
        budget -= 1;
    }
    (cpu, mem, evs)
}

fn assert_compiled_equivalent(seed: u64) {
    const MAX: u64 = 100_000;
    let prog = compiled_program(seed);
    let (a, am, aev) = compiled_step(&prog, seed, MAX);
    let (b, bm, bev) = compiled_ahead(&prog, seed, MAX);
    assert!(a.is_halted(), "seed {seed}: step drive did not halt");
    assert!(b.is_halted(), "seed {seed}: run-ahead drive did not halt");
    assert_eq!(aev, bev, "seed {seed}: StepEvent streams diverged");
    assert_eq!(a.stats, b.stats, "seed {seed}: stats ledgers diverged");
    assert_eq!(a.fp(), b.fp(), "seed {seed}: frame pointers diverged");
    for f in 0..a.nframes() {
        assert_eq!(a.frame(f), b.frame(f), "seed {seed}: frame {f} diverged");
    }
    assert_eq!(am, bm, "seed {seed}: memory diverged");
}

#[test]
fn compiled_code_runs_ahead_as_it_steps() {
    for seed in 0..150 {
        assert_compiled_equivalent(0x5eed_3000 + seed);
    }
    let ran = AHEAD[0].load(std::sync::atomic::Ordering::Relaxed);
    let mem = AHEAD[1].load(std::sync::atomic::Ordering::Relaxed);
    assert!(mem * 10 > ran, "memory ops ran ahead: {mem} of {ran}");
}

#[test]
fn the_generator_reaches_every_trap_and_stall() {
    // The referee is only as good as what it makes happen.
    let (mut seen, mut stalls) = (BTreeSet::new(), 0);
    for seed in 0..150 {
        let prog = compiled_program(0x5eed_3000 + seed);
        let (cpu, _, evs) = compiled_step(&prog, 0x5eed_3000 + seed, 100_000);
        for ev in evs {
            if let StepEvent::Trapped(t) = ev {
                seen.insert(t.vector());
            }
        }
        stalls += cpu.stats.stall_cycles;
    }
    assert!(stalls > 0, "no waiting access met a miss");
    for t in [
        Trap::RemoteMiss {
            addr: 0,
            is_store: false,
        },
        Trap::FullEmpty {
            addr: 0,
            is_store: false,
        },
        Trap::FutureTouch { reg: Reg::ZERO },
        Trap::FutureAddr { reg: Reg::ZERO },
        Trap::Alignment { addr: 0 },
    ] {
        assert!(seen.contains(&t.vector()), "no {t:?} in 150 programs");
    }
}

/// The 2,000-seed sweep (release only: `scripts/ci.sh`).
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn compiled_code_runs_ahead_as_it_steps_2000_seeds() {
    for seed in 0..2_000 {
        assert_compiled_equivalent(0x5eed_4000 + seed);
    }
}

//! The CPU-level referee for booked runs (DESIGN.md §13): random
//! straight-line and branchy programs, executed once instruction by
//! instruction through `Cpu::step` and once through
//! `bookable_run`/`run_decoded` with step fallback, must produce the
//! same machine-visible `StepEvent` stream, the same statistics
//! ledger, and the same final register, frame, and memory state. The
//! generator covers every bookable form — the ones both paths execute
//! through the same `exec` — and the non-bookable neighbours that must
//! end a run.
//!
//! The generator is seeded with the workspace's vendored deterministic
//! RNG, so every failure reproduces from its printed seed.

use april_core::cpu::{Cpu, CpuConfig, StepEvent};
use april_core::decoded::DecodedProgram;
use april_core::isa::asm::assemble;
use april_core::memport::{AccessCtx, LoadReply, MemoryPort, StoreReply};
use april_core::program::Program;
use april_core::word::Word;
use april_util::rng::Rng;

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

//! Pre-decoded bytecode for booked runs, and the one statement of the
//! bookable instructions' semantics.
//!
//! [`Cpu::step`] re-fetches a fat [`Instr`] enum and re-dispatches a
//! large `match` on every visited cycle, re-checking interrupts and
//! frame state each time. For straight-line runs of simple compute
//! instructions all of that is invariant: no traps, no stalls, no
//! memory traffic, no probe events, unit cycle cost, and a PC chain
//! that just walks forward. This module lowers a [`Program`] once into
//! a dense, flat bytecode ([`DecOp`]) with register indices and
//! immediates pre-resolved, and segments it into *runs* — maximal
//! straight-line stretches of safe ops — so a scheduler can execute a
//! whole run as one tight loop ([`Cpu::run_decoded`]) instead of one
//! `step` per cycle. `step` runs every safe instruction through the
//! same per-op `exec` as the run loop.
//!
//! # The safety whitelist
//!
//! An instruction is *safe* (lowered to a real [`DecOp`]) only when
//! executing it can never diverge from `step`'s slow path:
//!
//! * it cannot trap (no tagged ALU ops, no loads/stores, no divides),
//! * it cannot stall (no memory or I/O access),
//! * it costs exactly **1 cycle** (so `k` ops booked at cycle `t`
//!   account exactly for cycles `t .. t + k`),
//! * it emits no trace-probe events and sends no messages,
//! * it does not touch the frame pointer, frame state, or PSR control
//!   bits (condition codes are data, not control, and are updated
//!   exactly as `step` would).
//!
//! Everything else lowers to [`DecOp::Other`], which terminates a run
//! and which `step` executes through its own `match`. The decoded
//! image is **derived state**: machines rebuild it from the program on
//! construction and on snapshot restore, and it must never be encoded
//! into an APRL snapshot (DESIGN.md §13).

use crate::cpu::{alu_add, alu_sub, logic_cc, Cpu};
use crate::frame::{FrameState, TaskFrame};
use crate::isa::{AluOp, Instr, Operand, Reg};
use crate::program::Program;
use crate::psr::CondCodes;
use crate::word::Word;

/// Upper bound on a single booked run, in instructions. Bounds how far
/// a CPU's architectural state may lag the machine clock (settling a
/// reservation is O(len)) and keeps the progress-signature plateau a
/// booked run creates far below any plausible watchdog horizon.
pub const MAX_RUN: u32 = 64;

/// Pre-resolved register index: `0..8` are the globals (`0` is the
/// hardwired-zero `g0`), `8..40` are the active frame's locals.
pub type RegIdx = u8;

/// ALU operations that can appear in a safe run: the untagged,
/// single-cycle, trap-free subset of [`AluOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SafeAlu {
    /// Integer add.
    Add,
    /// Integer subtract.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Logical shift left.
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
}

impl SafeAlu {
    /// The single-cycle form of `op`, or `None` for the multi-cycle
    /// (and, for div/rem, trapping) ops.
    #[inline(always)]
    pub(crate) fn of(op: AluOp) -> Option<SafeAlu> {
        Some(match op {
            AluOp::Add => SafeAlu::Add,
            AluOp::Sub => SafeAlu::Sub,
            AluOp::And => SafeAlu::And,
            AluOp::Or => SafeAlu::Or,
            AluOp::Xor => SafeAlu::Xor,
            AluOp::Sll => SafeAlu::Sll,
            AluOp::Srl => SafeAlu::Srl,
            AluOp::Sra => SafeAlu::Sra,
            AluOp::Mul | AluOp::Div | AluOp::Rem => return None,
        })
    }
}

/// One pre-decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecOp {
    /// Not on the whitelist: executed by [`Cpu::step`]'s own `match`.
    Other,
    /// No operation.
    Nop,
    /// `d = imm`.
    MovI {
        /// Destination register.
        d: RegIdx,
        /// Pre-resolved immediate.
        imm: u32,
    },
    /// FP register `fd = bits`.
    FMovI {
        /// Destination FP register (0–7).
        fd: u8,
        /// Raw IEEE-754 bits.
        bits: u32,
    },
    /// `d = s1 op s2` (register form); sets the condition codes.
    AluRR {
        /// Operation.
        op: SafeAlu,
        /// First source.
        s1: RegIdx,
        /// Second source.
        s2: RegIdx,
        /// Destination.
        d: RegIdx,
    },
    /// `d = s1 op imm` (immediate form); sets the condition codes.
    AluRI {
        /// Operation.
        op: SafeAlu,
        /// First source.
        s1: RegIdx,
        /// Pre-resolved immediate (sign-extended to 32 bits).
        imm: u32,
        /// Destination.
        d: RegIdx,
    },
    /// `d = PSR` of the active frame.
    RdPsr {
        /// Destination register.
        d: RegIdx,
    },
    /// `d = frame pointer` as a fixnum.
    RdFp {
        /// Destination register.
        d: RegIdx,
    },
}

/// A program lowered to flat bytecode, with per-address run lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedProgram {
    /// `ops[pc]` is the decoded form of `prog.instrs[pc]`.
    ops: Vec<DecOp>,
    /// `run_len[pc]`: length (capped at [`MAX_RUN`]) of the maximal
    /// safe straight-line run starting at `pc`; `0` when `ops[pc]` is
    /// [`DecOp::Other`].
    run_len: Vec<u8>,
}

fn reg_idx(r: Reg) -> RegIdx {
    match r {
        Reg::G(i) => i,
        Reg::L(i) => 8 + i,
    }
}

/// `ins` as a whitelisted [`DecOp`], or [`DecOp::Other`].
#[inline(always)]
pub(crate) fn lower_instr(ins: Instr) -> DecOp {
    match ins {
        Instr::Nop => DecOp::Nop,
        Instr::MovI { imm, d } => DecOp::MovI { d: reg_idx(d), imm },
        Instr::FMovI { bits, fd } => DecOp::FMovI { fd, bits },
        Instr::RdPsr { d } => DecOp::RdPsr { d: reg_idx(d) },
        Instr::RdFp { d } => DecOp::RdFp { d: reg_idx(d) },
        Instr::Alu {
            op,
            s1,
            s2,
            d,
            tagged: false,
        } => {
            let Some(op) = SafeAlu::of(op) else {
                return DecOp::Other;
            };
            match s2 {
                Operand::Reg(r) => DecOp::AluRR {
                    op,
                    s1: reg_idx(s1),
                    s2: reg_idx(r),
                    d: reg_idx(d),
                },
                Operand::Imm(i) => DecOp::AluRI {
                    op,
                    s1: reg_idx(s1),
                    imm: i as u32,
                    d: reg_idx(d),
                },
            }
        }
        _ => DecOp::Other,
    }
}

impl DecodedProgram {
    /// Lowers `prog` into flat bytecode and computes the run table.
    pub fn lower(prog: &Program) -> DecodedProgram {
        let ops: Vec<DecOp> = prog.instrs.iter().map(|&i| lower_instr(i)).collect();
        let mut run_len = vec![0u8; ops.len()];
        let mut run: u32 = 0;
        for i in (0..ops.len()).rev() {
            run = if ops[i] == DecOp::Other {
                0
            } else {
                (run + 1).min(MAX_RUN)
            };
            run_len[i] = run as u8;
        }
        DecodedProgram { ops, run_len }
    }

    /// Length of the safe straight-line run starting at `pc` (capped at
    /// [`MAX_RUN`]); `0` past the end of the text segment or at an
    /// unsafe instruction.
    #[inline]
    pub fn run_len(&self, pc: u32) -> u32 {
        self.run_len.get(pc as usize).copied().unwrap_or(0) as u32
    }

    /// The decoded op at `pc` (for diagnostics and tests).
    pub fn op(&self, pc: u32) -> Option<DecOp> {
        self.ops.get(pc as usize).copied()
    }

    /// Number of decoded ops (equals the program's text length).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the program had no text.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[inline(always)]
fn rd(globals: &[Word; 8], f: &TaskFrame, r: RegIdx) -> Word {
    if r < 8 {
        globals[r as usize]
    } else {
        f.regs[(r - 8) as usize]
    }
}

#[inline(always)]
fn wr(globals: &mut [Word; 8], f: &mut TaskFrame, r: RegIdx, w: Word) {
    if r >= 8 {
        f.regs[(r - 8) as usize] = w;
    } else if r != 0 {
        // g0 is hardwired to zero; writes are discarded.
        globals[r as usize] = w;
    }
}

/// The add…sra table: the result and condition codes of `a op b`.
#[inline(always)]
pub(crate) fn eval_alu(op: SafeAlu, a: u32, b: u32) -> (u32, CondCodes) {
    match op {
        SafeAlu::Add => alu_add(a, b),
        SafeAlu::Sub => alu_sub(a, b),
        SafeAlu::And => logic_cc(a & b),
        SafeAlu::Or => logic_cc(a | b),
        SafeAlu::Xor => logic_cc(a ^ b),
        SafeAlu::Sll => logic_cc(a.wrapping_shl(b & 31)),
        SafeAlu::Srl => logic_cc(a.wrapping_shr(b & 31)),
        SafeAlu::Sra => logic_cc(((a as i32).wrapping_shr(b & 31)) as u32),
    }
}

/// One safe op's register and condition-code effects on the active
/// frame `f` (index `fp`); the caller commits the PC chain and ledger.
#[inline(always)]
pub(crate) fn exec(globals: &mut [Word; 8], f: &mut TaskFrame, fp: usize, op: DecOp) {
    match op {
        DecOp::Nop => {}
        DecOp::MovI { d, imm } => wr(globals, f, d, Word(imm)),
        DecOp::FMovI { fd, bits } => f.fregs[(fd & 7) as usize] = bits,
        DecOp::AluRR { op, s1, s2, d } => {
            let a = rd(globals, f, s1).0;
            let b = rd(globals, f, s2).0;
            let (r, cc) = eval_alu(op, a, b);
            wr(globals, f, d, Word(r));
            f.psr.cc = cc;
        }
        DecOp::AluRI { op, s1, imm, d } => {
            let a = rd(globals, f, s1).0;
            let (r, cc) = eval_alu(op, a, imm);
            wr(globals, f, d, Word(r));
            f.psr.cc = cc;
        }
        DecOp::RdPsr { d } => {
            let w = f.psr.to_word();
            wr(globals, f, d, w);
        }
        DecOp::RdFp { d } => wr(globals, f, d, Word::fixnum(fp as i32)),
        DecOp::Other => unreachable!("executed an unsafe op as a safe one"),
    }
}

impl Cpu {
    /// Length of the safe run the scheduler could book for this
    /// processor right now: non-zero only when the processor is not
    /// halted, has no pending interrupt, the active frame is `Ready`
    /// and mid-straight-line (`npc == pc + 1`, i.e. not in the delay
    /// slot of a taken control transfer), and the decoded program has a
    /// safe run at `pc`. Every condition `step` checks before executing
    /// is re-established here, so a booked run of length `k` retires
    /// exactly the instructions `step` would retire over the next `k`
    /// cycles.
    pub fn bookable_run(&self, dec: &DecodedProgram) -> u32 {
        if self.halted || !self.irqs.is_empty() {
            return 0;
        }
        let f = &self.frames[self.fp];
        if f.state != FrameState::Ready || f.npc != f.pc.wrapping_add(1) {
            return 0;
        }
        dec.run_len(f.pc)
    }

    /// Executes `n` decoded ops starting at the active frame's PC, as
    /// one tight loop over the `exec` that `step` runs them through
    /// too: register reads/writes, condition codes, and the PC chain
    /// end up bit-identical to `n` consecutive [`Cpu::step`] calls, and
    /// the ledger is charged `n` instructions and `n` useful cycles.
    ///
    /// # Panics
    ///
    /// Debug-asserts the preconditions [`Cpu::bookable_run`]
    /// established at booking time; in release an out-of-range `n`
    /// panics on the slice bound.
    pub fn run_decoded(&mut self, dec: &DecodedProgram, n: u32) {
        let fp = self.fp;
        let Cpu {
            frames, globals, ..
        } = self;
        let f = &mut frames[fp];
        debug_assert!(f.state == FrameState::Ready);
        debug_assert_eq!(f.npc, f.pc.wrapping_add(1));
        let pc = f.pc as usize;
        for &op in &dec.ops[pc..pc + n as usize] {
            exec(globals, f, fp, op);
        }
        f.pc = f.pc.wrapping_add(n);
        f.npc = f.pc.wrapping_add(1);
        self.stats.instructions += n as u64;
        self.stats.useful_cycles += n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuConfig;
    use crate::isa::asm::assemble;

    #[test]
    fn lowering_classifies_the_whitelist() {
        let prog = assemble(
            "
            movi 7, r1
            add r1, 3, r2
            xor r2, r1, r3
            nop
            ld r1+0, r4
            sub r3, 1, r3
            halt
        ",
        )
        .unwrap();
        let dec = DecodedProgram::lower(&prog);
        assert_eq!(dec.run_len(0), 4, "movi/add/xor/nop");
        assert_eq!(dec.run_len(3), 1, "nop alone before the load");
        assert_eq!(dec.run_len(4), 0, "load is unsafe");
        assert_eq!(dec.run_len(5), 1, "sub before halt");
        assert_eq!(dec.run_len(6), 0, "halt is unsafe");
        assert_eq!(dec.run_len(999), 0, "past the end");
        assert_eq!(dec.op(4), Some(DecOp::Other));
    }

    #[test]
    fn run_len_caps_at_max_run() {
        let mut src = String::new();
        for _ in 0..(MAX_RUN + 40) {
            src.push_str("nop\n");
        }
        src.push_str("halt\n");
        let prog = assemble(&src).unwrap();
        let dec = DecodedProgram::lower(&prog);
        assert_eq!(dec.run_len(0), MAX_RUN);
    }

    #[test]
    fn booking_gates_refuse_unsafe_states() {
        let prog = assemble("nop\nnop\nnop\nhalt").unwrap();
        let dec = DecodedProgram::lower(&prog);

        let mut cpu = Cpu::new(CpuConfig::default());
        assert_eq!(cpu.bookable_run(&dec), 0, "no ready frame before boot");
        cpu.boot(0);
        assert_eq!(cpu.bookable_run(&dec), 3);

        cpu.post_interrupt(1);
        assert_eq!(cpu.bookable_run(&dec), 0, "pending IRQ blocks booking");
        cpu.irqs.clear();

        cpu.active_frame_mut().npc = 7;
        assert_eq!(cpu.bookable_run(&dec), 0, "delay slot blocks booking");
        cpu.active_frame_mut().npc = 1;

        cpu.halt();
        assert_eq!(cpu.bookable_run(&dec), 0, "halted CPU never books");
    }
}

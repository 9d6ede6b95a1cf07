//! Pre-decoded bytecode for booked runs, and the one statement of the
//! run-ahead instructions' semantics.
//!
//! [`Cpu::step`] re-fetches a fat [`Instr`] enum and re-dispatches a
//! large `match` on every visited cycle, re-checking interrupts and
//! frame state each time. For a stretch of ops that cannot trap, stall,
//! send a message or emit a probe event, all of that is invariant. This
//! module lowers a [`Program`] once into a dense, flat bytecode
//! ([`DecOp`]) with register indices and immediates pre-resolved, so a
//! scheduler can *run ahead* ([`Cpu::run_ahead`]): execute op after op
//! in one tight loop, one op per cycle, until the first op that could
//! do any of those things. `step` runs every run-ahead op through the
//! same per-op `exec` as the run loop.
//!
//! # The run-ahead set
//!
//! An op may run ahead only when executing it can never diverge from
//! `step`'s slow path over the same cycle:
//!
//! * it costs exactly **1 cycle** (so `k` ops run ahead at cycle `t`
//!   account exactly for cycles `t .. t + k`);
//! * it emits no trace-probe events and sends no messages;
//! * it does not touch the frame pointer, frame state, or PSR control
//!   bits (condition codes and the full/empty condition bit are data,
//!   updated exactly as `step` would).
//!
//! That admits the untagged single-cycle ALU ops, `nop`, `movi`,
//! `fmovi`, `rdpsr`, `rdfp`, branches (taken or not; the delay slot is
//! simply the next op of the PC chain), `jmpl`, and tagged ALU ops —
//! the last only when no operand is a future, checked per execution.
//! Loads and stores (integer and FP, every full/empty flavor) run
//! ahead when their address is aligned and not a future and the
//! [`RunMemory`] says the access completes at once; with [`NoMemory`]
//! none does, and a run is register-only.
//!
//! Everything else lowers to [`DecOp::Other`], which ends a run and
//! which `step` executes through its own `match`. The decoded image is
//! **derived state**: machines rebuild it from the program on
//! construction and on snapshot restore, and it must never be encoded
//! into an APRL snapshot (DESIGN.md §13).

use crate::cpu::{alu_add, alu_sub, logic_cc, Cpu};
use crate::frame::{FrameState, TaskFrame};
use crate::isa::{AluOp, Cond, Instr, LoadFlavor, Operand, Reg, StoreFlavor};
use crate::memport::{NoMemory, RunMemory};
use crate::program::Program;
use crate::psr::{CondCodes, FpCond, Psr};
use crate::word::Word;

/// Upper bound on a single booked run, in instructions. Bounds how far
/// a CPU's architectural state may run ahead of the machine clock
/// (cutting a run replays O(len) ops) and keeps the
/// progress-signature plateau a booked run creates far below any
/// plausible watchdog horizon.
pub const MAX_RUN: u32 = 64;

/// Pre-resolved register index: `0..8` are the globals (`0` is the
/// hardwired-zero `g0`), `8..40` are the active frame's locals.
pub type RegIdx = u8;

/// ALU operations that can run ahead: the single-cycle, divide-free
/// subset of [`AluOp`].
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
    /// Outside the run-ahead set: executed by [`Cpu::step`]'s own
    /// `match`.
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
        /// Strict: runs ahead only while neither operand is a future.
        tagged: bool,
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
        /// Strict: runs ahead only while `s1` is not a future.
        tagged: bool,
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
    /// Conditional branch with a delay slot.
    Branch {
        /// Condition.
        cond: Cond,
        /// Signed word offset from the branch.
        offset: i32,
    },
    /// `d = pc + 2; npc = s1 + s2` (register form).
    JmplR {
        /// Base register.
        s1: RegIdx,
        /// Offset register.
        s2: RegIdx,
        /// Link destination.
        d: RegIdx,
    },
    /// `d = pc + 2; npc = s1 + imm` (immediate form).
    JmplI {
        /// Base register.
        s1: RegIdx,
        /// Pre-resolved offset.
        imm: u32,
        /// Link destination.
        d: RegIdx,
    },
    /// `d = mem[a + offset]`.
    Load {
        /// Full/empty flavor.
        flavor: LoadFlavor,
        /// Base address register.
        a: RegIdx,
        /// Byte offset (two's complement).
        offset: u32,
        /// Destination.
        d: RegIdx,
    },
    /// `mem[a + offset] = s`.
    Store {
        /// Full/empty flavor.
        flavor: StoreFlavor,
        /// Base address register.
        a: RegIdx,
        /// Byte offset (two's complement).
        offset: u32,
        /// Source.
        s: RegIdx,
    },
    /// FP register `fd = mem[a + offset]`.
    LdF {
        /// Base address register.
        a: RegIdx,
        /// Byte offset (two's complement).
        offset: u32,
        /// Destination FP register.
        fd: u8,
    },
    /// `mem[a + offset] =` FP register `fs`.
    StF {
        /// Source FP register.
        fs: u8,
        /// Base address register.
        a: RegIdx,
        /// Byte offset (two's complement).
        offset: u32,
    },
}

/// A program lowered to flat bytecode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedProgram {
    /// `ops[pc]` is the decoded form of `prog.instrs[pc]`.
    ops: Vec<DecOp>,
}

fn reg_idx(r: Reg) -> RegIdx {
    match r {
        Reg::G(i) => i,
        Reg::L(i) => 8 + i,
    }
}

/// A destination register's index: writes to `g0` go to the sink.
fn dst_idx(r: Reg) -> RegIdx {
    match r {
        Reg::G(0) => SINK,
        r => reg_idx(r),
    }
}

/// `ins` as a run-ahead [`DecOp`], or [`DecOp::Other`].
#[inline(always)]
pub(crate) fn lower_instr(ins: Instr) -> DecOp {
    match ins {
        Instr::Nop => DecOp::Nop,
        Instr::MovI { imm, d } => DecOp::MovI { d: dst_idx(d), imm },
        Instr::FMovI { bits, fd } => DecOp::FMovI { fd, bits },
        Instr::RdPsr { d } => DecOp::RdPsr { d: dst_idx(d) },
        Instr::RdFp { d } => DecOp::RdFp { d: dst_idx(d) },
        Instr::Alu {
            op,
            s1,
            s2,
            d,
            tagged,
        } => {
            let Some(op) = SafeAlu::of(op) else {
                return DecOp::Other;
            };
            let (s1, d) = (reg_idx(s1), dst_idx(d));
            match s2 {
                Operand::Reg(r) => DecOp::AluRR {
                    op,
                    tagged,
                    s1,
                    s2: reg_idx(r),
                    d,
                },
                Operand::Imm(i) => DecOp::AluRI {
                    op,
                    tagged,
                    s1,
                    imm: i as u32,
                    d,
                },
            }
        }
        Instr::Branch { cond, offset } => DecOp::Branch { cond, offset },
        Instr::Jmpl { s1, s2, d } => match s2 {
            Operand::Reg(r) => DecOp::JmplR {
                s1: reg_idx(s1),
                s2: reg_idx(r),
                d: dst_idx(d),
            },
            Operand::Imm(i) => DecOp::JmplI {
                s1: reg_idx(s1),
                imm: i as u32,
                d: dst_idx(d),
            },
        },
        Instr::Load {
            flavor,
            a,
            offset,
            d,
        } => DecOp::Load {
            flavor,
            a: reg_idx(a),
            offset: offset as u32,
            d: dst_idx(d),
        },
        Instr::Store {
            flavor,
            a,
            offset,
            s,
        } => DecOp::Store {
            flavor,
            a: reg_idx(a),
            offset: offset as u32,
            s: reg_idx(s),
        },
        Instr::LdF { a, offset, fd } => DecOp::LdF {
            a: reg_idx(a),
            offset: offset as u32,
            fd,
        },
        Instr::StF { fs, a, offset } => DecOp::StF {
            fs,
            a: reg_idx(a),
            offset: offset as u32,
        },
        _ => DecOp::Other,
    }
}

impl DecodedProgram {
    /// Lowers `prog` into flat bytecode.
    pub fn lower(prog: &Program) -> DecodedProgram {
        DecodedProgram {
            ops: prog.instrs.iter().map(|&i| lower_instr(i)).collect(),
        }
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

/// The register-file index writes to `g0` lower to: a slot no op
/// reads, so `g0` itself stays zero.
const SINK: RegIdx = 40;

/// What an op reads and writes besides memory: the registers by
/// [`RegIdx`], the active frame's FP registers and PSR.
pub(crate) trait Regs {
    fn rd(&self, r: RegIdx) -> Word;
    fn wr(&mut self, r: RegIdx, w: Word);
    fn fregs(&mut self) -> &mut [u32; 8];
    fn psr(&mut self) -> &mut Psr;
}

/// `step`'s view: the globals and the active frame, in place.
pub(crate) struct InPlace<'a> {
    pub(crate) globals: &'a mut [Word; 8],
    pub(crate) f: &'a mut TaskFrame,
}

impl Regs for InPlace<'_> {
    #[inline(always)]
    fn rd(&self, r: RegIdx) -> Word {
        if r < 8 {
            self.globals[r as usize]
        } else {
            self.f.regs[(r - 8) as usize]
        }
    }

    #[inline(always)]
    fn wr(&mut self, r: RegIdx, w: Word) {
        match r {
            0 | SINK => {}
            1..8 => self.globals[r as usize] = w,
            _ => self.f.regs[(r - 8) as usize] = w,
        }
    }

    #[inline(always)]
    fn fregs(&mut self) -> &mut [u32; 8] {
        &mut self.f.fregs
    }

    #[inline(always)]
    fn psr(&mut self) -> &mut Psr {
        &mut self.f.psr
    }
}

/// A run's view: the globals and the active frame's registers copied
/// into one array (`g0` at 0, never written; the sink at 40), so a
/// register access is one index with no branch.
#[derive(Debug, Clone)]
struct Flat {
    r: [Word; 41],
    fregs: [u32; 8],
    psr: Psr,
}

impl Flat {
    fn load(&mut self, globals: &[Word; 8], f: &TaskFrame) {
        self.r[..8].copy_from_slice(globals);
        self.r[8..40].copy_from_slice(&f.regs);
        self.fregs = f.fregs;
        self.psr = f.psr;
    }

    fn store(&self, globals: &mut [Word; 8], f: &mut TaskFrame) {
        debug_assert_eq!(self.r[0], Word::ZERO, "g0 was written");
        globals[1..].copy_from_slice(&self.r[1..8]);
        f.regs.copy_from_slice(&self.r[8..40]);
        f.fregs = self.fregs;
        f.psr = self.psr;
    }
}

impl Regs for Flat {
    #[inline(always)]
    fn rd(&self, r: RegIdx) -> Word {
        self.r[r as usize]
    }

    #[inline(always)]
    fn wr(&mut self, r: RegIdx, w: Word) {
        self.r[r as usize] = w;
    }

    #[inline(always)]
    fn fregs(&mut self) -> &mut [u32; 8] {
        &mut self.fregs
    }

    #[inline(always)]
    fn psr(&mut self) -> &mut Psr {
        &mut self.psr
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

/// Whether `cond` holds under `psr`.
#[inline(always)]
pub(crate) fn cond_holds(psr: &Psr, cond: Cond) -> bool {
    let cc = psr.cc;
    match cond {
        Cond::Always => true,
        Cond::Never => false,
        Cond::Eq => cc.z,
        Cond::Ne => !cc.z,
        Cond::Lt => cc.n != cc.v,
        Cond::Le => cc.z || (cc.n != cc.v),
        Cond::Gt => !(cc.z || (cc.n != cc.v)),
        Cond::Ge => cc.n == cc.v,
        Cond::Ltu => cc.c,
        Cond::Geu => !cc.c,
        Cond::Full => psr.fe_cond,
        Cond::Empty => !psr.fe_cond,
        Cond::FpEq => psr.fcc == FpCond::Eq,
        Cond::FpLt => psr.fcc == FpCond::Lt,
        Cond::FpGt => psr.fcc == FpCond::Gt,
    }
}

/// The address `base + offset` a memory op of the run-ahead set uses,
/// or `None` where `step` would trap instead: a future base (an
/// implicit touch) or a misaligned address.
#[inline(always)]
fn address(base: Word, offset: u32) -> Option<u32> {
    let addr = base.0.wrapping_add(offset);
    (!base.is_future() && addr & 3 == 0).then_some(addr)
}

/// Executes `op`, the instruction at `pc` with `npc` next in the PC
/// chain of the active frame (index `fp`, registers `x`), as op `k` of
/// a run: its register and condition-code effects, its memory access
/// through `mem`. Returns the PC that follows `npc` — the caller moves
/// the chain on to `(npc, returned)` — or `None`, having changed
/// nothing, when `op` is outside the run-ahead set, a tagged operand
/// is a future, or the access would trap or `mem` declines it. The
/// caller charges the ledger. The chain stays in the caller's locals
/// so that a run's next fetch never waits on a store.
#[inline(always)]
pub(crate) fn exec(
    x: &mut impl Regs,
    fp: usize,
    op: DecOp,
    (pc, npc): (u32, u32),
    k: u32,
    mem: &mut impl RunMemory,
) -> Option<u32> {
    let mut next = npc.wrapping_add(1);
    match op {
        DecOp::Other => return None,
        DecOp::Nop => {}
        DecOp::MovI { d, imm } => x.wr(d, Word(imm)),
        DecOp::FMovI { fd, bits } => x.fregs()[(fd & 7) as usize] = bits,
        DecOp::AluRR {
            op,
            tagged,
            s1,
            s2,
            d,
        } => {
            let (a, b) = (x.rd(s1), x.rd(s2));
            if tagged && (a.is_future() || b.is_future()) {
                return None;
            }
            let (r, cc) = eval_alu(op, a.0, b.0);
            x.wr(d, Word(r));
            x.psr().cc = cc;
        }
        DecOp::AluRI {
            op,
            tagged,
            s1,
            imm,
            d,
        } => {
            let a = x.rd(s1);
            if tagged && a.is_future() {
                return None;
            }
            let (r, cc) = eval_alu(op, a.0, imm);
            x.wr(d, Word(r));
            x.psr().cc = cc;
        }
        DecOp::RdPsr { d } => {
            let w = x.psr().to_word();
            x.wr(d, w);
        }
        DecOp::RdFp { d } => x.wr(d, Word::fixnum(fp as i32)),
        DecOp::Branch { cond, offset } => {
            if cond_holds(x.psr(), cond) {
                next = (pc as i64 + offset as i64) as u32;
            }
        }
        DecOp::JmplR { s1, s2, d } => {
            next = x.rd(s1).0.wrapping_add(x.rd(s2).0);
            // Link value: the instruction after the delay slot, raw.
            x.wr(d, Word(pc.wrapping_add(2)));
        }
        DecOp::JmplI { s1, imm, d } => {
            next = x.rd(s1).0.wrapping_add(imm);
            x.wr(d, Word(pc.wrapping_add(2)));
        }
        DecOp::Load {
            flavor,
            a,
            offset,
            d,
        } => {
            let addr = address(x.rd(a), offset)?;
            let (word, fe) = mem.load(k, addr, flavor)?;
            x.wr(d, word);
            if !flavor.fe_trap {
                x.psr().fe_cond = fe;
            }
        }
        DecOp::Store {
            flavor,
            a,
            offset,
            s,
        } => {
            let addr = address(x.rd(a), offset)?;
            let fe = mem.store(k, addr, x.rd(s), flavor)?;
            if !flavor.fe_trap {
                x.psr().fe_cond = fe;
            }
        }
        DecOp::LdF { a, offset, fd } => {
            let addr = address(x.rd(a), offset)?;
            let (word, _) = mem.load(k, addr, LoadFlavor::NORMAL)?;
            x.fregs()[(fd & 7) as usize] = word.0;
        }
        DecOp::StF { fs, a, offset } => {
            let addr = address(x.rd(a), offset)?;
            let value = Word(x.fregs()[(fs & 7) as usize]);
            mem.store(k, addr, value, StoreFlavor::NORMAL)?;
        }
    }
    Some(next)
}

/// A run's result: the registers, condition codes and PC chain of the
/// active frame and the globals after the ops it executed, held apart
/// from the processor until [`Cpu::commit_run`] installs them. A
/// machine keeps one per booked run.
#[derive(Debug, Clone)]
pub struct RunState {
    x: Flat,
    pc: u32,
    npc: u32,
}

impl Default for RunState {
    fn default() -> RunState {
        RunState {
            x: Flat {
                r: [Word::ZERO; 41],
                fregs: [0; 8],
                psr: Psr::default(),
            },
            pc: 0,
            npc: 0,
        }
    }
}

impl Cpu {
    /// Whether the processor may run ahead: it is not halted, has no
    /// pending interrupt, and its active frame is `Ready` — every
    /// condition `step` checks before executing, re-established here.
    #[inline]
    fn can_run_ahead(&self) -> bool {
        !self.halted && self.irqs.is_empty() && self.frames[self.fp].state == FrameState::Ready
    }

    /// Runs ahead on a copy: executes up to `max` ops from the active
    /// frame's PC, one per cycle, into `out`, stopping before the first
    /// op outside the run-ahead set, one that would trap, or one whose
    /// access `mem` declines. Returns the number of ops executed: `0`
    /// when the processor is halted, has an interrupt pending, or has
    /// no ready active frame. The processor itself is untouched;
    /// [`Cpu::commit_run`] leaves it bit-identical to that many
    /// consecutive [`Cpu::step`] calls.
    pub fn run_ahead(
        &self,
        dec: &DecodedProgram,
        max: u32,
        mem: &mut impl RunMemory,
        out: &mut RunState,
    ) -> u32 {
        if !self.can_run_ahead() {
            return 0;
        }
        let f = &self.frames[self.fp];
        out.x.load(&self.globals, f);
        let (mut pc, mut npc, mut k) = (f.pc, f.npc, 0);
        while k < max {
            let Some(&op) = dec.ops.get(pc as usize) else {
                break;
            };
            let Some(next) = exec(&mut out.x, self.fp, op, (pc, npc), k, mem) else {
                break;
            };
            (pc, npc, k) = (npc, next, k + 1);
        }
        (out.pc, out.npc) = (pc, npc);
        k
    }

    /// Installs the state of `n` ops [`Cpu::run_ahead`] executed from
    /// the processor's current state, and charges them: `n`
    /// instructions and `n` useful cycles. The memory ops among them
    /// are charged as their accesses retire, by whoever applies them.
    pub fn commit_run(&mut self, run: &RunState, n: u32) {
        let f = &mut self.frames[self.fp];
        run.x.store(&mut self.globals, f);
        (f.pc, f.npc) = (run.pc, run.npc);
        self.stats.instructions += n as u64;
        self.stats.useful_cycles += n as u64;
    }

    /// Length of the register-only run the processor could run ahead
    /// right now (capped at [`MAX_RUN`]): `0` when it is halted, has an
    /// interrupt pending, has no ready active frame, or the op at its
    /// PC is a memory op or outside the run-ahead set.
    pub fn bookable_run(&self, dec: &DecodedProgram) -> u32 {
        self.run_ahead(dec, MAX_RUN, &mut NoMemory, &mut RunState::default())
    }

    /// Executes and retires the next `n` register-only ops, which
    /// [`Cpu::bookable_run`] found: the same state as `n` consecutive
    /// [`Cpu::step`] calls.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` ops could run.
    pub fn run_decoded(&mut self, dec: &DecodedProgram, n: u32) {
        let mut run = RunState::default();
        let done = self.run_ahead(dec, n, &mut NoMemory, &mut run);
        assert_eq!(done, n, "run_decoded past the bookable run");
        self.commit_run(&run, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuConfig;
    use crate::isa::asm::assemble;
    use crate::memport::{AccessCtx, LoadReply, StoreReply};

    #[test]
    fn lowering_classifies_the_run_ahead_set() {
        let prog = assemble(
            "
            movi 7, r1
            add r1, 3, r2
            xor r2, r1, r3
            nop
            ld r1+0, r4
            sub r3, 1, r3
            mul r3, r3, r3
            halt
        ",
        )
        .unwrap();
        let dec = DecodedProgram::lower(&prog);
        assert!(matches!(dec.op(4), Some(DecOp::Load { .. })));
        assert_eq!(dec.op(6), Some(DecOp::Other), "mul takes three cycles");
        assert_eq!(dec.op(7), Some(DecOp::Other), "halt");
        assert_eq!(dec.op(999), None, "past the end");
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.boot(0);
        assert_eq!(cpu.bookable_run(&dec), 4, "register-only up to the load");
    }

    #[test]
    fn runs_go_through_branches_and_cap_at_max_run() {
        let prog = assemble("top:\nadd r1, 1, r1\njmp top\nnop\nhalt").unwrap();
        let dec = DecodedProgram::lower(&prog);
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.boot(0);
        assert_eq!(cpu.bookable_run(&dec), MAX_RUN);
        cpu.run_decoded(&dec, MAX_RUN);
        // 64 ops: 21 trips of add, jmp, nop, then one more add.
        assert_eq!(cpu.get_reg(Reg::L(1)), Word(22));
        assert_eq!(cpu.stats.instructions, MAX_RUN as u64);
    }

    #[test]
    fn a_future_operand_ends_a_tagged_run() {
        let prog = assemble("tadd r1, 4, r2\ntadd r2, r3, r4\nhalt").unwrap();
        let dec = DecodedProgram::lower(&prog);
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.boot(0);
        assert_eq!(cpu.bookable_run(&dec), 2);
        cpu.set_reg(Reg::L(3), Word::future_ptr(0x40));
        assert_eq!(cpu.bookable_run(&dec), 1, "the second tadd would trap");
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

        cpu.halt();
        assert_eq!(cpu.bookable_run(&dec), 0, "halted CPU never books");
    }

    #[test]
    fn running_ahead_leaves_the_processor_until_the_commit() {
        let prog = assemble("movi 5, r1\nmovi 6, g1\nmovi 7, g0\njmp 0\nnop").unwrap();
        let dec = DecodedProgram::lower(&prog);
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.boot(0);
        let before = cpu.active_frame().clone();
        let mut run = RunState::default();
        assert_eq!(cpu.run_ahead(&dec, 10, &mut NoMemory, &mut run), 10);
        assert_eq!(cpu.active_frame(), &before, "running ahead changes nothing");
        assert_eq!(cpu.stats.instructions, 0, "and charges nothing");
        cpu.commit_run(&run, 10);
        struct Unused;
        impl crate::memport::MemoryPort for Unused {
            fn load(&mut self, _: u32, _: LoadFlavor, _: AccessCtx) -> LoadReply {
                unreachable!("the program has no loads")
            }
            fn store(&mut self, _: u32, _: Word, _: StoreFlavor, _: AccessCtx) -> StoreReply {
                unreachable!("the program has no stores")
            }
        }
        let mut stepped = Cpu::new(CpuConfig::default());
        stepped.boot(0);
        for _ in 0..10 {
            stepped.step(&prog, &mut Unused);
        }
        assert_eq!(cpu.active_frame(), stepped.active_frame());
        assert_eq!(cpu.get_reg(Reg::G(1)), Word(6));
        assert_eq!(cpu.get_reg(Reg::G(0)), Word::ZERO, "g0 stays zero");
        assert_eq!(cpu.stats, stepped.stats);
    }
}

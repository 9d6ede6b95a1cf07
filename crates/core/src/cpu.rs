//! The APRIL processor execution engine.
//!
//! The processor "executes instructions from a given thread until it
//! performs a remote memory request or fails in a synchronization
//! attempt" (paper, Section 1) — coarse-grain multithreading. This
//! module implements the user-visible processor state of Figure 2
//! (four task frames, eight global registers, a frame pointer) and a
//! deterministic, cycle-accounted interpreter for the instruction set
//! of Section 4.
//!
//! The engine reports traps to its caller rather than running handlers
//! itself: in the real machine the handlers are run-time software
//! (Section 6), which this reproduction keeps in the `april-runtime`
//! crate. Trap *entry* (5 cycles of pipeline squash and vectoring) is
//! charged here; handler bodies charge their own cycles through
//! [`Cpu::charge_handler`].

use crate::decoded::{eval_alu, exec, lower_instr, InPlace, SafeAlu};
use crate::frame::{FrameState, TaskFrame};
use crate::isa::{AluOp, FpOp, Instr, Operand, Reg};
use crate::memport::NoMemory;
use crate::memport::{AccessCtx, LoadReply, MemoryPort, StoreReply};
use crate::program::Program;
use crate::psr::{CondCodes, FpCond};
use crate::stats::CpuStats;
use crate::trap::{Trap, TRAP_ENTRY_CYCLES};
use crate::word::Word;
use april_obs::{EventKind, Probe};
use std::collections::VecDeque;

/// Default number of hardware task frames (the SPARC implementation's
/// eight register windows give four frames; Section 5).
pub const DEFAULT_NFRAMES: usize = 4;

/// Processor timing and sizing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Number of hardware task frames.
    pub nframes: usize,
    /// Cycles for integer multiply.
    pub mul_cycles: u64,
    /// Cycles for integer divide/remainder.
    pub div_cycles: u64,
    /// Trap entry overhead (pipeline squash + vectoring).
    pub trap_entry_cycles: u64,
    /// Cycles for LDIO/STIO out-of-band accesses.
    pub io_cycles: u64,
    /// Cycles for floating add/subtract.
    pub fadd_cycles: u64,
    /// Cycles for floating multiply.
    pub fmul_cycles: u64,
    /// Cycles for floating divide.
    pub fdiv_cycles: u64,
    /// Cycles to issue a FLUSH.
    pub flush_cycles: u64,
}

impl Default for CpuConfig {
    fn default() -> CpuConfig {
        CpuConfig {
            nframes: DEFAULT_NFRAMES,
            mul_cycles: 3,
            div_cycles: 12,
            trap_entry_cycles: TRAP_ENTRY_CYCLES,
            io_cycles: 2,
            fadd_cycles: 2,
            fmul_cycles: 4,
            fdiv_cycles: 16,
            flush_cycles: 2,
        }
    }
}

/// The result of advancing the processor by one instruction attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// An instruction retired from the active frame.
    Executed,
    /// The controller held the processor (`MHOLD`); the instruction did
    /// not retire and will be reissued. The stall has been charged.
    Stalled {
        /// Cycles spent held.
        cycles: u64,
    },
    /// A trap was signalled; entry cost has been charged, the PC chain
    /// still addresses the trapping instruction, and the run-time
    /// handler must now run.
    Trapped(Trap),
    /// A run-time system call retired; the service routine must run.
    RtCall {
        /// Service number.
        n: u16,
    },
    /// The active frame is not runnable; the scheduler must intervene
    /// (or the processor idles while the controller works).
    NoReadyFrame,
    /// The processor has halted.
    Halted,
}

/// One APRIL processor.
///
/// # Examples
///
/// Running a two-instruction program against a trivial memory:
///
/// ```
/// use april_core::cpu::{Cpu, CpuConfig, StepEvent};
/// use april_core::isa::{AluOp, Instr, Operand, Reg};
/// use april_core::program::ProgramBuilder;
/// use april_core::memport::{AccessCtx, LoadReply, MemoryPort, StoreReply};
/// use april_core::word::Word;
///
/// struct NoMem;
/// impl MemoryPort for NoMem {
///     fn load(&mut self, _: u32, _: april_core::isa::LoadFlavor, _: AccessCtx) -> LoadReply {
///         LoadReply::Data { word: Word::ZERO, fe: true }
///     }
///     fn store(&mut self, _: u32, _: Word, _: april_core::isa::StoreFlavor, _: AccessCtx)
///         -> StoreReply {
///         StoreReply::Done { fe: false }
///     }
/// }
///
/// let mut b = ProgramBuilder::new();
/// b.emit(Instr::Alu { op: AluOp::Add, s1: Reg::ZERO, s2: Operand::Imm(5), d: Reg::L(1),
///                     tagged: false });
/// b.emit(Instr::Halt);
/// let prog = b.finish()?;
///
/// let mut cpu = Cpu::new(CpuConfig::default());
/// cpu.boot(0);
/// assert_eq!(cpu.step(&prog, &mut NoMem), StepEvent::Executed);
/// assert_eq!(cpu.get_reg(Reg::L(1)), Word(5));
/// assert_eq!(cpu.step(&prog, &mut NoMem), StepEvent::Halted);
/// # Ok::<(), april_core::program::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    pub(crate) frames: Vec<TaskFrame>,
    pub(crate) globals: [Word; 8],
    pub(crate) fp: usize,
    pub(crate) halted: bool,
    pub(crate) irqs: VecDeque<usize>,
    /// Cycle ledger.
    pub stats: CpuStats,
    pub(crate) cfg: CpuConfig,
    /// Machine clock mirror, kept current by the scheduler (the ledger
    /// in `stats` lags the clock, so trace events cannot use it).
    pub(crate) clock: u64,
    /// Trace recorder for this processor's lane (inert by default).
    pub(crate) probe: Probe,
}

impl Default for Cpu {
    fn default() -> Cpu {
        Cpu::new(CpuConfig::default())
    }
}

impl Cpu {
    /// Creates a processor with all frames empty.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.nframes` is zero.
    pub fn new(cfg: CpuConfig) -> Cpu {
        assert!(cfg.nframes > 0, "need at least one task frame");
        Cpu {
            frames: vec![TaskFrame::default(); cfg.nframes],
            globals: [Word::ZERO; 8],
            fp: 0,
            halted: false,
            irqs: VecDeque::new(),
            stats: CpuStats::default(),
            cfg,
            clock: 0,
            probe: Probe::default(),
        }
    }

    /// Mirrors the machine clock so trace events carry the true cycle.
    /// Schedulers call this alongside the controller/directory clocks.
    pub fn set_clock(&mut self, now: u64) {
        self.clock = now;
    }

    /// Installs a trace recorder for this processor's lane.
    pub fn attach_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The processor's trace recorder.
    pub fn trace_probe(&self) -> &Probe {
        &self.probe
    }

    /// Resets frame 0 to start executing at `entry` and selects it.
    pub fn boot(&mut self, entry: u32) {
        self.fp = 0;
        self.halted = false;
        self.frames[0].reset_at(entry);
    }

    /// The processor configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Number of task frames.
    pub fn nframes(&self) -> usize {
        self.frames.len()
    }

    /// Current frame pointer.
    pub fn fp(&self) -> usize {
        self.fp
    }

    /// Sets the frame pointer (modulo the frame count), as the
    /// `STFP`/`INCFP`/`DECFP` instructions and the context-switch trap
    /// handler do.
    pub fn set_fp(&mut self, fp: usize) {
        self.fp = fp % self.frames.len();
    }

    /// True once the processor has executed `HALT` or run off the end
    /// of the text segment.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Halts the processor (used by the run-time on machine shutdown).
    pub fn halt(&mut self) {
        self.halted = true;
    }

    /// Shared view of frame `i`.
    pub fn frame(&self, i: usize) -> &TaskFrame {
        &self.frames[i]
    }

    /// Mutable view of frame `i` (used by the run-time to load and
    /// unload threads).
    pub fn frame_mut(&mut self, i: usize) -> &mut TaskFrame {
        &mut self.frames[i]
    }

    /// The active task frame.
    pub fn active_frame(&self) -> &TaskFrame {
        &self.frames[self.fp]
    }

    /// Mutable active task frame.
    pub fn active_frame_mut(&mut self) -> &mut TaskFrame {
        &mut self.frames[self.fp]
    }

    /// Reads a register in the active frame (or a global).
    pub fn get_reg(&self, r: Reg) -> Word {
        match r {
            Reg::G(i) => self.globals[i as usize],
            Reg::L(i) => self.frames[self.fp].regs[i as usize],
        }
    }

    /// Writes a register in the active frame. Writes to `g0` are
    /// discarded (it is hardwired to zero).
    pub fn set_reg(&mut self, r: Reg, w: Word) {
        match r {
            Reg::G(0) => {}
            Reg::G(i) => self.globals[i as usize] = w,
            Reg::L(i) => self.frames[self.fp].regs[i as usize] = w,
        }
    }

    /// Reads FP register `f` of the active frame as raw bits.
    pub fn get_freg(&self, f: u8) -> u32 {
        self.frames[self.fp].fregs[f as usize & 7]
    }

    /// Writes FP register `f` of the active frame.
    pub fn set_freg(&mut self, f: u8, bits: u32) {
        self.frames[self.fp].fregs[f as usize & 7] = bits;
    }

    /// Index of the next frame after the active one that is `Ready`,
    /// searching in `INCFP` order. Returns `None` if no other frame is
    /// runnable.
    pub fn next_ready_frame(&self) -> Option<usize> {
        let n = self.frames.len();
        (1..=n)
            .map(|k| (self.fp + k) % n)
            .find(|&i| self.frames[i].state == FrameState::Ready)
    }

    /// True if any frame is `Ready`.
    pub fn any_ready_frame(&self) -> bool {
        self.frames.iter().any(|f| f.state == FrameState::Ready)
    }

    /// Posts an asynchronous interprocessor interrupt (Section 3.4).
    pub fn post_interrupt(&mut self, from: usize) {
        self.irqs.push_back(from);
    }

    /// Charges `cycles` of run-time handler time (the software part of
    /// trap handling, e.g. the 6-cycle context-switch body).
    pub fn charge_handler(&mut self, cycles: u64) {
        self.stats.handler_cycles += cycles;
    }

    /// Charges `cycles` of idle time (no runnable frame).
    pub fn charge_idle(&mut self, cycles: u64) {
        self.stats.idle_cycles += cycles;
    }

    /// Records a context switch in the ledger.
    pub fn count_context_switch(&mut self) {
        self.stats.context_switches += 1;
        self.probe
            .emit(self.clock, EventKind::ContextSwitch, self.fp as u64, 0);
    }

    fn raise(&mut self, t: Trap) -> StepEvent {
        self.stats.traps += 1;
        self.stats.trap_cycles += self.cfg.trap_entry_cycles;
        match t {
            Trap::RemoteMiss { .. } => self.stats.remote_misses += 1,
            Trap::FullEmpty { .. } => self.stats.fe_traps += 1,
            Trap::FutureTouch { .. } | Trap::FutureAddr { .. } => self.stats.future_traps += 1,
            _ => {}
        }
        match t {
            Trap::FullEmpty { addr, is_store } => {
                self.probe.emit(
                    self.clock,
                    EventKind::FullEmptyWait,
                    addr as u64,
                    is_store as u64,
                );
            }
            Trap::FutureTouch { reg } | Trap::FutureAddr { reg } => {
                self.probe
                    .emit(self.clock, EventKind::FutureTouch, encode_reg(reg), 0);
            }
            _ => {
                let b = match t {
                    Trap::RemoteMiss { addr, .. } | Trap::Alignment { addr } => addr as u64,
                    Trap::RtCall { n } => n as u64,
                    Trap::Interrupt { from } => from as u64,
                    _ => 0,
                };
                self.probe
                    .emit(self.clock, EventKind::TrapTaken, t.vector() as u64, b);
            }
        }
        self.frames[self.fp].psr.in_trap = true;
        StepEvent::Trapped(t)
    }

    /// Executes (or attempts) one instruction from the active frame.
    ///
    /// On [`StepEvent::Executed`] the instruction retired and its cost
    /// was charged to `useful_cycles`. On a trap, the PC chain still
    /// addresses the trapping instruction so the handler can retry it
    /// (the hardware `RETT` path). On a stall, the memory system's hold
    /// time was charged and the instruction will be reissued.
    pub fn step(&mut self, prog: &Program, mut mem: impl MemoryPort) -> StepEvent {
        if self.halted {
            return StepEvent::Halted;
        }
        // Asynchronous interrupts are taken between instructions when
        // traps are enabled and we are not already in a handler.
        if !self.irqs.is_empty() {
            let f = &self.frames[self.fp];
            if f.psr.traps_enabled && !f.psr.in_trap {
                let from = self.irqs.pop_front().expect("checked nonempty");
                return self.raise(Trap::Interrupt { from });
            }
        }
        if self.frames[self.fp].state != FrameState::Ready {
            return StepEvent::NoReadyFrame;
        }

        let pc = self.frames[self.fp].pc;
        let npc = self.frames[self.fp].npc;
        // Borrowing fetch: the hot loop re-reads the text segment every
        // visited cycle, so skip the by-value copy of the fat enum.
        let Some(&instr) = prog.fetch_ref(pc) else {
            self.halted = true;
            return StepEvent::Halted;
        };

        // The run-ahead ops retire through the statement booked runs
        // share (`crate::decoded`); memory ops and the ops that could
        // trap fall through to the arms below.
        let fp = self.fp;
        let mut x = InPlace {
            globals: &mut self.globals,
            f: &mut self.frames[fp],
        };
        if let Some(next) = exec(&mut x, fp, lower_instr(instr), (pc, npc), 0, &mut NoMemory) {
            (x.f.pc, x.f.npc) = (npc, next);
            self.stats.instructions += 1;
            self.stats.useful_cycles += 1;
            return StepEvent::Executed;
        }

        let new_pc = npc;
        let new_npc = npc.wrapping_add(1);
        let mut cost: u64 = 1;
        let mut rtcall: Option<u16> = None;

        match instr {
            Instr::Falu { op, fs1, fs2, fd } => {
                let a = f32::from_bits(self.get_freg(fs1));
                let b = f32::from_bits(self.get_freg(fs2));
                let (r, c) = match op {
                    FpOp::FAdd => (a + b, self.cfg.fadd_cycles),
                    FpOp::FSub => (a - b, self.cfg.fadd_cycles),
                    FpOp::FMul => (a * b, self.cfg.fmul_cycles),
                    FpOp::FDiv => (a / b, self.cfg.fdiv_cycles),
                };
                cost = c;
                self.set_freg(fd, r.to_bits());
            }
            Instr::Fcmp { fs1, fs2 } => {
                let a = f32::from_bits(self.get_freg(fs1));
                let b = f32::from_bits(self.get_freg(fs2));
                cost = self.cfg.fadd_cycles;
                self.frames[self.fp].psr.fcc = match a.partial_cmp(&b) {
                    Some(std::cmp::Ordering::Equal) => FpCond::Eq,
                    Some(std::cmp::Ordering::Less) => FpCond::Lt,
                    Some(std::cmp::Ordering::Greater) => FpCond::Gt,
                    None => FpCond::Unordered,
                };
            }
            Instr::FixToF { s, fd } => {
                let v = self.get_reg(s);
                if v.is_future() {
                    return self.raise(Trap::FutureTouch { reg: s });
                }
                let n = (v.0 as i32) >> 2;
                cost = self.cfg.fadd_cycles;
                self.set_freg(fd, (n as f32).to_bits());
            }
            Instr::FToFix { fs, d } => {
                let x = f32::from_bits(self.get_freg(fs));
                cost = self.cfg.fadd_cycles;
                self.set_reg(d, Word::fixnum(x as i32));
            }
            Instr::LdF { a, offset, fd } => {
                let base = self.get_reg(a);
                if base.is_future() {
                    return self.raise(Trap::FutureAddr { reg: a });
                }
                let addr = base.0.wrapping_add(offset as u32);
                if addr & 3 != 0 {
                    return self.raise(Trap::Alignment { addr });
                }
                match mem.load(
                    addr,
                    crate::isa::LoadFlavor::NORMAL,
                    AccessCtx { frame: self.fp },
                ) {
                    LoadReply::Data { word, .. } => {
                        // Counted on retire only: a stalled or trapped
                        // attempt reissues and must not inflate the
                        // ledger transiently.
                        self.stats.mem_ops += 1;
                        self.set_freg(fd, word.0);
                    }
                    LoadReply::Stall { cycles } => {
                        self.stats.stall_cycles += cycles;
                        return StepEvent::Stalled { cycles };
                    }
                    LoadReply::RemoteMiss => {
                        return self.raise(Trap::RemoteMiss {
                            addr,
                            is_store: false,
                        });
                    }
                    LoadReply::FeViolation => {
                        return self.raise(Trap::FullEmpty {
                            addr,
                            is_store: false,
                        });
                    }
                }
            }
            Instr::StF { fs, a, offset } => {
                let base = self.get_reg(a);
                if base.is_future() {
                    return self.raise(Trap::FutureAddr { reg: a });
                }
                let addr = base.0.wrapping_add(offset as u32);
                if addr & 3 != 0 {
                    return self.raise(Trap::Alignment { addr });
                }
                let value = Word(self.get_freg(fs));
                match mem.store(
                    addr,
                    value,
                    crate::isa::StoreFlavor::NORMAL,
                    AccessCtx { frame: self.fp },
                ) {
                    StoreReply::Done { .. } => {
                        self.stats.mem_ops += 1;
                    }
                    StoreReply::Stall { cycles } => {
                        self.stats.stall_cycles += cycles;
                        return StepEvent::Stalled { cycles };
                    }
                    StoreReply::RemoteMiss => {
                        return self.raise(Trap::RemoteMiss {
                            addr,
                            is_store: true,
                        });
                    }
                    StoreReply::FeViolation => {
                        return self.raise(Trap::FullEmpty {
                            addr,
                            is_store: true,
                        });
                    }
                }
            }
            Instr::Halt => {
                self.halted = true;
                self.stats.instructions += 1;
                self.stats.useful_cycles += 1;
                return StepEvent::Halted;
            }
            // Multi-cycle, or tagged with a future operand: the others
            // retired above.
            Instr::Alu {
                op,
                s1,
                s2,
                d,
                tagged,
            } => {
                let a = self.get_reg(s1);
                let b = match s2 {
                    Operand::Reg(r) => self.get_reg(r),
                    Operand::Imm(i) => Word(i as u32),
                };
                if tagged {
                    // Strict operation: hardware future detection via
                    // the non-zero least significant bit (Section 5).
                    if a.is_future() {
                        return self.raise(Trap::FutureTouch { reg: s1 });
                    }
                    if let Operand::Reg(r) = s2 {
                        if b.is_future() {
                            return self.raise(Trap::FutureTouch { reg: r });
                        }
                    }
                }
                let (result, cc) = match SafeAlu::of(op) {
                    Some(safe) => eval_alu(safe, a.0, b.0),
                    None if op == AluOp::Mul => {
                        cost = self.cfg.mul_cycles;
                        if tagged {
                            let v = ((a.0 as i32) >> 2).wrapping_mul((b.0 as i32) >> 2);
                            logic_cc((v as u32) << 2)
                        } else {
                            logic_cc(a.0.wrapping_mul(b.0))
                        }
                    }
                    None => {
                        cost = self.cfg.div_cycles;
                        let (x, y) = if tagged {
                            ((a.0 as i32) >> 2, (b.0 as i32) >> 2)
                        } else {
                            (a.0 as i32, b.0 as i32)
                        };
                        if y == 0 {
                            return self.raise(Trap::DivZero);
                        }
                        let v = if op == AluOp::Div {
                            x.wrapping_div(y)
                        } else {
                            x.wrapping_rem(y)
                        };
                        logic_cc(if tagged { (v as u32) << 2 } else { v as u32 })
                    }
                };
                self.set_reg(d, Word(result));
                self.frames[self.fp].psr.cc = cc;
            }
            Instr::Load {
                flavor,
                a,
                offset,
                d,
            } => {
                let base = self.get_reg(a);
                if base.is_future() {
                    // Implicit touch: dereferencing a future pointer.
                    return self.raise(Trap::FutureAddr { reg: a });
                }
                let addr = base.0.wrapping_add(offset as u32);
                if addr & 3 != 0 {
                    return self.raise(Trap::Alignment { addr });
                }
                match mem.load(addr, flavor, AccessCtx { frame: self.fp }) {
                    LoadReply::Data { word, fe } => {
                        self.stats.mem_ops += 1; // retired
                        self.set_reg(d, word);
                        if !flavor.fe_trap {
                            self.frames[self.fp].psr.fe_cond = fe;
                        }
                    }
                    LoadReply::Stall { cycles } => {
                        self.stats.stall_cycles += cycles;
                        return StepEvent::Stalled { cycles };
                    }
                    LoadReply::RemoteMiss => {
                        return self.raise(Trap::RemoteMiss {
                            addr,
                            is_store: false,
                        });
                    }
                    LoadReply::FeViolation => {
                        return self.raise(Trap::FullEmpty {
                            addr,
                            is_store: false,
                        });
                    }
                }
            }
            Instr::Store {
                flavor,
                a,
                offset,
                s,
            } => {
                let base = self.get_reg(a);
                if base.is_future() {
                    return self.raise(Trap::FutureAddr { reg: a });
                }
                let addr = base.0.wrapping_add(offset as u32);
                if addr & 3 != 0 {
                    return self.raise(Trap::Alignment { addr });
                }
                let value = self.get_reg(s);
                match mem.store(addr, value, flavor, AccessCtx { frame: self.fp }) {
                    StoreReply::Done { fe } => {
                        self.stats.mem_ops += 1; // retired
                        if !flavor.fe_trap {
                            self.frames[self.fp].psr.fe_cond = fe;
                        }
                    }
                    StoreReply::Stall { cycles } => {
                        self.stats.stall_cycles += cycles;
                        return StepEvent::Stalled { cycles };
                    }
                    StoreReply::RemoteMiss => {
                        return self.raise(Trap::RemoteMiss {
                            addr,
                            is_store: true,
                        });
                    }
                    StoreReply::FeViolation => {
                        return self.raise(Trap::FullEmpty {
                            addr,
                            is_store: true,
                        });
                    }
                }
            }
            Instr::IncFp => {
                let n = self.frames.len();
                // Commit this frame's PC advance before switching.
                self.frames[self.fp].pc = new_pc;
                self.frames[self.fp].npc = new_npc;
                self.fp = (self.fp + 1) % n;
                self.stats.instructions += 1;
                self.stats.useful_cycles += cost;
                return StepEvent::Executed;
            }
            Instr::DecFp => {
                let n = self.frames.len();
                self.frames[self.fp].pc = new_pc;
                self.frames[self.fp].npc = new_npc;
                self.fp = (self.fp + n - 1) % n;
                self.stats.instructions += 1;
                self.stats.useful_cycles += cost;
                return StepEvent::Executed;
            }
            Instr::StFp { s } => {
                let v = self.get_reg(s).as_fixnum().unwrap_or(0).unsigned_abs() as usize;
                let n = self.frames.len();
                self.frames[self.fp].pc = new_pc;
                self.frames[self.fp].npc = new_npc;
                self.fp = v % n;
                self.stats.instructions += 1;
                self.stats.useful_cycles += cost;
                return StepEvent::Executed;
            }
            Instr::WrPsr { s } => {
                let w = self.get_reg(s);
                self.frames[self.fp].psr = crate::psr::Psr::from_word(w);
            }
            Instr::RtCall { n } => {
                rtcall = Some(n);
            }
            Instr::Flush { a, offset } => {
                let base = self.get_reg(a);
                if base.is_future() {
                    return self.raise(Trap::FutureAddr { reg: a });
                }
                let addr = base.0.wrapping_add(offset as u32) & !3;
                mem.flush(addr);
                cost = self.cfg.flush_cycles;
            }
            Instr::Fence => {
                if mem.fence_count() > 0 {
                    self.stats.stall_cycles += 1;
                    return StepEvent::Stalled { cycles: 1 };
                }
            }
            Instr::Ldio { reg, d } => {
                let w = mem.ldio(reg);
                self.set_reg(d, w);
                cost = self.cfg.io_cycles;
            }
            Instr::Stio { reg, s } => {
                let w = self.get_reg(s);
                mem.stio(reg, w);
                cost = self.cfg.io_cycles;
            }
            _ => unreachable!("{instr:?} runs ahead and retired above"),
        }

        // Commit.
        let f = &mut self.frames[self.fp];
        f.pc = new_pc;
        f.npc = new_npc;
        self.stats.instructions += 1;
        self.stats.useful_cycles += cost;
        match rtcall {
            Some(n) => StepEvent::RtCall { n },
            None => StepEvent::Executed,
        }
    }
}

/// Trace payload encoding of a register name: globals map to their
/// index, locals to `0x100 | index`.
fn encode_reg(r: Reg) -> u64 {
    match r {
        Reg::G(i) => i as u64,
        Reg::L(i) => 0x100 | i as u64,
    }
}

pub(crate) fn alu_add(a: u32, b: u32) -> (u32, CondCodes) {
    let (r, c) = a.overflowing_add(b);
    let v = ((a ^ r) & (b ^ r)) >> 31 != 0;
    (
        r,
        CondCodes {
            n: r >> 31 != 0,
            z: r == 0,
            v,
            c,
        },
    )
}

pub(crate) fn alu_sub(a: u32, b: u32) -> (u32, CondCodes) {
    let (r, borrow) = a.overflowing_sub(b);
    let v = ((a ^ b) & (a ^ r)) >> 31 != 0;
    (
        r,
        CondCodes {
            n: r >> 31 != 0,
            z: r == 0,
            v,
            c: borrow,
        },
    )
}

pub(crate) fn logic_cc(r: u32) -> (u32, CondCodes) {
    (
        r,
        CondCodes {
            n: r >> 31 != 0,
            z: r == 0,
            v: false,
            c: false,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Cond, LoadFlavor, StoreFlavor};
    use crate::program::ProgramBuilder;

    /// A flat, always-full test memory.
    struct FlatMem {
        words: Vec<Word>,
        fe: Vec<bool>,
    }

    impl FlatMem {
        fn new(nwords: usize) -> FlatMem {
            FlatMem {
                words: vec![Word::ZERO; nwords],
                fe: vec![true; nwords],
            }
        }
    }

    impl MemoryPort for FlatMem {
        fn load(&mut self, addr: u32, flavor: LoadFlavor, _: AccessCtx) -> LoadReply {
            let i = (addr / 4) as usize;
            let fe = self.fe[i];
            if flavor.fe_trap && !fe {
                return LoadReply::FeViolation;
            }
            if flavor.reset_fe {
                self.fe[i] = false;
            }
            LoadReply::Data {
                word: self.words[i],
                fe,
            }
        }
        fn store(
            &mut self,
            addr: u32,
            value: Word,
            flavor: StoreFlavor,
            _: AccessCtx,
        ) -> StoreReply {
            let i = (addr / 4) as usize;
            let fe = self.fe[i];
            if flavor.fe_trap && fe {
                return StoreReply::FeViolation;
            }
            self.words[i] = value;
            if flavor.set_fe {
                self.fe[i] = true;
            }
            StoreReply::Done { fe }
        }
    }

    fn run_until_halt(cpu: &mut Cpu, prog: &Program, mem: &mut FlatMem) {
        for _ in 0..10_000 {
            match cpu.step(prog, &mut *mem) {
                StepEvent::Halted => return,
                StepEvent::Trapped(t) => panic!("unexpected trap {t}"),
                _ => {}
            }
        }
        panic!("did not halt");
    }

    #[test]
    fn arithmetic_and_branching() {
        // Sum 1..=5 with a loop.
        let mut b = ProgramBuilder::new();
        let (acc, i) = (Reg::L(1), Reg::L(2));
        b.emit(Instr::MovI { imm: 0, d: acc });
        b.emit(Instr::MovI { imm: 5, d: i });
        b.label("loop");
        b.emit(Instr::Alu {
            op: AluOp::Add,
            s1: acc,
            s2: Operand::Reg(i),
            d: acc,
            tagged: false,
        });
        b.emit(Instr::Alu {
            op: AluOp::Sub,
            s1: i,
            s2: Operand::Imm(1),
            d: i,
            tagged: false,
        });
        b.branch_to(Cond::Ne, "loop");
        b.emit(Instr::Nop); // delay slot
        b.emit(Instr::Halt);
        let prog = b.finish().unwrap();
        let mut cpu = Cpu::default();
        cpu.boot(0);
        let mut mem = FlatMem::new(16);
        run_until_halt(&mut cpu, &prog, &mut mem);
        assert_eq!(cpu.get_reg(Reg::L(1)), Word(15));
    }

    #[test]
    fn delay_slot_executes_before_branch_target() {
        let mut b = ProgramBuilder::new();
        b.branch_to(Cond::Always, "out");
        b.emit(Instr::MovI {
            imm: 7,
            d: Reg::L(1),
        }); // delay slot: must run
        b.emit(Instr::MovI {
            imm: 9,
            d: Reg::L(1),
        }); // skipped
        b.label("out");
        b.emit(Instr::Halt);
        let prog = b.finish().unwrap();
        let mut cpu = Cpu::default();
        cpu.boot(0);
        let mut mem = FlatMem::new(4);
        run_until_halt(&mut cpu, &prog, &mut mem);
        assert_eq!(cpu.get_reg(Reg::L(1)), Word(7));
    }

    #[test]
    fn jmpl_links_past_delay_slot() {
        let mut b = ProgramBuilder::new();
        b.movi_label("sub", Reg::L(5));
        b.emit(Instr::Jmpl {
            s1: Reg::L(5),
            s2: Operand::Imm(0),
            d: Reg::L(7),
        });
        b.emit(Instr::Nop); // delay slot
        b.emit(Instr::MovI {
            imm: 1,
            d: Reg::L(2),
        }); // return lands here
        b.emit(Instr::Halt);
        b.label("sub");
        b.emit(Instr::MovI {
            imm: 2,
            d: Reg::L(3),
        });
        b.emit(Instr::Jmpl {
            s1: Reg::L(7),
            s2: Operand::Imm(0),
            d: Reg::ZERO,
        });
        b.emit(Instr::Nop);
        let prog = b.finish().unwrap();
        let mut cpu = Cpu::default();
        cpu.boot(0);
        let mut mem = FlatMem::new(4);
        run_until_halt(&mut cpu, &prog, &mut mem);
        assert_eq!(cpu.get_reg(Reg::L(2)), Word(1));
        assert_eq!(cpu.get_reg(Reg::L(3)), Word(2));
    }

    #[test]
    fn tagged_op_traps_on_future_operand() {
        let mut b = ProgramBuilder::new();
        // r1 holds a future pointer; tagged add must trap.
        b.emit(Instr::MovI {
            imm: Word::future_ptr(0x100).0,
            d: Reg::L(1),
        });
        b.emit(Instr::Alu {
            op: AluOp::Add,
            s1: Reg::L(1),
            s2: Operand::Imm(4),
            d: Reg::L(2),
            tagged: true,
        });
        b.emit(Instr::Halt);
        let prog = b.finish().unwrap();
        let mut cpu = Cpu::default();
        cpu.boot(0);
        let mut mem = FlatMem::new(4);
        assert_eq!(cpu.step(&prog, &mut mem), StepEvent::Executed);
        let ev = cpu.step(&prog, &mut mem);
        assert_eq!(ev, StepEvent::Trapped(Trap::FutureTouch { reg: Reg::L(1) }));
        // PC still addresses the trapping instruction (retry semantics).
        assert_eq!(cpu.active_frame().pc, 1);
        assert_eq!(cpu.stats.future_traps, 1);
        assert_eq!(cpu.stats.trap_cycles, TRAP_ENTRY_CYCLES);
    }

    #[test]
    fn untagged_op_ignores_future_tag() {
        let mut b = ProgramBuilder::new();
        b.emit(Instr::MovI {
            imm: Word::future_ptr(0x100).0,
            d: Reg::L(1),
        });
        // Untagged ops are how the runtime manipulates tags.
        b.emit(Instr::Alu {
            op: AluOp::And,
            s1: Reg::L(1),
            s2: Operand::Imm(!0b11),
            d: Reg::L(2),
            tagged: false,
        });
        b.emit(Instr::Halt);
        let prog = b.finish().unwrap();
        let mut cpu = Cpu::default();
        cpu.boot(0);
        let mut mem = FlatMem::new(4);
        run_until_halt(&mut cpu, &prog, &mut mem);
        assert_eq!(cpu.get_reg(Reg::L(2)), Word(0x100));
    }

    #[test]
    fn load_through_future_pointer_traps() {
        let mut b = ProgramBuilder::new();
        b.emit(Instr::MovI {
            imm: Word::future_ptr(0x20).0,
            d: Reg::L(1),
        });
        b.emit(Instr::Load {
            flavor: LoadFlavor::NORMAL,
            a: Reg::L(1),
            offset: 0,
            d: Reg::L(2),
        });
        b.emit(Instr::Halt);
        let prog = b.finish().unwrap();
        let mut cpu = Cpu::default();
        cpu.boot(0);
        let mut mem = FlatMem::new(64);
        cpu.step(&prog, &mut mem);
        assert_eq!(
            cpu.step(&prog, &mut mem),
            StepEvent::Trapped(Trap::FutureAddr { reg: Reg::L(1) })
        );
    }

    #[test]
    fn fe_trap_load_on_empty_location() {
        let mut b = ProgramBuilder::new();
        b.emit(Instr::MovI {
            imm: 0x10,
            d: Reg::L(1),
        });
        b.emit(Instr::Load {
            flavor: LoadFlavor::from_mnemonic("ldtw").unwrap(),
            a: Reg::L(1),
            offset: 0,
            d: Reg::L(2),
        });
        b.emit(Instr::Halt);
        let prog = b.finish().unwrap();
        let mut cpu = Cpu::default();
        cpu.boot(0);
        let mut mem = FlatMem::new(64);
        mem.fe[4] = false; // 0x10 / 4
        cpu.step(&prog, &mut mem);
        assert_eq!(
            cpu.step(&prog, &mut mem),
            StepEvent::Trapped(Trap::FullEmpty {
                addr: 0x10,
                is_store: false
            })
        );
        assert_eq!(cpu.stats.fe_traps, 1);
    }

    #[test]
    fn nontrapping_load_sets_fe_condition_for_jempty() {
        let mut b = ProgramBuilder::new();
        b.emit(Instr::MovI {
            imm: 0x10,
            d: Reg::L(1),
        });
        b.emit(Instr::Load {
            flavor: LoadFlavor::from_mnemonic("ldnw").unwrap(),
            a: Reg::L(1),
            offset: 0,
            d: Reg::L(2),
        });
        b.branch_to(Cond::Empty, "was_empty");
        b.emit(Instr::Nop);
        b.emit(Instr::MovI {
            imm: 111,
            d: Reg::L(3),
        });
        b.emit(Instr::Halt);
        b.label("was_empty");
        b.emit(Instr::MovI {
            imm: 222,
            d: Reg::L(3),
        });
        b.emit(Instr::Halt);
        let prog = b.finish().unwrap();

        // Empty location: branch taken.
        let mut cpu = Cpu::default();
        cpu.boot(0);
        let mut mem = FlatMem::new(64);
        mem.fe[4] = false;
        run_until_halt(&mut cpu, &prog, &mut mem);
        assert_eq!(cpu.get_reg(Reg::L(3)), Word(222));

        // Full location: fall through.
        let mut cpu = Cpu::default();
        cpu.boot(0);
        let mut mem = FlatMem::new(64);
        run_until_halt(&mut cpu, &prog, &mut mem);
        assert_eq!(cpu.get_reg(Reg::L(3)), Word(111));
    }

    #[test]
    fn misaligned_access_traps() {
        let mut b = ProgramBuilder::new();
        b.emit(Instr::MovI {
            imm: 0x12,
            d: Reg::L(1),
        });
        b.emit(Instr::Load {
            flavor: LoadFlavor::NORMAL,
            a: Reg::L(1),
            offset: 0,
            d: Reg::L(2),
        });
        let prog = b.finish().unwrap();
        let mut cpu = Cpu::default();
        cpu.boot(0);
        let mut mem = FlatMem::new(64);
        cpu.step(&prog, &mut mem);
        assert_eq!(
            cpu.step(&prog, &mut mem),
            StepEvent::Trapped(Trap::Alignment { addr: 0x12 })
        );
    }

    #[test]
    fn incfp_rotates_frames_modulo() {
        let mut cpu = Cpu::default();
        let mut b = ProgramBuilder::new();
        for _ in 0..8 {
            b.emit(Instr::IncFp);
        }
        let prog = b.finish().unwrap();
        let mut mem = FlatMem::new(4);
        // Make all frames runnable at the same PC chain.
        for i in 0..cpu.nframes() {
            cpu.frame_mut(i).reset_at(0);
        }
        // Each IncFp advances the old frame's PC and rotates.
        for k in 1..=5 {
            assert_eq!(cpu.step(&prog, &mut mem), StepEvent::Executed);
            assert_eq!(cpu.fp(), k % 4);
        }
    }

    #[test]
    fn rdfp_reads_frame_pointer_as_fixnum() {
        let mut cpu = Cpu::default();
        cpu.boot(0);
        cpu.set_fp(2);
        cpu.frame_mut(2).reset_at(0);
        let mut b = ProgramBuilder::new();
        b.emit(Instr::RdFp { d: Reg::L(1) });
        b.emit(Instr::Halt);
        let prog = b.finish().unwrap();
        let mut mem = FlatMem::new(4);
        cpu.step(&prog, &mut mem);
        assert_eq!(cpu.get_reg(Reg::L(1)).as_fixnum(), Some(2));
    }

    #[test]
    fn psr_roundtrip_through_registers() {
        let mut b = ProgramBuilder::new();
        // Set Z by computing 0, read PSR, write it back.
        b.emit(Instr::Alu {
            op: AluOp::Sub,
            s1: Reg::ZERO,
            s2: Operand::Imm(0),
            d: Reg::L(1),
            tagged: false,
        });
        b.emit(Instr::RdPsr { d: Reg::L(2) });
        b.emit(Instr::WrPsr { s: Reg::L(2) });
        b.branch_to(Cond::Eq, "z");
        b.emit(Instr::Nop);
        b.emit(Instr::Halt);
        b.label("z");
        b.emit(Instr::MovI {
            imm: 42,
            d: Reg::L(3),
        });
        b.emit(Instr::Halt);
        let prog = b.finish().unwrap();
        let mut cpu = Cpu::default();
        cpu.boot(0);
        let mut mem = FlatMem::new(4);
        run_until_halt(&mut cpu, &prog, &mut mem);
        assert_eq!(cpu.get_reg(Reg::L(3)), Word(42));
    }

    #[test]
    fn g0_is_hardwired_zero() {
        let mut cpu = Cpu::default();
        cpu.set_reg(Reg::G(0), Word(99));
        assert_eq!(cpu.get_reg(Reg::G(0)), Word::ZERO);
        cpu.set_reg(Reg::G(1), Word(99));
        assert_eq!(cpu.get_reg(Reg::G(1)), Word(99));
    }

    #[test]
    fn globals_shared_across_frames() {
        let mut cpu = Cpu::default();
        cpu.set_reg(Reg::G(3), Word(17));
        cpu.set_fp(2);
        assert_eq!(cpu.get_reg(Reg::G(3)), Word(17));
        cpu.set_reg(Reg::L(1), Word(5));
        cpu.set_fp(0);
        assert_eq!(cpu.get_reg(Reg::L(1)), Word::ZERO, "locals are per-frame");
    }

    #[test]
    fn rtcall_retires_and_reports() {
        let mut b = ProgramBuilder::new();
        b.emit(Instr::RtCall { n: 7 });
        b.emit(Instr::Halt);
        let prog = b.finish().unwrap();
        let mut cpu = Cpu::default();
        cpu.boot(0);
        let mut mem = FlatMem::new(4);
        assert_eq!(cpu.step(&prog, &mut mem), StepEvent::RtCall { n: 7 });
        // PC advanced past the rtcall.
        assert_eq!(cpu.active_frame().pc, 1);
    }

    #[test]
    fn div_by_zero_traps() {
        let mut b = ProgramBuilder::new();
        b.emit(Instr::Alu {
            op: AluOp::Div,
            s1: Reg::ZERO,
            s2: Operand::Imm(0),
            d: Reg::L(1),
            tagged: false,
        });
        let prog = b.finish().unwrap();
        let mut cpu = Cpu::default();
        cpu.boot(0);
        let mut mem = FlatMem::new(4);
        assert_eq!(cpu.step(&prog, &mut mem), StepEvent::Trapped(Trap::DivZero));
    }

    #[test]
    fn tagged_mul_is_fixnum_mul() {
        let mut b = ProgramBuilder::new();
        b.emit(Instr::MovI {
            imm: Word::fixnum(6).0,
            d: Reg::L(1),
        });
        b.emit(Instr::MovI {
            imm: Word::fixnum(7).0,
            d: Reg::L(2),
        });
        b.emit(Instr::Alu {
            op: AluOp::Mul,
            s1: Reg::L(1),
            s2: Operand::Reg(Reg::L(2)),
            d: Reg::L(3),
            tagged: true,
        });
        b.emit(Instr::Halt);
        let prog = b.finish().unwrap();
        let mut cpu = Cpu::default();
        cpu.boot(0);
        let mut mem = FlatMem::new(4);
        run_until_halt(&mut cpu, &prog, &mut mem);
        assert_eq!(cpu.get_reg(Reg::L(3)).as_fixnum(), Some(42));
    }

    #[test]
    fn interrupt_taken_between_instructions() {
        let mut b = ProgramBuilder::new();
        b.emit(Instr::Nop);
        b.emit(Instr::Nop);
        let prog = b.finish().unwrap();
        let mut cpu = Cpu::default();
        cpu.boot(0);
        let mut mem = FlatMem::new(4);
        cpu.post_interrupt(3);
        assert_eq!(
            cpu.step(&prog, &mut mem),
            StepEvent::Trapped(Trap::Interrupt { from: 3 })
        );
        // Handler context: in_trap masks further IRQs.
        cpu.post_interrupt(4);
        assert_eq!(cpu.step(&prog, &mut mem), StepEvent::Executed);
    }

    #[test]
    fn stats_account_useful_cycles() {
        let mut b = ProgramBuilder::new();
        b.emit(Instr::Nop);
        b.emit(Instr::Alu {
            op: AluOp::Mul,
            s1: Reg::ZERO,
            s2: Operand::Imm(0),
            d: Reg::L(1),
            tagged: false,
        });
        b.emit(Instr::Halt);
        let prog = b.finish().unwrap();
        let mut cpu = Cpu::default();
        cpu.boot(0);
        let mut mem = FlatMem::new(4);
        run_until_halt(&mut cpu, &prog, &mut mem);
        // nop (1) + mul (3) + halt (1)
        assert_eq!(cpu.stats.useful_cycles, 5);
        assert_eq!(cpu.stats.instructions, 3);
    }

    /// Stalls every first attempt at an address, succeeds on reissue.
    struct FlakyMem {
        attempts: u32,
    }

    impl MemoryPort for FlakyMem {
        fn load(&mut self, _: u32, _: LoadFlavor, _: AccessCtx) -> LoadReply {
            self.attempts += 1;
            if self.attempts % 2 == 1 {
                LoadReply::Stall { cycles: 3 }
            } else {
                LoadReply::Data {
                    word: Word(0x10),
                    fe: true,
                }
            }
        }
        fn store(&mut self, _: u32, _: Word, _: StoreFlavor, _: AccessCtx) -> StoreReply {
            self.attempts += 1;
            if self.attempts % 2 == 1 {
                StoreReply::Stall { cycles: 3 }
            } else {
                StoreReply::Done { fe: false }
            }
        }
    }

    #[test]
    fn mem_ops_count_only_on_retire() {
        // Every flavor of memory op — Load, Store, LdF, StF — stalls
        // once before retiring; the ledger must count each op exactly
        // once, never transiently inflating during the stalled attempt.
        let mut b = ProgramBuilder::new();
        b.emit(Instr::MovI {
            imm: 0x10,
            d: Reg::L(1),
        });
        b.emit(Instr::Load {
            flavor: LoadFlavor::NORMAL,
            a: Reg::L(1),
            offset: 0,
            d: Reg::L(2),
        });
        b.emit(Instr::Store {
            flavor: StoreFlavor::NORMAL,
            a: Reg::L(1),
            offset: 4,
            s: Reg::L(2),
        });
        b.emit(Instr::LdF {
            a: Reg::L(1),
            offset: 0,
            fd: 1,
        });
        b.emit(Instr::StF {
            fs: 1,
            a: Reg::L(1),
            offset: 4,
        });
        b.emit(Instr::Halt);
        let prog = b.finish().unwrap();
        let mut cpu = Cpu::default();
        cpu.boot(0);
        let mut mem = FlakyMem { attempts: 0 };
        assert_eq!(cpu.step(&prog, &mut mem), StepEvent::Executed); // movi
        for op in ["load", "store", "ldf", "stf"] {
            let before = cpu.stats.mem_ops;
            assert_eq!(
                cpu.step(&prog, &mut mem),
                StepEvent::Stalled { cycles: 3 },
                "{op} first attempt stalls"
            );
            assert_eq!(cpu.stats.mem_ops, before, "{op} stall must not count");
            assert_eq!(cpu.step(&prog, &mut mem), StepEvent::Executed);
            assert_eq!(cpu.stats.mem_ops, before + 1, "{op} retire counts once");
        }
        assert_eq!(cpu.stats.mem_ops, 4);
    }

    #[test]
    fn mem_ops_not_counted_on_remote_miss_trap() {
        struct MissOnce {
            attempts: u32,
        }
        impl MemoryPort for MissOnce {
            fn load(&mut self, _: u32, _: LoadFlavor, _: AccessCtx) -> LoadReply {
                self.attempts += 1;
                if self.attempts == 1 {
                    LoadReply::RemoteMiss
                } else {
                    LoadReply::Data {
                        word: Word(7),
                        fe: true,
                    }
                }
            }
            fn store(&mut self, _: u32, _: Word, _: StoreFlavor, _: AccessCtx) -> StoreReply {
                StoreReply::Done { fe: false }
            }
        }
        let mut b = ProgramBuilder::new();
        b.emit(Instr::MovI {
            imm: 0x10,
            d: Reg::L(1),
        });
        b.emit(Instr::Load {
            flavor: LoadFlavor::NORMAL,
            a: Reg::L(1),
            offset: 0,
            d: Reg::L(2),
        });
        b.emit(Instr::Halt);
        let prog = b.finish().unwrap();
        let mut cpu = Cpu::default();
        cpu.boot(0);
        let mut mem = MissOnce { attempts: 0 };
        cpu.step(&prog, &mut mem);
        assert!(matches!(
            cpu.step(&prog, &mut mem),
            StepEvent::Trapped(Trap::RemoteMiss { .. })
        ));
        assert_eq!(cpu.stats.mem_ops, 0, "trapped attempt did not retire");
        // The handler returns and the instruction reissues.
        cpu.active_frame_mut().psr.in_trap = false;
        assert_eq!(cpu.step(&prog, &mut mem), StepEvent::Executed);
        assert_eq!(cpu.stats.mem_ops, 1, "the retry retires exactly once");
    }

    #[test]
    fn no_ready_frame_reported() {
        let mut cpu = Cpu::default();
        // No boot: frame 0 is Empty.
        let prog = Program::default();
        let mut mem = FlatMem::new(4);
        assert_eq!(cpu.step(&prog, &mut mem), StepEvent::NoReadyFrame);
    }

    #[test]
    fn next_ready_frame_search_order() {
        let mut cpu = Cpu::default();
        cpu.frame_mut(2).reset_at(0);
        cpu.frame_mut(3).reset_at(0);
        assert_eq!(cpu.next_ready_frame(), Some(2));
        cpu.set_fp(2);
        assert_eq!(cpu.next_ready_frame(), Some(3));
        cpu.frame_mut(3).state = FrameState::WaitingRemote;
        assert_eq!(cpu.next_ready_frame(), Some(2), "wraps to itself if ready");
    }
}

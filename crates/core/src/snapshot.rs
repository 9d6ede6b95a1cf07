//! Wire layout of processor state for machine snapshots.
//!
//! The checkpoint subsystem (DESIGN.md §11) serializes each APRIL
//! processor — task frames, PC chains, PSRs, globals, pending
//! interrupts, the cycle ledger, and the trace probe — so a restored
//! machine resumes *bit-exactly*: same register contents, same trap
//! behavior, same trace event stream.
//!
//! A restore targets an existing [`Cpu`] built from the same
//! [`CpuConfig`](crate::cpu::CpuConfig); the configuration itself is
//! validated at the machine layer (it is part of the snapshot header),
//! so this module only checks structural invariants such as the frame
//! count.

use crate::cpu::Cpu;
use crate::frame::{FrameState, TaskFrame, FREGS_PER_FRAME, REGS_PER_FRAME};
use crate::psr::Psr;
use crate::stats::CpuStats;
use crate::word::Word;
use april_util::wire::{Codec, Wire, WireError};

impl Wire for Word {
    #[inline]
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        c.u32(&mut self.0)
    }
}

impl Wire for Psr {
    /// The PSR travels as its architectural word.
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        c.via(self, |p| p.to_word().0, |w| Ok(Psr::from_word(Word(w))))
    }
}

/// The register image of a task frame — registers, floating-point
/// registers, PC chain and PSR. Hardware task frames, the run-time
/// system's unloaded threads and its saved inline-evaluation frames
/// (paper §3–§4) all carry their registers in this one layout.
pub fn wire_image<C: Codec>(
    c: &mut C,
    regs: &mut [Word; REGS_PER_FRAME],
    fregs: &mut [u32; FREGS_PER_FRAME],
    pc: &mut u32,
    npc: &mut u32,
    psr: &mut Psr,
) -> Result<(), WireError> {
    regs.wire(c)?;
    fregs.wire(c)?;
    c.u32(pc)?;
    c.u32(npc)?;
    psr.wire(c)
}

impl Wire for TaskFrame {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        use FrameState::*;
        let f = self;
        wire_image(
            c,
            &mut f.regs,
            &mut f.fregs,
            &mut f.pc,
            &mut f.npc,
            &mut f.psr,
        )?;
        c.variant(&mut f.state, &[Empty, Ready, WaitingRemote])
    }
}

april_util::wire_fields!(CpuStats {
    useful_cycles,
    trap_cycles,
    handler_cycles,
    stall_cycles,
    idle_cycles,
    instructions,
    context_switches,
    traps,
    mem_ops,
    remote_misses,
    fe_traps,
    future_traps,
});

/// A processor's complete architectural and accounting state. The
/// [`CpuConfig`](crate::cpu::CpuConfig) is not part of it; a restore
/// into a processor with another frame count is
/// [`WireError::Corrupt`].
impl Wire for Cpu {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        c.same(self.frames.len(), "task frame count mismatch")?;
        self.frames.as_mut_slice().wire(c)?;
        self.globals.wire(c)?;
        c.usize(&mut self.fp)?;
        if self.fp >= self.frames.len() {
            return Err(WireError::Corrupt("frame pointer out of range"));
        }
        c.bool(&mut self.halted)?;
        self.irqs.wire(c)?;
        self.stats.wire(c)?;
        c.u64(&mut self.clock)?;
        self.probe.wire(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuConfig;
    use crate::frame::FrameState;
    use april_obs::{lane, Component, EventKind, Probe, TraceConfig};
    use april_util::wire::{ByteReader, ByteWriter};

    fn busy_cpu() -> Cpu {
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.attach_probe(Probe::new(lane(Component::Cpu, 2), TraceConfig::default()));
        cpu.boot(10);
        cpu.set_reg(crate::isa::Reg::L(3), Word::fixnum(77));
        cpu.set_reg(crate::isa::Reg::G(4), Word(0xdead_0000));
        cpu.frame_mut(1).reset_at(44);
        cpu.frame_mut(1).state = FrameState::WaitingRemote;
        cpu.set_fp(1);
        cpu.post_interrupt(9);
        cpu.charge_handler(12);
        cpu.charge_idle(3);
        cpu.set_clock(500);
        cpu.count_context_switch();
        cpu
    }

    #[test]
    fn cpu_roundtrips_exactly() {
        let mut cpu = busy_cpu();
        let mut w = ByteWriter::new();
        cpu.wire(&mut w).unwrap();
        let bytes = w.finish();

        let mut restored = Cpu::new(CpuConfig::default());
        restored.wire(&mut ByteReader::new(&bytes)).unwrap();

        assert_eq!(restored.fp(), cpu.fp());
        assert_eq!(restored.is_halted(), cpu.is_halted());
        assert_eq!(restored.stats, cpu.stats);
        for i in 0..cpu.nframes() {
            assert_eq!(restored.frame(i), cpu.frame(i), "frame {i}");
        }
        assert_eq!(
            restored.trace_probe().emitted(),
            cpu.trace_probe().emitted()
        );
        // Both continue identically.
        let mut a = cpu;
        let mut b = restored;
        a.count_context_switch();
        b.count_context_switch();
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn frame_count_mismatch_is_rejected() {
        let mut cpu = busy_cpu();
        let mut w = ByteWriter::new();
        cpu.wire(&mut w).unwrap();
        let bytes = w.finish();
        let mut other = Cpu::new(CpuConfig {
            nframes: 2,
            ..CpuConfig::default()
        });
        assert!(other.wire(&mut ByteReader::new(&bytes)).is_err());
    }

    #[test]
    fn restored_probe_resumes_event_stream() {
        let mut cpu = busy_cpu();
        let mut w = ByteWriter::new();
        cpu.wire(&mut w).unwrap();
        let bytes = w.finish();
        let mut restored = Cpu::new(CpuConfig::default());
        restored.wire(&mut ByteReader::new(&bytes)).unwrap();
        cpu.set_clock(501);
        restored.set_clock(501);
        cpu.count_context_switch();
        restored.count_context_switch();
        let a: Vec<_> = cpu.trace_probe().events().copied().collect();
        let b: Vec<_> = restored.trace_probe().events().copied().collect();
        assert_eq!(a, b);
        assert_eq!(a.last().unwrap().kind, EventKind::ContextSwitch);
    }
}

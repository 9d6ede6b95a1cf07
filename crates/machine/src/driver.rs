//! Embeddable run-time drivers.
//!
//! The [`crate::Machine`] loop surfaces step events to its caller, who
//! answers them through `cpu_mut`/`charge_handler`/`charge_idle`. A
//! [`NodeDriver`] packages such a run-time policy as a value the loop
//! invokes against an [`EventCtx`] that scopes mutation to the event's
//! node. One driver value then drives the lockstep and event-skipping
//! schedulers identically, which is what makes the equivalence suites
//! (and DESIGN.md §8's determinism argument) meaningful.

use crate::alewife::Alewife;
use crate::watchdog::MachineFault;
use crate::Machine;
use april_core::cpu::{Cpu, StepEvent};
use april_core::frame::FrameState;
use april_core::trap::Trap;

/// What a driver may touch while answering one node's step event: that
/// node's processor, plus the cycle ledger. Charging delays the node;
/// the scheduler behind the context keeps `ready_at` and any
/// idle-tracking bookkeeping consistent.
pub trait EventCtx {
    /// The event's processor, for context switching and frame surgery.
    fn cpu(&mut self) -> &mut Cpu;
    /// Charges trap-handler cycles and delays the node by as many.
    fn charge_handler(&mut self, cycles: u64);
    /// Charges idle cycles and delays the node by as many.
    fn charge_idle(&mut self, cycles: u64);
}

/// A run-time policy invoked for every step event a node reports.
/// Drivers hold only immutable policy: the machine state they answer
/// from is the event's node, reached through the [`EventCtx`].
pub trait NodeDriver {
    /// Answers one step event on node `node`.
    fn on_event(&self, node: usize, ev: StepEvent, ctx: &mut dyn EventCtx);
}

/// The switch-spin run-time used throughout the equivalence and bench
/// suites: on a remote-miss trap, park the frame as `WaitingRemote` and
/// pay the context-switch handler; with no ready frame, rotate to the
/// next ready one or spin one idle cycle. Traps it cannot service are
/// programming errors and panic.
#[derive(Debug, Clone, Copy)]
pub struct SwitchSpin {
    /// Cycles charged for the remote-miss trap handler (the paper's
    /// coarse-grain context switch costs about 10 cycles; the
    /// equivalence suite historically charges 6).
    pub handler_cycles: u64,
}

impl Default for SwitchSpin {
    fn default() -> SwitchSpin {
        SwitchSpin { handler_cycles: 6 }
    }
}

impl NodeDriver for SwitchSpin {
    fn on_event(&self, node: usize, ev: StepEvent, ctx: &mut dyn EventCtx) {
        match ev {
            StepEvent::Trapped(Trap::RemoteMiss { .. }) => {
                let cpu = ctx.cpu();
                let fp = cpu.fp();
                let fr = cpu.frame_mut(fp);
                fr.state = FrameState::WaitingRemote;
                fr.psr.in_trap = false;
                ctx.charge_handler(self.handler_cycles);
            }
            StepEvent::Trapped(t) => panic!("node {node}: {t}"),
            StepEvent::NoReadyFrame => {
                let cpu = ctx.cpu();
                match cpu.next_ready_frame() {
                    Some(f) => cpu.set_fp(f),
                    None => ctx.charge_idle(1),
                }
            }
            _ => {}
        }
    }
}

/// Adapts the sequential [`Machine`] surface to an [`EventCtx`], so the
/// same driver value can serve `advance()`-style loops. Routing through
/// the trait methods (not the node directly) preserves the event-driven
/// scheduler's parked-CPU bookkeeping.
struct MachineCtx<'a, M: Machine> {
    m: &'a mut M,
    node: usize,
}

impl<M: Machine> EventCtx for MachineCtx<'_, M> {
    fn cpu(&mut self) -> &mut Cpu {
        self.m.cpu_mut(self.node)
    }

    fn charge_handler(&mut self, cycles: u64) {
        self.m.charge_handler(self.node, cycles);
    }

    fn charge_idle(&mut self, cycles: u64) {
        self.m.charge_idle(self.node, cycles);
    }
}

/// Drives a sequential machine with `driver` until it faults or is
/// [finished](Alewife::finished): every processor halted *and* no
/// protocol work pending (in-flight packets, outstanding transactions,
/// busy directory entries, waiting frames). Returns the fault, if any.
/// Panics past `max` cycles.
pub fn drive_sequential(
    m: &mut Alewife,
    driver: &dyn NodeDriver,
    max: u64,
) -> Option<MachineFault> {
    drive_sequential_until(m, driver, u64::MAX, max)
}

/// Like [`drive_sequential`], but stops as soon as the clock reaches
/// `stop_at` (the machine lands on that cycle exactly — see
/// [`Alewife::advance_capped`]), whether or not the run is finished.
/// Used to position a machine for a checkpoint, or to replay a
/// restored machine up to a comparison cycle. Returns the fault if one
/// ended the run first. Panics past `max` cycles.
pub fn drive_sequential_until(
    m: &mut Alewife,
    driver: &dyn NodeDriver,
    stop_at: u64,
    max: u64,
) -> Option<MachineFault> {
    // One event buffer for the whole run: the advance loop allocates
    // nothing once the buffer has grown to the steady-state width.
    let mut evs = Vec::new();
    loop {
        assert!(m.now() < max, "timeout at cycle {}", m.now());
        if m.fault().is_some() {
            return m.fault().cloned();
        }
        if m.now() >= stop_at || m.finished() {
            return None;
        }
        m.advance_capped(stop_at, &mut evs);
        for (i, ev) in evs.drain(..) {
            let mut ctx = MachineCtx { m, node: i };
            driver.on_event(i, ev, &mut ctx);
        }
    }
}

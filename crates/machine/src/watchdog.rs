//! Forward-progress watchdog and structured machine post-mortems.
//!
//! Under fault injection the machine can wedge in ways the run-time
//! system cannot see: a dropped reply strands a task frame in
//! [`FrameState::WaitingRemote`], a lost invalidation leaves a
//! directory entry busy forever. The watchdog observes a cheap
//! *progress signature* every cycle — instructions retired, packets
//! delivered, directory and controller protocol events — and when the
//! signature has not changed for a configurable horizon **and** the
//! machine still has pending work, it declares the run dead and
//! captures a [`PostMortem`]: every in-flight message, every busy
//! directory entry, every outstanding requester transaction, and every
//! stalled task frame.
//!
//! A machine with *no* pending work (no packets in flight, no
//! outstanding transactions, no busy directory entries, no raised
//! fences, no waiting frames) is merely quiescent — idle processors
//! waiting for the run-time to schedule work are not a deadlock — so
//! the watchdog stays silent no matter how long the signature holds.

use april_core::frame::FrameState;
use april_mem::msg::CohMsg;
use april_mem::ProtocolError;
use april_net::fault::FaultStats;
use std::fmt;

/// Watchdog policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Master switch.
    pub enabled: bool,
    /// Cycles without any progress (while work is pending) before the
    /// machine is declared dead.
    pub horizon: u64,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            enabled: true,
            horizon: 50_000,
        }
    }
}

impl WatchdogConfig {
    /// A watchdog that never fires.
    pub fn disabled() -> WatchdogConfig {
        WatchdogConfig {
            enabled: false,
            ..WatchdogConfig::default()
        }
    }
}

/// A protocol message still in the network when the machine hung.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InFlightMsg {
    /// Network packet id.
    pub id: u64,
    /// Sending node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Cycle the packet entered the network.
    pub sent_at: u64,
    /// The protocol message.
    pub msg: CohMsg,
}

/// A directory entry stuck mid-transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusyEntry {
    /// The home node whose directory holds the entry.
    pub home: usize,
    /// The block being transacted.
    pub block: u32,
    /// The requester being served.
    pub requester: usize,
    /// Whether the requester wants an exclusive copy.
    pub write: bool,
    /// The busy epoch stamped on outstanding demands.
    pub epoch: u32,
    /// Nodes whose acknowledgment is still awaited.
    pub awaiting: Vec<usize>,
}

/// A requester-side transaction still awaiting its reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutstandingTxn {
    /// The requesting node.
    pub node: usize,
    /// The block requested.
    pub block: u32,
    /// The transaction sequence number.
    pub xid: u32,
    /// Whether a write-grade request has been issued.
    pub write_issued: bool,
    /// Task frames parked on the transaction.
    pub frames: Vec<usize>,
}

/// A protocol message the network gave up on: under the quarantine in
/// force there was no alive route to its destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndeliverableMsg {
    /// Network packet id.
    pub id: u64,
    /// The unreachable destination.
    pub dst: usize,
    /// Cycle the router gave up.
    pub at: u64,
    /// The protocol message.
    pub msg: CohMsg,
}

/// A task frame that is loaded but cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameStall {
    /// The node.
    pub node: usize,
    /// The frame index.
    pub frame: usize,
    /// Why it is stalled.
    pub state: FrameState,
    /// Its program counter.
    pub pc: u32,
}

/// Everything the watchdog could see when it declared the run dead.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PostMortem {
    /// Cycle at which the hang was declared.
    pub cycle: u64,
    /// The no-progress horizon that elapsed.
    pub horizon: u64,
    /// Messages still in the network.
    pub in_flight: Vec<InFlightMsg>,
    /// Messages the router dead-lettered (no alive route under the
    /// quarantine in force).
    pub undeliverable: Vec<UndeliverableMsg>,
    /// Directory entries stuck mid-transaction.
    pub busy_blocks: Vec<BusyEntry>,
    /// Requester transactions awaiting replies.
    pub outstanding: Vec<OutstandingTxn>,
    /// Task frames waiting on remote memory.
    pub stalled_frames: Vec<FrameStall>,
    /// Nodes with a raised fence counter: `(node, count)`.
    pub fences: Vec<(usize, u32)>,
    /// Faults the network injected up to the hang.
    pub fault_stats: FaultStats,
}

impl fmt::Display for PostMortem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "no forward progress for {} cycles (declared dead at cycle {})",
            self.horizon, self.cycle
        )?;
        writeln!(
            f,
            "  injected faults: {} dropped, {} duplicated, {} delayed, {} outage stalls",
            self.fault_stats.dropped,
            self.fault_stats.duplicated,
            self.fault_stats.delayed,
            self.fault_stats.outage_stalls
        )?;
        writeln!(f, "  in-flight messages: {}", self.in_flight.len())?;
        for m in &self.in_flight {
            writeln!(
                f,
                "    #{} {} -> {} sent@{}: {:?}",
                m.id, m.src, m.dst, m.sent_at, m.msg
            )?;
        }
        if !self.undeliverable.is_empty() {
            writeln!(
                f,
                "  undeliverable messages (dead letters): {}",
                self.undeliverable.len()
            )?;
            for m in &self.undeliverable {
                writeln!(
                    f,
                    "    #{} -> {} gave up@{}: {:?}",
                    m.id, m.dst, m.at, m.msg
                )?;
            }
        }
        writeln!(f, "  busy directory entries: {}", self.busy_blocks.len())?;
        for b in &self.busy_blocks {
            writeln!(
                f,
                "    home {} block {:#x}: serving node {} ({}) epoch {} awaiting {:?}",
                b.home,
                b.block,
                b.requester,
                if b.write { "write" } else { "read" },
                b.epoch,
                b.awaiting
            )?;
        }
        writeln!(f, "  outstanding transactions: {}", self.outstanding.len())?;
        for t in &self.outstanding {
            writeln!(
                f,
                "    node {} block {:#x} xid {} ({}) frames {:?}",
                t.node,
                t.block,
                t.xid,
                if t.write_issued { "write" } else { "read" },
                t.frames
            )?;
        }
        writeln!(f, "  stalled frames: {}", self.stalled_frames.len())?;
        for s in &self.stalled_frames {
            writeln!(
                f,
                "    node {} frame {} pc {:#x}: {:?}",
                s.node, s.frame, s.pc, s.state
            )?;
        }
        if !self.fences.is_empty() {
            writeln!(f, "  raised fences: {:?}", self.fences)?;
        }
        Ok(())
    }
}

/// A fatal machine-level condition detected while advancing the clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineFault {
    /// The forward-progress watchdog fired with work still pending.
    NoForwardProgress(Box<PostMortem>),
    /// A protocol engine reported a fatal error.
    Protocol {
        /// The node whose engine failed.
        node: usize,
        /// The underlying error.
        error: ProtocolError,
    },
}

impl fmt::Display for MachineFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineFault::NoForwardProgress(pm) => write!(f, "{pm}"),
            MachineFault::Protocol { node, error } => {
                write!(f, "protocol failure on node {node}: {error}")
            }
        }
    }
}

impl std::error::Error for MachineFault {}

/// The progress tracker: remembers the last signature and when it
/// last changed.
#[derive(Debug, Clone, Default)]
pub struct Watchdog {
    pub(crate) sig: (u64, u64, u64, u64),
    pub(crate) last_change: u64,
}

impl Watchdog {
    /// Feeds the cycle's progress signature. Returns `true` when the
    /// signature has been unchanged for at least `horizon` cycles —
    /// the caller must still decide whether pending work makes that a
    /// deadlock rather than quiescence.
    pub fn observe(&mut self, now: u64, sig: (u64, u64, u64, u64), horizon: u64) -> bool {
        if sig != self.sig {
            self.sig = sig;
            self.last_change = now;
            return false;
        }
        now.saturating_sub(self.last_change) >= horizon
    }

    /// The cycle at which [`Watchdog::observe`] would first fire if the
    /// signature never changes again. An event-driven machine must not
    /// skip past this: with pending work and no other events, the
    /// watchdog firing *is* the next event.
    pub fn deadline(&self, horizon: u64) -> u64 {
        self.last_change.saturating_add(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_fires_only_after_horizon_without_change() {
        let mut w = Watchdog::default();
        assert!(!w.observe(0, (1, 0, 0, 0), 10));
        for t in 1..10 {
            assert!(
                !w.observe(t, (1, 0, 0, 0), 10),
                "cycle {t} under the horizon"
            );
        }
        assert!(w.observe(10, (1, 0, 0, 0), 10));
    }

    #[test]
    fn any_signature_change_rearms() {
        let mut w = Watchdog::default();
        assert!(!w.observe(0, (1, 0, 0, 0), 5));
        assert!(!w.observe(4, (1, 0, 0, 0), 5));
        // A delivered packet at cycle 5 resets the horizon.
        assert!(!w.observe(5, (1, 1, 0, 0), 5));
        assert!(!w.observe(9, (1, 1, 0, 0), 5));
        assert!(w.observe(10, (1, 1, 0, 0), 5));
    }

    #[test]
    fn post_mortem_renders_every_section() {
        let pm = PostMortem {
            cycle: 99_000,
            horizon: 50_000,
            in_flight: vec![InFlightMsg {
                id: 7,
                src: 0,
                dst: 1,
                sent_at: 40_000,
                msg: CohMsg::RdReq {
                    block: 0x40,
                    xid: 3,
                },
            }],
            undeliverable: vec![UndeliverableMsg {
                id: 9,
                dst: 3,
                at: 41_000,
                msg: CohMsg::RdReq {
                    block: 0x80,
                    xid: 4,
                },
            }],
            busy_blocks: vec![BusyEntry {
                home: 1,
                block: 0x40,
                requester: 0,
                write: true,
                epoch: 2,
                awaiting: vec![3],
            }],
            outstanding: vec![OutstandingTxn {
                node: 0,
                block: 0x40,
                xid: 3,
                write_issued: false,
                frames: vec![1],
            }],
            stalled_frames: vec![FrameStall {
                node: 0,
                frame: 1,
                state: FrameState::WaitingRemote,
                pc: 0x20,
            }],
            fences: vec![(2, 1)],
            fault_stats: FaultStats {
                dropped: 4,
                ..FaultStats::default()
            },
        };
        let s = pm.to_string();
        assert!(s.contains("no forward progress for 50000 cycles"));
        assert!(s.contains("4 dropped"));
        assert!(s.contains("RdReq"));
        assert!(s.contains("undeliverable messages (dead letters): 1"));
        assert!(s.contains("home 1 block 0x40"));
        assert!(s.contains("node 0 block 0x40 xid 3"));
        assert!(s.contains("WaitingRemote"));
        assert!(s.contains("raised fences"));
    }

    #[test]
    fn machine_fault_displays() {
        let e = MachineFault::Protocol {
            node: 2,
            error: ProtocolError::RetriesExhausted {
                node: 2,
                block: 0x80,
                xid: 5,
                retries: 16,
            },
        };
        let s = e.to_string();
        assert!(s.contains("protocol failure on node 2"));
        assert!(s.contains("16 retries"));
    }
}

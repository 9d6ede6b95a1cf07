//! Watchdog-triggered checkpoint rollback-recovery.
//!
//! The fault-injection layer can wedge a run fatally: a fail-stop link
//! silently swallows a protocol message, the transaction behind it
//! never completes, and the watchdog (or the retransmission budget)
//! eventually declares the machine dead. The [`RecoveryManager`] turns
//! that fatal wedge into a survivable event. It keeps a bounded
//! in-memory ring of periodic [`Snapshot`] checkpoints while the run is
//! healthy; when a [`MachineFault`] surfaces it *diagnoses* the fault,
//! derives a **quarantine** — the channel (or, escalating, the node)
//! most implicated by the post-mortem — rolls the machine back to the
//! newest good checkpoint, re-applies every quarantine accumulated so
//! far, backs off the watchdog horizon, and re-executes. Attempts are
//! hard-capped; exhausting them surfaces a structured
//! [`RecoveryReport`] instead of a panic.
//!
//! Determinism is the referee throughout. The quarantine decision is a
//! *pure function* of the fault-plan seed, the attempt number, and the
//! post-mortem ([`derive_quarantine`]) — no wall clock, no ambient
//! randomness — so the same seeded run recovers identically on the
//! lockstep and event-driven schedulers. And because quarantines live
//! in the network's fault plan
//! (checkpointed state) while the watchdog horizon is normalized out
//! of snapshot validation (supervision policy, not machine state), a
//! recovered run is bit-identical — trace, stats, memory — to a fresh
//! run launched from the same checkpoint with the quarantined config.
//!
//! The manager narrates itself on the `recovery` observability lane:
//! [`EventKind::CheckpointTaken`], [`EventKind::Rollback`],
//! [`EventKind::QuarantineApplied`], and [`EventKind::ReExecute`]
//! events, plus a `recovery` stats section. The lane is owned by the
//! manager, not the machine, so the recovery saga survives rollbacks
//! (which restore the machine's own probe rings to checkpoint state).

use crate::alewife::Alewife;
use crate::driver::{drive_sequential_until, NodeDriver};
use crate::snapshot::{Snapshot, SnapshotError};
use crate::watchdog::{MachineFault, PostMortem};
use crate::Machine;
use april_net::topology::{Channel, Topology};
use april_obs::{lane, Component, EventKind, Probe, Section, Trace, TraceConfig};
use april_util::splitmix64;
use april_util::wire::digest64;
use std::fmt;

/// Recovery policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Cycles between periodic checkpoints.
    pub checkpoint_interval: u64,
    /// Checkpoints retained in the in-memory ring; the oldest is
    /// evicted when a new one would exceed this.
    pub ring_capacity: usize,
    /// Rollback attempts before the manager gives up with
    /// [`RecoveryFailure::AttemptsExhausted`].
    pub max_attempts: u32,
    /// Simulated-cycle budget for the whole supervised run (including
    /// re-executions); exceeding it surfaces
    /// [`RecoveryFailure::CycleBudget`].
    pub max_cycles: u64,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            checkpoint_interval: 2_000,
            ring_capacity: 4,
            max_attempts: 4,
            max_cycles: 10_000_000,
        }
    }
}

/// The accumulated set of network elements the recovery layer has
/// declared dead. Applied to a machine's fault plan, the router
/// detours around every member (or dead-letters traffic with no alive
/// route).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Quarantine {
    /// Quarantined directed channels.
    pub channels: Vec<Channel>,
    /// Quarantined nodes.
    pub nodes: Vec<usize>,
}

impl Quarantine {
    /// True if nothing has been quarantined.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty() && self.nodes.is_empty()
    }

    /// Applies every member to `m`'s fault plan. Idempotent; used both
    /// after each rollback (restore brings back the pre-quarantine
    /// plan) and to configure a fresh machine for the recovered-vs-
    /// fresh equivalence check.
    pub fn apply(&self, m: &mut Alewife) {
        for &ch in &self.channels {
            m.quarantine_channel(ch);
        }
        for &n in &self.nodes {
            m.quarantine_node(n);
        }
    }
}

/// One quarantine decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineAction {
    /// Kill a directed channel; routing detours around it.
    Channel(Channel),
    /// Kill a whole node; traffic to or through it dead-letters.
    Node(usize),
}

/// Why the manager gave up.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryFailure {
    /// Every allowed rollback was spent and the run still faulted;
    /// carries the final fault.
    AttemptsExhausted(MachineFault),
    /// The fault implicates no network path the manager could
    /// quarantine (e.g. a protocol logic error, or every candidate is
    /// already quarantined).
    Unquarantinable(MachineFault),
    /// The supervised run exceeded [`RecoveryConfig::max_cycles`].
    CycleBudget,
    /// A checkpoint or restore failed.
    Snapshot(SnapshotError),
}

impl fmt::Display for RecoveryFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryFailure::AttemptsExhausted(fault) => {
                write!(f, "recovery attempts exhausted; final fault: {fault}")
            }
            RecoveryFailure::Unquarantinable(fault) => {
                write!(f, "fault implicates nothing quarantinable: {fault}")
            }
            RecoveryFailure::CycleBudget => write!(f, "recovery cycle budget exceeded"),
            RecoveryFailure::Snapshot(e) => write!(f, "checkpointing failed: {e}"),
        }
    }
}

/// The structured outcome of a supervised run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// True if the run completed (possibly after rollbacks).
    pub recovered: bool,
    /// Rollback attempts performed.
    pub attempts: u32,
    /// Checkpoints taken across the whole supervised run.
    pub checkpoints_taken: u64,
    /// Rollbacks performed (equals `attempts` unless a failure cut the
    /// last one short).
    pub rollbacks: u64,
    /// Everything quarantined along the way.
    pub quarantine: Quarantine,
    /// The watchdog horizon in force at the end.
    pub final_horizon: u64,
    /// The machine's final cycle.
    pub final_cycle: u64,
    /// The checkpoint the *last* rollback restored from, with its
    /// cycle — the launch point for the recovered-vs-fresh equivalence
    /// check.
    pub last_restored: Option<(u64, Snapshot)>,
    /// Why the manager gave up, if it did.
    pub failure: Option<RecoveryFailure>,
}

/// The `(suspect, peer)` node pairs a fault implicates, most specific
/// first, deduplicated, loopback pairs dropped (no channel to blame).
fn implicated_pairs(fault: &MachineFault, home_of: &dyn Fn(u32) -> usize) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut push = |a: usize, b: usize| {
        if a != b && !pairs.contains(&(a, b)) {
            pairs.push((a, b));
        }
    };
    match fault {
        MachineFault::Protocol { error, .. } => {
            if let Some((node, block)) = error.implicates() {
                push(node, home_of(block));
            }
        }
        MachineFault::NoForwardProgress(pm) => {
            let pm: &PostMortem = pm;
            for t in &pm.outstanding {
                push(t.node, home_of(t.block));
            }
            for b in &pm.busy_blocks {
                push(b.home, b.requester);
                for &w in &b.awaiting {
                    push(b.home, w);
                }
            }
            for m in &pm.in_flight {
                push(m.src, m.dst);
            }
        }
    }
    pairs
}

/// Appends the dimension-order route channels from `a` to `b`.
fn route_channels(topo: &Topology, mut a: usize, b: usize, out: &mut Vec<Channel>) {
    while a != b {
        let Some((ch, next)) = topo.next_hop(a, b) else {
            return;
        };
        out.push(ch);
        a = next;
    }
}

/// Derives the quarantine for a fault: a **pure function** of the
/// fault-plan seed, the attempt number, and the fault's post-mortem
/// content. Candidate channels are the dimension-order route channels
/// of every implicated `(suspect, peer)` pair — request and reply
/// direction — in post-mortem order, deduplicated, minus anything
/// already quarantined; the pick is `splitmix64(seed ^ attempt)`
/// indexed into the candidates. When every channel candidate is
/// exhausted the decision escalates to quarantining an implicated
/// node. `None` means the fault implicates nothing quarantinable.
pub fn derive_quarantine(
    topo: &Topology,
    home_of: &dyn Fn(u32) -> usize,
    fault: &MachineFault,
    already: &Quarantine,
    seed: u64,
    attempt: u32,
) -> Option<QuarantineAction> {
    let pairs = implicated_pairs(fault, home_of);
    let mut channels: Vec<Channel> = Vec::new();
    for &(a, b) in &pairs {
        route_channels(topo, a, b, &mut channels);
        route_channels(topo, b, a, &mut channels);
    }
    let mut seen: Vec<Channel> = Vec::new();
    let candidates: Vec<Channel> = channels
        .into_iter()
        .filter(|ch| {
            if already.channels.contains(ch) || seen.contains(ch) {
                false
            } else {
                seen.push(*ch);
                true
            }
        })
        .collect();
    let r = splitmix64(seed ^ attempt as u64);
    if !candidates.is_empty() {
        return Some(QuarantineAction::Channel(
            candidates[(r % candidates.len() as u64) as usize],
        ));
    }
    // Escalation: every suspect channel is already dead and the run
    // still wedges on this pair — take out a node. Suspects are the
    // pair endpoints in post-mortem order.
    let mut nodes: Vec<usize> = Vec::new();
    for &(a, b) in &pairs {
        for n in [a, b] {
            if !already.nodes.contains(&n) && !nodes.contains(&n) {
                nodes.push(n);
            }
        }
    }
    if nodes.is_empty() {
        return None;
    }
    Some(QuarantineAction::Node(
        nodes[(r % nodes.len() as u64) as usize],
    ))
}

/// A digest of a fault's *semantic* content — which transactions,
/// directory entries, frames, and messages are wedged — excluding the
/// cycle, horizon, and fault counters, which legitimately shift across
/// re-executions. Two rollbacks hitting the same key mean the newest
/// checkpoint already contains the wedge (e.g. retries are disabled and
/// the lost message predates it), so the manager rolls back deeper.
fn fault_key(fault: &MachineFault) -> u64 {
    match fault {
        MachineFault::Protocol { node, error } => {
            digest64(format!("protocol:{node}:{error:?}").as_bytes())
        }
        MachineFault::NoForwardProgress(pm) => digest64(
            format!(
                "wedge:{:?}:{:?}:{:?}:{:?}:{:?}:{:?}",
                pm.in_flight,
                pm.undeliverable,
                pm.busy_blocks,
                pm.outstanding,
                pm.stalled_frames,
                pm.fences
            )
            .as_bytes(),
        ),
    }
}

/// Encodes a quarantine action into an event payload: channels pack
/// `node << 8 | dim << 1 | plus` with `b = 0`, nodes carry the index
/// with `b = 1`.
fn action_payload(action: QuarantineAction) -> (u64, u64) {
    match action {
        QuarantineAction::Channel(ch) => (
            (ch.node as u64) << 8 | (ch.dim as u64) << 1 | ch.plus as u64,
            0,
        ),
        QuarantineAction::Node(n) => (n as u64, 1),
    }
}

/// Supervises a machine through faults: periodic checkpoints, fault
/// diagnosis, quarantine, rollback, re-execution. See the module docs
/// for the full protocol.
#[derive(Debug)]
pub struct RecoveryManager {
    cfg: RecoveryConfig,
    probe: Probe,
    ring: Vec<(u64, Snapshot)>,
    quarantine: Quarantine,
    attempts: u32,
    checkpoints_taken: u64,
    rollbacks: u64,
    last_fault_key: Option<u64>,
    last_restored: Option<(u64, Snapshot)>,
    final_horizon: u64,
}

impl RecoveryManager {
    /// Creates a manager with the given policy.
    pub fn new(cfg: RecoveryConfig) -> RecoveryManager {
        assert!(cfg.checkpoint_interval > 0, "zero checkpoint interval");
        assert!(cfg.ring_capacity > 0, "zero checkpoint ring");
        RecoveryManager {
            cfg,
            probe: Probe::default(),
            ring: Vec::new(),
            quarantine: Quarantine::default(),
            attempts: 0,
            checkpoints_taken: 0,
            rollbacks: 0,
            last_fault_key: None,
            last_restored: None,
            final_horizon: 0,
        }
    }

    /// Installs a live probe on the `recovery` lane. Call before
    /// [`RecoveryManager::run`].
    pub fn attach_tracer(&mut self, cfg: TraceConfig) {
        self.probe = Probe::new(lane(Component::Recovery, 0), cfg);
    }

    /// The recovery lane's probe, for merging into a [`Trace`].
    pub fn trace_probe(&self) -> &Probe {
        &self.probe
    }

    /// The recovery saga as its own trace.
    pub fn collect_trace(&self) -> Trace {
        let mut t = Trace::new();
        t.push_probe(&self.probe);
        t.sort();
        t
    }

    /// The recovery counters as a stats section. Kept outside the
    /// machine's own [`april_obs::StatsReport`] so machine-level stats
    /// stay byte-comparable between a recovered run and a fresh run
    /// from the same checkpoint.
    pub fn stats_section(&self) -> Section {
        let mut s = Section::new("recovery");
        s.counter("checkpoints_taken", self.checkpoints_taken)
            .counter("rollbacks", self.rollbacks)
            .counter("attempts", self.attempts as u64)
            .counter(
                "quarantined_channels",
                self.quarantine.channels.len() as u64,
            )
            .counter("quarantined_nodes", self.quarantine.nodes.len() as u64)
            .counter("final_horizon", self.final_horizon);
        s
    }

    fn push_checkpoint(&mut self, cycle: u64, snap: Snapshot) {
        self.ring.push((cycle, snap));
        while self.ring.len() > self.cfg.ring_capacity {
            self.ring.remove(0);
        }
        self.checkpoints_taken += 1;
        self.probe
            .emit(cycle, EventKind::CheckpointTaken, self.ring.len() as u64, 0);
    }

    fn report(
        &self,
        m: &Alewife,
        recovered: bool,
        failure: Option<RecoveryFailure>,
    ) -> RecoveryReport {
        RecoveryReport {
            recovered,
            attempts: self.attempts,
            checkpoints_taken: self.checkpoints_taken,
            rollbacks: self.rollbacks,
            quarantine: self.quarantine.clone(),
            final_horizon: m.watchdog_horizon(),
            final_cycle: m.now(),
            last_restored: self.last_restored.clone(),
            failure,
        }
    }

    /// Supervises `m` under `driver` to completion or structured
    /// failure. The machine should be booted and un-faulted; its
    /// current watchdog horizon is the base the backoff doubles from.
    pub fn run(&mut self, m: &mut Alewife, driver: &dyn NodeDriver) -> RecoveryReport {
        let base_horizon = m.watchdog_horizon();
        self.final_horizon = base_horizon;
        match m.checkpoint() {
            Ok(snap) => self.push_checkpoint(m.now(), snap),
            Err(e) => return self.report(m, false, Some(RecoveryFailure::Snapshot(e))),
        }
        loop {
            if m.finished() {
                return self.report(m, true, None);
            }
            if m.now() >= self.cfg.max_cycles {
                return self.report(m, false, Some(RecoveryFailure::CycleBudget));
            }
            let interval = self.cfg.checkpoint_interval;
            let stop = ((m.now() / interval) + 1)
                .saturating_mul(interval)
                .min(self.cfg.max_cycles);
            // `stop + 1` keeps the timeout assertion clear of the stop
            // cycle itself; the budget proper is the manager's.
            let Some(fault) = drive_sequential_until(m, driver, stop, stop + 1) else {
                if m.finished() {
                    return self.report(m, true, None);
                }
                match m.checkpoint() {
                    Ok(snap) => self.push_checkpoint(m.now(), snap),
                    Err(e) => return self.report(m, false, Some(RecoveryFailure::Snapshot(e))),
                }
                continue;
            };
            // Diagnose, quarantine, roll back, re-execute.
            if self.attempts >= self.cfg.max_attempts {
                return self.report(m, false, Some(RecoveryFailure::AttemptsExhausted(fault)));
            }
            self.attempts += 1;
            let cfg = *m.config();
            let action = derive_quarantine(
                &cfg.topology,
                &|a| cfg.home_of(a),
                &fault,
                &self.quarantine,
                m.fault_plan().map_or(0, |p| p.seed()),
                self.attempts - 1,
            );
            let Some(action) = action else {
                return self.report(m, false, Some(RecoveryFailure::Unquarantinable(fault)));
            };
            let fault_cycle = m.now();
            let key = fault_key(&fault);
            if self.last_fault_key == Some(key) {
                // The same wedge re-surfaced after a quarantine: the
                // wedge predates the last restore point (with retries
                // disabled a lost message is never resent), so every
                // checkpoint taken at or after it — including the ones
                // the re-execution just pushed — contains the wedge
                // too. Discard them and roll back strictly deeper.
                if let Some((last_cycle, _)) = self.last_restored {
                    while self.ring.len() > 1
                        && self.ring.last().is_some_and(|(c, _)| *c >= last_cycle)
                    {
                        self.ring.pop();
                    }
                }
            }
            self.last_fault_key = Some(key);
            let (ckpt_cycle, snap) = self.ring.last().cloned().expect("ring never empties");
            if let Err(e) = m.restore(&snap) {
                return self.report(m, false, Some(RecoveryFailure::Snapshot(e)));
            }
            match action {
                QuarantineAction::Channel(ch) => {
                    if !self.quarantine.channels.contains(&ch) {
                        self.quarantine.channels.push(ch);
                    }
                }
                QuarantineAction::Node(n) => {
                    if !self.quarantine.nodes.contains(&n) {
                        self.quarantine.nodes.push(n);
                    }
                }
            }
            // Restore brought back the checkpoint-time fault plan;
            // re-apply *everything* accumulated so far.
            self.quarantine.apply(m);
            let horizon = base_horizon.saturating_mul(1u64 << self.attempts.min(16));
            m.set_watchdog_horizon(horizon);
            self.final_horizon = horizon;
            self.rollbacks += 1;
            self.last_restored = Some((ckpt_cycle, snap));
            let (a, b) = action_payload(action);
            self.probe
                .emit(fault_cycle, EventKind::QuarantineApplied, a, b);
            self.probe.emit(
                fault_cycle,
                EventKind::Rollback,
                ckpt_cycle,
                self.attempts as u64,
            );
            self.probe.emit(
                ckpt_cycle,
                EventKind::ReExecute,
                horizon,
                self.attempts as u64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog::{InFlightMsg, OutstandingTxn};
    use april_mem::msg::CohMsg;
    use april_mem::ProtocolError;

    fn homes(a: u32) -> usize {
        (a as usize) >> 16 // 64 KiB regions
    }

    #[test]
    fn quarantine_is_a_pure_function_of_seed_and_post_mortem() {
        let topo = Topology::new(2, 2);
        let fault = MachineFault::Protocol {
            node: 0,
            error: ProtocolError::RetriesExhausted {
                node: 0,
                block: 0x10000, // home 1
                xid: 3,
                retries: 16,
            },
        };
        let q = Quarantine::default();
        let first = derive_quarantine(&topo, &homes, &fault, &q, 42, 0).unwrap();
        for _ in 0..5 {
            assert_eq!(
                derive_quarantine(&topo, &homes, &fault, &q, 42, 0).unwrap(),
                first,
                "same inputs, same decision"
            );
        }
        // The candidates are the 0->1 and 1->0 route channels.
        let QuarantineAction::Channel(ch) = first else {
            panic!("expected a channel quarantine, got {first:?}");
        };
        assert!(ch.node == 0 || ch.node == 1);
        // A different attempt number may pick differently, but still
        // deterministically.
        let second = derive_quarantine(&topo, &homes, &fault, &q, 42, 1).unwrap();
        assert_eq!(
            derive_quarantine(&topo, &homes, &fault, &q, 42, 1).unwrap(),
            second
        );
    }

    #[test]
    fn exhausted_channels_escalate_to_nodes_then_nothing() {
        let topo = Topology::new(2, 2);
        let fault = MachineFault::Protocol {
            node: 0,
            error: ProtocolError::RetriesExhausted {
                node: 0,
                block: 0x10000,
                xid: 1,
                retries: 16,
            },
        };
        // Quarantine every channel on the 0<->1 routes.
        let mut q = Quarantine::default();
        loop {
            match derive_quarantine(&topo, &homes, &fault, &q, 7, 0) {
                Some(QuarantineAction::Channel(ch)) => q.channels.push(ch),
                Some(QuarantineAction::Node(_)) => break,
                None => panic!("escalation must offer a node first"),
            }
        }
        // Node escalation exhausts too.
        q.nodes.extend([0, 1]);
        assert_eq!(derive_quarantine(&topo, &homes, &fault, &q, 7, 0), None);
    }

    #[test]
    fn logic_errors_are_unquarantinable() {
        let topo = Topology::new(2, 2);
        let fault = MachineFault::Protocol {
            node: 1,
            error: ProtocolError::UnexpectedMessage {
                node: 1,
                from: 2,
                msg: CohMsg::RdReq { block: 0, xid: 0 },
            },
        };
        assert_eq!(
            derive_quarantine(&topo, &homes, &fault, &Quarantine::default(), 1, 0),
            None
        );
    }

    #[test]
    fn post_mortem_pairs_cover_outstanding_busy_and_in_flight() {
        let pm = PostMortem {
            outstanding: vec![OutstandingTxn {
                node: 0,
                block: 0x10000,
                xid: 1,
                write_issued: false,
                frames: vec![0],
            }],
            in_flight: vec![InFlightMsg {
                id: 3,
                src: 2,
                dst: 3,
                sent_at: 10,
                msg: CohMsg::RdReq {
                    block: 0x30000,
                    xid: 9,
                },
            }],
            ..PostMortem::default()
        };
        let fault = MachineFault::NoForwardProgress(Box::new(pm));
        let pairs = implicated_pairs(&fault, &homes);
        assert_eq!(pairs, vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn fault_key_ignores_cycle_and_horizon() {
        let mk = |cycle, horizon| {
            MachineFault::NoForwardProgress(Box::new(PostMortem {
                cycle,
                horizon,
                outstanding: vec![OutstandingTxn {
                    node: 0,
                    block: 0x40,
                    xid: 1,
                    write_issued: false,
                    frames: vec![],
                }],
                ..PostMortem::default()
            }))
        };
        assert_eq!(fault_key(&mk(100, 50)), fault_key(&mk(999, 800)));
        let other = MachineFault::NoForwardProgress(Box::<PostMortem>::default());
        assert_ne!(fault_key(&mk(100, 50)), fault_key(&other));
    }
}

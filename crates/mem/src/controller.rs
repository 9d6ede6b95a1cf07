//! The requester-side cache controller.
//!
//! "On exception conditions, such as cache misses and failed
//! synchronization attempts, the controller can choose to trap the
//! processor or to make the processor wait" (paper, Section 2.1). This
//! controller decides between the **local fast path** (fill from local
//! memory while the processor waits out the 10-cycle memory latency)
//! and a **remote transaction** (send a protocol request and trap the
//! processor so it can switch to another task frame).
//!
//! It also implements the "multimodel support mechanisms" of Section
//! 3.4 that the out-of-band instructions reach: FLUSH with the fence
//! counter, and acknowledgment bookkeeping for software-enforced
//! coherence.
//!
//! The controller is hardened against an unreliable network: every
//! transaction carries a sequence number (`xid`) that replies must
//! echo — a reply for a retired or superseded transaction is ignored
//! rather than filled into the cache — and unanswered requests are
//! retransmitted with bounded exponential backoff from
//! [`CacheController::tick`]. A [`CohMsg::Nack`] from an overloaded
//! home reschedules the retransmission instead of spinning.

// Protocol hot path: failures must surface as typed errors, not tear
// down the simulator on the first injected fault.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
use crate::cache::{Cache, CacheConfig, LineState};
use crate::directory::Directory;
use crate::error::{ProtocolError, RetryConfig};
use crate::msg::CohMsg;
use april_obs::{EventKind, Probe};
use std::collections::HashMap;

/// Controller timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtlConfig {
    /// Cycles to fill a line from node-local memory (Table 4: 10).
    pub local_mem_latency: u64,
    /// Retransmission policy for unanswered requests and fenced
    /// flushes.
    pub retry: RetryConfig,
}

impl Default for CtlConfig {
    fn default() -> CtlConfig {
        CtlConfig {
            local_mem_latency: 10,
            retry: RetryConfig::default(),
        }
    }
}

/// What the controller tells the processor about an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Cache hit: the access completes this cycle.
    Hit,
    /// Filled from local memory: stall the processor for the memory
    /// latency, then reissue (it will hit).
    LocalFill {
        /// Hold duration.
        stall: u64,
    },
    /// A remote transaction is (now) outstanding: trap and context
    /// switch (trapping flavors) or hold the processor (wait flavors).
    Remote,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct Txn {
    /// This transaction's sequence number; replies must echo it.
    pub(crate) xid: u32,
    /// Waiting hardware contexts: `(frame, needs_write)`.
    pub(crate) frames: Vec<(usize, bool)>,
    /// A write-grade request has been issued.
    pub(crate) write_issued: bool,
    /// Retransmissions so far.
    pub(crate) retries: u32,
    /// When the next retransmission fires.
    pub(crate) next_retry: u64,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct FenceFlush {
    pub(crate) block: u32,
    pub(crate) retries: u32,
    pub(crate) next_retry: u64,
}

/// Controller event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtlStats {
    /// Cache hits.
    pub hits: u64,
    /// Misses satisfied from local memory without a transaction.
    pub local_fills: u64,
    /// Remote transactions started.
    pub remote_txns: u64,
    /// Protocol invalidations applied to this cache.
    pub invals: u64,
    /// Downgrades applied to this cache.
    pub downgrades: u64,
    /// Dirty lines written back (evictions + flushes).
    pub writebacks: u64,
    /// Requests or fenced flushes retransmitted.
    pub retransmits: u64,
    /// NACKs received from overloaded homes.
    pub nacks: u64,
    /// Stale or duplicate replies ignored.
    pub stale_replies: u64,
}

impl CtlStats {
    /// Sum of all counters — a cheap progress signature for the
    /// machine's forward-progress watchdog.
    pub fn total(&self) -> u64 {
        self.hits
            + self.local_fills
            + self.remote_txns
            + self.invals
            + self.downgrades
            + self.writebacks
            + self.retransmits
            + self.nacks
            + self.stale_replies
    }

    /// Field-wise accumulation of `other` into `self`, for
    /// machine-wide aggregates over per-node controllers.
    pub fn merge(&mut self, other: &CtlStats) {
        self.hits += other.hits;
        self.local_fills += other.local_fills;
        self.remote_txns += other.remote_txns;
        self.invals += other.invals;
        self.downgrades += other.downgrades;
        self.writebacks += other.writebacks;
        self.retransmits += other.retransmits;
        self.nacks += other.nacks;
        self.stale_replies += other.stale_replies;
    }
}

/// A node's cache controller.
#[derive(Debug, Clone)]
pub struct CacheController {
    pub(crate) node: usize,
    /// The processor cache (tags + MSI state).
    pub cache: Cache,
    pub(crate) txns: HashMap<u32, Txn>,
    /// Outstanding fenced flushes by flush id (awaiting `FlushAck`).
    pub(crate) flushes: HashMap<u32, FenceFlush>,
    pub(crate) next_xid: u32,
    pub(crate) clock: u64,
    /// The exact earliest `next_retry` over all outstanding
    /// transactions and fenced flushes (`u64::MAX` when none are
    /// pending). Min-updated when a deadline is scheduled and
    /// recomputed when a completion shrinks the pending set: keeping
    /// the bound tight means the event-driven machine never schedules
    /// a visit for a deadline that no longer exists, so in a
    /// fault-free run [`CacheController::tick`] only ever fires for
    /// true retransmissions.
    pub(crate) next_deadline: u64,
    /// Blocks filled for a waiting context but not yet accessed: the
    /// controller guarantees the processor one access before
    /// surrendering the line again, closing ALEWIFE's "window of
    /// vulnerability" (a context whose fill is stolen before its retry
    /// would otherwise livelock — the paper's Section 3.1 thrashing
    /// problems, "addressed with appropriate hardware interlock
    /// mechanisms").
    pub(crate) pinned: std::collections::HashSet<u32>,
    /// Protocol requests deferred while their block is pinned.
    pub(crate) deferred: Vec<(usize, CohMsg)>,
    pub(crate) fence: u32,
    pub(crate) cfg: CtlConfig,
    /// Event counters.
    pub stats: CtlStats,
    /// Trace recorder for this controller's lane (inert by default).
    pub(crate) probe: Probe,
}

impl CacheController {
    /// Creates the controller for `node`.
    pub fn new(node: usize, cache_cfg: CacheConfig, cfg: CtlConfig) -> CacheController {
        CacheController {
            node,
            cache: Cache::new(cache_cfg),
            txns: HashMap::default(),
            flushes: HashMap::default(),
            next_xid: 0,
            clock: 0,
            next_deadline: u64::MAX,
            pinned: std::collections::HashSet::default(),
            deferred: Vec::new(),
            fence: 0,
            cfg,
            stats: CtlStats::default(),
            probe: Probe::default(),
        }
    }

    /// This controller's node id.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Installs a trace recorder for this controller's lane.
    pub fn attach_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The controller's trace recorder.
    pub fn trace_probe(&self) -> &Probe {
        &self.probe
    }

    /// Outstanding fenced write-backs (the FENCE instruction stalls
    /// while this is non-zero).
    pub fn fence_count(&self) -> u32 {
        self.fence
    }

    /// Number of remote transactions currently in flight.
    pub fn outstanding(&self) -> usize {
        self.txns.len()
    }

    /// Outstanding transactions as `(block, xid, write_issued,
    /// waiting_frames)`, sorted by block — the requester slice of a
    /// deadlock post-mortem.
    pub fn outstanding_txns(&self) -> Vec<(u32, u32, bool, Vec<usize>)> {
        let mut v: Vec<_> = self
            .txns
            .iter()
            .map(|(&b, t)| {
                (
                    b,
                    t.xid,
                    t.write_issued,
                    t.frames.iter().map(|&(f, _)| f).collect(),
                )
            })
            .collect();
        v.sort_by_key(|&(b, ..)| b);
        v
    }

    fn fresh_xid(&mut self) -> u32 {
        self.next_xid = self.next_xid.wrapping_add(1);
        self.next_xid
    }

    /// The earliest cycle at which [`CacheController::tick`] may need
    /// to retransmit — a lower bound (`u64::MAX` when nothing is
    /// scheduled or retries are disabled), letting an event-driven
    /// machine skip quiet cycles without missing a deadline.
    #[inline]
    pub fn next_deadline(&self) -> u64 {
        if self.cfg.retry.enabled {
            self.next_deadline
        } else {
            u64::MAX
        }
    }

    /// Whether [`CacheController::tick`] would do any work at `now` —
    /// exactly its early-return test, on the raw deadline field. The
    /// machine uses this to skip the call entirely on quiet cycles;
    /// skipping is state-preserving precisely when this is false.
    #[inline]
    pub fn tick_pending(&self, now: u64) -> bool {
        self.cfg.retry.enabled && self.next_deadline <= now
    }

    fn note_deadline(&mut self, at: u64) {
        if at < self.next_deadline {
            self.next_deadline = at;
        }
    }

    /// Recomputes the exact earliest deadline after a completion or a
    /// reschedule changed the pending set. O(outstanding), and the
    /// outstanding sets are small (bounded by the frames that can miss
    /// concurrently plus unacknowledged fenced flushes).
    fn recompute_deadline(&mut self) {
        let mut min_next = u64::MAX;
        for t in self.txns.values() {
            min_next = min_next.min(t.next_retry);
        }
        for f in self.flushes.values() {
            min_next = min_next.min(f.next_retry);
        }
        self.next_deadline = min_next;
    }

    /// Advances the controller's notion of the current cycle without
    /// scanning for overdue work (that is [`CacheController::tick`]'s
    /// job). The machine calls this at the top of every cycle so
    /// backoff deadlines computed mid-cycle use the cycle they are
    /// scheduled in.
    pub fn set_clock(&mut self, now: u64) {
        self.clock = now;
    }

    /// Processes a processor data access.
    ///
    /// `home` is the block's home node; `dir` must be `Some` when this
    /// node is the home (the machine splits the borrow); `home_of`
    /// maps any block address to its home (needed for evictions);
    /// outgoing messages are appended to `out`.
    #[allow(clippy::too_many_arguments)]
    pub fn cpu_access(
        &mut self,
        addr: u32,
        write: bool,
        frame: usize,
        home: usize,
        dir: Option<&mut Directory>,
        home_of: impl Fn(u32) -> usize,
        out: &mut Vec<(usize, CohMsg)>,
    ) -> Outcome {
        let block = self.cache.config().block_of(addr);
        if self.cache.access(addr, write) {
            self.stats.hits += 1;
            if self.pinned.remove(&block) {
                self.service_deferred(block, &home_of, out);
            }
            return Outcome::Hit;
        }
        // Already waiting on this block?
        if let Some(txn) = self.txns.get_mut(&block) {
            if !txn.frames.contains(&(frame, write)) {
                txn.frames.push((frame, write));
            }
            if write && !txn.write_issued {
                txn.write_issued = true;
                out.push((
                    home,
                    CohMsg::WrReq {
                        block,
                        xid: txn.xid,
                    },
                ));
            }
            return Outcome::Remote;
        }
        // Local fast path: home is here, the machine passed the local
        // directory, and the block is quiet.
        if home == self.node {
            if let Some(dir) = dir {
                if dir.grant_local(self.node, block, write) {
                    self.fill(
                        block,
                        if write {
                            LineState::Modified
                        } else {
                            LineState::Shared
                        },
                        &home_of,
                        out,
                    );
                    self.stats.local_fills += 1;
                    self.probe
                        .emit(self.clock, EventKind::CacheMiss, block as u64, 0);
                    return Outcome::LocalFill {
                        stall: self.cfg.local_mem_latency,
                    };
                }
            }
        }
        // Remote (or locally-contended) transaction.
        let xid = self.fresh_xid();
        let retry_at = self.clock + self.cfg.retry.timeout;
        self.note_deadline(retry_at);
        self.txns.insert(
            block,
            Txn {
                xid,
                frames: vec![(frame, write)],
                write_issued: write,
                retries: 0,
                next_retry: retry_at,
            },
        );
        let msg = if write {
            CohMsg::WrReq { block, xid }
        } else {
            CohMsg::RdReq { block, xid }
        };
        out.push((home, msg));
        self.stats.remote_txns += 1;
        self.probe
            .emit(self.clock, EventKind::CacheMiss, block as u64, 1);
        Outcome::Remote
    }

    fn fill(
        &mut self,
        block: u32,
        state: LineState,
        home_of: &dyn Fn(u32) -> usize,
        out: &mut Vec<(usize, CohMsg)>,
    ) {
        if let Some(victim) = self.cache.fill(block, state) {
            if victim.dirty {
                self.stats.writebacks += 1;
                out.push((
                    home_of(victim.block),
                    CohMsg::FlushData {
                        block: victim.block,
                        fenced: false,
                        xid: 0,
                    },
                ));
            }
            if self.pinned.remove(&victim.block) {
                self.service_deferred(victim.block, home_of, out);
            }
        }
    }

    /// Replays protocol requests that were deferred while `block` was
    /// pinned for a waking context.
    fn service_deferred(
        &mut self,
        block: u32,
        home_of: &dyn Fn(u32) -> usize,
        out: &mut Vec<(usize, CohMsg)>,
    ) {
        let mut rest = Vec::new();
        for (from, msg) in std::mem::take(&mut self.deferred) {
            if msg.block() == Some(block) {
                // Only home-initiated demands are ever deferred, and
                // those never fail or wake frames.
                let woken = self.handle_msg_dyn(from, msg, home_of, out);
                debug_assert!(
                    matches!(woken.as_deref(), Ok([])),
                    "deferred requests never wake frames or fail"
                );
            } else {
                rest.push((from, msg));
            }
        }
        self.deferred = rest;
    }

    /// Handles a protocol message addressed to this cache (replies and
    /// home-initiated requests). Returns the task frames to wake, or a
    /// [`ProtocolError`] if the message is of a kind this endpoint
    /// never handles.
    pub fn handle_msg(
        &mut self,
        from: usize,
        msg: CohMsg,
        home_of: impl Fn(u32) -> usize,
        out: &mut Vec<(usize, CohMsg)>,
    ) -> Result<Vec<usize>, ProtocolError> {
        self.handle_msg_dyn(from, msg, &home_of, out)
    }

    fn handle_msg_dyn(
        &mut self,
        from: usize,
        msg: CohMsg,
        home_of: &dyn Fn(u32) -> usize,
        out: &mut Vec<(usize, CohMsg)>,
    ) -> Result<Vec<usize>, ProtocolError> {
        match msg {
            CohMsg::RdReply { block, xid } => {
                // Accept only if it answers the live transaction; a
                // duplicated or stale reply must not touch the cache.
                match self.txns.get_mut(&block) {
                    Some(txn) if txn.xid == xid => {}
                    _ => {
                        self.stats.stale_replies += 1;
                        return Ok(Vec::new());
                    }
                }
                self.fill(block, LineState::Shared, home_of, out);
                let retry_at = self.clock + self.cfg.retry.timeout;
                let Some(txn) = self.txns.get_mut(&block) else {
                    return Ok(Vec::new());
                };
                let mut woken = Vec::new();
                txn.frames.retain(|&(f, w)| {
                    if w {
                        true
                    } else {
                        woken.push(f);
                        false
                    }
                });
                // The request was answered; retransmission timing
                // restarts for any still-pending write upgrade.
                txn.retries = 0;
                txn.next_retry = retry_at;
                if txn.frames.is_empty() {
                    self.txns.remove(&block);
                }
                self.recompute_deadline();
                if !woken.is_empty() {
                    self.pinned.insert(block);
                }
                Ok(woken)
            }
            CohMsg::WrReply { block, xid } => {
                match self.txns.get(&block) {
                    Some(txn) if txn.xid == xid => {}
                    _ => {
                        self.stats.stale_replies += 1;
                        return Ok(Vec::new());
                    }
                }
                self.fill(block, LineState::Modified, home_of, out);
                let removed = self.txns.remove(&block);
                self.recompute_deadline();
                match removed {
                    Some(txn) => {
                        let woken: Vec<usize> = txn.frames.into_iter().map(|(f, _)| f).collect();
                        if !woken.is_empty() {
                            self.pinned.insert(block);
                        }
                        Ok(woken)
                    }
                    None => Ok(Vec::new()),
                }
            }
            CohMsg::Nack { block, xid } => {
                // The home's waiter queue was full: back off and retry.
                let mut rescheduled = None;
                if let Some(txn) = self.txns.get_mut(&block) {
                    if txn.xid == xid {
                        self.stats.nacks += 1;
                        self.probe
                            .emit(self.clock, EventKind::NackRecv, block as u64, xid as u64);
                        let at = self.clock + self.cfg.retry.backoff(txn.retries);
                        txn.next_retry = at;
                        rescheduled = Some(at);
                    }
                }
                if rescheduled.is_some() {
                    // The backoff may have *raised* this transaction's
                    // deadline past others'; recompute to stay tight.
                    self.recompute_deadline();
                }
                Ok(Vec::new())
            }
            CohMsg::Inval { block, xid } => {
                if self.pinned.contains(&block) {
                    self.deferred.push((from, msg));
                    return Ok(Vec::new());
                }
                if self.cache.invalidate(block) == Some(true) {
                    self.stats.writebacks += 1;
                }
                self.stats.invals += 1;
                out.push((from, CohMsg::InvAck { block, xid }));
                Ok(Vec::new())
            }
            CohMsg::DownReq { block, xid } => {
                if self.pinned.contains(&block) {
                    self.deferred.push((from, msg));
                    return Ok(Vec::new());
                }
                self.cache.downgrade(block);
                self.stats.downgrades += 1;
                out.push((from, CohMsg::DownAck { block, xid }));
                Ok(Vec::new())
            }
            CohMsg::WbInvalReq { block, xid } => {
                if self.pinned.contains(&block) {
                    self.deferred.push((from, msg));
                    return Ok(Vec::new());
                }
                self.cache.invalidate(block);
                self.stats.writebacks += 1;
                out.push((from, CohMsg::WbInvalAck { block, xid }));
                Ok(Vec::new())
            }
            CohMsg::FlushAck { fenced, xid, .. } => {
                // Only the first ack for a tracked fenced flush lowers
                // the fence; duplicates are ignored.
                if fenced && self.flushes.remove(&xid).is_some() {
                    self.fence = self.fence.saturating_sub(1);
                    self.recompute_deadline();
                }
                Ok(Vec::new())
            }
            CohMsg::BlockXfer { .. } | CohMsg::Ipi => Ok(Vec::new()),
            other => Err(ProtocolError::UnexpectedMessage {
                node: self.node,
                from,
                msg: other,
            }),
        }
    }

    /// Advances the controller's clock to `now` and retransmits
    /// overdue requests and fenced flushes with bounded exponential
    /// backoff, or reports [`ProtocolError::RetriesExhausted`].
    pub fn tick(
        &mut self,
        now: u64,
        home_of: impl Fn(u32) -> usize,
        out: &mut Vec<(usize, CohMsg)>,
    ) -> Result<(), ProtocolError> {
        self.clock = now;
        if !self.cfg.retry.enabled {
            return Ok(());
        }
        if self.next_deadline > now {
            return Ok(());
        }
        let retry = self.cfg.retry;
        let node = self.node;
        let mut resend = Vec::new();
        // Recompute the exact earliest deadline while scanning: not-due
        // entries contribute their existing `next_retry`, retransmitted
        // entries their freshly scheduled one.
        let mut min_next = u64::MAX;
        for (&block, txn) in &mut self.txns {
            if txn.next_retry > now {
                min_next = min_next.min(txn.next_retry);
                continue;
            }
            if txn.retries >= retry.max_retries {
                return Err(ProtocolError::RetriesExhausted {
                    node,
                    block,
                    xid: txn.xid,
                    retries: txn.retries,
                });
            }
            let msg = if txn.write_issued {
                CohMsg::WrReq {
                    block,
                    xid: txn.xid,
                }
            } else {
                CohMsg::RdReq {
                    block,
                    xid: txn.xid,
                }
            };
            txn.retries += 1;
            resend.push((home_of(block), msg, txn.retries));
            txn.next_retry = now + retry.backoff(txn.retries);
            min_next = min_next.min(txn.next_retry);
        }
        for (&xid, fl) in &mut self.flushes {
            if fl.next_retry > now {
                min_next = min_next.min(fl.next_retry);
                continue;
            }
            if fl.retries >= retry.max_retries {
                return Err(ProtocolError::RetriesExhausted {
                    node,
                    block: fl.block,
                    xid,
                    retries: fl.retries,
                });
            }
            fl.retries += 1;
            resend.push((
                home_of(fl.block),
                CohMsg::FlushData {
                    block: fl.block,
                    fenced: true,
                    xid,
                },
                fl.retries,
            ));
            fl.next_retry = now + retry.backoff(fl.retries);
            min_next = min_next.min(fl.next_retry);
        }
        self.next_deadline = min_next;
        self.stats.retransmits += resend.len() as u64;
        // Deterministic send order regardless of hash-map iteration.
        // Trace events are emitted in the same sorted order (a lane's
        // event sequence must not depend on map iteration).
        resend.sort_by_key(|&(to, msg, _)| (msg.block(), msg.xid(), to));
        for &(to, msg, retries) in &resend {
            self.probe.emit(
                self.clock,
                EventKind::Retransmit,
                msg.block().unwrap_or(0) as u64,
                retries as u64,
            );
            out.push((to, msg));
        }
        Ok(())
    }

    /// Implements the FLUSH instruction: drops the line containing
    /// `addr`; if dirty, writes it back and increments the fence
    /// counter (Section 3.4).
    pub fn flush(
        &mut self,
        addr: u32,
        home_of: impl Fn(u32) -> usize,
        out: &mut Vec<(usize, CohMsg)>,
    ) -> u32 {
        let block = self.cache.config().block_of(addr);
        match self.cache.invalidate(block) {
            Some(true) => {
                self.fence += 1;
                self.stats.writebacks += 1;
                let xid = self.fresh_xid();
                let retry_at = self.clock + self.cfg.retry.timeout;
                self.note_deadline(retry_at);
                self.flushes.insert(
                    xid,
                    FenceFlush {
                        block,
                        retries: 0,
                        next_retry: retry_at,
                    },
                );
                out.push((
                    home_of(block),
                    CohMsg::FlushData {
                        block,
                        fenced: true,
                        xid,
                    },
                ));
                1
            }
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::{DirState, SharerSet};

    fn ctl(node: usize) -> CacheController {
        CacheController::new(
            node,
            CacheConfig {
                size_bytes: 1024,
                block_bytes: 16,
                assoc: 2,
            },
            CtlConfig::default(),
        )
    }

    /// The xid of the controller's outstanding transaction on `block`.
    fn xid_of(c: &CacheController, block: u32) -> u32 {
        c.outstanding_txns()
            .into_iter()
            .find(|&(b, ..)| b == block)
            .map(|(_, x, ..)| x)
            .expect("transaction outstanding")
    }

    #[test]
    fn local_fast_path_fills_and_stalls() {
        let mut c = ctl(0);
        let mut dir = Directory::new();
        let mut out = Vec::new();
        let o = c.cpu_access(0x40, false, 0, 0, Some(&mut dir), |_| 0, &mut out);
        assert_eq!(o, Outcome::LocalFill { stall: 10 });
        assert!(out.is_empty());
        assert_eq!(dir.state(0x40), DirState::Shared(SharerSet::one(0)));
        // Reissue hits.
        let o = c.cpu_access(0x40, false, 0, 0, Some(&mut dir), |_| 0, &mut out);
        assert_eq!(o, Outcome::Hit);
    }

    #[test]
    fn remote_miss_sends_request_and_wakes_frame() {
        let mut c = ctl(0);
        let mut out = Vec::new();
        let o = c.cpu_access(0x40, false, 2, 5, None, |_| 5, &mut out);
        assert_eq!(o, Outcome::Remote);
        let xid = xid_of(&c, 0x40);
        assert_eq!(out, vec![(5, CohMsg::RdReq { block: 0x40, xid })]);
        out.clear();
        let woken = c
            .handle_msg(5, CohMsg::RdReply { block: 0x40, xid }, |_| 5, &mut out)
            .unwrap();
        assert_eq!(woken, vec![2]);
        assert_eq!(c.outstanding(), 0);
        // Now a hit.
        let o = c.cpu_access(0x44, false, 2, 5, None, |_| 5, &mut out);
        assert_eq!(o, Outcome::Hit);
    }

    #[test]
    fn duplicate_requests_coalesce() {
        let mut c = ctl(0);
        let mut out = Vec::new();
        c.cpu_access(0x40, false, 0, 5, None, |_| 5, &mut out);
        c.cpu_access(0x40, false, 1, 5, None, |_| 5, &mut out);
        assert_eq!(out.len(), 1, "one request for two frames");
        let xid = xid_of(&c, 0x40);
        let mut woken = c
            .handle_msg(5, CohMsg::RdReply { block: 0x40, xid }, |_| 5, &mut out)
            .unwrap();
        woken.sort();
        assert_eq!(woken, vec![0, 1]);
    }

    #[test]
    fn read_then_write_upgrades_transaction() {
        let mut c = ctl(0);
        let mut out = Vec::new();
        c.cpu_access(0x40, false, 0, 5, None, |_| 5, &mut out);
        c.cpu_access(0x40, true, 1, 5, None, |_| 5, &mut out);
        let xid = xid_of(&c, 0x40);
        assert_eq!(
            out,
            vec![
                (5, CohMsg::RdReq { block: 0x40, xid }),
                (5, CohMsg::WrReq { block: 0x40, xid })
            ]
        );
        out.clear();
        // RdReply satisfies only the reader.
        let woken = c
            .handle_msg(5, CohMsg::RdReply { block: 0x40, xid }, |_| 5, &mut out)
            .unwrap();
        assert_eq!(woken, vec![0]);
        assert_eq!(c.outstanding(), 1);
        let woken = c
            .handle_msg(5, CohMsg::WrReply { block: 0x40, xid }, |_| 5, &mut out)
            .unwrap();
        assert_eq!(woken, vec![1]);
    }

    #[test]
    fn stale_reply_is_ignored_and_does_not_fill() {
        let mut c = ctl(0);
        let mut out = Vec::new();
        c.cpu_access(0x40, true, 0, 5, None, |_| 5, &mut out);
        let xid = xid_of(&c, 0x40);
        // A reply with the wrong xid (stale from an earlier incarnation)
        // must neither fill the cache nor wake the frame.
        let woken = c
            .handle_msg(
                5,
                CohMsg::WrReply {
                    block: 0x40,
                    xid: xid.wrapping_add(9),
                },
                |_| 5,
                &mut out,
            )
            .unwrap();
        assert!(woken.is_empty());
        assert_eq!(c.cache.probe(0x40), None, "stale reply must not fill");
        assert_eq!(c.outstanding(), 1);
        assert_eq!(c.stats.stale_replies, 1);
        // The real reply still lands.
        let woken = c
            .handle_msg(5, CohMsg::WrReply { block: 0x40, xid }, |_| 5, &mut out)
            .unwrap();
        assert_eq!(woken, vec![0]);
    }

    #[test]
    fn duplicate_reply_after_retirement_is_ignored() {
        let mut c = ctl(0);
        let mut out = Vec::new();
        c.cpu_access(0x40, true, 0, 5, None, |_| 5, &mut out);
        let xid = xid_of(&c, 0x40);
        c.handle_msg(5, CohMsg::WrReply { block: 0x40, xid }, |_| 5, &mut out)
            .unwrap();
        // Consume the pin, downgrade the line away, then replay the
        // reply: it must not resurrect the Modified copy.
        c.cpu_access(0x40, true, 0, 5, None, |_| 5, &mut out);
        c.handle_msg(
            5,
            CohMsg::Inval {
                block: 0x40,
                xid: 77,
            },
            |_| 5,
            &mut out,
        )
        .unwrap();
        assert_eq!(c.cache.probe(0x40), None);
        let woken = c
            .handle_msg(5, CohMsg::WrReply { block: 0x40, xid }, |_| 5, &mut out)
            .unwrap();
        assert!(woken.is_empty());
        assert_eq!(c.cache.probe(0x40), None, "duplicate reply must not refill");
        assert_eq!(c.stats.stale_replies, 1);
    }

    #[test]
    fn overdue_request_is_retransmitted_then_exhausts() {
        let mut c = CacheController::new(
            0,
            CacheConfig {
                size_bytes: 1024,
                block_bytes: 16,
                assoc: 2,
            },
            CtlConfig {
                local_mem_latency: 10,
                retry: RetryConfig {
                    enabled: true,
                    timeout: 50,
                    backoff_cap: 50,
                    max_retries: 2,
                },
            },
        );
        let mut out = Vec::new();
        c.cpu_access(0x40, false, 0, 5, None, |_| 5, &mut out);
        let xid = xid_of(&c, 0x40);
        out.clear();
        c.tick(49, |_| 5, &mut out).unwrap();
        assert!(out.is_empty(), "not overdue yet");
        c.tick(50, |_| 5, &mut out).unwrap();
        assert_eq!(out, vec![(5, CohMsg::RdReq { block: 0x40, xid })]);
        out.clear();
        c.tick(100, |_| 5, &mut out).unwrap();
        assert_eq!(out.len(), 1);
        let err = c.tick(150, |_| 5, &mut out).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::RetriesExhausted {
                node: 0,
                block: 0x40,
                ..
            }
        ));
    }

    #[test]
    fn nack_backs_off_the_retry() {
        let mut c = ctl(0);
        let mut out = Vec::new();
        c.cpu_access(0x40, false, 0, 5, None, |_| 5, &mut out);
        let xid = xid_of(&c, 0x40);
        c.handle_msg(5, CohMsg::Nack { block: 0x40, xid }, |_| 5, &mut out)
            .unwrap();
        assert_eq!(c.stats.nacks, 1);
        assert_eq!(c.outstanding(), 1, "NACK keeps the transaction alive");
        out.clear();
        // The retransmission still happens, just later.
        c.tick(10_000_000, |_| 5, &mut out).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn inval_acks_and_drops_line() {
        let mut c = ctl(0);
        let mut dir = Directory::new();
        let mut out = Vec::new();
        c.cpu_access(0x40, false, 0, 0, Some(&mut dir), |_| 0, &mut out);
        let woken = c
            .handle_msg(
                3,
                CohMsg::Inval {
                    block: 0x40,
                    xid: 4,
                },
                |_| 0,
                &mut out,
            )
            .unwrap();
        assert!(woken.is_empty());
        assert_eq!(
            out,
            vec![(
                3,
                CohMsg::InvAck {
                    block: 0x40,
                    xid: 4
                }
            )]
        );
        assert_eq!(c.cache.probe(0x40), None);
    }

    #[test]
    fn inval_for_absent_line_still_acks_with_epoch() {
        let mut c = ctl(0);
        let mut out = Vec::new();
        c.handle_msg(
            3,
            CohMsg::Inval {
                block: 0x80,
                xid: 9,
            },
            |_| 0,
            &mut out,
        )
        .unwrap();
        assert_eq!(
            out,
            vec![(
                3,
                CohMsg::InvAck {
                    block: 0x80,
                    xid: 9
                }
            )]
        );
    }

    #[test]
    fn downgrade_keeps_shared_copy() {
        let mut c = ctl(0);
        let mut dir = Directory::new();
        let mut out = Vec::new();
        c.cpu_access(0x40, true, 0, 0, Some(&mut dir), |_| 0, &mut out);
        c.handle_msg(
            2,
            CohMsg::DownReq {
                block: 0x40,
                xid: 6,
            },
            |_| 0,
            &mut out,
        )
        .unwrap();
        assert_eq!(
            out,
            vec![(
                2,
                CohMsg::DownAck {
                    block: 0x40,
                    xid: 6
                }
            )]
        );
        assert_eq!(c.cache.probe(0x40), Some(LineState::Shared));
    }

    #[test]
    fn flush_raises_fence_until_acked() {
        let mut c = ctl(0);
        let mut dir = Directory::new();
        let mut out = Vec::new();
        c.cpu_access(0x40, true, 0, 0, Some(&mut dir), |_| 0, &mut out);
        assert_eq!(c.flush(0x44, |_| 0, &mut out), 1);
        assert_eq!(c.fence_count(), 1);
        let Some(&(
            0,
            CohMsg::FlushData {
                block: 0x40,
                fenced: true,
                xid,
            },
        )) = out.last()
        else {
            panic!("expected a fenced FlushData, got {:?}", out.last());
        };
        c.handle_msg(
            0,
            CohMsg::FlushAck {
                block: 0x40,
                fenced: true,
                xid,
            },
            |_| 0,
            &mut out,
        )
        .unwrap();
        assert_eq!(c.fence_count(), 0);
    }

    #[test]
    fn duplicate_flush_ack_does_not_double_decrement() {
        let mut c = ctl(0);
        let mut dir = Directory::new();
        let mut out = Vec::new();
        c.cpu_access(0x40, true, 0, 0, Some(&mut dir), |_| 0, &mut out);
        c.cpu_access(0x80, true, 0, 0, Some(&mut dir), |_| 0, &mut out);
        c.flush(0x40, |_| 0, &mut out);
        c.flush(0x80, |_| 0, &mut out);
        assert_eq!(c.fence_count(), 2);
        let acks: Vec<CohMsg> = out
            .iter()
            .filter_map(|&(_, m)| match m {
                CohMsg::FlushData {
                    block,
                    fenced: true,
                    xid,
                } => Some(CohMsg::FlushAck {
                    block,
                    fenced: true,
                    xid,
                }),
                _ => None,
            })
            .collect();
        // The first flush's ack arrives twice (network duplicate).
        c.handle_msg(0, acks[0], |_| 0, &mut out).unwrap();
        c.handle_msg(0, acks[0], |_| 0, &mut out).unwrap();
        assert_eq!(
            c.fence_count(),
            1,
            "duplicate ack must not unblock the fence early"
        );
        c.handle_msg(0, acks[1], |_| 0, &mut out).unwrap();
        assert_eq!(c.fence_count(), 0);
    }

    #[test]
    fn lost_fenced_flush_is_retransmitted() {
        let mut c = ctl(0);
        let mut dir = Directory::new();
        let mut out = Vec::new();
        c.cpu_access(0x40, true, 0, 0, Some(&mut dir), |_| 0, &mut out);
        c.flush(0x40, |_| 0, &mut out);
        out.clear();
        let t = CtlConfig::default().retry.timeout;
        c.tick(t, |_| 0, &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert!(
            matches!(
                out[0],
                (
                    0,
                    CohMsg::FlushData {
                        block: 0x40,
                        fenced: true,
                        ..
                    }
                )
            ),
            "got {:?}",
            out[0]
        );
        assert_eq!(c.stats.retransmits, 1);
    }

    #[test]
    fn clean_flush_is_free() {
        let mut c = ctl(0);
        let mut dir = Directory::new();
        let mut out = Vec::new();
        c.cpu_access(0x40, false, 0, 0, Some(&mut dir), |_| 0, &mut out);
        out.clear();
        assert_eq!(c.flush(0x40, |_| 0, &mut out), 0);
        assert!(out.is_empty());
        assert_eq!(c.fence_count(), 0);
    }

    #[test]
    fn pinned_fill_defers_requests_until_first_use() {
        // Remote fill for a waiting frame: a DownReq arriving before
        // the frame's retry is deferred (window of vulnerability),
        // then serviced after the first access.
        let mut c = ctl(0);
        let mut out = Vec::new();
        c.cpu_access(0x40, true, 1, 5, None, |_| 5, &mut out);
        let xid = xid_of(&c, 0x40);
        out.clear();
        let woken = c
            .handle_msg(5, CohMsg::WrReply { block: 0x40, xid }, |_| 5, &mut out)
            .unwrap();
        assert_eq!(woken, vec![1]);
        // The steal attempt arrives before the retry: no ack yet.
        let w = c
            .handle_msg(
                5,
                CohMsg::DownReq {
                    block: 0x40,
                    xid: 3,
                },
                |_| 5,
                &mut out,
            )
            .unwrap();
        assert!(w.is_empty());
        assert!(out.is_empty(), "DownReq must be deferred while pinned");
        assert_eq!(c.cache.probe(0x40), Some(LineState::Modified));
        // The woken frame's access consumes the pin and releases the
        // deferred downgrade.
        let o = c.cpu_access(0x44, true, 1, 5, None, |_| 5, &mut out);
        assert_eq!(o, Outcome::Hit);
        assert_eq!(
            out,
            vec![(
                5,
                CohMsg::DownAck {
                    block: 0x40,
                    xid: 3
                }
            )]
        );
        assert_eq!(c.cache.probe(0x40), Some(LineState::Shared));
    }

    #[test]
    fn unpinned_blocks_ack_immediately() {
        let mut c = ctl(0);
        let mut dir = Directory::new();
        let mut out = Vec::new();
        // Local fill (no waiting frame, no pin).
        c.cpu_access(0x40, true, 0, 0, Some(&mut dir), |_| 0, &mut out);
        c.handle_msg(
            3,
            CohMsg::DownReq {
                block: 0x40,
                xid: 2,
            },
            |_| 0,
            &mut out,
        )
        .unwrap();
        assert_eq!(
            out,
            vec![(
                3,
                CohMsg::DownAck {
                    block: 0x40,
                    xid: 2
                }
            )]
        );
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = CacheController::new(
            0,
            CacheConfig {
                size_bytes: 64,
                block_bytes: 16,
                assoc: 1,
            },
            CtlConfig::default(),
        );
        let mut dir = Directory::new();
        let mut out = Vec::new();
        c.cpu_access(0x00, true, 0, 0, Some(&mut dir), |_| 7, &mut out);
        // 0x40 conflicts with 0x00 in a 4-set direct-mapped cache.
        c.cpu_access(0x40, false, 0, 0, Some(&mut dir), |_| 7, &mut out);
        assert!(out.contains(&(
            7,
            CohMsg::FlushData {
                block: 0x00,
                fenced: false,
                xid: 0
            }
        )));
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn request_kind_message_to_controller_errors() {
        let mut c = ctl(0);
        let mut out = Vec::new();
        let err = c
            .handle_msg(3, CohMsg::RdReq { block: 0, xid: 1 }, |_| 0, &mut out)
            .unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::UnexpectedMessage {
                node: 0,
                from: 3,
                ..
            }
        ));
    }
}

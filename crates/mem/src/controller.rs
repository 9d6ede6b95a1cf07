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

/// What a transaction-store entry waits for; the order breaks ties
/// between entries of one block and xid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Wait {
    /// A request awaiting its reply.
    #[default]
    Reply,
    /// A fenced flush awaiting its `FlushAck`.
    FlushAck,
    /// A fill awaiting its frame's first access.
    Use,
}

/// One entry of the transaction store.
#[derive(Debug, Clone, Default)]
pub(crate) struct Entry {
    pub(crate) block: u32,
    /// The request's sequence number, which replies must echo; a
    /// flush's id; for a fill, the xid of the request it answered.
    pub(crate) xid: u32,
    pub(crate) wait: Wait,
    /// `(frame, needs_write)`: the contexts awaiting the reply, or the
    /// contexts the fill woke.
    pub(crate) frames: Vec<(usize, bool)>,
    /// A write-grade request has been issued.
    pub(crate) write_issued: bool,
    /// Retransmissions so far.
    pub(crate) retries: u32,
    /// When the next retransmission fires (never, for a fill).
    pub(crate) next_retry: u64,
    /// The fill's line, held here since a fill for another context
    /// evicted it from the cache.
    pub(crate) held: Option<LineState>,
    /// Home demands on the block, deferred until the fill is used.
    pub(crate) demands: Vec<(usize, CohMsg)>,
}

impl Entry {
    /// The store's sort key.
    pub(crate) fn key(&self) -> (u32, u32, Wait) {
        (self.block, self.xid, self.wait)
    }
}

/// The state a fill grants: `Modified` for a write, else `Shared`.
fn granted(write: bool) -> LineState {
    if write {
        LineState::Modified
    } else {
        LineState::Shared
    }
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
    /// The transaction store, in `(block, xid, wait)` order: requests
    /// awaiting replies, fenced flushes awaiting `FlushAck`, and fills
    /// awaiting their frame's first access. It holds about a request
    /// and a fill per hardware frame, plus the fenced flushes not yet
    /// acknowledged, so it is searched linearly.
    ///
    /// A fill's entry closes ALEWIFE's "window of vulnerability": the
    /// controller guarantees the woken context one access before
    /// surrendering the line, deferring home demands on it and holding
    /// it aside if another context's fill evicts it. Without that, a
    /// context whose fill is stolen before its retry livelocks — the
    /// paper's Section 3.1 thrashing problems, "addressed with
    /// appropriate hardware interlock mechanisms" (DESIGN.md §4 item
    /// 7).
    pub(crate) store: Vec<Entry>,
    pub(crate) next_xid: u32,
    pub(crate) clock: u64,
    /// The exact earliest `next_retry` over all outstanding requests
    /// and fenced flushes (`u64::MAX` when none are pending).
    /// Min-updated when a deadline is scheduled and recomputed when a
    /// completion shrinks the pending set: keeping the bound tight
    /// means the event-driven machine never schedules a visit for a
    /// deadline that no longer exists, so in a fault-free run
    /// [`CacheController::tick`] only ever fires for true
    /// retransmissions.
    pub(crate) next_deadline: u64,
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
            store: Vec::new(),
            next_xid: 0,
            clock: 0,
            next_deadline: u64::MAX,
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

    /// Whether `frame`'s access to `addr` (write-grade if `write`)
    /// would hit and do nothing else: the cache holds the line in a
    /// state that hits, and no fill awaiting its first access is on the
    /// block or names the frame, so the access neither puts a held line
    /// back, nor releases a fill, nor answers a deferred demand.
    /// Requests and fenced flushes in the store do not matter: a hit
    /// never reads them. A machine may run such an access ahead and
    /// apply it at its cycle with [`CacheController::retire_hit`].
    pub fn hits_only(&self, addr: u32, frame: usize, write: bool) -> bool {
        let block = self.cache.config().block_of(addr);
        let hits = match self.cache.probe(addr) {
            Some(LineState::Modified) => true,
            Some(LineState::Shared) => !write,
            None => false,
        };
        hits && !self.store.iter().any(|e| {
            e.wait == Wait::Use && (e.block == block || e.frames.iter().any(|&(f, _)| f == frame))
        })
    }

    /// Retires `frame`'s access to `addr` that
    /// [`CacheController::hits_only`] — all
    /// [`CacheController::cpu_access`] does for it: the cache records
    /// the access (LRU, counters) and the hit is counted.
    pub fn retire_hit(&mut self, addr: u32, frame: usize, write: bool) {
        debug_assert!(
            self.hits_only(addr, frame, write),
            "a booked access must only hit"
        );
        self.cache.access(addr, write);
        self.stats.hits += 1;
    }

    /// Outstanding fenced write-backs (the FENCE instruction stalls
    /// while this is non-zero).
    pub fn fence_count(&self) -> u32 {
        self.count(Wait::FlushAck) as u32
    }

    /// Number of remote transactions currently in flight.
    pub fn outstanding(&self) -> usize {
        self.count(Wait::Reply)
    }

    fn count(&self, wait: Wait) -> usize {
        self.store.iter().filter(|e| e.wait == wait).count()
    }

    /// Outstanding transactions as `(block, xid, write_issued,
    /// waiting_frames)`, sorted by block — the requester slice of a
    /// deadlock post-mortem.
    pub fn outstanding_txns(&self) -> Vec<(u32, u32, bool, Vec<usize>)> {
        self.store
            .iter()
            .filter(|e| e.wait == Wait::Reply)
            .map(|e| {
                let frames = e.frames.iter().map(|&(f, _)| f).collect();
                (e.block, e.xid, e.write_issued, frames)
            })
            .collect()
    }

    /// Lines held aside for a woken frame after another context's fill
    /// evicted them, as `(block, deferred demands)` in block order.
    pub fn held_lines(&self) -> Vec<(u32, usize)> {
        self.store
            .iter()
            .filter(|e| e.held.is_some())
            .map(|e| (e.block, e.demands.len()))
            .collect()
    }

    /// The store index of `block`'s entry awaiting `wait`.
    fn find(&self, block: u32, wait: Wait) -> Option<usize> {
        self.store
            .iter()
            .position(|e| e.block == block && e.wait == wait)
    }

    /// The store index of the request on `block` that a reply echoing
    /// `xid` answers.
    fn request(&self, block: u32, xid: u32) -> Option<usize> {
        self.find(block, Wait::Reply)
            .filter(|&i| self.store[i].xid == xid)
    }

    fn insert(&mut self, entry: Entry) {
        self.next_deadline = self.next_deadline.min(entry.next_retry);
        let at = self.store.partition_point(|e| e.key() < entry.key());
        self.store.insert(at, entry);
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

    /// Recomputes the exact earliest deadline after a completion or a
    /// reschedule changed the pending set.
    fn recompute_deadline(&mut self) {
        self.next_deadline = self
            .store
            .iter()
            .map(|e| e.next_retry)
            .min()
            .unwrap_or(u64::MAX);
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
        if !self.store.is_empty() {
            self.settle_fills(block, frame, &home_of, out);
        }
        if self.cache.access(addr, write) {
            self.stats.hits += 1;
            if let Some(i) = self.find(block, Wait::Use) {
                let used = self.store.remove(i);
                self.retire_fill(used, &home_of, out);
            }
            return Outcome::Hit;
        }
        // Already waiting on this block?
        if let Some(i) = self.find(block, Wait::Reply) {
            let txn = &mut self.store[i];
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
                    self.fill(block, granted(write), &home_of, out);
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
        self.insert(Entry {
            block,
            xid,
            frames: vec![(frame, write)],
            write_issued: write,
            next_retry: self.clock + self.cfg.retry.timeout,
            ..Entry::default()
        });
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

    /// Readies the fills awaiting use for `frame`'s access to `block`.
    /// A fill for `block` that is held aside goes back into the cache,
    /// so the access hits. A fill that woke `frame` for another block
    /// is released: the frame has moved on without it (its thread was
    /// unloaded, say), and nothing else would ever free it.
    fn settle_fills(
        &mut self,
        block: u32,
        frame: usize,
        home_of: &dyn Fn(u32) -> usize,
        out: &mut Vec<(usize, CohMsg)>,
    ) {
        while let Some(i) = self.store.iter().position(|e| {
            e.wait == Wait::Use && e.block != block && e.frames.iter().any(|&(f, _)| f == frame)
        }) {
            let passed = self.store.remove(i);
            self.retire_fill(passed, home_of, out);
        }
        if let Some(state) = self
            .find(block, Wait::Use)
            .and_then(|i| self.store[i].held.take())
        {
            self.fill(block, state, home_of, out);
        }
    }

    /// Ends a fill's wait for its first access. A line still held
    /// aside leaves the node as its eviction would have, written back
    /// if dirty; then the demands deferred on the block are answered.
    fn retire_fill(
        &mut self,
        fill: Entry,
        home_of: &dyn Fn(u32) -> usize,
        out: &mut Vec<(usize, CohMsg)>,
    ) {
        if fill.held == Some(LineState::Modified) {
            self.write_back(fill.block, home_of, out);
        }
        for (from, msg) in fill.demands {
            // Only home-initiated demands are ever deferred, and those
            // never fail or wake frames.
            let woken = self.handle_msg_dyn(from, msg, home_of, out);
            debug_assert!(
                matches!(woken.as_deref(), Ok([])),
                "deferred requests never wake frames or fail"
            );
        }
    }

    /// Fills `block` in `state`, superseding a line of it held aside.
    /// A victim whose fill still awaits its first access is held in its
    /// store entry, not evicted.
    fn fill(
        &mut self,
        block: u32,
        state: LineState,
        home_of: &dyn Fn(u32) -> usize,
        out: &mut Vec<(usize, CohMsg)>,
    ) {
        if let Some(i) = self.find(block, Wait::Use) {
            self.store[i].held = None;
        }
        let Some(victim) = self.cache.fill(block, state) else {
            return;
        };
        if let Some(i) = self.find(victim.block, Wait::Use) {
            self.store[i].held = Some(granted(victim.dirty));
        } else if victim.dirty {
            self.write_back(victim.block, home_of, out);
        }
    }

    fn write_back(
        &mut self,
        block: u32,
        home_of: &dyn Fn(u32) -> usize,
        out: &mut Vec<(usize, CohMsg)>,
    ) {
        self.stats.writebacks += 1;
        out.push((
            home_of(block),
            CohMsg::FlushData {
                block,
                fenced: false,
                xid: 0,
            },
        ));
    }

    /// Keeps `block`'s fill for the `frames` it woke until its first
    /// access, and returns the frames to wake.
    fn pin(&mut self, block: u32, xid: u32, frames: Vec<(usize, bool)>) -> Vec<usize> {
        let woken = frames.iter().map(|&(f, _)| f).collect();
        match self.find(block, Wait::Use) {
            _ if frames.is_empty() => {}
            Some(i) => self.store[i].frames.extend(frames),
            None => self.insert(Entry {
                block,
                xid,
                wait: Wait::Use,
                frames,
                next_retry: u64::MAX,
                ..Entry::default()
            }),
        }
        woken
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
        if let CohMsg::Inval { block, .. }
        | CohMsg::DownReq { block, .. }
        | CohMsg::WbInvalReq { block, .. } = msg
        {
            if let Some(i) = self.find(block, Wait::Use) {
                self.store[i].demands.push((from, msg));
                return Ok(Vec::new());
            }
        }
        match msg {
            CohMsg::RdReply { block, xid } | CohMsg::WrReply { block, xid } => {
                // Accept only if it answers the live transaction; a
                // duplicated or stale reply must not touch the cache.
                let Some(i) = self.request(block, xid) else {
                    self.stats.stale_replies += 1;
                    return Ok(Vec::new());
                };
                let write = matches!(msg, CohMsg::WrReply { .. });
                self.fill(block, granted(write), home_of, out);
                let next_retry = self.clock + self.cfg.retry.timeout;
                let txn = &mut self.store[i];
                // A read reply wakes the readers only. The request was
                // answered; retransmission timing restarts for any
                // still-pending write upgrade.
                let woken = txn
                    .frames
                    .extract_if(.., |&mut (_, w)| write || !w)
                    .collect();
                txn.retries = 0;
                txn.next_retry = next_retry;
                if txn.frames.is_empty() {
                    self.store.remove(i);
                }
                self.recompute_deadline();
                Ok(self.pin(block, xid, woken))
            }
            CohMsg::Nack { block, xid } => {
                // The home's waiter queue was full: back off and retry.
                if let Some(i) = self.request(block, xid) {
                    self.stats.nacks += 1;
                    self.probe
                        .emit(self.clock, EventKind::NackRecv, block as u64, xid as u64);
                    let txn = &mut self.store[i];
                    txn.next_retry = self.clock + self.cfg.retry.backoff(txn.retries);
                    // The backoff may have *raised* this transaction's
                    // deadline past others'; recompute to stay tight.
                    self.recompute_deadline();
                }
                Ok(Vec::new())
            }
            CohMsg::Inval { block, xid } => {
                if self.cache.invalidate(block) == Some(true) {
                    self.stats.writebacks += 1;
                }
                self.stats.invals += 1;
                out.push((from, CohMsg::InvAck { block, xid }));
                Ok(Vec::new())
            }
            CohMsg::DownReq { block, xid } => {
                self.cache.downgrade(block);
                self.stats.downgrades += 1;
                out.push((from, CohMsg::DownAck { block, xid }));
                Ok(Vec::new())
            }
            CohMsg::WbInvalReq { block, xid } => {
                self.cache.invalidate(block);
                self.stats.writebacks += 1;
                out.push((from, CohMsg::WbInvalAck { block, xid }));
                Ok(Vec::new())
            }
            CohMsg::FlushAck {
                fenced: true, xid, ..
            } => {
                // Only the first ack for a tracked fenced flush lowers
                // the fence; duplicates are ignored.
                let flush = |e: &Entry| e.wait == Wait::FlushAck && e.xid == xid;
                if let Some(i) = self.store.iter().position(flush) {
                    self.store.remove(i);
                    self.recompute_deadline();
                }
                Ok(Vec::new())
            }
            CohMsg::FlushAck { .. } | CohMsg::BlockXfer { .. } | CohMsg::Ipi => Ok(Vec::new()),
            other => Err(ProtocolError::UnexpectedMessage {
                node: self.node,
                from,
                msg: other,
            }),
        }
    }

    /// Advances the controller's clock to `now` and retransmits
    /// overdue requests and fenced flushes with bounded exponential
    /// backoff, in store order, or reports the first
    /// [`ProtocolError::RetriesExhausted`] in that order.
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
        let mut resend = Vec::new();
        // Recompute the exact earliest deadline while scanning: not-due
        // entries contribute their existing `next_retry`, retransmitted
        // entries their freshly scheduled one.
        let mut min_next = u64::MAX;
        for e in &mut self.store {
            if e.next_retry > now {
                min_next = min_next.min(e.next_retry);
                continue;
            }
            if e.retries >= retry.max_retries {
                return Err(ProtocolError::RetriesExhausted {
                    node: self.node,
                    block: e.block,
                    xid: e.xid,
                    retries: e.retries,
                });
            }
            let (block, xid) = (e.block, e.xid);
            let msg = match e.wait {
                Wait::FlushAck => CohMsg::FlushData {
                    block,
                    fenced: true,
                    xid,
                },
                _ if e.write_issued => CohMsg::WrReq { block, xid },
                _ => CohMsg::RdReq { block, xid },
            };
            e.retries += 1;
            resend.push((home_of(block), msg, e.retries));
            e.next_retry = now + retry.backoff(e.retries);
            min_next = min_next.min(e.next_retry);
        }
        self.next_deadline = min_next;
        self.stats.retransmits += resend.len() as u64;
        for (to, msg, retries) in resend {
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
    /// counter (Section 3.4). A fill of the block still awaiting its
    /// frame's first access counts the flush as that access: the entry
    /// is released and its deferred demands answered before the line
    /// goes, as after a hit (DESIGN.md §4 item 7).
    pub fn flush(
        &mut self,
        addr: u32,
        home_of: impl Fn(u32) -> usize,
        out: &mut Vec<(usize, CohMsg)>,
    ) -> u32 {
        let block = self.cache.config().block_of(addr);
        if let Some(i) = self.find(block, Wait::Use) {
            let used = self.store.remove(i);
            self.retire_fill(used, &home_of, out);
        }
        match self.cache.invalidate(block) {
            Some(true) => {
                self.stats.writebacks += 1;
                let xid = self.fresh_xid();
                self.insert(Entry {
                    block,
                    xid,
                    wait: Wait::FlushAck,
                    next_retry: self.clock + self.cfg.retry.timeout,
                    ..Entry::default()
                });
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
        let woken = c
            .handle_msg(5, CohMsg::RdReply { block: 0x40, xid }, |_| 5, &mut out)
            .unwrap();
        assert_eq!(woken, vec![0, 1], "in the order the frames missed");
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

    /// A 4-set direct-mapped cache: blocks 0x00, 0x40 and 0x80 share a
    /// set.
    fn direct_mapped() -> CacheController {
        let cache = CacheConfig {
            size_bytes: 64,
            block_bytes: 16,
            assoc: 1,
        };
        CacheController::new(0, cache, CtlConfig::default())
    }

    /// Frame `frame` misses on `block` (home 5) and the reply wakes it.
    fn woken(c: &mut CacheController, block: u32, write: bool, frame: usize) {
        let mut out = Vec::new();
        c.cpu_access(block, write, frame, 5, None, |_| 5, &mut out);
        let xid = xid_of(c, block);
        let reply = if write {
            CohMsg::WrReply { block, xid }
        } else {
            CohMsg::RdReply { block, xid }
        };
        assert_eq!(c.handle_msg(5, reply, |_| 5, &mut out), Ok(vec![frame]));
    }

    #[test]
    fn a_fill_evicted_by_a_sibling_is_held_until_its_frame_uses_it() {
        let mut c = direct_mapped();
        let mut out = Vec::new();
        woken(&mut c, 0x00, false, 1);
        woken(&mut c, 0x40, false, 2);
        // Frame 2's fill took the set; frame 1's line is held aside.
        assert_eq!(c.cache.probe(0x00), None);
        assert_eq!(c.held_lines(), vec![(0x00, 0)]);
        let before = c.cache.stats;
        assert_eq!(
            c.cpu_access(0x04, false, 1, 5, None, |_| 5, &mut out),
            Outcome::Hit
        );
        // One access and no miss; frame 2's line is held in its turn.
        assert_eq!(c.cache.stats.reads, before.reads + 1);
        assert_eq!(c.cache.stats.read_misses, before.read_misses);
        assert_eq!(c.held_lines(), vec![(0x40, 0)]);
        assert_eq!(
            c.cpu_access(0x44, false, 2, 5, None, |_| 5, &mut out),
            Outcome::Hit
        );
        assert!(c.held_lines().is_empty() && c.store.is_empty());
        assert!(out.is_empty(), "no re-miss, no write-back");
    }

    #[test]
    fn a_woken_frame_that_accesses_another_block_releases_its_fill() {
        // Frame 1's dirty line is held aside with an invalidation
        // deferred on it; then frame 1's thread is swapped out, and the
        // frame's next access goes elsewhere.
        let mut c = direct_mapped();
        let mut out = Vec::new();
        woken(&mut c, 0x00, true, 1);
        woken(&mut c, 0x40, false, 2);
        let inval = CohMsg::Inval {
            block: 0x00,
            xid: 7,
        };
        assert_eq!(c.handle_msg(3, inval, |_| 5, &mut out), Ok(vec![]));
        assert_eq!(c.held_lines(), vec![(0x00, 1)]);
        assert!(out.is_empty(), "the demand waits for frame 1");
        c.cpu_access(0x104, false, 1, 5, None, |_| 5, &mut out);
        assert_eq!(
            out[..2],
            [
                (
                    5,
                    CohMsg::FlushData {
                        block: 0x00,
                        fenced: false,
                        xid: 0
                    }
                ),
                (
                    3,
                    CohMsg::InvAck {
                        block: 0x00,
                        xid: 7
                    }
                ),
            ]
        );
        assert!(c.held_lines().is_empty());
        // Frame 2's fill still awaits its frame.
        assert_eq!(c.store.iter().filter(|e| e.wait == Wait::Use).count(), 1);
    }

    #[test]
    fn a_flush_releases_a_fill_awaiting_use() {
        // Frame 1's write fill awaits its first access with an
        // invalidation deferred on it; the program flushes the block.
        let mut c = direct_mapped();
        let mut out = Vec::new();
        woken(&mut c, 0x40, true, 1);
        let inval = CohMsg::Inval {
            block: 0x40,
            xid: 7,
        };
        assert_eq!(c.handle_msg(3, inval, |_| 5, &mut out), Ok(vec![]));
        assert!(out.is_empty(), "the demand waits for frame 1");
        c.flush(0x40, |_| 5, &mut out);
        // The demand is answered now, not after the home's retries.
        let ack = CohMsg::InvAck {
            block: 0x40,
            xid: 7,
        };
        assert_eq!(out, vec![(3, ack)]);
        assert!(
            !c.store.iter().any(|e| e.wait == Wait::Use),
            "no fill awaits a use that cannot come"
        );
        // The frame's access is an ordinary miss.
        out.clear();
        let o = c.cpu_access(0x40, true, 1, 5, None, |_| 5, &mut out);
        assert_eq!(o, Outcome::Remote);
        assert!(!c.store.iter().any(|e| e.wait == Wait::Use));
    }

    #[test]
    fn retries_exhaust_at_the_lowest_block_in_every_controller() {
        let retry = RetryConfig {
            max_retries: 0,
            ..RetryConfig::default()
        };
        for node in 0..64 {
            let mut c = CacheController::new(
                node,
                CacheConfig::default(),
                CtlConfig {
                    local_mem_latency: 10,
                    retry,
                },
            );
            let mut out = Vec::new();
            // The higher block's request is the older one.
            c.cpu_access(0x80, false, 0, 99, None, |_| 99, &mut out);
            c.cpu_access(0x40, false, 1, 99, None, |_| 99, &mut out);
            let err = c.tick(retry.timeout, |_| 99, &mut out).unwrap_err();
            assert!(
                matches!(err, ProtocolError::RetriesExhausted { block: 0x40, .. }),
                "node {node}: {err:?}"
            );
        }
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

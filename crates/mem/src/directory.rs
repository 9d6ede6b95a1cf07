//! The home-side directory protocol engine.
//!
//! Each node's directory tracks, for every memory block whose home is
//! that node, the set of caches holding it — the full-map,
//! invalidation-based scheme of Chaiken, Fields, Kurihara and Agarwal
//! (the paper's reference \[5\]), which ALEWIFE distributes with the
//! processing nodes (Section 2).
//!
//! The directory is a message transducer: [`Directory::handle_request`]
//! and [`Directory::handle_ack`] consume protocol messages and return
//! the messages to send in response. While a block is *busy* (waiting
//! for invalidation or write-back acknowledgments), further requests
//! queue in arrival order, guaranteeing freedom from protocol livelock;
//! the queue is bounded, and overflowing requests are refused with a
//! [`CohMsg::Nack`] so the requester retries with backoff.
//!
//! The engine is hardened against an unreliable network:
//!
//! * each busy episode gets a fresh *epoch*, carried by the
//!   invalidation/write-back demands it sends and echoed by their acks,
//!   so delayed duplicate acks from an earlier episode are ignored;
//! * outstanding acks are tracked per target node (not as a bare
//!   count), so a duplicated ack cannot be counted twice;
//! * unanswered demands are retransmitted with bounded exponential
//!   backoff from [`Directory::tick`] (controllers acknowledge demands
//!   for lines they no longer hold, so retransmission is idempotent).

// Protocol hot path: failures must surface as typed errors, not tear
// down the simulator on the first injected fault.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
use crate::error::{ProtocolError, RetryConfig};
use crate::msg::CohMsg;
use april_obs::{EventKind, Probe};
use std::collections::{HashMap, VecDeque};

/// How a directory represents the sharer set of a block, in the
/// taxonomy of Chaiken et al.: Dir_n (full-map), Dir_i B (limited
/// pointers, broadcast on overflow), and Dir_i CV (limited pointers,
/// coarse vector on overflow). The sparse kinds bound per-block state
/// to O(i) or O(N/region) instead of O(N), which is what makes the
/// paper's 1000+-node configurations memory-feasible (DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectoryKind {
    /// Precise unbounded sharer list — the reference scheme of the
    /// paper's \[5\] and the exact seed behavior.
    FullMap,
    /// Up to `min(ptrs, INLINE_PTRS)` precise inline pointers; on
    /// overflow the set degrades to *broadcast*: a write invalidates
    /// every node (controllers ack demands for lines they do not hold,
    /// so the broadcast is idempotent and protocol-correct).
    LimitedPtr {
        /// Inline pointer budget (clamped to [`INLINE_PTRS`]).
        ptrs: u8,
    },
    /// Up to [`INLINE_PTRS`] precise inline pointers; on overflow the
    /// set degrades to a coarse bit vector with `region` consecutive
    /// nodes per bit — invalidations go to whole regions.
    CoarseVector {
        /// Nodes per coarse-vector bit (must be nonzero).
        region: u16,
    },
}

/// Inline pointer capacity of a [`SharerSet`]: precise sharer sets up
/// to this size live in the directory entry itself, with no heap
/// allocation, under every [`DirectoryKind`].
pub const INLINE_PTRS: usize = 8;

/// The representation behind a [`SharerSet`]. Precise sets keep
/// insertion order (the seed's `Vec<usize>` semantics, which fixes the
/// invalidation send order); the canonical form of a precise set is
/// `Inline` whenever it fits, so equal memberships compare and encode
/// equal regardless of history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SharerRepr {
    /// Precise, inline, insertion-ordered: `ids[..n]`.
    Inline { n: u8, ids: [u32; INLINE_PTRS] },
    /// Precise spill for [`DirectoryKind::FullMap`] sets that outgrow
    /// the inline array; still insertion-ordered.
    Spill(Vec<u32>),
    /// Coarse vector: bit `g` covers nodes `g*region .. (g+1)*region`.
    /// Over-approximates membership; single-node removal is a no-op.
    Coarse { region: u16, bits: Box<[u64]> },
    /// Broadcast: every node is presumed a sharer.
    All,
}

/// A block's sharer set under some [`DirectoryKind`] (DESIGN.md §14).
///
/// Precise while it fits inline; what happens on overflow is the
/// directory kind's policy, supplied per operation so the set itself
/// stays one word-aligned value with no back-pointer to configuration.
/// The coarse and broadcast forms over-approximate: they may name
/// nodes that hold nothing, which is safe because invalidations are
/// acknowledged regardless, and they ignore single-node removals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharerSet {
    pub(crate) repr: SharerRepr,
}

impl SharerSet {
    /// The set containing exactly `node`.
    pub fn one(node: usize) -> SharerSet {
        SharerSet::of(&[node])
    }

    /// A precise set with the given members in the given order.
    /// Intended for tests and snapshot decoding; does not deduplicate.
    pub fn of(nodes: &[usize]) -> SharerSet {
        if nodes.len() <= INLINE_PTRS {
            let mut ids = [0u32; INLINE_PTRS];
            for (slot, &n) in ids.iter_mut().zip(nodes) {
                *slot = n as u32;
            }
            SharerSet {
                repr: SharerRepr::Inline {
                    n: nodes.len() as u8,
                    ids,
                },
            }
        } else {
            SharerSet {
                repr: SharerRepr::Spill(nodes.iter().map(|&n| n as u32).collect()),
            }
        }
    }

    /// The members as a precise ordered list, or `None` once the set
    /// has degraded to a coarse or broadcast over-approximation.
    pub fn as_list(&self) -> Option<&[u32]> {
        match &self.repr {
            SharerRepr::Inline { n, ids } => Some(&ids[..*n as usize]),
            SharerRepr::Spill(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the set has overflowed into an imprecise representation.
    pub fn is_imprecise(&self) -> bool {
        matches!(self.repr, SharerRepr::Coarse { .. } | SharerRepr::All)
    }

    /// Membership test (conservative: imprecise forms may say yes for
    /// nodes that hold nothing).
    pub fn contains(&self, node: usize) -> bool {
        match &self.repr {
            SharerRepr::Inline { n, ids } => ids[..*n as usize].contains(&(node as u32)),
            SharerRepr::Spill(v) => v.contains(&(node as u32)),
            SharerRepr::Coarse { region, bits } => {
                let g = node / *region as usize;
                bits.get(g / 64).is_some_and(|w| w >> (g % 64) & 1 == 1)
            }
            SharerRepr::All => true,
        }
    }

    /// True when the set is certainly empty. Imprecise forms never
    /// report empty (they cannot prove it).
    pub fn is_known_empty(&self) -> bool {
        match &self.repr {
            SharerRepr::Inline { n, .. } => *n == 0,
            SharerRepr::Spill(v) => v.is_empty(),
            _ => false,
        }
    }

    /// True when `node` is provably the only sharer — the write
    /// fast-path test. Imprecise forms answer false (conservative).
    pub fn sole_sharer_is(&self, node: usize) -> bool {
        self.as_list()
            .is_some_and(|l| l.iter().all(|&n| n == node as u32))
    }

    /// Adds `node` under `kind`'s overflow policy (`num_nodes` sizes a
    /// coarse vector at the moment of overflow). Returns true when this
    /// insertion overflowed a precise set into an imprecise one.
    pub fn insert(&mut self, node: usize, kind: DirectoryKind, num_nodes: usize) -> bool {
        if self.contains(node) {
            return false;
        }
        match &mut self.repr {
            SharerRepr::Inline { n, ids } => {
                let cap = match kind {
                    DirectoryKind::FullMap | DirectoryKind::CoarseVector { .. } => INLINE_PTRS,
                    DirectoryKind::LimitedPtr { ptrs } => (ptrs as usize).clamp(1, INLINE_PTRS),
                };
                if (*n as usize) < cap {
                    ids[*n as usize] = node as u32;
                    *n += 1;
                    return false;
                }
                // Overflow: the kind decides what the set becomes.
                match kind {
                    DirectoryKind::FullMap => {
                        let mut v: Vec<u32> = ids[..*n as usize].to_vec();
                        v.push(node as u32);
                        self.repr = SharerRepr::Spill(v);
                        false
                    }
                    DirectoryKind::LimitedPtr { .. } => {
                        self.repr = SharerRepr::All;
                        true
                    }
                    DirectoryKind::CoarseVector { region } => {
                        let region = region.max(1);
                        let groups = num_nodes.div_ceil(region as usize).max(1);
                        let mut bits = vec![0u64; groups.div_ceil(64)].into_boxed_slice();
                        for &id in ids[..*n as usize].iter().chain([node as u32].iter()) {
                            let g = id as usize / region as usize;
                            bits[g / 64] |= 1 << (g % 64);
                        }
                        self.repr = SharerRepr::Coarse { region, bits };
                        true
                    }
                }
            }
            SharerRepr::Spill(v) => {
                v.push(node as u32);
                false
            }
            SharerRepr::Coarse { region, bits } => {
                let g = node / *region as usize;
                if let Some(w) = bits.get_mut(g / 64) {
                    *w |= 1 << (g % 64);
                }
                false
            }
            SharerRepr::All => false,
        }
    }

    /// Removes `node` from a precise set (order-preserving); a no-op on
    /// imprecise forms, which cannot un-name a node.
    pub fn remove(&mut self, node: usize) {
        match &mut self.repr {
            SharerRepr::Inline { n, ids } => {
                let len = *n as usize;
                if let Some(i) = ids[..len].iter().position(|&x| x == node as u32) {
                    ids.copy_within(i + 1..len, i);
                    *n -= 1;
                }
            }
            SharerRepr::Spill(v) => {
                v.retain(|&x| x != node as u32);
                if v.len() <= INLINE_PTRS {
                    // Canonical form: precise sets live inline whenever
                    // they fit, so equal memberships encode equal.
                    *self = SharerSet::of(&v.iter().map(|&x| x as usize).collect::<Vec<_>>());
                }
            }
            SharerRepr::Coarse { .. } | SharerRepr::All => {}
        }
    }

    /// Appends the invalidation targets — every (presumed) sharer
    /// except `exclude` — onto `out`. Precise sets keep insertion
    /// order (the seed behavior); imprecise sets enumerate ascending.
    pub fn targets_into(&self, exclude: usize, num_nodes: usize, out: &mut Vec<usize>) {
        match &self.repr {
            SharerRepr::Inline { .. } | SharerRepr::Spill(_) => {
                if let Some(l) = self.as_list() {
                    out.extend(l.iter().map(|&n| n as usize).filter(|&n| n != exclude));
                }
            }
            SharerRepr::Coarse { region, bits } => {
                let region = *region as usize;
                for g in 0..bits.len() * 64 {
                    if bits[g / 64] >> (g % 64) & 1 == 0 {
                        continue;
                    }
                    let lo = g * region;
                    let hi = ((g + 1) * region).min(num_nodes);
                    out.extend((lo..hi).filter(|&n| n != exclude));
                }
            }
            SharerRepr::All => out.extend((0..num_nodes).filter(|&n| n != exclude)),
        }
    }

    /// Heap bytes resident behind this set (zero for inline, coarse
    /// bit-vector words for coarse, the spill vector for full-map) —
    /// the per-block term of [`Directory::state_bytes`].
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            SharerRepr::Inline { .. } | SharerRepr::All => 0,
            SharerRepr::Spill(v) => v.len() * std::mem::size_of::<u32>(),
            SharerRepr::Coarse { bits, .. } => bits.len() * std::mem::size_of::<u64>(),
        }
    }
}

/// Sharing state of one block at its home.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirState {
    /// No cache holds the block.
    Uncached,
    /// Read-only copies at the nodes in the sharer set.
    Shared(SharerSet),
    /// One cache holds the block read-write.
    Exclusive(usize),
}

/// Which demand message a busy episode is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum BusyKind {
    #[default]
    Inval,
    Down,
    WbInval,
}

impl BusyKind {
    fn message(self, block: u32, epoch: u32) -> CohMsg {
        match self {
            BusyKind::Inval => CohMsg::Inval { block, xid: epoch },
            BusyKind::Down => CohMsg::DownReq { block, xid: epoch },
            BusyKind::WbInval => CohMsg::WbInvalReq { block, xid: epoch },
        }
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct Busy {
    pub(crate) requester: usize,
    /// The requester's transaction id, echoed in the eventual reply.
    pub(crate) req_xid: u32,
    pub(crate) write: bool,
    pub(crate) kind: BusyKind,
    /// This episode's epoch: demands carry it, acks must echo it.
    pub(crate) epoch: u32,
    /// Nodes whose acknowledgment is still outstanding.
    pub(crate) pending: Vec<usize>,
    pub(crate) retries: u32,
    pub(crate) next_retry: u64,
}

#[derive(Debug, Clone)]
pub(crate) struct DirEntry {
    pub(crate) state: DirState,
    /// Boxed because busy episodes are rare (at most a handful in
    /// flight machine-wide) while entries are plentiful at 1000+
    /// nodes: the common idle entry pays one pointer, not the whole
    /// episode record.
    pub(crate) busy: Option<Box<Busy>>,
    pub(crate) waiters: VecDeque<(usize, bool, u32)>,
}

impl Default for DirEntry {
    fn default() -> DirEntry {
        DirEntry {
            state: DirState::Uncached,
            busy: None,
            waiters: VecDeque::new(),
        }
    }
}

/// Payload codes for `DirTransition` trace events (register `b`).
pub mod transition {
    /// A read was served; the block is (or stays) Shared.
    pub const READ_GRANT: u64 = 0;
    /// A write was served immediately; the block is Exclusive.
    pub const WRITE_GRANT: u64 = 1;
    /// A busy episode began: downgrading an exclusive owner.
    pub const BUSY_DOWN: u64 = 2;
    /// A busy episode began: invalidating sharers for a writer.
    pub const BUSY_INVAL: u64 = 3;
    /// A busy episode began: write-back-invalidating an owner.
    pub const BUSY_WBINVAL: u64 = 4;
    /// A busy episode completed; the block is Exclusive.
    pub const RESOLVED_WRITE: u64 = 5;
    /// A busy episode completed; the block is Shared.
    pub const RESOLVED_READ: u64 = 6;
}

/// Directory policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirConfig {
    /// Requests queued behind a busy block before newcomers are NACKed.
    pub max_waiters: usize,
    /// Retransmission policy for unanswered demands.
    pub retry: RetryConfig,
    /// Sharer-set representation (full-map is the exact seed behavior;
    /// the sparse kinds bound per-block state, DESIGN.md §14).
    pub kind: DirectoryKind,
}

impl Default for DirConfig {
    fn default() -> DirConfig {
        DirConfig {
            max_waiters: 64,
            retry: RetryConfig::default(),
            kind: DirectoryKind::FullMap,
        }
    }
}

/// Directory event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Read requests served.
    pub read_reqs: u64,
    /// Write requests served.
    pub write_reqs: u64,
    /// Invalidation messages sent.
    pub invals_sent: u64,
    /// Write-back / downgrade requests sent to owners.
    pub wb_reqs_sent: u64,
    /// Requests deferred behind a busy block.
    pub deferred: u64,
    /// Requests refused because the waiter queue was full.
    pub nacks: u64,
    /// Demand messages retransmitted.
    pub retransmits: u64,
    /// Duplicate or stale acknowledgments ignored.
    pub stale_acks: u64,
    /// Precise sharer sets degraded to broadcast or coarse form
    /// (always zero under [`DirectoryKind::FullMap`]).
    pub overflows: u64,
}

impl DirStats {
    /// Sum of all counters — a cheap progress signature for the
    /// machine's forward-progress watchdog.
    pub fn total(&self) -> u64 {
        self.read_reqs
            + self.write_reqs
            + self.invals_sent
            + self.wb_reqs_sent
            + self.deferred
            + self.nacks
            + self.retransmits
            + self.stale_acks
            + self.overflows
    }

    /// Field-wise accumulation of `other` into `self`, for
    /// machine-wide aggregates over per-node directories.
    pub fn merge(&mut self, other: &DirStats) {
        self.read_reqs += other.read_reqs;
        self.write_reqs += other.write_reqs;
        self.invals_sent += other.invals_sent;
        self.wb_reqs_sent += other.wb_reqs_sent;
        self.deferred += other.deferred;
        self.nacks += other.nacks;
        self.retransmits += other.retransmits;
        self.stale_acks += other.stale_acks;
        self.overflows += other.overflows;
    }
}

/// A node's directory: protocol state for the blocks it is home to.
#[derive(Debug, Clone)]
pub struct Directory {
    pub(crate) entries: HashMap<u32, DirEntry>,
    pub(crate) cfg: DirConfig,
    /// Machine size: sizes coarse vectors at overflow time and bounds
    /// broadcast invalidations. Zero only under [`Directory::default`],
    /// which is full-map and never broadcasts.
    pub(crate) nodes: usize,
    pub(crate) epoch_counter: u32,
    pub(crate) clock: u64,
    /// Lower bound on the earliest `next_retry` over all busy episodes.
    /// Maintained incrementally when an episode begins and never raised
    /// on completion (a stale bound costs at most one wasted scan);
    /// [`Directory::tick`] recomputes the exact minimum whenever it
    /// scans, so between deadlines it is O(1).
    pub(crate) next_deadline: u64,
    /// Number of blocks with a busy episode in flight, kept in sync so
    /// the machine's per-cycle pending-work probe is O(1).
    pub(crate) busy_ct: usize,
    /// Event counters.
    pub stats: DirStats,
    /// Trace recorder for this directory's lane (inert by default).
    pub(crate) probe: Probe,
}

impl Default for Directory {
    fn default() -> Directory {
        Directory {
            entries: HashMap::default(),
            cfg: DirConfig::default(),
            nodes: 0,
            epoch_counter: 0,
            clock: 0,
            next_deadline: u64::MAX,
            busy_ct: 0,
            stats: DirStats::default(),
            probe: Probe::default(),
        }
    }
}

impl Directory {
    /// Creates an empty directory with default policy.
    pub fn new() -> Directory {
        Directory::default()
    }

    /// Creates an empty directory with the given policy for a machine
    /// of `num_nodes` nodes. The node count sizes coarse vectors and
    /// bounds broadcast invalidations, so the sparse
    /// [`DirectoryKind`]s require it to be accurate; full-map ignores
    /// it.
    pub fn with_config(cfg: DirConfig, num_nodes: usize) -> Directory {
        Directory {
            cfg,
            nodes: num_nodes,
            ..Directory::default()
        }
    }

    /// Installs a trace recorder for this directory's lane.
    pub fn attach_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The directory's trace recorder.
    pub fn trace_probe(&self) -> &Probe {
        &self.probe
    }

    /// Current sharing state of `block`. Clones the sharer vector, so
    /// this is for tests, probes and post-mortems — not the hot path.
    pub fn state(&self, block: u32) -> DirState {
        self.entries
            .get(&block)
            .map(|e| e.state.clone())
            .unwrap_or(DirState::Uncached)
    }

    /// True if `block` has a transaction in flight.
    pub fn is_busy(&self, block: u32) -> bool {
        self.entries.get(&block).is_some_and(|e| e.busy.is_some())
    }

    /// Number of blocks with a transaction in flight. O(1): maintained
    /// as a counter, not scanned, because the machine asks every cycle.
    pub fn busy_count(&self) -> usize {
        self.busy_ct
    }

    /// Earliest cycle at which [`Directory::tick`] could need to
    /// retransmit a demand, or `u64::MAX` if nothing is (or can become)
    /// overdue. A conservative lower bound: the event-driven scheduler
    /// may stop here and find nothing due, but it will never skip past
    /// a real retransmission deadline.
    #[inline]
    pub fn next_deadline(&self) -> u64 {
        if !self.cfg.retry.enabled || self.busy_ct == 0 {
            u64::MAX
        } else {
            self.next_deadline
        }
    }

    /// The first cycle at which [`Directory::tick`] would do any work —
    /// its early-return test, on the raw deadline field (which, unlike
    /// [`Directory::next_deadline`], is *not* masked while no episode
    /// is busy: a stale due deadline makes tick rescan and rewrite the
    /// field, and that cleanup is checkpointed state).
    #[inline]
    pub fn tick_deadline(&self) -> u64 {
        if self.cfg.retry.enabled {
            self.next_deadline
        } else {
            u64::MAX
        }
    }

    /// Whether [`Directory::tick`] would do any work at `now`. Skipping
    /// the call is state-preserving precisely when this is false.
    #[inline]
    pub fn tick_pending(&self, now: u64) -> bool {
        self.tick_deadline() <= now
    }

    /// Advances the directory's notion of time without retransmitting.
    /// The machine calls this before delivering messages so that busy
    /// episodes started mid-skip schedule their first retransmission
    /// relative to the current cycle, not a stale one.
    pub fn set_clock(&mut self, now: u64) {
        self.clock = now;
    }

    /// Busy entries as `(block, requester, write, epoch, pending)`,
    /// sorted by block — the directory slice of a deadlock post-mortem.
    /// The pending-ack lists are borrowed views, not clones: this runs
    /// on the snapshot/stats path, where copying every sharer list per
    /// call showed up in profiles.
    pub fn busy_entries(&self) -> Vec<(u32, usize, bool, u32, &[usize])> {
        let mut v: Vec<_> = self
            .entries
            .iter()
            .filter_map(|(&b, e)| {
                e.busy
                    .as_ref()
                    .map(|bu| (b, bu.requester, bu.write, bu.epoch, bu.pending.as_slice()))
            })
            .collect();
        v.sort_by_key(|&(b, ..)| b);
        v
    }

    /// Resident bytes of directory protocol state: hash-map entries
    /// plus per-block heap (sharer spill or coarse vector, pending-ack
    /// lists, waiter queues). A deterministic content-based estimate —
    /// the scale bench's full-map-vs-sparse bytes/node metric — not an
    /// allocator measurement.
    pub fn state_bytes(&self) -> usize {
        let mut bytes =
            self.entries.len() * (std::mem::size_of::<u32>() + std::mem::size_of::<DirEntry>());
        for e in self.entries.values() {
            if let DirState::Shared(s) = &e.state {
                bytes += s.heap_bytes();
            }
            if let Some(busy) = &e.busy {
                bytes += std::mem::size_of::<Busy>();
                bytes += busy.pending.len() * std::mem::size_of::<usize>();
            }
            bytes += e.waiters.len() * std::mem::size_of::<(usize, bool, u32)>();
        }
        bytes
    }

    /// True if a request could be granted immediately, with no
    /// invalidations — the controller's local fast path, where the
    /// processor merely waits out the memory latency instead of
    /// context switching.
    pub fn grantable_now(&self, from: usize, block: u32, write: bool) -> bool {
        let Some(e) = self.entries.get(&block) else {
            return true;
        };
        if e.busy.is_some() {
            return false;
        }
        match (&e.state, write) {
            (DirState::Uncached, _) => true,
            (DirState::Shared(_), false) => true,
            (DirState::Shared(s), true) => s.sole_sharer_is(from),
            (DirState::Exclusive(o), _) => *o == from,
        }
    }

    /// Immediately grants `block` to `from` without messages, if the
    /// block is quiet (see [`Directory::grantable_now`]); returns
    /// whether the grant happened.
    pub fn grant_local(&mut self, from: usize, block: u32, write: bool) -> bool {
        if !self.grantable_now(from, block, write) {
            return false;
        }
        if write {
            self.stats.write_reqs += 1;
        } else {
            self.stats.read_reqs += 1;
        }
        self.probe.emit(
            self.clock,
            EventKind::DirTransition,
            block as u64,
            if write {
                transition::WRITE_GRANT
            } else {
                transition::READ_GRANT
            },
        );
        let kind = self.cfg.kind;
        let nodes = self.nodes;
        let mut overflowed = false;
        let e = self.entries.entry(block).or_default();
        if write {
            e.state = DirState::Exclusive(from);
        } else {
            match &mut e.state {
                DirState::Shared(s) => {
                    overflowed = s.insert(from, kind, nodes);
                }
                st @ (DirState::Uncached | DirState::Exclusive(_)) => {
                    // Exclusive(from) re-reading after a silent flush race.
                    *st = DirState::Shared(SharerSet::one(from));
                }
            }
        }
        if overflowed {
            self.stats.overflows += 1;
        }
        true
    }

    /// Handles a `RdReq`/`WrReq` from `from` carrying transaction id
    /// `xid`, returning messages to send (each as `(destination,
    /// message)`).
    pub fn handle_request(
        &mut self,
        from: usize,
        block: u32,
        write: bool,
        xid: u32,
    ) -> Vec<(usize, CohMsg)> {
        let mut out = Vec::new();
        self.handle_request_into(from, block, write, xid, &mut out);
        out
    }

    /// [`Directory::handle_request`], appending into a caller-supplied
    /// buffer so the machine's dispatch loop can reuse scratch storage.
    pub fn handle_request_into(
        &mut self,
        from: usize,
        block: u32,
        write: bool,
        xid: u32,
        out: &mut Vec<(usize, CohMsg)>,
    ) {
        if write {
            self.stats.write_reqs += 1;
        } else {
            self.stats.read_reqs += 1;
        }
        self.request_inner(from, block, write, xid, out);
    }

    fn request_inner(
        &mut self,
        from: usize,
        block: u32,
        write: bool,
        xid: u32,
        out: &mut Vec<(usize, CohMsg)>,
    ) {
        let next_epoch = self.epoch_counter.wrapping_add(1);
        let retry_at = self.clock + self.cfg.retry.timeout;
        let max_waiters = self.cfg.max_waiters;
        let kind = self.cfg.kind;
        let nodes = self.nodes;
        let mut overflowed = false;
        let e = self.entries.entry(block).or_default();
        if let Some(busy) = &e.busy {
            // A retransmission of the request currently being serviced,
            // or one already queued, must not queue again.
            if (busy.requester, busy.req_xid) == (from, xid)
                || e.waiters.contains(&(from, write, xid))
            {
                return;
            }
            if e.waiters.len() >= max_waiters {
                self.stats.nacks += 1;
                self.probe
                    .emit(self.clock, EventKind::DirNack, block as u64, from as u64);
                out.push((from, CohMsg::Nack { block, xid }));
                return;
            }
            e.waiters.push_back((from, write, xid));
            self.stats.deferred += 1;
            return;
        }
        let begin_busy = |kind: BusyKind, targets: Vec<usize>| -> Box<Busy> {
            Box::new(Busy {
                requester: from,
                req_xid: xid,
                write,
                kind,
                epoch: next_epoch,
                pending: targets,
                retries: 0,
                next_retry: retry_at,
            })
        };
        let code = match (&mut e.state, write) {
            (DirState::Uncached, false) => {
                e.state = DirState::Shared(SharerSet::one(from));
                out.push((from, CohMsg::RdReply { block, xid }));
                transition::READ_GRANT
            }
            (DirState::Shared(s), false) => {
                overflowed = s.insert(from, kind, nodes);
                out.push((from, CohMsg::RdReply { block, xid }));
                transition::READ_GRANT
            }
            (DirState::Exclusive(o), false) if *o == from => {
                // Owner re-reads (flush race); regrant as shared.
                e.state = DirState::Shared(SharerSet::one(from));
                out.push((from, CohMsg::RdReply { block, xid }));
                transition::READ_GRANT
            }
            (DirState::Exclusive(o), false) => {
                let owner = *o;
                e.busy = Some(begin_busy(BusyKind::Down, vec![owner]));
                self.epoch_counter = next_epoch;
                self.busy_ct += 1;
                if retry_at < self.next_deadline {
                    self.next_deadline = retry_at;
                }
                out.push((
                    owner,
                    CohMsg::DownReq {
                        block,
                        xid: next_epoch,
                    },
                ));
                self.stats.wb_reqs_sent += 1;
                transition::BUSY_DOWN
            }
            (DirState::Uncached, true) => {
                e.state = DirState::Exclusive(from);
                out.push((from, CohMsg::WrReply { block, xid }));
                transition::WRITE_GRANT
            }
            (DirState::Shared(s), true) => {
                let mut targets = Vec::new();
                s.targets_into(from, nodes, &mut targets);
                if targets.is_empty() {
                    e.state = DirState::Exclusive(from);
                    out.push((from, CohMsg::WrReply { block, xid }));
                    transition::WRITE_GRANT
                } else {
                    let n = targets.len();
                    e.busy = Some(begin_busy(BusyKind::Inval, targets.clone()));
                    self.epoch_counter = next_epoch;
                    self.busy_ct += 1;
                    if retry_at < self.next_deadline {
                        self.next_deadline = retry_at;
                    }
                    for t in targets {
                        out.push((
                            t,
                            CohMsg::Inval {
                                block,
                                xid: next_epoch,
                            },
                        ));
                    }
                    self.stats.invals_sent += n as u64;
                    transition::BUSY_INVAL
                }
            }
            (DirState::Exclusive(o), true) if *o == from => {
                out.push((from, CohMsg::WrReply { block, xid }));
                transition::WRITE_GRANT
            }
            (DirState::Exclusive(o), true) => {
                let owner = *o;
                e.busy = Some(begin_busy(BusyKind::WbInval, vec![owner]));
                self.epoch_counter = next_epoch;
                self.busy_ct += 1;
                if retry_at < self.next_deadline {
                    self.next_deadline = retry_at;
                }
                out.push((
                    owner,
                    CohMsg::WbInvalReq {
                        block,
                        xid: next_epoch,
                    },
                ));
                self.stats.wb_reqs_sent += 1;
                transition::BUSY_WBINVAL
            }
        };
        if overflowed {
            self.stats.overflows += 1;
        }
        self.probe
            .emit(self.clock, EventKind::DirTransition, block as u64, code);
    }

    /// Handles an acknowledgment (`InvAck`, `DownAck`, `WbInvalAck`) or
    /// a voluntary `FlushData`, returning messages to send.
    ///
    /// Stale acknowledgments — wrong epoch, unknown block, or a
    /// duplicate from a node already accounted for — are ignored.
    pub fn handle_ack(
        &mut self,
        from: usize,
        msg: CohMsg,
    ) -> Result<Vec<(usize, CohMsg)>, ProtocolError> {
        let mut out = Vec::new();
        self.handle_ack_into(from, msg, &mut out)?;
        Ok(out)
    }

    /// [`Directory::handle_ack`], appending into a caller-supplied
    /// buffer so the machine's dispatch loop can reuse scratch storage.
    pub fn handle_ack_into(
        &mut self,
        from: usize,
        msg: CohMsg,
        out: &mut Vec<(usize, CohMsg)>,
    ) -> Result<(), ProtocolError> {
        match msg {
            CohMsg::FlushData { block, fenced, xid } => {
                out.push((from, CohMsg::FlushAck { block, fenced, xid }));
                let e = self.entries.entry(block).or_default();
                if e.busy.is_none() {
                    match &mut e.state {
                        DirState::Exclusive(o) if *o == from => e.state = DirState::Uncached,
                        DirState::Shared(s) => {
                            // Imprecise sets cannot un-name a node, so
                            // the remove is a no-op there: the stale
                            // presumed sharer is invalidated (and acks)
                            // on the next write, which is safe.
                            s.remove(from);
                            if s.is_known_empty() {
                                e.state = DirState::Uncached;
                            }
                        }
                        _ => {}
                    }
                }
                // If busy, the outstanding DownReq/WbInvalReq/Inval will
                // be acknowledged by `from` regardless (controllers ack
                // requests for absent lines), so resolution happens on
                // that path.
            }
            CohMsg::InvAck { block, xid }
            | CohMsg::DownAck { block, xid }
            | CohMsg::WbInvalAck { block, xid } => {
                let Some(e) = self.entries.get_mut(&block) else {
                    self.stats.stale_acks += 1;
                    return Ok(());
                };
                let Some(busy) = &mut e.busy else {
                    self.stats.stale_acks += 1;
                    return Ok(());
                };
                if busy.epoch != xid {
                    // An ack from an earlier busy episode, delivered
                    // late (or duplicated across episodes).
                    self.stats.stale_acks += 1;
                    return Ok(());
                }
                let Some(i) = busy.pending.iter().position(|&n| n == from) else {
                    // Duplicate ack within the episode.
                    self.stats.stale_acks += 1;
                    return Ok(());
                };
                busy.pending.swap_remove(i);
                if busy.pending.is_empty() {
                    let Busy {
                        requester,
                        req_xid,
                        write,
                        ..
                    } = **busy;
                    e.busy = None;
                    self.busy_ct -= 1;
                    if self.busy_ct == 0 {
                        // No episode pending anywhere: reset the
                        // deadline eagerly (O(1)) so the event-driven
                        // machine never visits a dead deadline and
                        // [`Directory::tick`] stays a no-op until a new
                        // episode arms. With episodes still pending the
                        // bound may go stale-low; the tick at the stale
                        // cycle rescans and tightens it, identically
                        // under every scheduler.
                        self.next_deadline = u64::MAX;
                    }
                    self.probe.emit(
                        self.clock,
                        EventKind::DirTransition,
                        block as u64,
                        if write {
                            transition::RESOLVED_WRITE
                        } else {
                            transition::RESOLVED_READ
                        },
                    );
                    if write {
                        e.state = DirState::Exclusive(requester);
                        out.push((
                            requester,
                            CohMsg::WrReply {
                                block,
                                xid: req_xid,
                            },
                        ));
                    } else {
                        // Downgrade: the old owner (the acker) stays a
                        // sharer alongside the requester.
                        e.state = DirState::Shared(SharerSet::of(&[from, requester]));
                        out.push((
                            requester,
                            CohMsg::RdReply {
                                block,
                                xid: req_xid,
                            },
                        ));
                    }
                    // Serve deferred requests now that the block is quiet.
                    while let Some((f, w, x)) = {
                        let e = self.entries.get_mut(&block);
                        match e {
                            Some(e) if e.busy.is_none() => e.waiters.pop_front(),
                            _ => None,
                        }
                    } {
                        self.request_inner(f, block, w, x, out);
                    }
                }
            }
            other => {
                return Err(ProtocolError::UnexpectedMessage {
                    node: usize::MAX,
                    from,
                    msg: other,
                })
            }
        }
        Ok(())
    }

    /// Advances the directory's clock to `now` and retransmits demands
    /// whose acknowledgments are overdue, with bounded exponential
    /// backoff, appending the messages to send onto `out`. Reports
    /// [`ProtocolError::RetriesExhausted`] once an episode exceeds the
    /// retry limit. O(1) while `now` is short of the earliest deadline.
    pub fn tick(&mut self, now: u64, out: &mut Vec<(usize, CohMsg)>) -> Result<(), ProtocolError> {
        self.clock = now;
        if !self.cfg.retry.enabled {
            return Ok(());
        }
        if self.next_deadline > now {
            return Ok(());
        }
        let mut resend = Vec::new();
        let retry = self.cfg.retry;
        let mut retransmits = 0;
        // Recompute the exact earliest deadline while scanning: not-due
        // episodes contribute their existing `next_retry`, retransmitted
        // ones their freshly scheduled one.
        let mut min_next = u64::MAX;
        for (&block, e) in &mut self.entries {
            let Some(busy) = &mut e.busy else { continue };
            if busy.pending.is_empty() {
                continue;
            }
            if busy.next_retry > now {
                min_next = min_next.min(busy.next_retry);
                continue;
            }
            if busy.retries >= retry.max_retries {
                return Err(ProtocolError::RetriesExhausted {
                    node: usize::MAX,
                    block,
                    xid: busy.epoch,
                    retries: busy.retries,
                });
            }
            busy.retries += 1;
            for &t in &busy.pending {
                resend.push((t, busy.kind.message(block, busy.epoch), busy.retries));
                retransmits += 1;
            }
            busy.next_retry = now + retry.backoff(busy.retries);
            min_next = min_next.min(busy.next_retry);
        }
        self.next_deadline = min_next;
        self.stats.retransmits += retransmits;
        // Deterministic send order regardless of hash-map iteration.
        // Trace events are emitted in the same sorted order (a lane's
        // event sequence must not depend on map iteration).
        resend.sort_by_key(|&(to, msg, _)| (msg.block(), to));
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_from_uncached_grants_shared() {
        let mut d = Directory::new();
        let out = d.handle_request(1, 0x40, false, 1);
        assert_eq!(
            out,
            vec![(
                1,
                CohMsg::RdReply {
                    block: 0x40,
                    xid: 1
                }
            )]
        );
        assert_eq!(d.state(0x40), DirState::Shared(SharerSet::one(1)));
    }

    #[test]
    fn multiple_readers_accumulate() {
        let mut d = Directory::new();
        d.handle_request(1, 0, false, 1);
        d.handle_request(2, 0, false, 2);
        let out = d.handle_request(3, 0, false, 3);
        assert_eq!(out, vec![(3, CohMsg::RdReply { block: 0, xid: 3 })]);
        assert_eq!(d.state(0), DirState::Shared(SharerSet::of(&[1, 2, 3])));
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut d = Directory::new();
        d.handle_request(1, 0, false, 1);
        d.handle_request(2, 0, false, 2);
        let out = d.handle_request(3, 0, true, 3);
        let epoch = out[0].1.xid().unwrap();
        assert_eq!(
            out,
            vec![
                (
                    1,
                    CohMsg::Inval {
                        block: 0,
                        xid: epoch
                    }
                ),
                (
                    2,
                    CohMsg::Inval {
                        block: 0,
                        xid: epoch
                    }
                )
            ]
        );
        assert!(d.is_busy(0));
        assert!(d
            .handle_ack(
                1,
                CohMsg::InvAck {
                    block: 0,
                    xid: epoch
                }
            )
            .unwrap()
            .is_empty());
        let out = d
            .handle_ack(
                2,
                CohMsg::InvAck {
                    block: 0,
                    xid: epoch,
                },
            )
            .unwrap();
        assert_eq!(out, vec![(3, CohMsg::WrReply { block: 0, xid: 3 })]);
        assert_eq!(d.state(0), DirState::Exclusive(3));
    }

    #[test]
    fn read_of_exclusive_downgrades_owner() {
        let mut d = Directory::new();
        d.handle_request(1, 0, true, 1);
        assert_eq!(d.state(0), DirState::Exclusive(1));
        let out = d.handle_request(2, 0, false, 2);
        let epoch = out[0].1.xid().unwrap();
        assert_eq!(
            out,
            vec![(
                1,
                CohMsg::DownReq {
                    block: 0,
                    xid: epoch
                }
            )]
        );
        let out = d
            .handle_ack(
                1,
                CohMsg::DownAck {
                    block: 0,
                    xid: epoch,
                },
            )
            .unwrap();
        assert_eq!(out, vec![(2, CohMsg::RdReply { block: 0, xid: 2 })]);
        assert_eq!(d.state(0), DirState::Shared(SharerSet::of(&[1, 2])));
    }

    #[test]
    fn write_of_exclusive_transfers_ownership() {
        let mut d = Directory::new();
        d.handle_request(1, 0, true, 1);
        let out = d.handle_request(2, 0, true, 2);
        let epoch = out[0].1.xid().unwrap();
        assert_eq!(
            out,
            vec![(
                1,
                CohMsg::WbInvalReq {
                    block: 0,
                    xid: epoch
                }
            )]
        );
        let out = d
            .handle_ack(
                1,
                CohMsg::WbInvalAck {
                    block: 0,
                    xid: epoch,
                },
            )
            .unwrap();
        assert_eq!(out, vec![(2, CohMsg::WrReply { block: 0, xid: 2 })]);
        assert_eq!(d.state(0), DirState::Exclusive(2));
    }

    #[test]
    fn requests_queue_behind_busy_block() {
        let mut d = Directory::new();
        d.handle_request(1, 0, true, 1);
        let out = d.handle_request(2, 0, true, 2); // busy: waiting on node 1
        let epoch = out[0].1.xid().unwrap();
        let deferred = d.handle_request(3, 0, false, 3);
        assert!(deferred.is_empty(), "request must queue");
        assert_eq!(d.stats.deferred, 1);
        // Node 1 gives up its copy; node 2 gets it; node 3's read then
        // triggers a downgrade of node 2.
        let out = d
            .handle_ack(
                1,
                CohMsg::WbInvalAck {
                    block: 0,
                    xid: epoch,
                },
            )
            .unwrap();
        let epoch2 = out[1].1.xid().unwrap();
        assert_eq!(
            out,
            vec![
                (2, CohMsg::WrReply { block: 0, xid: 2 }),
                (
                    2,
                    CohMsg::DownReq {
                        block: 0,
                        xid: epoch2
                    }
                )
            ]
        );
        let out = d
            .handle_ack(
                2,
                CohMsg::DownAck {
                    block: 0,
                    xid: epoch2,
                },
            )
            .unwrap();
        assert_eq!(out, vec![(3, CohMsg::RdReply { block: 0, xid: 3 })]);
        assert_eq!(d.state(0), DirState::Shared(SharerSet::of(&[2, 3])));
    }

    #[test]
    fn flush_clears_ownership_and_acks() {
        let mut d = Directory::new();
        d.handle_request(1, 0, true, 1);
        let out = d
            .handle_ack(
                1,
                CohMsg::FlushData {
                    block: 0,
                    fenced: true,
                    xid: 5,
                },
            )
            .unwrap();
        assert_eq!(
            out,
            vec![(
                1,
                CohMsg::FlushAck {
                    block: 0,
                    fenced: true,
                    xid: 5
                }
            )]
        );
        assert_eq!(d.state(0), DirState::Uncached);
    }

    #[test]
    fn stale_ack_is_ignored() {
        let mut d = Directory::new();
        d.handle_request(1, 0, false, 1);
        let out = d
            .handle_ack(1, CohMsg::InvAck { block: 0, xid: 0 })
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(d.state(0), DirState::Shared(SharerSet::one(1)));
        assert_eq!(d.stats.stale_acks, 1);
    }

    #[test]
    fn duplicate_ack_cannot_complete_an_episode_twice() {
        let mut d = Directory::new();
        d.handle_request(1, 0, false, 1);
        d.handle_request(2, 0, false, 2);
        let out = d.handle_request(3, 0, true, 3);
        let epoch = out[0].1.xid().unwrap();
        // Node 1's ack, duplicated by the network: the second copy must
        // not count for node 2.
        assert!(d
            .handle_ack(
                1,
                CohMsg::InvAck {
                    block: 0,
                    xid: epoch
                }
            )
            .unwrap()
            .is_empty());
        assert!(d
            .handle_ack(
                1,
                CohMsg::InvAck {
                    block: 0,
                    xid: epoch
                }
            )
            .unwrap()
            .is_empty());
        assert!(d.is_busy(0), "duplicate ack must not complete the episode");
        let out = d
            .handle_ack(
                2,
                CohMsg::InvAck {
                    block: 0,
                    xid: epoch,
                },
            )
            .unwrap();
        assert_eq!(out, vec![(3, CohMsg::WrReply { block: 0, xid: 3 })]);
    }

    #[test]
    fn cross_epoch_ack_is_ignored() {
        let mut d = Directory::new();
        d.handle_request(1, 0, false, 1);
        let out = d.handle_request(2, 0, true, 2);
        let epoch1 = out[0].1.xid().unwrap();
        d.handle_ack(
            1,
            CohMsg::InvAck {
                block: 0,
                xid: epoch1,
            },
        )
        .unwrap();
        // Episode 2: node 2 owns; node 3 wants it.
        let out = d.handle_request(3, 0, true, 3);
        let epoch2 = out[0].1.xid().unwrap();
        assert_ne!(epoch1, epoch2);
        // A late duplicate of node 1's old ack arrives: wrong epoch.
        assert!(d
            .handle_ack(
                1,
                CohMsg::InvAck {
                    block: 0,
                    xid: epoch1
                }
            )
            .unwrap()
            .is_empty());
        assert!(
            d.is_busy(0),
            "old-epoch ack must not complete the new episode"
        );
        let out = d
            .handle_ack(
                2,
                CohMsg::WbInvalAck {
                    block: 0,
                    xid: epoch2,
                },
            )
            .unwrap();
        assert_eq!(out, vec![(3, CohMsg::WrReply { block: 0, xid: 3 })]);
    }

    #[test]
    fn retransmitted_request_does_not_queue_twice() {
        let mut d = Directory::new();
        d.handle_request(1, 0, true, 1);
        let out = d.handle_request(2, 0, true, 2);
        let epoch = out[0].1.xid().unwrap();
        // Requester 2 retransmits while its own request is in service;
        // requester 3 queues, then retransmits.
        assert!(d.handle_request(2, 0, true, 2).is_empty());
        assert!(d.handle_request(3, 0, false, 3).is_empty());
        assert!(d.handle_request(3, 0, false, 3).is_empty());
        let out = d
            .handle_ack(
                1,
                CohMsg::WbInvalAck {
                    block: 0,
                    xid: epoch,
                },
            )
            .unwrap();
        // Exactly one WrReply for 2, then one DownReq for 3's read.
        assert_eq!(
            out.iter()
                .filter(|(_, m)| matches!(m, CohMsg::WrReply { .. }))
                .count(),
            1
        );
        assert_eq!(
            out.iter()
                .filter(|(_, m)| matches!(m, CohMsg::DownReq { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn waiter_overflow_is_nacked() {
        let mut d = Directory::with_config(
            DirConfig {
                max_waiters: 1,
                ..DirConfig::default()
            },
            8,
        );
        d.handle_request(1, 0, true, 1); // granted instantly (uncached)
        d.handle_request(2, 0, true, 2); // goes busy: WbInvalReq to 1
        let out = d.handle_request(3, 0, true, 3); // fills the 1-deep waiter queue
        assert!(out.is_empty());
        let out = d.handle_request(4, 0, true, 4);
        assert_eq!(out, vec![(4, CohMsg::Nack { block: 0, xid: 4 })]);
        assert_eq!(d.stats.nacks, 1);
    }

    #[test]
    fn overdue_demands_are_retransmitted_with_backoff() {
        let mut d = Directory::new();
        d.handle_request(1, 0, false, 1);
        let out = d.handle_request(2, 0, true, 2);
        let epoch = out[0].1.xid().unwrap();
        let t0 = d.cfg.retry.timeout;
        let mut out = Vec::new();
        d.tick(t0 - 1, &mut out).unwrap();
        assert!(out.is_empty(), "not overdue yet");
        d.tick(t0, &mut out).unwrap();
        assert_eq!(
            out,
            vec![(
                1,
                CohMsg::Inval {
                    block: 0,
                    xid: epoch
                }
            )]
        );
        assert_eq!(d.stats.retransmits, 1);
        // Backed off: the next retransmission is 2*timeout later.
        out.clear();
        d.tick(t0 + d.cfg.retry.timeout, &mut out).unwrap();
        assert!(out.is_empty());
        d.tick(t0 + 2 * d.cfg.retry.timeout, &mut out).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn retries_exhaust_into_an_error() {
        let cfg = DirConfig {
            max_waiters: 4,
            retry: RetryConfig {
                enabled: true,
                timeout: 10,
                backoff_cap: 10,
                max_retries: 3,
            },
            ..DirConfig::default()
        };
        let mut d = Directory::with_config(cfg, 8);
        d.handle_request(1, 0, false, 1);
        d.handle_request(2, 0, true, 2);
        let mut now = 0;
        let mut out = Vec::new();
        let err = loop {
            now += 10;
            match d.tick(now, &mut out) {
                Ok(()) => assert!(now < 1000, "must exhaust retries"),
                Err(e) => break e,
            }
        };
        assert!(matches!(
            err,
            ProtocolError::RetriesExhausted { block: 0, .. }
        ));
    }

    #[test]
    fn disabled_retries_never_retransmit() {
        let mut d = Directory::with_config(
            DirConfig {
                max_waiters: 4,
                retry: RetryConfig::disabled(),
                ..DirConfig::default()
            },
            8,
        );
        d.handle_request(1, 0, false, 1);
        d.handle_request(2, 0, true, 2);
        let mut out = Vec::new();
        for now in [1_000, 1_000_000] {
            d.tick(now, &mut out).unwrap();
            assert!(out.is_empty());
        }
    }

    #[test]
    fn local_fast_path_grants() {
        let mut d = Directory::new();
        assert!(d.grantable_now(0, 0, true));
        assert!(d.grant_local(0, 0, true));
        assert_eq!(d.state(0), DirState::Exclusive(0));
        // Another node cannot fast-path a write now.
        assert!(!d.grantable_now(1, 0, true));
        assert!(!d.grantable_now(1, 0, false));
        // The owner itself can.
        assert!(d.grantable_now(0, 0, false));
    }

    #[test]
    fn bad_local_grant_is_refused() {
        let mut d = Directory::new();
        assert!(d.grant_local(0, 0, true));
        assert!(
            !d.grant_local(1, 0, true),
            "contended local grant must be refused"
        );
        assert_eq!(d.state(0), DirState::Exclusive(0));
    }

    #[test]
    fn shared_self_upgrade_needs_no_invals() {
        let mut d = Directory::new();
        d.handle_request(1, 0, false, 1);
        let out = d.handle_request(1, 0, true, 2);
        assert_eq!(out, vec![(1, CohMsg::WrReply { block: 0, xid: 2 })]);
        assert_eq!(d.state(0), DirState::Exclusive(1));
    }

    #[test]
    fn sharer_set_is_canonical() {
        // A spill that shrinks back to inline size compares equal to a
        // directly built inline set: repr is a pure function of content.
        let members: Vec<usize> = (0..10).collect();
        let mut s = SharerSet::of(&[]);
        for &m in &members {
            s.insert(m, DirectoryKind::FullMap, 16);
        }
        assert_eq!(s, SharerSet::of(&members));
        s.remove(9);
        s.remove(0);
        assert_eq!(s, SharerSet::of(&[1, 2, 3, 4, 5, 6, 7, 8]));
        assert!(s.as_list().is_some(), "back inline after shrink");
    }

    #[test]
    fn limited_ptr_overflow_broadcasts_invalidations() {
        let cfg = DirConfig {
            kind: DirectoryKind::LimitedPtr { ptrs: 2 },
            ..DirConfig::default()
        };
        let mut d = Directory::with_config(cfg, 6);
        d.handle_request(1, 0, false, 1);
        d.handle_request(2, 0, false, 2);
        assert_eq!(d.stats.overflows, 0);
        d.handle_request(3, 0, false, 3); // third sharer: overflow to All
        assert_eq!(d.stats.overflows, 1);
        let out = d.handle_request(4, 0, true, 4);
        let epoch = out[0].1.xid().unwrap();
        // Broadcast: every node except the writer gets an Inval, even
        // nodes 0 and 5 which never held the block (they ack anyway).
        let targets: Vec<usize> = out.iter().map(|&(t, _)| t).collect();
        assert_eq!(targets, vec![0, 1, 2, 3, 5]);
        assert_eq!(d.stats.invals_sent, 5);
        for t in [0, 1, 2, 3] {
            assert!(d
                .handle_ack(
                    t,
                    CohMsg::InvAck {
                        block: 0,
                        xid: epoch
                    }
                )
                .unwrap()
                .is_empty());
        }
        let out = d
            .handle_ack(
                5,
                CohMsg::InvAck {
                    block: 0,
                    xid: epoch,
                },
            )
            .unwrap();
        assert_eq!(out, vec![(4, CohMsg::WrReply { block: 0, xid: 4 })]);
        assert_eq!(d.state(0), DirState::Exclusive(4));
    }

    #[test]
    fn coarse_vector_overflow_invalidates_regions() {
        let mut s = SharerSet::of(&[]);
        let kind = DirectoryKind::CoarseVector { region: 4 };
        for n in 0..INLINE_PTRS {
            assert!(!s.insert(n, kind, 12));
        }
        // Ninth sharer overflows into a coarse vector; node 9 sets the
        // bit for region 8..12.
        assert!(s.insert(9, kind, 12));
        assert!(s.is_imprecise());
        assert!(s.contains(9) && s.contains(10), "region granularity");
        let mut targets = Vec::new();
        s.targets_into(9, 12, &mut targets);
        assert_eq!(targets, (0..12).filter(|&n| n != 9).collect::<Vec<_>>());
        // Removal from an imprecise set is a no-op.
        s.remove(3);
        assert!(s.contains(3));
    }

    #[test]
    fn flush_from_imprecise_set_leaves_it_shared() {
        let cfg = DirConfig {
            kind: DirectoryKind::LimitedPtr { ptrs: 1 },
            ..DirConfig::default()
        };
        let mut d = Directory::with_config(cfg, 4);
        d.handle_request(1, 0, false, 1);
        d.handle_request(2, 0, false, 2); // overflow to All
        d.handle_ack(
            1,
            CohMsg::FlushData {
                block: 0,
                fenced: false,
                xid: 7,
            },
        )
        .unwrap();
        // The set cannot prove emptiness, so the block stays Shared;
        // correctness is preserved because the next write broadcasts.
        assert!(matches!(d.state(0), DirState::Shared(s) if s.is_imprecise()));
    }

    #[test]
    fn state_bytes_tracks_sharers() {
        let mut full = Directory::with_config(DirConfig::default(), 32);
        let cfg = DirConfig {
            kind: DirectoryKind::LimitedPtr { ptrs: 4 },
            ..DirConfig::default()
        };
        let mut sparse = Directory::with_config(cfg, 32);
        for n in 0..32 {
            full.handle_request(n, 0, false, n as u32);
            sparse.handle_request(n, 0, false, n as u32);
        }
        assert!(
            sparse.state_bytes() < full.state_bytes(),
            "broadcast set must be smaller than a 32-entry spill"
        );
    }

    #[test]
    fn request_to_directory_of_wrong_kind_errors() {
        let mut d = Directory::new();
        let err = d
            .handle_ack(1, CohMsg::RdReq { block: 0, xid: 1 })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::UnexpectedMessage { .. }));
    }
}

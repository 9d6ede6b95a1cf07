//! Wire layouts of memory-substrate state for machine snapshots.
//!
//! Serializes everything between the processor and the network
//! (DESIGN.md §11): the full/empty memory image, the set-associative
//! cache (tags, MSI state, LRU clocks), the requester-side controller
//! with its *in-flight protocol transactions*, and the home-side
//! directory with busy episodes and waiter queues. Capturing the
//! in-flight state — outstanding transactions, retry deadlines, busy
//! epochs — is what lets a restored machine replay the exact same
//! protocol schedule as the original run. Hash-map-backed state
//! (transactions, directory entries, pinned blocks) is written in
//! sorted key order, so equal states encode to equal bytes.

use crate::alloc::BumpAllocator;
use crate::cache::{Cache, CacheStats, Line, LineState};
use crate::controller::{CacheController, CtlStats, FenceFlush, Txn};
use crate::directory::{
    Busy, BusyKind, DirEntry, DirState, DirStats, Directory, SharerRepr, SharerSet,
};
use crate::femem::{Chunk, FeMemory};
use crate::msg::CohMsg;
use april_util::wire::{u32_index, Codec, Wire, WireError};
use april_util::wire_fields;

/// The coherence messages in wire-tag order: a message's tag is its
/// variant's index here.
const MSG_TAGS: [CohMsg; 15] = {
    use CohMsg::*;
    [
        RdReq { block: 0, xid: 0 },
        WrReq { block: 0, xid: 0 },
        RdReply { block: 0, xid: 0 },
        WrReply { block: 0, xid: 0 },
        Nack { block: 0, xid: 0 },
        Inval { block: 0, xid: 0 },
        InvAck { block: 0, xid: 0 },
        DownReq { block: 0, xid: 0 },
        DownAck { block: 0, xid: 0 },
        WbInvalReq { block: 0, xid: 0 },
        WbInvalAck { block: 0, xid: 0 },
        FlushData {
            block: 0,
            fenced: false,
            xid: 0,
        },
        FlushAck {
            block: 0,
            fenced: false,
            xid: 0,
        },
        Ipi,
        BlockXfer { block: 0, words: 0 },
    ]
};

/// A coherence message — a deferred protocol request or an in-flight
/// network payload: its tag, then its fields.
impl Wire for CohMsg {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        use CohMsg::*;
        c.variant(self, &MSG_TAGS)?;
        match self {
            RdReq { block, xid }
            | WrReq { block, xid }
            | RdReply { block, xid }
            | WrReply { block, xid }
            | Nack { block, xid }
            | Inval { block, xid }
            | InvAck { block, xid }
            | DownReq { block, xid }
            | DownAck { block, xid }
            | WbInvalReq { block, xid }
            | WbInvalAck { block, xid } => {
                c.u32(block)?;
                c.u32(xid)
            }
            FlushData { block, fenced, xid } | FlushAck { block, fenced, xid } => {
                c.u32(block)?;
                c.bool(fenced)?;
                c.u32(xid)
            }
            Ipi => Ok(()),
            BlockXfer { block, words } => {
                c.u32(block)?;
                c.u32(words)
            }
        }
    }
}

/// A bump allocator's cursor; a restored cursor must lie in its
/// word-aligned region.
impl Wire for BumpAllocator {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        c.u32(&mut self.base)?;
        c.u32(&mut self.next)?;
        c.u32(&mut self.limit)?;
        if self.base > self.next || self.next > self.limit || self.base & 3 != 0 {
            return Err(WireError::Corrupt("bump allocator cursor out of range"));
        }
        Ok(())
    }
}

/// The full/empty memory image as a sparse sequence of non-default
/// 4 KiB chunks; untouched (or touched-but-still-pristine) regions
/// serialize as holes. The encoding is a pure function of memory
/// *content* — which chunks a scheduler happened to materialize never
/// shows in the bytes — so snapshots stay byte-identical across
/// lockstep and event-driven runs, and a restored image has the
/// footprint of its content, not of the donor machine's address space.
/// Restores require a memory of the same size.
impl Wire for FeMemory {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        c.same(self.len_words, "memory size mismatch")?;
        let resident = |slot: &Option<Box<Chunk>>| slot.as_deref().is_some_and(|k| !k.is_default());
        c.sparse(&mut self.chunks, resident, u32_index, |c, slot| {
            let chunk = slot.get_or_insert_with(Chunk::fresh);
            chunk.words.wire(c)?;
            chunk.fe.wire(c)
        })
    }
}

impl Wire for LineState {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        c.variant(self, &[LineState::Shared, LineState::Modified])
    }
}

wire_fields!(Line { block, state, lru });
wire_fields!(CacheStats {
    reads,
    writes,
    read_misses,
    write_misses,
    evictions,
    invalidations,
});

/// Every line of the cache, valid or not; restores require the same
/// geometry.
impl Wire for Cache {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        c.same(self.lines.len(), "cache geometry mismatch")?;
        self.lines.as_mut_slice().wire(c)?;
        c.u64(&mut self.clock)?;
        self.stats.wire(c)
    }
}

wire_fields!(Txn {
    xid,
    frames,
    write_issued,
    retries,
    next_retry,
});
wire_fields!(FenceFlush {
    block,
    retries,
    next_retry,
});
wire_fields!(CtlStats {
    hits,
    local_fills,
    remote_txns,
    invals,
    downgrades,
    writebacks,
    retransmits,
    nacks,
    stale_replies,
});

/// A cache controller's complete state — cache contents, outstanding
/// transactions, fenced flushes, pinned blocks, deferred requests,
/// counters, and trace probe. Restores require the same node id and
/// cache geometry.
impl Wire for CacheController {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        c.same(self.node, "controller node id mismatch")?;
        self.cache.wire(c)?;
        self.txns.wire(c)?;
        self.flushes.wire(c)?;
        c.u32(&mut self.next_xid)?;
        c.u64(&mut self.clock)?;
        c.u64(&mut self.next_deadline)?;
        self.pinned.wire(c)?;
        self.deferred.wire(c)?;
        c.u32(&mut self.fence)?;
        self.stats.wire(c)?;
        self.probe.wire(c)
    }
}

/// A directory state's tag: precise sharer sets (inline or spill)
/// share one wire form, the ordered member list, and the coarse and
/// broadcast forms have their own.
fn dir_state_tag(state: &DirState) -> u8 {
    match state {
        DirState::Uncached => 0,
        DirState::Shared(set) => match set.repr {
            SharerRepr::Inline { .. } | SharerRepr::Spill(_) => 1,
            SharerRepr::Coarse { .. } => 3,
            SharerRepr::All => 4,
        },
        DirState::Exclusive(_) => 2,
    }
}

impl Wire for DirState {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        let shared = |repr| Some(DirState::Shared(SharerSet { repr }));
        c.tag(self, dir_state_tag, |tag| match tag {
            0 => Some(DirState::Uncached),
            1 => Some(DirState::Shared(SharerSet::of(&[]))),
            2 => Some(DirState::Exclusive(0)),
            3 => shared(SharerRepr::Coarse {
                region: 0,
                bits: Box::new([]),
            }),
            4 => shared(SharerRepr::All),
            _ => None,
        })?;
        let set = match self {
            DirState::Uncached => return Ok(()),
            DirState::Exclusive(owner) => return c.usize(owner),
            DirState::Shared(set) => set,
        };
        match set.repr {
            // The canonical inline-iff-it-fits invariant means decoding
            // via `SharerSet::of` rebuilds the exact in-memory
            // representation, so re-encoding a restored snapshot is a
            // byte fixed point.
            SharerRepr::Inline { .. } | SharerRepr::Spill(_) => c.via(
                set,
                |s| {
                    s.as_list()
                        .unwrap_or(&[])
                        .iter()
                        .map(|&n| n as usize)
                        .collect::<Vec<_>>()
                },
                |nodes| Ok(SharerSet::of(&nodes)),
            ),
            SharerRepr::Coarse {
                ref mut region,
                ref mut bits,
            } => {
                c.via(region, |&r| r as u32, |r| Ok(r as u16))?;
                c.via(bits, |b| b.to_vec(), |b: Vec<u64>| Ok(b.into_boxed_slice()))
            }
            SharerRepr::All => Ok(()),
        }
    }
}

impl Wire for BusyKind {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        c.variant(self, &[BusyKind::Inval, BusyKind::Down, BusyKind::WbInval])
    }
}

wire_fields!(Busy {
    requester,
    req_xid,
    write,
    kind,
    epoch,
    pending,
    retries,
    next_retry,
});
wire_fields!(DirEntry {
    state,
    busy,
    waiters,
});
wire_fields!(DirStats {
    read_reqs,
    write_reqs,
    invals_sent,
    wb_reqs_sent,
    deferred,
    nacks,
    retransmits,
    stale_acks,
    overflows,
});

/// A directory's complete state — per-block protocol states, busy
/// episodes with their epochs and retry deadlines, waiter queues,
/// counters, and trace probe.
impl Wire for Directory {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        self.entries.wire(c)?;
        c.u32(&mut self.epoch_counter)?;
        c.u64(&mut self.clock)?;
        c.u64(&mut self.next_deadline)?;
        let busy = self.entries.values().filter(|e| e.busy.is_some()).count();
        c.same(busy, "directory busy count mismatch")?;
        if C::READS {
            self.busy_ct = busy;
        }
        self.stats.wire(c)?;
        self.probe.wire(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::controller::CtlConfig;
    use april_core::word::Word;
    use april_util::wire::{ByteReader, ByteWriter};

    #[test]
    fn every_coherence_message_roundtrips() {
        let msgs = [
            CohMsg::RdReq { block: 1, xid: 2 },
            CohMsg::WrReq { block: 3, xid: 4 },
            CohMsg::RdReply { block: 5, xid: 6 },
            CohMsg::WrReply { block: 7, xid: 8 },
            CohMsg::Nack { block: 9, xid: 10 },
            CohMsg::Inval { block: 11, xid: 12 },
            CohMsg::InvAck { block: 13, xid: 14 },
            CohMsg::DownReq { block: 15, xid: 16 },
            CohMsg::DownAck { block: 17, xid: 18 },
            CohMsg::WbInvalReq { block: 19, xid: 20 },
            CohMsg::WbInvalAck { block: 21, xid: 22 },
            CohMsg::FlushData {
                block: 23,
                fenced: true,
                xid: 24,
            },
            CohMsg::FlushAck {
                block: 25,
                fenced: false,
                xid: 26,
            },
            CohMsg::Ipi,
            CohMsg::BlockXfer {
                block: 27,
                words: 16,
            },
        ];
        let mut w = ByteWriter::new();
        for mut m in msgs {
            m.wire(&mut w).unwrap();
        }
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        for m in &msgs {
            let mut back = CohMsg::default();
            back.wire(&mut r).unwrap();
            assert_eq!(back, *m);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn femem_roundtrips_words_and_fe_bits() {
        let mut m = FeMemory::new(100);
        m.write(0, Word(0xdead_beef));
        m.write(96, Word(7));
        m.set_fe(4, false);
        m.set_fe(92, false);
        let mut w = ByteWriter::new();
        m.wire(&mut w).unwrap();
        let bytes = w.finish();
        let mut n = FeMemory::new(100);
        n.wire(&mut ByteReader::new(&bytes)).unwrap();
        for a in (0..100).step_by(4) {
            assert_eq!(n.read(a), m.read(a), "word at {a:#x}");
            assert_eq!(n.fe(a), m.fe(a), "fe bit at {a:#x}");
        }
        let mut small = FeMemory::new(96);
        assert!(small.wire(&mut ByteReader::new(&bytes)).is_err());
    }

    #[test]
    fn femem_snapshot_is_content_based_with_holes() {
        // 8 chunks of address space, two touched: the snapshot carries
        // two chunks regardless of how many are materialized.
        let mut m = FeMemory::new(32 * 1024);
        m.write(0x10, Word(1));
        m.write(0x7000, Word(2));
        // Materialize a chunk and return it to pristine content: it
        // must encode as a hole (content-based, not allocation-based).
        m.write(0x3000, Word(9));
        m.write(0x3000, Word::ZERO);
        let mut w = ByteWriter::new();
        m.wire(&mut w).unwrap();
        let bytes = w.finish();
        let mut n = FeMemory::new(32 * 1024);
        n.wire(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(n.read(0x10), Word(1));
        assert_eq!(n.read(0x7000), Word(2));
        assert_eq!(n.read(0x3000), Word::ZERO);
        assert_eq!(
            n.resident_bytes(),
            2 * std::mem::size_of::<Chunk>(),
            "restored image holds exactly the two non-default chunks"
        );
        // Re-encode fixed point: pristine-again chunks never reappear.
        let mut w2 = ByteWriter::new();
        n.wire(&mut w2).unwrap();
        assert_eq!(w2.finish(), bytes);
    }

    #[test]
    fn allocator_cursor_roundtrips_and_validates() {
        let mut a = BumpAllocator::new(0x100, 0x400);
        a.alloc(40, 8).unwrap();
        let mut w = ByteWriter::new();
        a.wire(&mut w).unwrap();
        let bytes = w.finish();
        let mut b = BumpAllocator::new(0, 0);
        b.wire(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(a, b);
        let mut w = ByteWriter::new();
        (0x200u32, 0x100u32, 0x400u32).wire(&mut w).unwrap(); // next < base
        let bad = w.finish();
        assert!(BumpAllocator::new(0, 0)
            .wire(&mut ByteReader::new(&bad))
            .is_err());
    }

    #[test]
    fn controller_with_inflight_state_roundtrips() {
        let mk = || CacheController::new(3, CacheConfig::default(), CtlConfig::default());
        let mut ctl = mk();
        ctl.set_clock(100);
        // Start two remote transactions: home 0 is not this node, so
        // each access issues a request and records an in-flight txn.
        let mut out = Vec::new();
        ctl.cpu_access(0x8000, false, 0, 0, None, |_| 0, &mut out);
        ctl.cpu_access(0x9000, true, 1, 0, None, |_| 0, &mut out);
        assert_eq!(ctl.outstanding(), 2);
        let mut w = ByteWriter::new();
        ctl.wire(&mut w).unwrap();
        let bytes = w.finish();
        let mut restored = mk();
        restored.wire(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(restored.outstanding_txns(), ctl.outstanding_txns());
        assert_eq!(restored.stats, ctl.stats);
        assert_eq!(restored.fence_count(), ctl.fence_count());
        // A node-id mismatch is rejected.
        let mut other = CacheController::new(5, CacheConfig::default(), CtlConfig::default());
        assert!(other.wire(&mut ByteReader::new(&bytes)).is_err());
    }

    #[test]
    fn directory_with_busy_episode_roundtrips() {
        let mut dir = Directory::new();
        dir.set_clock(50);
        // Build protocol state: node 1 reads, node 2 writes (starts a
        // busy invalidation episode with node 1 pending).
        dir.handle_request(1, 64, false, 1);
        dir.handle_request(2, 64, true, 2);
        assert_eq!(dir.busy_count(), 1);
        let mut w = ByteWriter::new();
        dir.wire(&mut w).unwrap();
        let bytes = w.finish();
        let mut restored = Directory::new();
        restored.wire(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(restored.stats, dir.stats);
        assert_eq!(restored.busy_entries(), dir.busy_entries());
        assert_eq!(restored.busy_count(), dir.busy_count());
        // The restored directory finishes the episode identically.
        let epoch = dir.busy_entries()[0].3;
        let ack = CohMsg::InvAck {
            block: 64,
            xid: epoch,
        };
        let a = dir.handle_ack(1, ack).unwrap();
        let b = restored.handle_ack(1, ack).unwrap();
        assert_eq!(a, b);
        assert_eq!(restored.state(64), dir.state(64));
    }

    #[test]
    fn sparse_directory_states_roundtrip_as_a_byte_fixed_point() {
        use crate::directory::{DirConfig, DirectoryKind};
        // One directory per kind, driven into every representation the
        // kind can reach (inline, spill, coarse, broadcast).
        for kind in [
            DirectoryKind::FullMap,
            DirectoryKind::LimitedPtr { ptrs: 2 },
            DirectoryKind::CoarseVector { region: 4 },
        ] {
            let cfg = DirConfig {
                kind,
                ..DirConfig::default()
            };
            let mut dir = Directory::with_config(cfg, 24);
            for n in 0..12 {
                dir.handle_request(n, 64, false, n as u32);
            }
            dir.handle_request(0, 128, true, 99);
            let mut w = ByteWriter::new();
            dir.wire(&mut w).unwrap();
            let bytes = w.finish();
            let mut restored = Directory::with_config(cfg, 24);
            restored.wire(&mut ByteReader::new(&bytes)).unwrap();
            assert_eq!(restored.state(64), dir.state(64), "{kind:?}");
            assert_eq!(restored.stats, dir.stats, "{kind:?}");
            // Re-encoding the restored directory must be a byte fixed
            // point: the sharer representation is canonical.
            let mut w2 = ByteWriter::new();
            restored.wire(&mut w2).unwrap();
            assert_eq!(w2.finish(), bytes, "{kind:?}");
        }
    }
}

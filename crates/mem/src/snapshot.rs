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
//! (directory entries) is written in sorted key order, and the
//! controller's transaction store is kept sorted, so equal states
//! encode to equal bytes.

use crate::alloc::BumpAllocator;
use crate::cache::{Cache, CacheStats, Line, LineState};
use crate::controller::{CacheController, CtlStats, Entry, Wait};
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

/// The cache's valid lines in nested sparse form — the chunks that
/// hold a valid line, and in each its valid lines — then the clock and
/// counters. Like [`FeMemory`], the bytes are a function of content: a
/// chunk that was filled and then emptied by invalidations is a hole,
/// and every hole restores unmaterialized. Restores require the same
/// geometry, and a restored valid line must be one `fill` could have
/// placed: block-aligned, in its block's set, and not repeated there.
impl Wire for Cache {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        let cfg = *self.config();
        c.same(
            (cfg.size_bytes, cfg.block_bytes, cfg.assoc),
            "cache geometry mismatch",
        )?;
        let len = self.chunk_len();
        c.sparse(
            &mut self.chunks,
            |k| k.iter().any(Line::valid),
            u32_index,
            |c, chunk| {
                if C::READS {
                    *chunk = vec![Line::default(); len].into_boxed_slice();
                }
                c.sparse(chunk, Line::valid, u32_index, |c, line| {
                    line.wire(c)?;
                    // The empty block is misaligned too.
                    if line.block & (cfg.block_bytes - 1) != 0 {
                        return Err(WireError::Corrupt("misaligned cache line"));
                    }
                    Ok(())
                })
            },
        )?;
        if C::READS {
            check_restored_sets(self)?;
        }
        c.u64(&mut self.clock)?;
        self.stats.wire(c)
    }
}

/// Rejects restored cache lines that no sequence of fills produces: a
/// chunk with no valid line (the encoder writes it as a hole), or a
/// valid line outside its block's set or repeating a block within it.
fn check_restored_sets(cache: &Cache) -> Result<(), WireError> {
    for (k, chunk) in cache.chunks.iter().enumerate() {
        if !chunk.is_empty() && !chunk.iter().any(Line::valid) {
            return Err(WireError::Corrupt("cache chunk without a valid line"));
        }
        for (i, line) in chunk.iter().enumerate().filter(|(_, l)| l.valid()) {
            let (home, ways) = cache.locate(line.block);
            if home != k || !ways.contains(&i) {
                return Err(WireError::Corrupt("cache line outside its block's set"));
            }
            if chunk[ways.start..i].iter().any(|l| l.block == line.block) {
                return Err(WireError::Corrupt("cache line repeated in its set"));
            }
        }
    }
    Ok(())
}

impl Wire for Wait {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        c.variant(self, &[Wait::Reply, Wait::FlushAck, Wait::Use])
    }
}

wire_fields!(Entry {
    block,
    xid,
    wait,
    frames,
    write_issued,
    retries,
    next_retry,
    held,
    demands,
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

/// A cache controller's complete state — cache contents, the
/// transaction store, the fence count, counters, and trace probe.
/// Restores require the same node id and cache geometry, a store in
/// strictly ascending `(block, xid, wait)` order whose held lines all
/// await a use, and a fence count equal to its flush entries.
impl Wire for CacheController {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        c.same(self.node, "controller node id mismatch")?;
        self.cache.wire(c)?;
        self.store.wire(c)?;
        if C::READS {
            check_restored_store(&self.store)?;
        }
        c.u32(&mut self.next_xid)?;
        c.u64(&mut self.clock)?;
        c.u64(&mut self.next_deadline)?;
        c.same(self.fence_count(), "fence differs from the flush entries")?;
        self.stats.wire(c)?;
        self.probe.wire(c)
    }
}

/// Rejects a restored store that no run produces: entries out of
/// `(block, xid, wait)` order or repeated, or a held line on an entry
/// that is not awaiting a use.
fn check_restored_store(store: &[Entry]) -> Result<(), WireError> {
    if store.windows(2).any(|w| w[0].key() >= w[1].key()) {
        return Err(WireError::Corrupt("store entries out of order or repeated"));
    }
    let stray = |e: &Entry| e.held.is_some() && e.wait != Wait::Use;
    if store.iter().any(stray) {
        return Err(WireError::Corrupt(
            "held line on an entry not awaiting a use",
        ));
    }
    Ok(())
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

    fn encode(x: &mut impl Wire) -> Vec<u8> {
        let mut w = ByteWriter::new();
        x.wire(&mut w).unwrap();
        w.finish()
    }

    #[test]
    fn cache_restore_rejects_lines_fill_cannot_place() {
        // 32 sets × 2 ways, one chunk. Set 4 holds blocks 0x40 and
        // 0x240, at lines 8 and 9 of the chunk.
        let cfg = CacheConfig {
            size_bytes: 1024,
            block_bytes: 16,
            assoc: 2,
        };
        let mut cache = Cache::new(cfg);
        cache.fill(0x40, LineState::Modified);
        cache.fill(0x240, LineState::Shared);
        let bytes = encode(&mut cache);
        // Geometry (12), chunk count (8), chunk index (4), line count
        // (8), then per line its index (4), block (4), state and lru.
        let (first, second) = (36, 53);
        assert_eq!(bytes[first..first + 4], 0x40u32.to_le_bytes());
        assert_eq!(bytes[second..second + 4], 0x240u32.to_le_bytes());
        let restore = |at: usize, block: u32| {
            let mut hostile = bytes.clone();
            hostile[at..at + 4].copy_from_slice(&block.to_le_bytes());
            Cache::new(cfg).wire(&mut ByteReader::new(&hostile))
        };
        assert_eq!(restore(first, 0x40), Ok(()));
        for (at, block, why) in [
            (first, 0x50, "cache line outside its block's set"),
            (second, 0x40, "cache line repeated in its set"),
            (first, 0x44, "misaligned cache line"),
            (first, u32::MAX, "misaligned cache line"),
        ] {
            assert_eq!(
                restore(at, block),
                Err(WireError::Corrupt(why)),
                "{block:#x}"
            );
        }
        // A chunk on the wire with no line in it.
        let mut empty = bytes[..32].to_vec();
        empty[24..32].copy_from_slice(&0u64.to_le_bytes());
        empty.extend_from_slice(&bytes[bytes.len() - 56..]);
        assert_eq!(
            Cache::new(cfg).wire(&mut ByteReader::new(&empty)),
            Err(WireError::Corrupt("cache chunk without a valid line"))
        );
    }

    #[test]
    fn emptied_cache_chunks_are_holes_and_a_byte_fixed_point() {
        let mut cache = Cache::new(CacheConfig::default());
        // Blocks in chunks 0, 1 and 3 (64 sets of 16 bytes per chunk);
        // chunk 1 is then emptied by invalidation.
        for block in [0x40, 0x410, 0x420, 0xc00] {
            cache.fill(block, LineState::Shared);
        }
        cache.invalidate(0x410);
        cache.invalidate(0x420);
        let materialized = |c: &Cache| c.chunks.iter().filter(|k| !k.is_empty()).count();
        assert_eq!(materialized(&cache), 3);
        let bytes = encode(&mut cache);
        let mut restored = Cache::new(CacheConfig::default());
        restored.wire(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(materialized(&restored), 2, "the emptied chunk is a hole");
        assert_eq!(restored.resident(), 2);
        assert_eq!(restored.probe(0xc00), Some(LineState::Shared));
        assert_eq!(restored.stats, cache.stats);
        assert_eq!(encode(&mut restored), bytes);
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
    fn controller_restore_rejects_a_store_no_run_produces() {
        let mk = || CacheController::new(3, CacheConfig::default(), CtlConfig::default());
        let mut ctl = mk();
        let mut out = Vec::new();
        // A fenced flush of a local dirty line, then two requests.
        ctl.cpu_access(
            0x40,
            true,
            0,
            3,
            Some(&mut Directory::new()),
            |_| 3,
            &mut out,
        );
        ctl.flush(0x40, |_| 3, &mut out);
        ctl.cpu_access(0x8000, false, 0, 0, None, |_| 0, &mut out);
        ctl.cpu_access(0x9000, true, 1, 0, None, |_| 0, &mut out);
        let restore = |bytes: &[u8]| mk().wire(&mut ByteReader::new(bytes));
        assert_eq!(restore(&encode(&mut ctl)), Ok(()));
        let corrupt = |edit: fn(&mut Vec<Entry>), why| {
            let mut hostile = ctl.clone();
            edit(&mut hostile.store);
            assert_eq!(restore(&encode(&mut hostile)), Err(WireError::Corrupt(why)));
        };
        corrupt(|s| s.swap(1, 2), "store entries out of order or repeated");
        corrupt(
            |s| s.insert(1, s[1].clone()),
            "store entries out of order or repeated",
        );
        corrupt(
            |s| s[1].held = Some(LineState::Shared),
            "held line on an entry not awaiting a use",
        );
        // The fence count follows the store, after the xid counter,
        // clock and deadline.
        let mut bytes = encode(&mut ctl);
        let at = 8 + encode(&mut ctl.cache).len() + encode(&mut ctl.store).len() + 20;
        assert_eq!(bytes[at..at + 4], 1u32.to_le_bytes());
        bytes[at..at + 4].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            restore(&bytes),
            Err(WireError::Corrupt("fence differs from the flush entries"))
        );
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

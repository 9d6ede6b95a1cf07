//! Set-associative processor cache (tags and coherence state).
//!
//! ALEWIFE caches are kept **strongly coherent** by the directory
//! protocol (paper, Section 2.1). This model tracks tags and MSI state
//! per line; data is functionally backed by the machine's global
//! memory, a standard shortcut in timing simulators that preserves both
//! the timing behavior (hit/miss/invalidate) and program results.
//!
//! The default geometry matches Table 4: 64-Kbyte cache, 16-byte
//! blocks, direct-mapped (the paper's controller design); the
//! associativity is parameterizable for the cache-interference studies
//! of Section 8.

use std::fmt;

/// Coherence state of a cache line (MSI).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Read-only copy, possibly shared with other caches.
    #[default]
    Shared,
    /// Exclusive read-write copy (dirty with respect to home memory).
    Modified,
}

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes (Table 4 default: 64 Kbytes).
    pub size_bytes: u32,
    /// Block (line) size in bytes (Table 4 default: 16).
    pub block_bytes: u32,
    /// Associativity (1 = direct mapped).
    pub assoc: u32,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            size_bytes: 64 * 1024,
            block_bytes: 16,
            assoc: 1,
        }
    }
}

impl CacheConfig {
    /// Number of sets.
    pub fn num_sets(&self) -> u32 {
        self.size_bytes / (self.block_bytes * self.assoc)
    }

    /// The block-aligned address containing `addr`.
    pub fn block_of(&self, addr: u32) -> u32 {
        addr & !(self.block_bytes - 1)
    }
}

/// Sentinel block address marking an empty way. Real blocks are
/// block-aligned (block size ≥ 4), so they can never equal `u32::MAX`.
const INVALID_BLOCK: u32 = u32::MAX;

/// Lines per chunk (1 KiB of 16-byte lines): the unit in which a cache
/// takes memory, on the first fill into one of the chunk's sets.
const CHUNK_LINES: usize = 64;

#[derive(Debug, Clone, Copy)]
pub(crate) struct Line {
    pub(crate) block: u32,
    pub(crate) state: LineState,
    pub(crate) lru: u64,
}

/// The empty way.
impl Default for Line {
    fn default() -> Line {
        Line {
            block: INVALID_BLOCK,
            state: LineState::Shared,
            lru: 0,
        }
    }
}

impl Line {
    pub(crate) fn valid(&self) -> bool {
        self.block != INVALID_BLOCK
    }
}

/// A replaced line: the evicted block and whether it was dirty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Block address of the evicted line.
    pub block: u32,
    /// True if the line was `Modified` (must be written back).
    pub dirty: bool,
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Read misses: reads of a block absent from the cache (a read of
    /// a `Shared` or `Modified` line hits, so reads have no upgrades).
    pub read_misses: u64,
    /// Write misses (absent or present in `Shared` needing upgrade).
    pub write_misses: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
    /// Invalidations received from the protocol.
    pub invalidations: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Overall miss rate.
    pub fn miss_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            (self.read_misses + self.write_misses) as f64 / a as f64
        }
    }
}

/// A set-associative, LRU-replacement cache directory (tags + state).
///
/// # Examples
///
/// ```
/// use april_mem::cache::{Cache, CacheConfig, LineState};
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 256, block_bytes: 16, assoc: 2 });
/// assert!(!c.access(0x40, false)); // cold miss
/// c.fill(0x40, LineState::Shared);
/// assert!(c.access(0x40, false)); // hit
/// assert!(!c.access(0x40, true)); // write to Shared: upgrade miss
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// The ways of all sets, in chunks of whole sets: set `s` occupies
    /// ways `(s & chunk_mask) * assoc ..` of chunk `s >> chunk_shift`.
    /// A chunk is an empty slice until the first fill into one of its
    /// sets, so a cache costs memory for the sets it has used; a lookup
    /// in an empty chunk falls out of the slice bounds check as a miss.
    /// Empty ways carry [`INVALID_BLOCK`], which no real
    /// (block-aligned) address can match, so lookups need no separate
    /// validity check.
    pub(crate) chunks: Vec<Box<[Line]>>,
    // Narrow fields keep `Cache` at 104 bytes: it sits inline in every
    // node's controller, and a 16-byte wider node ran a CPU-bound
    // 16-node benchmark that never touches a cache about 8 % slower
    // (2-vCPU x86-64 VM).
    set_mask: u32,
    chunk_mask: u32,
    block_shift: u8,
    chunk_shift: u8,
    pub(crate) clock: u64,
    /// Access counters.
    pub stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache; it allocates no lines until its first
    /// fill.
    ///
    /// # Panics
    ///
    /// Panics unless sizes are powers of two and consistent.
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.block_bytes.is_power_of_two() && cfg.block_bytes >= 4);
        assert!(cfg.assoc >= 1);
        let sets = cfg.num_sets();
        assert!(
            sets.is_power_of_two() && sets >= 1,
            "set count must be a power of two"
        );
        // As many whole sets per chunk as fit in CHUNK_LINES (at least
        // one), rounded down to a power of two so a set's chunk is a
        // shift away.
        let per_chunk = (CHUNK_LINES / cfg.assoc as usize).max(1);
        let chunk_sets = (1usize << per_chunk.ilog2()).min(sets as usize);
        Cache {
            cfg,
            chunks: vec![Box::default(); sets as usize / chunk_sets],
            set_mask: sets - 1,
            chunk_mask: chunk_sets as u32 - 1,
            block_shift: cfg.block_bytes.trailing_zeros() as u8,
            chunk_shift: chunk_sets.trailing_zeros() as u8,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Lines in a materialized chunk.
    pub(crate) fn chunk_len(&self) -> usize {
        (self.chunk_mask as usize + 1) * self.cfg.assoc as usize
    }

    /// The chunk holding `block`'s set, and the range of the set's
    /// ways within it.
    #[inline]
    pub(crate) fn locate(&self, block: u32) -> (usize, std::ops::Range<usize>) {
        let si = (block >> self.block_shift) & self.set_mask;
        let assoc = self.cfg.assoc as usize;
        let at = (si & self.chunk_mask) as usize * assoc;
        ((si >> self.chunk_shift) as usize, at..at + assoc)
    }

    /// The ways of `block`'s set; none while its chunk is empty.
    #[inline]
    fn set(&self, block: u32) -> &[Line] {
        let (k, ways) = self.locate(block);
        self.chunks[k].get(ways).unwrap_or_default()
    }

    /// [`Cache::set`], mutably.
    #[inline]
    fn set_mut(&mut self, block: u32) -> &mut [Line] {
        let (k, ways) = self.locate(block);
        self.chunks[k].get_mut(ways).unwrap_or_default()
    }

    /// Records an access and reports whether it hits: a read hits in
    /// `Shared` or `Modified`; a write hits only in `Modified`.
    pub fn access(&mut self, addr: u32, write: bool) -> bool {
        let block = self.cfg.block_of(addr);
        self.clock += 1;
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        let clock = self.clock;
        let hit = self
            .set_mut(block)
            .iter_mut()
            .find(|l| l.block == block)
            .map(|l| {
                l.lru = clock;
                l.state
            });
        match (hit, write) {
            (Some(_), false) | (Some(LineState::Modified), true) => true,
            (Some(LineState::Shared), true) => {
                self.stats.write_misses += 1;
                false
            }
            (None, w) => {
                if w {
                    self.stats.write_misses += 1;
                } else {
                    self.stats.read_misses += 1;
                }
                false
            }
        }
    }

    /// Probes without updating statistics or LRU.
    pub fn probe(&self, addr: u32) -> Option<LineState> {
        let block = self.cfg.block_of(addr);
        self.set(block)
            .iter()
            .find(|l| l.block == block)
            .map(|l| l.state)
    }

    /// Inserts (or upgrades) the line for `addr` in `state`, returning
    /// the victim if a line had to be evicted.
    pub fn fill(&mut self, addr: u32, state: LineState) -> Option<Victim> {
        let block = self.cfg.block_of(addr);
        self.clock += 1;
        let clock = self.clock;
        let (k, ways) = self.locate(block);
        let len = self.chunk_len();
        let chunk = &mut self.chunks[k];
        if chunk.is_empty() {
            *chunk = vec![Line::default(); len].into_boxed_slice();
        }
        let set = &mut chunk[ways];
        if let Some(l) = set.iter_mut().find(|l| l.block == block) {
            l.state = state;
            l.lru = clock;
            return None;
        }
        // Prefer an empty way; otherwise evict the least recently used
        // (lru stamps are unique, so the victim is deterministic).
        let (slot, victim) = match set.iter().position(|l| !l.valid()) {
            Some(i) => (i, None),
            None => {
                let (vi, v) = set
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, l)| l.lru)
                    .expect("nonempty set");
                let victim = Victim {
                    block: v.block,
                    dirty: v.state == LineState::Modified,
                };
                self.stats.evictions += 1;
                (vi, Some(victim))
            }
        };
        set[slot] = Line {
            block,
            state,
            lru: clock,
        };
        victim
    }

    /// Removes the line containing `addr` (protocol invalidation or
    /// FLUSH), returning whether it existed and was dirty.
    pub fn invalidate(&mut self, addr: u32) -> Option<bool> {
        let block = self.cfg.block_of(addr);
        let l = self.set_mut(block).iter_mut().find(|l| l.block == block)?;
        let dirty = l.state == LineState::Modified;
        *l = Line::default();
        self.stats.invalidations += 1;
        Some(dirty)
    }

    /// Downgrades the line containing `addr` to `Shared` (directory
    /// read request against a Modified owner). Returns true if the
    /// line was present and dirty.
    pub fn downgrade(&mut self, addr: u32) -> bool {
        let block = self.cfg.block_of(addr);
        if let Some(l) = self.set_mut(block).iter_mut().find(|l| l.block == block) {
            let was = l.state == LineState::Modified;
            l.state = LineState::Shared;
            was
        } else {
            false
        }
    }

    /// Number of resident lines.
    pub fn resident(&self) -> usize {
        self.chunks
            .iter()
            .flat_map(|k| k.iter())
            .filter(|l| l.valid())
            .count()
    }
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB/{}B/{}-way: {} lines, miss rate {:.4}",
            self.cfg.size_bytes / 1024,
            self.cfg.block_bytes,
            self.cfg.assoc,
            self.resident(),
            self.stats.miss_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 128,
            block_bytes: 16,
            assoc: 2,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0, false));
        c.fill(0, LineState::Shared);
        assert!(c.access(0, false));
        assert!(c.access(12, false), "same block");
        assert!(!c.access(16, false), "next block");
        assert_eq!(c.stats.read_misses, 2);
    }

    #[test]
    fn write_needs_modified() {
        let mut c = small();
        c.fill(0, LineState::Shared);
        assert!(!c.access(0, true), "upgrade miss");
        c.fill(0, LineState::Modified);
        assert!(c.access(0, true));
        assert!(c.access(0, false), "reads hit in M");
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small(); // 4 sets × 2 ways, 16B blocks
        let set_stride = 16 * 4; // blocks mapping to the same set
        c.fill(0, LineState::Shared);
        c.fill(set_stride, LineState::Modified);
        // Touch block 0 so set_stride becomes LRU.
        assert!(c.access(0, false));
        let v = c.fill(2 * set_stride, LineState::Shared).expect("eviction");
        assert_eq!(v.block, set_stride);
        assert!(v.dirty);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.fill(32, LineState::Modified);
        assert_eq!(c.invalidate(40), Some(true), "same block, dirty");
        assert_eq!(c.invalidate(32), None, "already gone");
        assert!(!c.access(32, false));
    }

    #[test]
    fn downgrade_keeps_line_shared() {
        let mut c = small();
        c.fill(0, LineState::Modified);
        assert!(c.downgrade(0));
        assert_eq!(c.probe(0), Some(LineState::Shared));
        assert!(!c.downgrade(0), "no longer dirty");
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 64,
            block_bytes: 16,
            assoc: 1,
        });
        // 4 sets; blocks 0 and 64 conflict.
        c.fill(0, LineState::Shared);
        let v = c.fill(64, LineState::Shared).expect("conflict eviction");
        assert_eq!(v.block, 0);
        assert!(!v.dirty);
    }

    #[test]
    fn miss_rate_computation() {
        let mut c = small();
        for i in 0..10 {
            let addr = (i % 2) * 16;
            if !c.access(addr, false) {
                c.fill(addr, LineState::Shared);
            }
        }
        // 2 cold misses out of 10.
        assert!((c.stats.miss_rate() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn chunks_are_created_on_first_fill() {
        let mut c = Cache::new(CacheConfig::default());
        let materialized = |c: &Cache| c.chunks.iter().filter(|k| !k.is_empty()).count();
        assert_eq!((c.chunks.len(), materialized(&c)), (64, 0));
        // Every lookup in an empty chunk is a miss or a no-op.
        assert!(!c.access(0x40, false));
        assert_eq!(c.probe(0x40), None);
        assert_eq!(c.invalidate(0x40), None);
        assert!(!c.downgrade(0x40));
        c.fill(0x40, LineState::Modified);
        assert_eq!(materialized(&c), 1);
        assert!(c.access(0x40, true));
        // Block 0x400 is set 64, the first set of the second chunk.
        assert!(!c.access(0x400, false));
        c.fill(0x400, LineState::Shared);
        assert_eq!((materialized(&c), c.resident()), (2, 2));
        // Invalidation empties a line but keeps its chunk.
        assert_eq!(c.invalidate(0x400), Some(false));
        assert_eq!((materialized(&c), c.resident()), (2, 1));
    }

    #[test]
    fn every_geometry_gives_each_set_its_own_ways() {
        // Direct mapped over many chunks, one set wider than a chunk,
        // a non-power-of-two associativity, and fewer lines than a chunk.
        for (size_bytes, assoc) in [(64 * 1024, 1), (8 * 1024, 128), (192, 3), (128, 2)] {
            let cfg = CacheConfig {
                size_bytes,
                block_bytes: 16,
                assoc,
            };
            let mut c = Cache::new(cfg);
            let sets = cfg.num_sets();
            // Way w of set s holds block (w * sets + s) * 16.
            let block = |s: u32, w: u32| (w * sets + s) * 16;
            for w in 0..assoc {
                for s in 0..sets {
                    assert_eq!(c.fill(block(s, w), LineState::Shared), None, "{cfg:?}");
                }
            }
            assert_eq!(c.resident(), (sets * assoc) as usize, "{cfg:?}");
            for w in 0..assoc {
                for s in 0..sets {
                    assert!(c.access(block(s, w), false), "{cfg:?}");
                }
            }
            // One more block per set evicts that set's LRU way, way 0.
            for s in 0..sets {
                let v = c.fill(block(s, assoc), LineState::Shared);
                assert_eq!(v.map(|v| v.block), Some(block(s, 0)), "{cfg:?}");
            }
        }
    }

    #[test]
    fn default_geometry_matches_table_4() {
        let cfg = CacheConfig::default();
        assert_eq!(cfg.size_bytes, 64 * 1024);
        assert_eq!(cfg.block_bytes, 16);
        assert_eq!(cfg.num_sets(), 4096);
    }
}

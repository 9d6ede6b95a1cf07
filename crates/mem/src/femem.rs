//! Word-addressed memory with full/empty bits.
//!
//! "Words in memory have a 32 bit data field, and have an additional
//! synchronization bit called the full/empty bit" (paper, Section 3).
//! [`FeMemory`] is the backing store used both as the ideal shared
//! memory of the Table 3 experiments (it implements
//! [`MemoryPort`] directly, with zero latency) and as the
//! globally-addressed DRAM of the full ALEWIFE machine.
//!
//! The image is *lazy*: words live in 4 KiB chunks allocated on first
//! touch, so a 1000+-node machine whose program touches a few blocks
//! per node costs resident memory proportional to what it touched, not
//! to the address space (DESIGN.md §14). An unallocated chunk reads as
//! the freshly initialized state — zero words, all bits full — and
//! every read-only operation preserves holes (it never allocates).

use april_core::isa::{LoadFlavor, StoreFlavor};
use april_core::memport::{AccessCtx, LoadReply, MemoryPort, StoreReply};
use april_core::program::Program;
use april_core::word::Word;

/// Words per lazily allocated chunk (4 KiB of data).
pub const CHUNK_WORDS: usize = 1024;

/// One resident 4 KiB piece of the memory image. Full/empty bits are
/// packed (set bit = full); a fresh chunk is all-zero words, all-full
/// bits — exactly what an untouched hole reads as.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct Chunk {
    pub(crate) words: [Word; CHUNK_WORDS],
    pub(crate) fe: [u64; CHUNK_WORDS / 64],
}

impl Chunk {
    pub(crate) fn fresh() -> Box<Chunk> {
        Box::new(Chunk {
            words: [Word::ZERO; CHUNK_WORDS],
            fe: [u64::MAX; CHUNK_WORDS / 64],
        })
    }

    /// Whether the chunk still holds exactly the untouched-hole state.
    /// Snapshot encoding skips such chunks, so the byte stream is a
    /// pure function of memory *content*, independent of which chunks
    /// some scheduler happened to materialize.
    pub(crate) fn is_default(&self) -> bool {
        self.words.iter().all(|w| *w == Word::ZERO) && self.fe.iter().all(|&b| b == u64::MAX)
    }

    #[inline]
    fn fe_bit(&self, w: usize) -> bool {
        self.fe[w / 64] >> (w % 64) & 1 == 1
    }

    #[inline]
    fn set_fe_bit(&mut self, w: usize, full: bool) {
        if full {
            self.fe[w / 64] |= 1 << (w % 64);
        } else {
            self.fe[w / 64] &= !(1 << (w % 64));
        }
    }
}

/// Memory of tagged words, each with a full/empty bit, backed by
/// lazily allocated 4 KiB chunks.
///
/// Addresses are byte addresses; all accesses are word-aligned (the
/// processor traps on misalignment before reaching memory).
///
/// # Examples
///
/// ```
/// use april_mem::femem::FeMemory;
/// use april_core::word::Word;
///
/// let mut m = FeMemory::new(1024);
/// m.write(0x10, Word::fixnum(5));
/// m.set_fe(0x10, false); // mark empty
/// assert_eq!(m.read(0x10), Word::fixnum(5));
/// assert!(!m.fe(0x10));
/// ```
#[derive(Clone)]
pub struct FeMemory {
    pub(crate) len_words: usize,
    pub(crate) chunks: Vec<Option<Box<Chunk>>>,
}

impl std::fmt::Debug for FeMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeMemory")
            .field("len_bytes", &(self.len_words * 4))
            .field("resident_chunks", &self.chunks.iter().flatten().count())
            .finish()
    }
}

impl FeMemory {
    /// Creates a zeroed memory of `bytes` bytes (rounded up to a whole
    /// word). All words start *full*, matching a freshly initialized
    /// machine; synchronization structures are explicitly emptied. No
    /// chunk is resident until written.
    pub fn new(bytes: usize) -> FeMemory {
        let n = bytes.div_ceil(4);
        FeMemory {
            len_words: n,
            chunks: vec![None; n.div_ceil(CHUNK_WORDS)],
        }
    }

    /// Memory size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.len_words * 4
    }

    /// Bytes resident in materialized chunks — the scale bench's
    /// memory-footprint metric. Untouched holes cost nothing.
    pub fn resident_bytes(&self) -> usize {
        self.chunks.iter().flatten().count() * std::mem::size_of::<Chunk>()
    }

    #[inline]
    fn index(&self, addr: u32) -> usize {
        debug_assert_eq!(addr & 3, 0, "unaligned access reached memory: {addr:#x}");
        let i = (addr >> 2) as usize;
        assert!(i < self.len_words, "address {addr:#x} out of memory bounds");
        i
    }

    /// The chunk containing word `i`, materializing it on first touch.
    #[inline]
    fn chunk_mut(&mut self, i: usize) -> (&mut Chunk, usize) {
        let slot = &mut self.chunks[i / CHUNK_WORDS];
        (slot.get_or_insert_with(Chunk::fresh), i % CHUNK_WORDS)
    }

    /// Reads the word at `addr`. Never allocates: holes read as zero.
    pub fn read(&self, addr: u32) -> Word {
        let i = self.index(addr);
        match &self.chunks[i / CHUNK_WORDS] {
            Some(c) => c.words[i % CHUNK_WORDS],
            None => Word::ZERO,
        }
    }

    /// Writes the word at `addr` (does not touch the full/empty bit).
    pub fn write(&mut self, addr: u32, w: Word) {
        let i = self.index(addr);
        let (c, k) = self.chunk_mut(i);
        c.words[k] = w;
    }

    /// Reads the full/empty bit at `addr`. Never allocates: holes read
    /// as full.
    pub fn fe(&self, addr: u32) -> bool {
        let i = self.index(addr);
        match &self.chunks[i / CHUNK_WORDS] {
            Some(c) => c.fe_bit(i % CHUNK_WORDS),
            None => true,
        }
    }

    /// Sets the full/empty bit at `addr`.
    pub fn set_fe(&mut self, addr: u32, full: bool) {
        let i = self.index(addr);
        let (c, k) = self.chunk_mut(i);
        c.set_fe_bit(k, full);
    }

    /// The word and full/empty bit at `addr` as one snapshot.
    pub fn word_state(&self, addr: u32) -> (Word, bool) {
        let i = self.index(addr);
        match &self.chunks[i / CHUNK_WORDS] {
            Some(c) => (c.words[i % CHUNK_WORDS], c.fe_bit(i % CHUNK_WORDS)),
            None => (Word::ZERO, true),
        }
    }

    /// Overwrites both the word and the full/empty bit at `addr` (the
    /// open-loop ingress write).
    pub fn set_word_state(&mut self, addr: u32, w: Word, full: bool) {
        let i = self.index(addr);
        let (c, k) = self.chunk_mut(i);
        c.words[k] = w;
        c.set_fe_bit(k, full);
    }

    /// Loads a program's static data image.
    pub fn load_image(&mut self, prog: &Program) {
        for (k, &(w, full)) in prog.static_data.iter().enumerate() {
            let addr = prog.static_base + 4 * k as u32;
            self.write(addr, w);
            self.set_fe(addr, full);
        }
    }

    /// Applies a load with full/empty-bit semantics at zero latency,
    /// returning `None` if the flavor demands an empty-location trap.
    /// Only a flavor that consumes the bit materializes a chunk.
    pub fn apply_load(&mut self, addr: u32, flavor: LoadFlavor) -> Option<(Word, bool)> {
        let i = self.index(addr);
        let (word, fe) = match &self.chunks[i / CHUNK_WORDS] {
            Some(c) => (c.words[i % CHUNK_WORDS], c.fe_bit(i % CHUNK_WORDS)),
            None => (Word::ZERO, true),
        };
        if flavor.fe_trap && !fe {
            return None;
        }
        if flavor.reset_fe {
            let (c, k) = self.chunk_mut(i);
            c.set_fe_bit(k, false);
        }
        Some((word, fe))
    }

    /// Applies a store with full/empty-bit semantics, returning `None`
    /// if the flavor demands a full-location trap. A trapped store
    /// does not materialize a chunk.
    pub fn apply_store(&mut self, addr: u32, value: Word, flavor: StoreFlavor) -> Option<bool> {
        let i = self.index(addr);
        let fe = match &self.chunks[i / CHUNK_WORDS] {
            Some(c) => c.fe_bit(i % CHUNK_WORDS),
            None => true,
        };
        if flavor.fe_trap && fe {
            return None;
        }
        let (c, k) = self.chunk_mut(i);
        c.words[k] = value;
        if flavor.set_fe {
            c.set_fe_bit(k, true);
        }
        Some(fe)
    }
}

/// The ideal memory port: every access hits with zero latency. This is
/// the configuration the paper used for Table 3 ("the processor
/// simulator without the cache and network simulators, in effect
/// simulating a shared-memory machine with no memory latency").
impl MemoryPort for FeMemory {
    fn load(&mut self, addr: u32, flavor: LoadFlavor, _ctx: AccessCtx) -> LoadReply {
        match self.apply_load(addr, flavor) {
            Some((word, fe)) => LoadReply::Data { word, fe },
            None => LoadReply::FeViolation,
        }
    }

    fn store(
        &mut self,
        addr: u32,
        value: Word,
        flavor: StoreFlavor,
        _ctx: AccessCtx,
    ) -> StoreReply {
        match self.apply_store(addr, value, flavor) {
            Some(fe) => StoreReply::Done { fe },
            None => StoreReply::FeViolation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut m = FeMemory::new(256);
        m.write(0, Word::fixnum(1));
        m.write(252, Word::cons_ptr(8));
        assert_eq!(m.read(0), Word::fixnum(1));
        assert_eq!(m.read(252), Word::cons_ptr(8));
    }

    #[test]
    fn words_start_full() {
        let m = FeMemory::new(64);
        assert!(m.fe(0));
        assert!(m.fe(60));
    }

    #[test]
    #[should_panic(expected = "out of memory bounds")]
    fn out_of_bounds_panics() {
        let m = FeMemory::new(64);
        let _ = m.read(64);
    }

    #[test]
    fn trapping_load_on_empty_returns_none() {
        let mut m = FeMemory::new(64);
        m.set_fe(8, false);
        let f = LoadFlavor::from_mnemonic("ldtw").unwrap();
        assert_eq!(m.apply_load(8, f), None);
        // Non-trapping load reports the bit instead.
        let n = LoadFlavor::from_mnemonic("ldnw").unwrap();
        assert_eq!(m.apply_load(8, n), Some((Word::ZERO, false)));
    }

    #[test]
    fn reset_load_takes_the_word() {
        let mut m = FeMemory::new(64);
        m.write(8, Word::fixnum(7));
        let f = LoadFlavor::from_mnemonic("ldett").unwrap();
        // First take succeeds and empties.
        assert_eq!(m.apply_load(8, f), Some((Word::fixnum(7), true)));
        assert!(!m.fe(8));
        // Second take traps: mutual exclusion via full/empty bit.
        assert_eq!(m.apply_load(8, f), None);
    }

    #[test]
    fn setting_store_fills_and_traps_when_full() {
        let mut m = FeMemory::new(64);
        m.set_fe(8, false);
        let f = StoreFlavor::from_mnemonic("stftt").unwrap();
        assert_eq!(m.apply_store(8, Word::fixnum(3), f), Some(false));
        assert!(m.fe(8));
        // Producing into a full slot traps.
        assert_eq!(m.apply_store(8, Word::fixnum(4), f), None);
        assert_eq!(m.read(8), Word::fixnum(3), "trapped store must not write");
    }

    #[test]
    fn plain_store_ignores_fe() {
        let mut m = FeMemory::new(64);
        assert_eq!(
            m.apply_store(8, Word::fixnum(3), StoreFlavor::NORMAL),
            Some(true)
        );
        assert!(m.fe(8), "plain store leaves the bit alone");
    }

    #[test]
    fn load_image_places_static_data() {
        let prog = Program {
            static_base: 0x20,
            static_data: vec![(Word::fixnum(1), true), (Word::fixnum(2), false)],
            ..Program::default()
        };
        let mut m = FeMemory::new(256);
        m.load_image(&prog);
        assert_eq!(m.read(0x20), Word::fixnum(1));
        assert!(!m.fe(0x24));
    }

    #[test]
    fn untouched_chunks_stay_holes() {
        let mut m = FeMemory::new(64 * 1024);
        assert_eq!(m.resident_bytes(), 0);
        // Reads, bit probes, trapped stores, and plain loads never
        // materialize a chunk.
        assert_eq!(m.read(0x8000), Word::ZERO);
        assert!(m.fe(0x8000));
        assert_eq!(m.word_state(0x8000), (Word::ZERO, true));
        let f = StoreFlavor::from_mnemonic("stftt").unwrap();
        assert_eq!(m.apply_store(0x8000, Word::fixnum(1), f), None);
        let ld = LoadFlavor::from_mnemonic("ldnw").unwrap();
        assert_eq!(m.apply_load(0x8000, ld), Some((Word::ZERO, true)));
        assert_eq!(m.resident_bytes(), 0);
        // One write materializes exactly one chunk.
        m.write(0x8000, Word::fixnum(9));
        assert_eq!(m.resident_bytes(), std::mem::size_of::<Chunk>());
        assert_eq!(m.read(0x8000), Word::fixnum(9));
        // A consuming load on a hole materializes (it flips the bit).
        let take = LoadFlavor::from_mnemonic("ldett").unwrap();
        assert_eq!(m.apply_load(0x1000, take), Some((Word::ZERO, true)));
        assert!(!m.fe(0x1000));
    }

    #[test]
    fn last_partial_chunk_is_addressable() {
        let mut m = FeMemory::new(4100); // 1025 words: one full + 1-word chunk
        m.write(4096, Word::fixnum(5));
        assert_eq!(m.read(4096), Word::fixnum(5));
        assert_eq!(m.len_bytes(), 4100);
    }
}

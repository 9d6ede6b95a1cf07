//! The processor's memory port.
//!
//! The CPU issues loads and stores through the [`MemoryPort`] trait;
//! the reply tells it whether to complete the instruction, stall
//! (the controller "can suspend processor execution using the MHOLD
//! line", Section 5), or trap. Different machines plug in different
//! ports: the ideal shared memory used for Table 3, or the full
//! ALEWIFE cache + directory + network stack.

use crate::isa::{LoadFlavor, StoreFlavor};
use crate::word::Word;

/// Reply to a load request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadReply {
    /// The load completed. `fe` reports the full/empty state of the
    /// word *before* any reset option was applied; non-trapping loads
    /// latch it into the PSR condition bit.
    Data {
        /// Loaded word.
        word: Word,
        /// Full/empty bit state observed.
        fe: bool,
    },
    /// Processor held for `cycles` (local miss or controller busy);
    /// the instruction completes after the stall and must be reissued.
    Stall {
        /// Hold duration in cycles.
        cycles: u64,
    },
    /// Remote miss: the controller starts a network transaction and
    /// traps the processor (flavors with `miss_wait` hold instead,
    /// reported as a long `Stall`).
    RemoteMiss,
    /// Full/empty violation with a trapping flavor.
    FeViolation,
}

/// Reply to a store request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreReply {
    /// The store completed; `fe` is the prior full/empty state.
    Done {
        /// Full/empty bit state observed before the store.
        fe: bool,
    },
    /// Processor held for `cycles`, then reissue.
    Stall {
        /// Hold duration in cycles.
        cycles: u64,
    },
    /// Remote miss, processor traps.
    RemoteMiss,
    /// Full/empty violation with a trapping flavor.
    FeViolation,
}

/// Identifies the requesting hardware context, so the controller can
/// wake the right task frame when a remote transaction completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessCtx {
    /// Task frame index of the issuing thread.
    pub frame: usize,
}

/// Memory as seen by one APRIL processor.
///
/// Implementations must be deterministic: the cycle-level results of a
/// simulation are part of this crate's contract. A `&mut M` where
/// `M: MemoryPort` also implements the trait, so ports can be passed
/// by reference.
pub trait MemoryPort {
    /// Issues a load of the word at byte address `addr` (word-aligned).
    fn load(&mut self, addr: u32, flavor: LoadFlavor, ctx: AccessCtx) -> LoadReply;

    /// Issues a store of `value` to byte address `addr` (word-aligned).
    fn store(&mut self, addr: u32, value: Word, flavor: StoreFlavor, ctx: AccessCtx) -> StoreReply;

    /// Flushes the cache line containing `addr` (out-of-band FLUSH,
    /// Section 3.4). No-op on uncached ports. Returns the number of
    /// write-backs initiated (fence counter increments).
    fn flush(&mut self, _addr: u32) -> u32 {
        0
    }

    /// Current fence counter: outstanding flushed write-backs not yet
    /// acknowledged by memory. The FENCE instruction stalls until zero.
    fn fence_count(&self) -> u32 {
        0
    }

    /// Reads a memory-mapped I/O register (LDIO).
    fn ldio(&mut self, _reg: u16) -> Word {
        Word::ZERO
    }

    /// Writes a memory-mapped I/O register (STIO).
    fn stio(&mut self, _reg: u16, _value: Word) {}
}

impl<M: MemoryPort + ?Sized> MemoryPort for &mut M {
    fn load(&mut self, addr: u32, flavor: LoadFlavor, ctx: AccessCtx) -> LoadReply {
        (**self).load(addr, flavor, ctx)
    }
    fn store(&mut self, addr: u32, value: Word, flavor: StoreFlavor, ctx: AccessCtx) -> StoreReply {
        (**self).store(addr, value, flavor, ctx)
    }
    fn flush(&mut self, addr: u32) -> u32 {
        (**self).flush(addr)
    }
    fn fence_count(&self) -> u32 {
        (**self).fence_count()
    }
    fn ldio(&mut self, reg: u16) -> Word {
        (**self).ldio(reg)
    }
    fn stio(&mut self, reg: u16, value: Word) {
        (**self).stio(reg, value)
    }
}

/// What a booked run asks of memory (DESIGN.md §13): the values its
/// loads read and the full/empty bits its stores find, for accesses
/// that complete this cycle with no trap, stall or message. `k` is the
/// op's index in the run, so the op executes at the run's start cycle
/// plus `k`. Returning `None` ends the run before the op, which
/// [`Cpu::step`](crate::cpu::Cpu::step) then executes through a
/// [`MemoryPort`].
pub trait RunMemory {
    /// The word and full/empty bit a `flavor` load of `addr` reads, or
    /// `None` if the load would miss, stall or trap.
    fn load(&mut self, k: u32, addr: u32, flavor: LoadFlavor) -> Option<(Word, bool)>;

    /// The full/empty bit a `flavor` store of `value` to `addr` finds,
    /// or `None` if the store would miss, stall or trap.
    fn store(&mut self, k: u32, addr: u32, value: Word, flavor: StoreFlavor) -> Option<bool>;
}

/// The memory of a register-only run: every access ends the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMemory;

impl RunMemory for NoMemory {
    #[inline(always)]
    fn load(&mut self, _: u32, _: u32, _: LoadFlavor) -> Option<(Word, bool)> {
        None
    }

    #[inline(always)]
    fn store(&mut self, _: u32, _: u32, _: Word, _: StoreFlavor) -> Option<bool> {
        None
    }
}

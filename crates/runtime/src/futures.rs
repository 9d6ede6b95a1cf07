//! Future bookkeeping.
//!
//! A future is a two-word heap record whose first word is the value
//! slot; its full/empty bit *is* the resolution state (empty =
//! unresolved), so the hardware full/empty machinery provides the
//! fine-grain locking the paper's lazy task creation relies on
//! (Section 3.2). The wait queue and the stealable-thunk descriptor
//! are run-time metadata kept here.

use crate::thread::ThreadId;
use april_core::word::Word;
use std::collections::HashMap;

/// Byte size of a future record (value slot + metadata word).
pub const FUTURE_BYTES: u32 = 8;

/// A stealable lazy task descriptor: evaluate `closure`, determine the
/// future with the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LazyThunk {
    /// The thunk closure (an `other`-tagged pointer).
    pub closure: Word,
    /// The node whose lazy queue holds the descriptor.
    pub owner: usize,
}

/// Run-time metadata for one future.
#[derive(Debug, Clone, Default)]
pub struct FutureInfo {
    /// Threads blocked waiting for resolution.
    pub waiters: Vec<ThreadId>,
    /// Unstolen lazy thunk, if this is a lazy future still in a queue.
    pub lazy: Option<LazyThunk>,
}

/// All live futures' metadata, keyed by the future record's address.
#[derive(Debug, Clone, Default)]
pub struct FutureTable {
    pub(crate) map: HashMap<u32, FutureInfo>,
}

impl FutureTable {
    /// Creates an empty table.
    pub fn new() -> FutureTable {
        FutureTable::default()
    }

    /// Registers a freshly allocated future.
    pub fn create(&mut self, addr: u32) {
        let prev = self.map.insert(addr, FutureInfo::default());
        debug_assert!(
            prev.is_none(),
            "future address reused while live: {addr:#x}"
        );
    }

    /// Attaches a lazy thunk descriptor.
    pub fn set_lazy(&mut self, addr: u32, thunk: LazyThunk) {
        self.map.entry(addr).or_default().lazy = Some(thunk);
    }

    /// Claims the lazy thunk (by the owner inlining it or a thief
    /// stealing it); subsequent claims get `None` — this is the race
    /// the full/empty bit resolves in the real system.
    pub fn take_lazy(&mut self, addr: u32) -> Option<LazyThunk> {
        self.map.get_mut(&addr).and_then(|i| i.lazy.take())
    }

    /// True if the future still has an unstolen thunk.
    pub fn has_lazy(&self, addr: u32) -> bool {
        self.map.get(&addr).is_some_and(|i| i.lazy.is_some())
    }

    /// Queues `t` on the future's wait list.
    pub fn add_waiter(&mut self, addr: u32, t: ThreadId) {
        self.map.entry(addr).or_default().waiters.push(t);
    }

    /// Resolves the future's metadata, returning the waiters to wake
    /// and removing the entry.
    pub fn resolve(&mut self, addr: u32) -> Vec<ThreadId> {
        self.map
            .remove(&addr)
            .map(|i| i.waiters)
            .unwrap_or_default()
    }

    /// Number of live (unresolved) futures.
    pub fn live(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_thunk_claimed_exactly_once() {
        let mut t = FutureTable::new();
        t.create(0x100);
        t.set_lazy(
            0x100,
            LazyThunk {
                closure: Word::other_ptr(0x200),
                owner: 1,
            },
        );
        assert!(t.has_lazy(0x100));
        assert!(t.take_lazy(0x100).is_some());
        assert!(t.take_lazy(0x100).is_none(), "second claim loses the race");
    }

    #[test]
    fn resolve_returns_and_clears_waiters() {
        let mut t = FutureTable::new();
        t.create(0x80);
        t.add_waiter(0x80, ThreadId(1));
        t.add_waiter(0x80, ThreadId(2));
        assert_eq!(t.resolve(0x80), vec![ThreadId(1), ThreadId(2)]);
        assert_eq!(t.resolve(0x80), Vec::<ThreadId>::new());
        assert_eq!(t.live(), 0);
    }
}

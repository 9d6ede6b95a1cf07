//! Per-node memory layout.
//!
//! The global address space is region-partitioned: node `i` owns
//! `[i·R, (i+1)·R)`. Within its region each node keeps a heap (bump
//! allocated, refilled chunk-wise into the processor's `g5`/`g6`
//! allocation registers) and a pool of thread stacks. Node 0's first
//! page is reserved for the data singletons (`'()`, `#t`, `#f`) and
//! the program's static image.

use crate::abi;
use crate::config::RtConfig;
use crate::runtime::{Pool, RunError};
use april_core::word::Word;
use april_mem::alloc::BumpAllocator;
use april_mem::femem::FeMemory;

/// Bytes reserved at the bottom of node 0's region for singletons and
/// static data.
pub const RESERVED_BYTES: u32 = 64 * 1024;

/// Allocation state for one node's region.
#[derive(Debug, Clone)]
pub struct NodeLayout {
    /// Heap chunks come from here.
    pub heap: BumpAllocator,
    /// Stack segments come from here.
    pub(crate) stacks: BumpAllocator,
    pub(crate) free_stacks: Vec<u32>,
    pub(crate) stack_bytes: u32,
    /// The node whose region this is, named when a pool runs dry.
    node: usize,
}

/// Size of the heap chunk installed into `g5`/`g6` at a time.
pub const HEAP_CHUNK_BYTES: u32 = 64 * 1024;

impl NodeLayout {
    /// Lays out node `i`'s region per `cfg`.
    pub fn new(node: usize, cfg: &RtConfig) -> NodeLayout {
        let base = node as u32 * cfg.region_bytes;
        let end = base + cfg.region_bytes;
        let heap_base = if node == 0 {
            base + RESERVED_BYTES
        } else {
            base
        };
        // Half heap, half stacks: eager fine-grain programs hold a
        // stack per live task, so the pool must be deep.
        let stack_base = base + cfg.region_bytes / 2;
        NodeLayout {
            heap: BumpAllocator::new(heap_base, stack_base),
            stacks: BumpAllocator::new(stack_base, end),
            free_stacks: Vec::new(),
            stack_bytes: cfg.stack_bytes,
            node,
        }
    }

    fn exhausted(&self, pool: Pool) -> RunError {
        RunError::Exhausted {
            pool,
            node: self.node,
        }
    }

    /// Allocates a heap chunk for the processor's inline allocator,
    /// returning `(g5, g6)` = (pointer, limit).
    ///
    /// # Errors
    ///
    /// [`RunError::Exhausted`] when the node heap is empty (simulated
    /// OOM).
    pub fn heap_chunk(&mut self) -> Result<(u32, u32), RunError> {
        let chunk = HEAP_CHUNK_BYTES.min(self.heap.remaining());
        match self.heap.alloc(chunk, 8) {
            Ok(base) if chunk > 0 => Ok((base, base + chunk)),
            _ => Err(self.exhausted(Pool::Heap)),
        }
    }

    /// Allocates a small runtime object (future records etc.) directly.
    ///
    /// # Errors
    ///
    /// [`RunError::Exhausted`] on simulated OOM.
    pub fn alloc(&mut self, bytes: u32) -> Result<u32, RunError> {
        self.heap
            .alloc(bytes, 8)
            .map_err(|_| self.exhausted(Pool::Heap))
    }

    /// Takes a stack segment (recycled if available), returning its
    /// base address.
    ///
    /// # Errors
    ///
    /// [`RunError::Exhausted`] when the stack pool is.
    pub fn take_stack(&mut self) -> Result<u32, RunError> {
        if let Some(s) = self.free_stacks.pop() {
            return Ok(s);
        }
        self.stacks
            .alloc(self.stack_bytes, 8)
            .map_err(|_| self.exhausted(Pool::Stacks))
    }

    /// Returns a stack segment to the pool.
    pub fn release_stack(&mut self, base: u32) {
        self.free_stacks.push(base);
    }
}

/// Writes the data-representation singletons into node 0's reserved
/// page (they are `other`-tagged records whose first word names the
/// type, so `(null? x)` style checks can also inspect memory).
pub fn init_singletons(mem: &mut FeMemory) {
    mem.write(abi::NIL_ADDR, Word::fixnum(-1));
    mem.write(abi::TRUE_ADDR, Word::fixnum(-2));
    mem.write(abi::FALSE_ADDR, Word::fixnum(-3));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RtConfig {
        RtConfig {
            region_bytes: 1 << 20,
            stack_bytes: 4096,
            ..RtConfig::default()
        }
    }

    #[test]
    fn node0_heap_skips_reserved_page() {
        let l = NodeLayout::new(0, &cfg());
        assert!(l.heap.base() >= RESERVED_BYTES);
        let l1 = NodeLayout::new(1, &cfg());
        assert_eq!(l1.heap.base(), 1 << 20);
    }

    #[test]
    fn heap_chunks_are_disjoint() {
        let mut l = NodeLayout::new(1, &cfg());
        let (a0, a1) = l.heap_chunk().unwrap();
        let (b0, _b1) = l.heap_chunk().unwrap();
        assert!(a1 <= b0);
        assert_eq!(a1 - a0, HEAP_CHUNK_BYTES);
    }

    #[test]
    fn stacks_recycle() {
        let mut l = NodeLayout::new(0, &cfg());
        let s1 = l.take_stack().unwrap();
        let s2 = l.take_stack().unwrap();
        assert_ne!(s1, s2);
        l.release_stack(s1);
        assert_eq!(l.take_stack(), Ok(s1));
    }

    #[test]
    fn drained_pools_name_themselves_and_the_node() {
        let mut l = NodeLayout::new(3, &cfg());
        // Half of a 1 MiB region is stacks: 128 of 4 KiB.
        for _ in 0..128 {
            l.take_stack().unwrap();
        }
        let stacks = RunError::Exhausted {
            pool: Pool::Stacks,
            node: 3,
        };
        assert_eq!(l.take_stack(), Err(stacks));
        // The other half is heap: eight 64 KiB chunks.
        for _ in 0..8 {
            l.heap_chunk().unwrap();
        }
        let heap = RunError::Exhausted {
            pool: Pool::Heap,
            node: 3,
        };
        assert_eq!(l.heap_chunk(), Err(heap.clone()));
        assert_eq!(l.alloc(8), Err(heap));
    }

    #[test]
    fn singletons_written() {
        let mut mem = FeMemory::new(4096);
        init_singletons(&mut mem);
        assert_eq!(mem.read(abi::NIL_ADDR), Word::fixnum(-1));
        assert_eq!(mem.read(abi::FALSE_ADDR), Word::fixnum(-3));
    }
}

//! Virtual threads.
//!
//! "Threads in ALEWIFE are virtual. Only a small subset of all threads
//! can be physically resident on the processors; these threads are
//! called loaded threads. The remaining threads are referred to as
//! unloaded threads and live on various queues in memory, waiting
//! their turn to be loaded" (paper, Section 3).

use april_core::frame::{FREGS_PER_FRAME, REGS_PER_FRAME};
use april_core::psr::Psr;
use april_core::word::Word;

/// Identifies a virtual thread for the lifetime of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ThreadId(pub u32);

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Where a thread currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThreadState {
    /// On some node's ready queue, waiting to be loaded.
    #[default]
    Ready,
    /// Resident in a hardware task frame.
    Loaded {
        /// Node index.
        node: usize,
        /// Task frame index.
        frame: usize,
    },
    /// Unloaded, waiting for a future to resolve.
    Blocked {
        /// The future's byte address.
        future: u32,
    },
    /// Finished.
    Exited,
}

/// A saved register image for nested inline (lazy) thunk evaluation:
/// the touch handler pushes the interrupted frame here and redirects
/// the thread into the thunk; `RT_RESUME` pops it.
#[derive(Debug, Clone, Default)]
pub struct SavedFrame {
    /// General registers.
    pub regs: [Word; REGS_PER_FRAME],
    /// Floating-point registers.
    pub fregs: [u32; FREGS_PER_FRAME],
    /// Program counter at the touching instruction (retried on resume).
    pub pc: u32,
    /// Next program counter.
    pub npc: u32,
    /// Processor state register.
    pub psr: Psr,
}

/// A virtual thread: saved processor state plus scheduling metadata.
#[derive(Debug, Clone, Default)]
pub struct Thread {
    /// Identity.
    pub id: ThreadId,
    /// Saved general registers (valid while not loaded).
    pub regs: [Word; REGS_PER_FRAME],
    /// Saved floating-point registers.
    pub fregs: [u32; FREGS_PER_FRAME],
    /// Saved PC.
    pub pc: u32,
    /// Saved nPC.
    pub npc: u32,
    /// Saved PSR.
    pub psr: Psr,
    /// Current state.
    pub state: ThreadState,
    /// The node this thread last ran on (locality preference).
    pub home: usize,
    /// Stack segment base (0 until first load).
    pub stack_base: u32,
    /// Saved-frame stack for nested inline evaluations.
    pub shadow: Vec<SavedFrame>,
    /// True if the thread has run at least once (its registers are a
    /// full image rather than just arguments).
    pub started: bool,
}

impl Thread {
    /// Creates a fresh thread that will start at `pc` on (preferably)
    /// node `home`. Registers start zeroed; the spawner fills argument
    /// registers before enqueueing.
    pub fn fresh(id: ThreadId, pc: u32, home: usize) -> Thread {
        Thread {
            id,
            regs: [Word::ZERO; REGS_PER_FRAME],
            fregs: [0; FREGS_PER_FRAME],
            pc,
            npc: pc + 1,
            psr: Psr::user(),
            state: ThreadState::Ready,
            home,
            stack_base: 0,
            shadow: Vec::new(),
            started: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_thread_is_ready_at_entry() {
        let t = Thread::fresh(ThreadId(3), 100, 2);
        assert_eq!(t.state, ThreadState::Ready);
        assert_eq!(t.pc, 100);
        assert_eq!(t.npc, 101);
        assert_eq!(t.home, 2);
        assert!(!t.started);
        assert!(t.shadow.is_empty());
    }

    #[test]
    fn thread_id_display() {
        assert_eq!(ThreadId(7).to_string(), "t7");
    }
}

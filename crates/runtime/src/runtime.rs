//! The APRIL run-time system.
//!
//! "Since a large portion of the support for multithreading,
//! synchronization and futures is provided in software through traps
//! and run-time routines, trap handling must be fast" (paper, Section
//! 6). This module is that software system: it drives a
//! [`Machine`] cycle by cycle and services every event the processor
//! reports — remote-miss context switches, full/empty synchronization
//! faults, future touches, and the run-time calls compiled code makes
//! for task creation and scheduling.
//!
//! Handler *policies* and cycle costs follow the paper (11-cycle
//! SPARC context switch, 23-cycle resolved future touch); handler
//! bodies execute at host level with those costs charged to the
//! processor's cycle ledger, a substitution documented in DESIGN.md.

use crate::abi;
use crate::config::{FePolicy, RtConfig, TouchPolicy};
use crate::futures::{FutureTable, LazyThunk, FUTURE_BYTES};
use crate::layout::{init_singletons, NodeLayout};
use crate::sched::{SchedStats, Scheduler};
use crate::thread::{SavedFrame, Thread, ThreadId, ThreadState};
use april_core::cpu::StepEvent;
use april_core::frame::FrameState;
use april_core::isa::Reg;
use april_core::stats::CpuStats;
use april_core::trap::Trap;
use april_core::word::Word;
use april_machine::Machine;
use april_obs::{lane, Component, EventKind, Probe, Section, StatsReport, Trace, TraceConfig};

/// The outcome of a completed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The root thread's result (`r1` at `RT_MAIN_DONE`).
    pub value: Word,
    /// Total elapsed cycles.
    pub cycles: u64,
    /// Merged processor ledger.
    pub total: CpuStats,
    /// Per-processor ledgers.
    pub per_cpu: Vec<CpuStats>,
    /// Scheduler counters.
    pub sched: SchedStats,
    /// Values printed via `RT_PRINT`, in order.
    pub prints: Vec<Word>,
}

/// The run-time system wrapped around a machine.
///
/// # Examples
///
/// See the crate-level documentation and `tests/` for complete
/// programs; the shape is:
///
/// ```no_run
/// # use april_runtime::runtime::Runtime;
/// # use april_runtime::config::RtConfig;
/// # use april_machine::IdealMachine;
/// # let prog = april_core::program::Program::default();
/// let machine = IdealMachine::new(4, 1 << 22, prog);
/// let mut rt = Runtime::new(machine, RtConfig::default());
/// let result = rt.run().expect("program completes");
/// println!("result = {}", result.value);
/// ```
#[derive(Debug)]
pub struct Runtime<M: Machine> {
    pub(crate) machine: M,
    pub(crate) cfg: RtConfig,
    pub(crate) threads: Vec<Thread>,
    pub(crate) sched: Scheduler,
    pub(crate) futures: FutureTable,
    pub(crate) layouts: Vec<NodeLayout>,
    /// Which thread occupies each (node, frame).
    pub(crate) loaded: Vec<Vec<Option<ThreadId>>>,
    pub(crate) result: Option<Word>,
    pub(crate) prints: Vec<Word>,
    pub(crate) task_entry: u32,
    pub(crate) inline_entry: Option<u32>,
    pub(crate) booted: bool,
    /// Consecutive full/empty faults per (node, frame) on one address,
    /// for the `BlockAfterSpins` policy.
    pub(crate) fe_spins: std::collections::HashMap<(usize, usize), (u32, u32)>,
    /// Threads unloaded waiting for a word's full/empty state to
    /// change: (thread, address, wants_empty).
    pub(crate) fe_waiters: Vec<(ThreadId, u32, bool)>,
    /// Scheduler-lane event recorder (thread spawn/block/resume, lazy
    /// task creation). Inert until [`Runtime::attach_tracer`].
    pub(crate) probe: Probe,
}

/// Run failure: the simulated program misbehaved or hung.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// No instruction retired for a long interval with no result.
    Deadlock {
        /// Cycle at which the hang was detected.
        at: u64,
        /// Threads blocked on futures.
        blocked: usize,
        /// Threads in ready queues.
        ready: usize,
    },
    /// The cycle fuse was exceeded.
    CycleLimit(u64),
    /// A simulated program fault (alignment, divide by zero).
    Fault {
        /// The trap.
        what: String,
        /// Faulting node.
        node: usize,
        /// Program counter.
        pc: u32,
    },
    /// The machine itself failed: a protocol engine reported a fatal
    /// error or the forward-progress watchdog fired. Carries the full
    /// structured post-mortem.
    MachineFault(Box<april_machine::MachineFault>),
    /// A node's run-time memory pool ran dry (simulated OOM: heaps are
    /// bump-allocated and never collected).
    Exhausted {
        /// The pool.
        pool: Pool,
        /// The node whose region it is.
        node: usize,
    },
}

/// A per-node run-time memory pool (see [`crate::layout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// The heap: allocation chunks and future records.
    Heap,
    /// The thread stacks.
    Stacks,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadlock { at, blocked, ready } => {
                write!(
                    f,
                    "deadlock at cycle {at}: {blocked} blocked, {ready} ready"
                )
            }
            RunError::CycleLimit(n) => write!(f, "exceeded cycle limit {n}"),
            RunError::Fault { what, node, pc } => {
                write!(f, "fault on node {node} at pc {pc}: {what}")
            }
            RunError::MachineFault(fault) => write!(f, "machine fault: {fault}"),
            RunError::Exhausted { pool, node } => write!(f, "node {node}: {pool:?} exhausted"),
        }
    }
}

impl std::error::Error for RunError {}

impl<M: Machine> Runtime<M> {
    /// Wraps `machine` with a run-time system configured by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the machine's memory is smaller than
    /// `num_procs × cfg.region_bytes`.
    pub fn new(machine: M, cfg: RtConfig) -> Runtime<M> {
        let n = machine.num_procs();
        assert!(
            machine.mem().len_bytes() >= n * cfg.region_bytes as usize,
            "machine memory too small for {n} regions of {} bytes",
            cfg.region_bytes
        );
        let task_entry = machine.program().label(abi::TASK_ENTRY_LABEL).unwrap_or(0);
        let inline_entry = machine.program().label(abi::INLINE_ENTRY_LABEL);
        let nframes = machine.cpu(0).nframes();
        Runtime {
            layouts: (0..n).map(|i| NodeLayout::new(i, &cfg)).collect(),
            loaded: vec![vec![None; nframes]; n],
            machine,
            cfg,
            threads: Vec::new(),
            sched: Scheduler::new(n),
            futures: FutureTable::new(),
            result: None,
            prints: Vec::new(),
            task_entry,
            inline_entry,
            booted: false,
            fe_spins: std::collections::HashMap::new(),
            fe_waiters: Vec::new(),
            probe: Probe::default(),
        }
    }

    /// The wrapped machine (for inspection).
    pub fn machine(&self) -> &M {
        &self.machine
    }

    /// Installs live event probes on the machine's components and on
    /// the run-time scheduler itself. Call before [`Runtime::run`].
    pub fn attach_tracer(&mut self, cfg: TraceConfig) {
        self.machine.attach_tracer(cfg);
        self.probe = Probe::new(lane(Component::Runtime, 0), cfg);
    }

    /// Merges the machine's trace with the scheduler lane into one
    /// canonically ordered [`Trace`].
    pub fn collect_trace(&self) -> Trace {
        let mut t = self.machine.collect_trace();
        t.push_probe(&self.probe);
        t.sort();
        t
    }

    /// The machine's [`StatsReport`] extended with a `sched` section
    /// of run-time scheduler counters.
    pub fn stats_report(&self) -> StatsReport {
        let mut report = self.machine.stats_report();
        let st = self.sched.stats;
        let mut s = Section::new("sched");
        s.counter("threads_created", st.threads_created)
            .counter("lazy_created", st.lazy_created)
            .counter("inline_evals", st.inline_evals)
            .counter("lazy_steals", st.lazy_steals)
            .counter("ready_steals", st.ready_steals)
            .counter("blocks", st.blocks)
            .counter("wakes", st.wakes)
            .counter("loads", st.loads)
            .counter("unloads", st.unloads);
        report.push(s);
        report
    }

    /// Scheduler statistics so far.
    pub fn sched_stats(&self) -> SchedStats {
        self.sched.stats
    }

    /// Initializes memory (singletons, heap registers) and loads the
    /// root thread at the program entry on node 0.
    ///
    /// # Panics
    ///
    /// Panics if called twice, or if a region cannot hold one heap
    /// chunk and one stack (a configuration error).
    pub fn boot(&mut self) {
        assert!(!self.booted, "boot called twice");
        self.booted = true;
        init_singletons(self.machine.mem_mut());
        let fits = "region holds a heap chunk and a stack";
        for i in 0..self.machine.num_procs() {
            let (g5, g6) = self.layouts[i].heap_chunk().expect(fits);
            let cpu = self.machine.cpu_mut(i);
            cpu.set_reg(abi::REG_HEAP, Word(g5));
            cpu.set_reg(abi::REG_HEAP_LIM, Word(g6));
        }
        let entry = self.machine.program().entry;
        let root = self.new_thread(entry, 0);
        self.load_thread(0, 0, root).expect(fits);
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] on deadlock, cycle-limit exhaustion, or a
    /// simulated program fault.
    pub fn run(&mut self) -> Result<RunResult, RunError> {
        match self.run_until(u64::MAX)? {
            Some(r) => Ok(r),
            // `max_cycles` always fires before the clock reaches
            // `u64::MAX`, so a `None` here is unreachable.
            None => Err(RunError::CycleLimit(self.cfg.max_cycles)),
        }
    }

    /// Runs until the program completes *or* the machine clock reaches
    /// `stop_at`, whichever happens first; a machine that skips idle
    /// cycles lands on `stop_at` exactly ([`Machine::advance_until`]).
    /// `Ok(None)` means the clock
    /// got there with the program still in flight — the natural moment
    /// to take a [`Runtime::checkpoint`]. Because the advance sequence
    /// is deterministic, stopping and resuming (or stopping,
    /// checkpointing, and restoring elsewhere) does not change the
    /// run's subsequent behavior.
    ///
    /// # Errors
    ///
    /// As [`Runtime::run`].
    pub fn run_until(&mut self, stop_at: u64) -> Result<Option<RunResult>, RunError> {
        if !self.booted {
            self.boot();
        }
        let mut last_progress = (0u64, 0u64); // (cycle, instructions)
                                              // Threshold, not a mask test: the event-driven machine can jump
                                              // the clock several cycles per advance, and `now & 0xfff == 0`
                                              // would land only by luck. Crossing the threshold triggers the
                                              // same check lockstep runs at each 4096-cycle boundary.
        let mut next_liveness = 4096u64;
        // One event buffer for the whole run so the advance loop
        // allocates nothing in the steady state.
        let mut evs = Vec::new();
        loop {
            if self.machine.now() >= stop_at {
                return Ok(None);
            }
            if self.machine.now() > self.cfg.max_cycles {
                return Err(RunError::CycleLimit(self.cfg.max_cycles));
            }
            self.machine.advance_until(stop_at, &mut evs);
            // Idle processors look for work before any handler of this
            // cycle runs: work published in a cycle is picked up from
            // the next one, whatever the node numbering, as concurrent
            // processors would. It is also what lets a machine park an
            // idle processor until the next publication without
            // changing the run (DESIGN.md §8).
            for &(node, ev) in &evs {
                if matches!(ev, StepEvent::NoReadyFrame) {
                    self.schedule(node)?;
                }
            }
            for (node, ev) in evs.drain(..) {
                self.handle(node, ev)?;
            }
            self.poll_fe_waiters();
            if let Some(fault) = self.machine.fault() {
                return Err(RunError::MachineFault(Box::new(fault.clone())));
            }
            if let Some(value) = self.result {
                let per_cpu: Vec<CpuStats> = (0..self.machine.num_procs())
                    .map(|i| self.machine.cpu_stats(i))
                    .collect();
                let mut total = CpuStats::default();
                for s in &per_cpu {
                    total.merge(s);
                }
                return Ok(Some(RunResult {
                    value,
                    cycles: self.machine.now(),
                    total,
                    per_cpu,
                    sched: self.sched.stats,
                    prints: std::mem::take(&mut self.prints),
                }));
            }
            // Liveness check every ~4096 cycles.
            if self.machine.now() >= next_liveness {
                next_liveness = (self.machine.now() / 4096 + 1) * 4096;
                let instrs: u64 = (0..self.machine.num_procs())
                    .map(|i| self.machine.cpu_stats(i).instructions)
                    .sum();
                if instrs == last_progress.1 && self.machine.now() - last_progress.0 > 200_000 {
                    let blocked = self
                        .threads
                        .iter()
                        .filter(|t| matches!(t.state, ThreadState::Blocked { .. }))
                        .count();
                    return Err(RunError::Deadlock {
                        at: self.machine.now(),
                        blocked,
                        ready: self.sched.total_ready(),
                    });
                }
                if instrs != last_progress.1 {
                    last_progress = (self.machine.now(), instrs);
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Event dispatch
    // -----------------------------------------------------------------

    fn handle(&mut self, node: usize, ev: StepEvent) -> Result<(), RunError> {
        match ev {
            StepEvent::Executed
            | StepEvent::Stalled { .. }
            | StepEvent::Halted
            | StepEvent::NoReadyFrame => Ok(()),
            StepEvent::RtCall { n } => self.service(node, n),
            StepEvent::Trapped(t) => self.trap(node, t),
        }
    }

    fn trap(&mut self, node: usize, t: Trap) -> Result<(), RunError> {
        match t {
            Trap::RemoteMiss { .. } => {
                // Switch-spin while the controller services the request
                // (Section 6.1's context-switch trap routine).
                let fp = self.machine.cpu(node).fp();
                let f = self.machine.cpu_mut(node).frame_mut(fp);
                f.state = FrameState::WaitingRemote;
                f.psr.in_trap = false;
                self.switch_spin(node);
                Ok(())
            }
            Trap::FullEmpty { addr, is_store } => {
                let fp = self.machine.cpu(node).fp();
                self.machine.cpu_mut(node).frame_mut(fp).psr.in_trap = false;
                match self.cfg.fe_policy {
                    FePolicy::Spin => self.machine.charge_handler(node, 2),
                    FePolicy::SwitchSpin => self.switch_spin(node),
                    FePolicy::BlockAfterSpins(k) => {
                        let entry = self.fe_spins.entry((node, fp)).or_insert((addr, 0));
                        if entry.0 != addr {
                            *entry = (addr, 0);
                        }
                        entry.1 += 1;
                        if entry.1 < k {
                            self.switch_spin(node);
                        } else {
                            // Unload until the word changes state; the
                            // run loop polls fe_waiters every cycle.
                            self.fe_spins.remove(&(node, fp));
                            let tid = self.loaded[node][fp].expect("trap from loaded frame");
                            self.unload_thread(node, fp, ThreadState::Ready);
                            self.threads[tid.0 as usize].state =
                                ThreadState::Blocked { future: addr };
                            self.fe_waiters.push((tid, addr, is_store));
                            self.sched.stats.blocks += 1;
                            let now = self.machine.now();
                            self.probe
                                .emit(now, EventKind::ThreadBlock, tid.0 as u64, addr as u64);
                            self.fill_frame(node, fp)?;
                        }
                        self.machine.charge_handler(node, 4);
                    }
                }
                Ok(())
            }
            Trap::FutureTouch { reg } | Trap::FutureAddr { reg } => self.touch(node, reg),
            Trap::Interrupt { .. } => {
                // IPIs are scheduling pokes; acknowledge and return.
                let fp = self.machine.cpu(node).fp();
                self.machine.cpu_mut(node).frame_mut(fp).psr.in_trap = false;
                self.machine.charge_handler(node, 10);
                Ok(())
            }
            Trap::Alignment { .. } | Trap::DivZero => Err(RunError::Fault {
                what: t.to_string(),
                node,
                pc: self.machine.cpu(node).active_frame().pc,
            }),
            Trap::RtCall { n } => self.service(node, n),
        }
    }

    /// The context-switch trap handler: rotate to the next ready frame
    /// (6 cycles on top of the 5-cycle trap entry; Section 6.1).
    fn switch_spin(&mut self, node: usize) {
        self.machine
            .charge_handler(node, self.cfg.switch_handler_cycles);
        let cpu = self.machine.cpu_mut(node);
        cpu.count_context_switch();
        if let Some(next) = cpu.next_ready_frame() {
            cpu.set_fp(next);
        }
    }

    // -----------------------------------------------------------------
    // Futures
    // -----------------------------------------------------------------

    /// Follows a future chain; `Err(addr)` is the first unresolved
    /// future record.
    fn chase(&self, mut w: Word) -> Result<Word, u32> {
        for _ in 0..64 {
            if !w.is_future() {
                return Ok(w);
            }
            let a = w.ptr_addr().expect("future is a pointer");
            if !self.machine.mem().fe(a) {
                return Err(a);
            }
            w = self.machine.mem().read(a);
        }
        panic!("future chain too deep (cyclic determine?)");
    }

    /// The future-touch trap handler (Section 6.2).
    fn touch(&mut self, node: usize, reg: Reg) -> Result<(), RunError> {
        let w = self.machine.cpu(node).get_reg(reg);
        debug_assert!(w.is_future(), "future trap on non-future {w}");
        match self.chase(w) {
            Ok(value) => {
                // Resolved: substitute the value and retry (23 cycles).
                let fp = self.machine.cpu(node).fp();
                let cpu = self.machine.cpu_mut(node);
                cpu.set_reg(reg, value);
                cpu.frame_mut(fp).psr.in_trap = false;
                self.machine
                    .charge_handler(node, self.cfg.touch_resolved_cycles);
                Ok(())
            }
            Err(addr) => self.unresolved_touch(node, addr),
        }
    }

    /// An unresolved future was touched: inline its lazy thunk if we
    /// can claim it, otherwise block or switch-spin per policy. The PC
    /// chain still addresses the touching instruction, so whatever we
    /// do, the instruction retries later.
    fn unresolved_touch(&mut self, node: usize, addr: u32) -> Result<(), RunError> {
        // Lazy inline path: claim the thunk and evaluate it in this
        // thread, like the procedure call lazy task creation replaces.
        if let Some(LazyThunk { closure, owner }) = self.futures.take_lazy(addr) {
            let claimed = self.sched.remove_lazy(owner, addr);
            debug_assert!(claimed, "thunk in table but not in queue");
            self.sched.stats.inline_evals += 1;
            self.inline_eval(node, addr, closure);
            return Ok(());
        }
        match self.cfg.touch_policy {
            TouchPolicy::SwitchSpin => {
                let fp = self.machine.cpu(node).fp();
                self.machine.cpu_mut(node).frame_mut(fp).psr.in_trap = false;
                self.switch_spin(node);
            }
            TouchPolicy::Block => {
                let fp = self.machine.cpu(node).fp();
                let tid = self.loaded[node][fp].expect("trap from a loaded frame");
                self.unload_thread(node, fp, ThreadState::Blocked { future: addr });
                self.futures.add_waiter(addr, tid);
                self.sched.stats.blocks += 1;
                let now = self.machine.now();
                self.probe
                    .emit(now, EventKind::ThreadBlock, tid.0 as u64, addr as u64);
                self.fill_frame(node, fp)?;
            }
        }
        Ok(())
    }

    /// Redirects the current thread into an inline thunk evaluation:
    /// push the interrupted frame on the thread's shadow stack, call
    /// the thunk, and let `RT_RESUME` restore and retry.
    fn inline_eval(&mut self, node: usize, fut_addr: u32, closure: Word) {
        let inline_entry = self
            .inline_entry
            .expect("program lacks __inline_entry but uses lazy futures");
        let fp = self.machine.cpu(node).fp();
        let tid = self.loaded[node][fp].expect("loaded frame");
        {
            let f = self.machine.cpu(node).frame(fp);
            let saved = SavedFrame {
                regs: f.regs,
                fregs: f.fregs,
                pc: f.pc,
                npc: f.npc,
                psr: f.psr,
            };
            self.threads[tid.0 as usize].shadow.push(saved);
        }
        let cpu = self.machine.cpu_mut(node);
        let f = cpu.frame_mut(fp);
        f.psr.in_trap = false;
        f.pc = inline_entry;
        f.npc = inline_entry + 1;
        cpu.set_reg(abi::REG_CLOSURE, closure);
        cpu.set_reg(abi::REG_FUT, Word::future_ptr(fut_addr));
        // Near procedure-call cost: lazy task creation replaces thread
        // creation with (almost) a call (Section 3.2).
        self.machine
            .charge_handler(node, self.cfg.lazy_inline_cycles);
    }

    /// Resolves `addr` with `value`, waking waiters onto their home
    /// ready queues.
    fn determine(&mut self, node: usize, addr: u32, value: Word) {
        let mem = self.machine.mem_mut();
        mem.write(addr, value);
        mem.set_fe(addr, true);
        let waiters = self.futures.resolve(addr);
        // A determine nobody waits on (the common lazy-inline case) is
        // a store plus a full/empty-bit set; waking waiters costs the
        // scheduler work.
        let cost = if waiters.is_empty() {
            6
        } else {
            self.cfg.determine_cycles + 4 * waiters.len() as u64
        };
        let now = self.machine.now();
        for tid in waiters {
            let t = &mut self.threads[tid.0 as usize];
            debug_assert!(matches!(t.state, ThreadState::Blocked { .. }));
            t.state = ThreadState::Ready;
            let home = t.home;
            self.sched.enqueue_ready(home, tid);
            self.sched.stats.wakes += 1;
            self.probe
                .emit(now, EventKind::ThreadResume, tid.0 as u64, addr as u64);
        }
        self.machine.charge_handler(node, cost);
    }

    // -----------------------------------------------------------------
    // Threads and frames
    // -----------------------------------------------------------------

    fn new_thread(&mut self, pc: u32, home: usize) -> ThreadId {
        let id = ThreadId(self.threads.len() as u32);
        self.threads.push(Thread::fresh(id, pc, home));
        id
    }

    /// Spawns a task thread for `closure` determining `future`.
    fn spawn_task(&mut self, closure: Word, future: u32, target: usize) -> ThreadId {
        let id = self.new_thread(self.task_entry, target);
        let t = &mut self.threads[id.0 as usize];
        t.regs[0] = closure; // REG_CLOSURE
        t.regs[25] = Word::future_ptr(future); // REG_FUT
        self.sched.enqueue_ready(target, id);
        self.sched.stats.threads_created += 1;
        let now = self.machine.now();
        self.probe
            .emit(now, EventKind::ThreadSpawn, id.0 as u64, target as u64);
        id
    }

    fn load_thread(&mut self, node: usize, frame: usize, tid: ThreadId) -> Result<(), RunError> {
        let fresh = !self.threads[tid.0 as usize].started;
        if fresh {
            let stack = self.layouts[node].take_stack()?;
            let t = &mut self.threads[tid.0 as usize];
            t.stack_base = stack;
            t.regs[29] = Word(stack); // REG_SP
            t.started = true;
        }
        let t = &mut self.threads[tid.0 as usize];
        t.state = ThreadState::Loaded { node, frame };
        t.home = node;
        let (regs, fregs, pc, npc, psr) = (t.regs, t.fregs, t.pc, t.npc, t.psr);
        let cpu = self.machine.cpu_mut(node);
        let f = cpu.frame_mut(frame);
        f.regs = regs;
        f.fregs = fregs;
        f.pc = pc;
        f.npc = npc;
        f.psr = psr;
        f.psr.in_trap = false;
        f.state = FrameState::Ready;
        self.loaded[node][frame] = Some(tid);
        self.fe_spins.remove(&(node, frame));
        self.sched.stats.loads += 1;
        let cost = if fresh {
            self.cfg.fresh_load_cycles
        } else {
            self.cfg.thread_load_cycles
        };
        self.machine.charge_handler(node, cost);
        Ok(())
    }

    fn unload_thread(&mut self, node: usize, frame: usize, into: ThreadState) {
        let tid = self.loaded[node][frame]
            .take()
            .expect("unload of empty frame");
        let f = self.machine.cpu(node).frame(frame);
        let (regs, fregs, pc, npc, mut psr) = (f.regs, f.fregs, f.pc, f.npc, f.psr);
        psr.in_trap = false;
        let t = &mut self.threads[tid.0 as usize];
        t.regs = regs;
        t.fregs = fregs;
        t.pc = pc;
        t.npc = npc;
        t.psr = psr;
        t.state = into;
        self.machine.cpu_mut(node).frame_mut(frame).state = FrameState::Empty;
        self.sched.stats.unloads += 1;
        self.machine
            .charge_handler(node, self.cfg.thread_unload_cycles);
    }

    /// Fills `frame` on `node` with work, if any exists anywhere.
    fn fill_frame(&mut self, node: usize, frame: usize) -> Result<bool, RunError> {
        // 1. Local ready queue.
        if let Some(tid) = self.sched.dequeue_ready(node) {
            self.machine.charge_handler(node, self.cfg.dequeue_cycles);
            self.load_thread(node, frame, tid)?;
            return Ok(true);
        }
        // 2. Own lazy queue (oldest thunk), promoted to a thread.
        if let Some(fut) = self.sched.pop_own_lazy(node) {
            self.promote_lazy(node, frame, fut, 0)?;
            return Ok(true);
        }
        // 3. Steal a ready thread.
        if let Some((tid, _victim)) = self.sched.steal_ready(node) {
            self.machine.charge_handler(node, self.cfg.steal_cycles);
            self.load_thread(node, frame, tid)?;
            return Ok(true);
        }
        // 4. Steal a lazy thunk and promote it.
        if let Some((fut, _victim)) = self.sched.steal_lazy(node) {
            self.promote_lazy(node, frame, fut, self.cfg.steal_cycles)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Converts a claimed lazy future into a real thread loaded into
    /// `frame` (deferred thread creation: the cost the lazy scheme
    /// avoids until parallelism is actually needed).
    fn promote_lazy(
        &mut self,
        node: usize,
        frame: usize,
        fut: u32,
        access_cost: u64,
    ) -> Result<(), RunError> {
        let thunk = self
            .futures
            .take_lazy(fut)
            .expect("queued thunk has a descriptor");
        self.machine
            .charge_handler(node, access_cost + self.cfg.thread_create_cycles);
        let tid = self.new_thread(self.task_entry, node);
        let t = &mut self.threads[tid.0 as usize];
        t.regs[0] = thunk.closure;
        t.regs[25] = Word::future_ptr(fut);
        self.sched.stats.threads_created += 1;
        let now = self.machine.now();
        self.probe
            .emit(now, EventKind::ThreadSpawn, tid.0 as u64, node as u64);
        self.load_thread(node, frame, tid)
    }

    /// Re-queues threads whose awaited full/empty state has arrived
    /// (the polling half of `FePolicy::BlockAfterSpins`), once per
    /// cycle after its handlers.
    fn poll_fe_waiters(&mut self) {
        if self.fe_waiters.is_empty() {
            return;
        }
        let mem = self.machine.mem();
        let mut woken = Vec::new();
        self.fe_waiters.retain(|&(tid, addr, wants_empty)| {
            let full = mem.fe(addr);
            let ready = if wants_empty { !full } else { full };
            if ready {
                woken.push(tid);
                false
            } else {
                true
            }
        });
        if !woken.is_empty() {
            // The ready queues live in shared memory: publishing to them
            // goes through `mem_mut`, which wakes parked processors.
            self.machine.mem_mut();
        }
        let now = self.machine.now();
        for tid in woken {
            let t = &mut self.threads[tid.0 as usize];
            t.state = ThreadState::Ready;
            let home = t.home;
            self.sched.enqueue_ready(home, tid);
            self.sched.stats.wakes += 1;
            self.probe
                .emit(now, EventKind::ThreadResume, tid.0 as u64, home as u64);
        }
    }

    /// The idle-processor scheduler: called when the active frame is
    /// not runnable.
    fn schedule(&mut self, node: usize) -> Result<(), RunError> {
        let cpu = self.machine.cpu(node);
        // A frame woken by the controller? Resume it (the switch cost
        // was charged when we switched away).
        if let Some(next) = cpu.next_ready_frame() {
            self.machine.cpu_mut(node).set_fp(next);
            return Ok(());
        }
        // An empty frame to fill?
        if let Some(frame) = (0..cpu.nframes()).find(|&i| cpu.frame(i).state == FrameState::Empty) {
            // Local lazy work first (cheapest locality), then the
            // generic fill path.
            if let Some(fut) = self.sched.pop_own_lazy(node) {
                self.promote_lazy(node, frame, fut, 0)?;
                self.machine.cpu_mut(node).set_fp(frame);
                return Ok(());
            }
            if self.fill_frame(node, frame)? {
                self.machine.cpu_mut(node).set_fp(frame);
                return Ok(());
            }
        }
        self.machine.charge_idle(node, 1);
        Ok(())
    }

    // -----------------------------------------------------------------
    // Run-time services (RTCALL)
    // -----------------------------------------------------------------

    fn service(&mut self, node: usize, n: u16) -> Result<(), RunError> {
        match n {
            abi::RT_EXIT => self.svc_exit(node)?,
            abi::RT_MAIN_DONE => {
                let value = self.machine.cpu(node).get_reg(abi::REG_RET);
                self.result = Some(value);
                for i in 0..self.machine.num_procs() {
                    self.machine.cpu_mut(i).halt();
                }
            }
            abi::RT_FUTURE => {
                let target = self.sched.next_spawn_node();
                self.svc_future(node, target, self.cfg.thread_create_cycles)?;
            }
            abi::RT_FUTURE_ON => {
                let t = self
                    .machine
                    .cpu(node)
                    .get_reg(Reg::L(2))
                    .as_fixnum()
                    .unwrap_or(0);
                let target = (t.max(0) as usize) % self.machine.num_procs();
                self.svc_future(node, target, self.cfg.thread_create_cycles)?;
            }
            abi::RT_FUTURE_SW => {
                let target = self.sched.next_spawn_node();
                let cost = self.cfg.thread_create_cycles + self.cfg.sw_create_extra_cycles;
                self.svc_future(node, target, cost)?;
            }
            abi::RT_LAZY_FUTURE => {
                let closure = self.machine.cpu(node).get_reg(abi::REG_RET);
                let fut = self.alloc_future(node)?;
                self.futures.set_lazy(
                    fut,
                    LazyThunk {
                        closure,
                        owner: node,
                    },
                );
                self.sched.push_lazy(node, fut);
                self.sched.stats.lazy_created += 1;
                let now = self.machine.now();
                self.probe
                    .emit(now, EventKind::LazyTask, fut as u64, node as u64);
                self.machine
                    .cpu_mut(node)
                    .set_reg(abi::REG_RET, Word::future_ptr(fut));
                self.machine
                    .charge_handler(node, self.cfg.lazy_create_cycles);
            }
            abi::RT_DETERMINE => {
                let fut = self.machine.cpu(node).get_reg(abi::REG_FUT);
                let value = self.machine.cpu(node).get_reg(abi::REG_RET);
                let addr = fut.ptr_addr().expect("determine of non-pointer");
                self.determine(node, addr, value);
            }
            abi::RT_RESUME => {
                let fp = self.machine.cpu(node).fp();
                let tid = self.loaded[node][fp].expect("resume from loaded frame");
                let saved = self.threads[tid.0 as usize]
                    .shadow
                    .pop()
                    .expect("resume without inline evaluation");
                let f = self.machine.cpu_mut(node).frame_mut(fp);
                f.regs = saved.regs;
                f.fregs = saved.fregs;
                f.pc = saved.pc;
                f.npc = saved.npc;
                f.psr = saved.psr;
                // Like a procedure return: lazy task creation's inline
                // path costs (almost) a call (Section 3.2).
                self.machine.charge_handler(node, 3);
            }
            abi::RT_TOUCH_SW => self.svc_touch_sw(node)?,
            abi::RT_HEAP_MORE => {
                let (g5, g6) = self.layouts[node].heap_chunk()?;
                let cpu = self.machine.cpu_mut(node);
                cpu.set_reg(abi::REG_HEAP, Word(g5));
                cpu.set_reg(abi::REG_HEAP_LIM, Word(g6));
                self.machine.charge_handler(node, 20);
            }
            abi::RT_PRINT => {
                let v = self.machine.cpu(node).get_reg(abi::REG_RET);
                self.prints.push(v);
                self.machine.charge_handler(node, 1);
            }
            abi::RT_YIELD => {
                self.switch_spin(node);
            }
            abi::RT_RETIRE => {
                // Open-loop request retirement (DESIGN.md §15): hand
                // the request word back to the machine, which records
                // birth→retire latency against its arrival plan.
                let w = self.machine.cpu(node).get_reg(abi::REG_RET);
                self.machine.retire_request(node, w.0);
                self.machine.charge_handler(node, 1);
            }
            other => {
                return Err(RunError::Fault {
                    what: format!("unknown rtcall {other}"),
                    node,
                    pc: self.machine.cpu(node).active_frame().pc,
                })
            }
        }
        Ok(())
    }

    fn alloc_future(&mut self, node: usize) -> Result<u32, RunError> {
        let addr = self.layouts[node].alloc(FUTURE_BYTES)?;
        let mem = self.machine.mem_mut();
        mem.write(addr, Word::ZERO);
        mem.set_fe(addr, false); // unresolved
        mem.write(addr + 4, Word::ZERO);
        mem.set_fe(addr + 4, true);
        self.futures.create(addr);
        Ok(addr)
    }

    fn svc_future(&mut self, node: usize, target: usize, cost: u64) -> Result<(), RunError> {
        let closure = self.machine.cpu(node).get_reg(abi::REG_RET);
        let fut = self.alloc_future(node)?;
        self.spawn_task(closure, fut, target);
        self.machine
            .cpu_mut(node)
            .set_reg(abi::REG_RET, Word::future_ptr(fut));
        self.machine.charge_handler(node, cost);
        Ok(())
    }

    fn svc_exit(&mut self, node: usize) -> Result<(), RunError> {
        let fp = self.machine.cpu(node).fp();
        let tid = self.loaded[node][fp]
            .take()
            .expect("exit from loaded frame");
        let t = &mut self.threads[tid.0 as usize];
        t.state = ThreadState::Exited;
        let stack = t.stack_base;
        if stack != 0 {
            self.layouts[node].release_stack(stack);
        }
        self.machine.cpu_mut(node).frame_mut(fp).state = FrameState::Empty;
        self.machine.charge_handler(node, self.cfg.exit_cycles);
        self.fill_frame(node, fp)?;
        Ok(())
    }

    /// Software touch for the Encore baseline: the compiled check
    /// found a future in `r24`; resolve or block. Because the RTCALL
    /// has already retired, blocking rewinds the PC chain so the call
    /// retries on wake-up.
    fn svc_touch_sw(&mut self, node: usize) -> Result<(), RunError> {
        let w = self.machine.cpu(node).get_reg(abi::REG_SW_TOUCH);
        if !w.is_future() {
            self.machine.charge_handler(node, self.cfg.sw_touch_cycles);
            return Ok(());
        }
        match self.chase(w) {
            Ok(value) => {
                self.machine.cpu_mut(node).set_reg(abi::REG_SW_TOUCH, value);
                self.machine
                    .charge_handler(node, self.cfg.sw_touch_cycles + 8);
            }
            Err(addr) => {
                // Rewind to the rtcall instruction (it is never placed
                // in a delay slot).
                let fp = self.machine.cpu(node).fp();
                {
                    let f = self.machine.cpu_mut(node).frame_mut(fp);
                    let call_pc = f.pc - 1;
                    f.pc = call_pc;
                    f.npc = call_pc + 1;
                }
                if let Some(LazyThunk { closure, owner }) = self.futures.take_lazy(addr) {
                    let claimed = self.sched.remove_lazy(owner, addr);
                    debug_assert!(claimed);
                    self.sched.stats.inline_evals += 1;
                    self.inline_eval(node, addr, closure);
                    return Ok(());
                }
                let tid = self.loaded[node][fp].expect("loaded frame");
                self.unload_thread(node, fp, ThreadState::Blocked { future: addr });
                self.futures.add_waiter(addr, tid);
                self.sched.stats.blocks += 1;
                let now = self.machine.now();
                self.probe
                    .emit(now, EventKind::ThreadBlock, tid.0 as u64, addr as u64);
                self.fill_frame(node, fp)?;
            }
        }
        Ok(())
    }
}

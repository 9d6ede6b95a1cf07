//! The node-cycle kernel: what one cycle of machine work does to the
//! ALEWIFE nodes (paper, Figure 1 — processor, cache/directory
//! controller, network interface — defined once and replicated).
//!
//! A cycle is four phases, always in this order: open-loop
//! [ingress](Alewife::ingress), [delivery](Alewife::deliver) of the
//! network messages due, the CPU [step](Alewife::step) loop, and the
//! protocol [tick](Alewife::tick) loop. The schedulers only decide
//! *when* to run a cycle: lockstep runs every cycle, the event-driven
//! skip only the cycles at which something can happen (DESIGN.md §8).
//!
//! Every send goes straight into the [`Network`](april_net::network::Network)
//! in the order the phases produce it — packet ids, and through them
//! fault-injection verdicts and event tie-breaks, depend only on that
//! order — and the first fatal fault is recorded on the machine (later
//! ones are dropped: the run-time aborts on the first anyway).

use crate::alewife::{dispatch_to_node, msg_touches_cpu, Alewife, Env, Node, NodePort};
use crate::config::MachineConfig;
use crate::traffic::{inject_due, record_retire};
use crate::watchdog::MachineFault;
use april_core::cpu::StepEvent;
use april_core::decoded::{DecOp, RunState, MAX_RUN};
use april_core::isa::{LoadFlavor, StoreFlavor};
use april_core::memport::RunMemory;
use april_core::word::Word;
use april_mem::controller::CacheController;
use april_mem::femem::{FeMemory, Written};
use april_mem::msg::CohMsg;
use april_net::network::Network;

/// The smallest protocol packet in flits (header + address): the size
/// of every I/O-triggered send. `CohMsg::size_flits` never reports less.
pub(crate) const MIN_FLITS: u64 = 2;

/// Scratch buffers reused across cycles so the hot loops allocate
/// nothing: controller sends, directory sends, I/O sends, retired
/// request words.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    out: Vec<(usize, CohMsg)>,
    dir_out: Vec<(usize, CohMsg)>,
    io: Vec<(usize, CohMsg)>,
    retired: Vec<u32>,
    written: Written,
}

/// Injects one unit's messages into the network, sized for the wire.
fn post(
    net: &mut Network<Env>,
    cfg: &MachineConfig,
    at: u64,
    src: usize,
    msgs: &[(usize, CohMsg)],
) {
    for &(to, msg) in msgs {
        let size = msg.size_flits(cfg.block_words()) as u64;
        net.send(at, src, to, size, Env { src, msg });
    }
}

/// Forward-progress signature counts: instructions retired, directory
/// events, controller events.
pub(crate) type Progress = (u64, u64, u64);

/// Node `n`'s protocol counts: directory events, controller events.
fn protocol_counts(n: &Node) -> (u64, u64) {
    (n.dir.stats.total(), n.ctl.stats.total())
}

/// The machine's signature counted from scratch.
fn signature(nodes: &[Node]) -> Progress {
    nodes.iter().fold((0, 0, 0), |s, n| {
        let (dir, ctl) = protocol_counts(n);
        (s.0 + n.cpu.stats.instructions, s.1 + dir, s.2 + ctl)
    })
}

/// Node `n`'s CPU wake word (see [`Schedule::cpu`]).
pub(crate) fn cpu_word(n: &Node, parked: bool, ready_at: u64) -> u64 {
    if parked || n.cpu.is_halted() {
        u64::MAX
    } else {
        ready_at
    }
}

/// Node `n`'s tick and skip words (see [`Schedule`]).
pub(crate) fn proto_words(n: &Node) -> (u64, u64) {
    let ctl = n.ctl.next_deadline();
    (
        ctl.min(n.dir.tick_deadline()),
        ctl.min(n.dir.next_deadline()),
    )
}

/// A node's booked run (DESIGN.md §13). At cycle `start` the CPU ran
/// ahead, on a copy, through `len` ops, one per cycle over `start ..
/// start + len`, and the scheduler charged the whole span up front
/// (`ready_at = start + len`). The copy's end state, `end`, is
/// installed at the next visit. Their memory effects — the word
/// written, the cache's access, the hit and memory-op counts — wait in
/// `mem` and are applied as the clock passes each op's cycle
/// ([`Alewife::apply_mem`]). A run is *cut* at an earlier cycle the
/// moment anything could observe or perturb what it did (a delivery
/// addressed to its CPU, a driver mutation, a checkpoint, a write to a
/// word it accesses later): the ops before the cut are replayed from
/// the untouched CPU with the values their loads read, and the rest
/// dropped.
#[derive(Debug)]
pub(crate) struct Run {
    pub(crate) start: u64,
    /// `0` while no run is open.
    pub(crate) len: u32,
    end: RunState,
    /// The run's memory ops in program order.
    mem: Vec<MemOp>,
    /// How many of `mem` have been applied.
    applied: usize,
    /// The [`Written::mask`]s of the words `mem` accesses, ORed.
    mask: u64,
    /// The most ops the node's next run may take. A cut run's node
    /// next books at most twice the ops that survived; a run that
    /// retires whole lets the next one take twice as many, up to
    /// [`MAX_RUN`]. Any length is exact: this only bounds the work a
    /// cut throws away where a line is contended, a cut every few
    /// cycles.
    cap: u32,
}

impl Default for Run {
    fn default() -> Run {
        Run {
            start: 0,
            len: 0,
            end: RunState::default(),
            mem: Vec::new(),
            applied: 0,
            mask: 0,
            cap: MAX_RUN,
        }
    }
}

impl Run {
    pub(crate) fn is_open(&self) -> bool {
        self.len > 0
    }

    pub(crate) fn close(&mut self) {
        self.len = 0;
        self.mem.clear();
        self.applied = 0;
    }

    /// The cycle of the next memory op to apply, or `u64::MAX`.
    pub(crate) fn next_mem(&self) -> u64 {
        let next = self.mem.get(self.applied);
        next.map_or(u64::MAX, |op| self.start + op.k as u64)
    }
}

/// One memory op of a booked run: op `k` of the run accessed the word
/// at `addr` and read `word` (a load) or wrote it (a store), finding
/// the full/empty bit `fe`.
#[derive(Debug, Clone, Copy)]
struct MemOp {
    k: u32,
    addr: u32,
    word: Word,
    fe: bool,
    access: Access,
}

#[derive(Debug, Clone, Copy)]
enum Access {
    Load(LoadFlavor),
    Store(StoreFlavor),
}

impl MemOp {
    /// Whether the access needs write permission: a store, or a load
    /// that empties the word.
    fn write_grade(&self) -> bool {
        match self.access {
            Access::Load(f) => f.reset_fe,
            Access::Store(_) => true,
        }
    }

    /// The word at `addr` and its full/empty bit after this op, given
    /// them before it.
    fn after(&self, word: Word, fe: bool) -> (Word, bool) {
        match self.access {
            Access::Load(f) => (word, fe && !f.reset_fe),
            Access::Store(f) => (self.word, fe || f.set_fe),
        }
    }
}

/// The memory a CPU runs ahead against at booking: an access runs
/// ahead when the controller says it would only hit
/// ([`CacheController::hits_only`]) and the full/empty bit lets it
/// complete. It reads memory as the run's own earlier stores left it:
/// nothing else can write the word before the op's cycle without
/// cutting the run.
struct Ahead<'a> {
    ctl: &'a CacheController,
    /// The running frame.
    frame: usize,
    mem: &'a FeMemory,
    ops: &'a mut Vec<MemOp>,
}

impl Ahead<'_> {
    /// The word at `addr` and its full/empty bit, if an access of that
    /// grade only hits.
    fn hit(&self, addr: u32, write: bool) -> Option<(Word, bool)> {
        if !self.ctl.hits_only(addr, self.frame, write) {
            return None;
        }
        let mine = self.ops.iter().filter(|op| op.addr == addr);
        Some(mine.fold(self.mem.word_state(addr), |(w, fe), op| op.after(w, fe)))
    }
}

impl RunMemory for Ahead<'_> {
    fn load(&mut self, k: u32, addr: u32, flavor: LoadFlavor) -> Option<(Word, bool)> {
        let (word, fe) = self.hit(addr, flavor.reset_fe)?;
        if flavor.fe_trap && !fe {
            return None;
        }
        let access = Access::Load(flavor);
        self.ops.push(MemOp {
            k,
            addr,
            word,
            fe,
            access,
        });
        Some((word, fe))
    }

    fn store(&mut self, k: u32, addr: u32, value: Word, flavor: StoreFlavor) -> Option<bool> {
        let (_, fe) = self.hit(addr, true)?;
        if flavor.fe_trap && fe {
            return None;
        }
        let access = Access::Store(flavor);
        self.ops.push(MemOp {
            k,
            addr,
            word: value,
            fe,
            access,
        });
        Some(fe)
    }
}

/// A cut run's memory as its replay sees it: each access gets what it
/// got when the run was booked.
struct Replay<'a>(std::slice::Iter<'a, MemOp>);

impl RunMemory for Replay<'_> {
    fn load(&mut self, k: u32, addr: u32, _: LoadFlavor) -> Option<(Word, bool)> {
        let op = self.0.next()?;
        debug_assert_eq!((op.k, op.addr), (k, addr), "a replay diverged");
        Some((op.word, op.fe))
    }

    fn store(&mut self, k: u32, addr: u32, _: Word, _: StoreFlavor) -> Option<bool> {
        let op = self.0.next()?;
        debug_assert_eq!((op.k, op.addr), (k, addr), "a replay diverged");
        Some(op.fe)
    }
}

/// Nodes per block of [`Wake`] bounds.
pub(crate) const BLOCK: usize = 64;

/// Dense per-node wake words — a cycle, or `u64::MAX` for never — with
/// a lower bound per block of [`BLOCK`] nodes, so a scan for due nodes
/// reads one bound per idle block instead of every word.
#[derive(Debug, Default)]
pub(crate) struct Wake {
    words: Vec<u64>,
    /// At most every word of its block; exact after a scan of it.
    bound: Vec<u64>,
}

impl Wake {
    fn new(words: Vec<u64>) -> Wake {
        let bound = words.chunks(BLOCK).map(|b| *b.iter().min().expect("chunk"));
        Wake {
            bound: bound.collect(),
            words,
        }
    }

    pub(crate) fn get(&self, k: usize) -> u64 {
        self.words[k]
    }

    pub(crate) fn set(&mut self, k: usize, word: u64) {
        self.words[k] = word;
        let b = &mut self.bound[k / BLOCK];
        *b = (*b).min(word);
    }

    /// The bound on node `k`'s block.
    pub(crate) fn bound(&self, k: usize) -> u64 {
        self.bound[k / BLOCK]
    }

    /// Sets the bound on node `k`'s block to `min`, its exact minimum.
    pub(crate) fn set_bound(&mut self, k: usize, min: u64) {
        self.bound[k / BLOCK] = min;
    }
}

/// The machine's derived scheduling state, built from its nodes in O(N)
/// and kept current wherever the kernel or a driver call touches one:
/// the dense words the skip and the phase loops read instead of the
/// nodes, and the forward-progress signature counts.
#[derive(Debug, Default)]
pub(crate) struct Schedule {
    /// When each CPU next steps — its `ready_at` — or `u64::MAX` while
    /// it is parked or halted (a CPU a driver halts may keep a finite
    /// word until a scan opens it).
    pub(crate) cpu: Wake,
    /// When each node's controller or directory `tick` would act: the
    /// raw deadlines `tick_pending` tests (the controller's
    /// `next_deadline` is raw).
    pub(crate) tick: Wake,
    /// Where the skip must stop for each node's protocol engines: the
    /// masked deadlines (a directory masks a stale raw one while idle).
    pub(crate) skip: Wake,
    /// When each node's booked run next has a memory op to apply
    /// ([`Run::next_mem`]).
    pub(crate) mem: Wake,
    /// Instructions are added as they retire; a node whose protocol
    /// engines ran is marked, and [`Self::settle`] adds what the marked
    /// nodes counted since they last were.
    sig: Progress,
    counted: Vec<(u64, u64)>,
    /// Bit `k % 64` of word `k / 64` marks node `k`.
    marked: Vec<u64>,
    /// Open booked runs: how many, and the sum of their start cycles.
    booked: (u64, u64),
    /// Halted CPUs: the step loop counts each `halt` it executes.
    pub(crate) halted: usize,
}

impl Schedule {
    pub(crate) fn new(nodes: &[Node], runs: &[Run], parked: &[bool], ready_at: &[u64]) -> Schedule {
        let cpu = nodes.iter().zip(parked.iter().zip(ready_at));
        let (tick, skip) = nodes.iter().map(proto_words).unzip();
        Schedule {
            cpu: Wake::new(cpu.map(|(n, (&p, &r))| cpu_word(n, p, r)).collect()),
            tick: Wake::new(tick),
            skip: Wake::new(skip),
            mem: Wake::new(runs.iter().map(Run::next_mem).collect()),
            sig: signature(nodes),
            counted: nodes.iter().map(protocol_counts).collect(),
            marked: vec![0; nodes.len().div_ceil(64)],
            booked: runs
                .iter()
                .filter(|r| r.is_open())
                .fold((0, 0), |(k, s), r| (k + 1, s + r.start)),
            halted: nodes.iter().filter(|n| n.cpu.is_halted()).count(),
        }
    }

    /// Node `k`'s protocol engines ran: its counts and deadlines may
    /// have moved.
    fn protocol_ran(&mut self, k: usize, n: &Node) {
        self.counts_moved(k);
        let (tick, skip) = proto_words(n);
        self.tick.set(k, tick);
        self.skip.set(k, skip);
    }

    /// Node `k`'s protocol counts may have moved, not its deadlines.
    fn counts_moved(&mut self, k: usize) {
        self.marked[k / 64] |= 1 << (k % 64);
    }

    fn retire(&mut self, instructions: u64) {
        self.sig.0 += instructions;
    }

    /// A run was booked at cycle `start`.
    fn book(&mut self, start: u64) {
        self.booked.0 += 1;
        self.booked.1 += start;
    }

    /// The run booked at `start` closed after `done` instructions.
    pub(crate) fn materialized(&mut self, start: u64, done: u32) {
        self.retire(done as u64);
        self.booked.0 -= 1;
        self.booked.1 -= start;
    }

    /// Lockstep's signature after cycle `c`, which no open run has run
    /// past (a run's end is a visit that closes it): each run counts
    /// the instructions it executed through `c`.
    pub(crate) fn through(&self, c: u64) -> Progress {
        let (runs, starts) = self.booked;
        (self.sig.0 + runs * (c + 1) - starts, self.sig.1, self.sig.2)
    }

    /// Adds what the marked nodes counted; returns the signature after
    /// cycle `c` (see [`Self::through`]).
    pub(crate) fn settle(&mut self, nodes: &[Node], c: u64) -> Progress {
        for w in 0..self.marked.len() {
            let mut bits = std::mem::take(&mut self.marked[w]);
            while bits != 0 {
                let k = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (now, was) = (protocol_counts(&nodes[k]), &mut self.counted[k]);
                self.sig.1 += now.0 - was.0;
                self.sig.2 += now.1 - was.1;
                *was = now;
            }
        }
        debug_assert_eq!(self.sig, signature(nodes));
        self.through(c)
    }
}

impl Alewife {
    /// Ends node `i`'s open run at cycle `t`, `start < t ≤ start +
    /// len`, whose memory ops before `t` are applied and the rest not:
    /// the ops before `t` retire, the rest are undone.
    pub(crate) fn cut(&mut self, i: usize, t: u64) {
        let (run, cpu) = (&mut self.runs[i], &mut self.nodes[i].cpu);
        let done = (t - run.start).min(run.len as u64) as u32;
        debug_assert!(run
            .mem
            .iter()
            .enumerate()
            .all(|(j, op)| (op.k < done) == (j < run.applied)));
        if done < run.len {
            let redone = cpu.run_ahead(&self.dec, done, &mut Replay(run.mem.iter()), &mut run.end);
            debug_assert_eq!(redone, done, "a replay runs as far as the run did");
        }
        cpu.commit_run(&run.end, done);
        self.sched.materialized(run.start, done);
        run.cap = (2 * done).clamp(1, MAX_RUN);
        run.close();
        self.sched.mem.set(i, u64::MAX);
    }

    /// Applies node `i`'s booked memory ops of cycles up to `through`,
    /// in order: the word written, the cache's access and the hit and
    /// memory-op counts, all as its step would have at that cycle.
    pub(crate) fn apply_mem(&mut self, i: usize, through: u64) {
        let (run, node) = (&mut self.runs[i], &mut self.nodes[i]);
        for op in &run.mem[run.applied..] {
            if run.start + op.k as u64 > through {
                break;
            }
            node.ctl
                .retire_hit(op.addr, node.cpu.fp(), op.write_grade());
            node.cpu.stats.mem_ops += 1;
            match op.access {
                Access::Load(f) if f.reset_fe => {
                    let got = self.mem.apply_load(op.addr, f);
                    debug_assert_eq!(got, Some((op.word, op.fe)));
                }
                Access::Load(_) => {}
                Access::Store(f) => {
                    let got = self.mem.apply_store(op.addr, op.word, f);
                    debug_assert_eq!(got, Some(op.fe));
                }
            }
            run.applied += 1;
        }
        self.sched.mem.set(i, run.next_mem());
        // A hit moves the controller's counts, never its deadlines.
        self.sched.counts_moved(i);
    }

    /// Applies every booked memory op of cycles up to `through`
    /// (DESIGN.md §13 R1): what a reader of memory, a ledger or the
    /// signature after that cycle sees is what lockstep shows.
    pub(crate) fn apply_due_mem(&mut self, through: u64) {
        self.for_each_due(
            through,
            |m| &mut m.sched.mem,
            |m, i| m.apply_mem(i, through),
        );
    }

    /// Cuts at cycle `t` every booked run with a memory op still to
    /// apply on a word written through [`FeMemory`]'s journaled
    /// mutators since the last call (DESIGN.md §13 R3): lockstep would
    /// have made that op see the write.
    pub(crate) fn cut_written(&mut self, t: u64) {
        if !self.mem.has_written() {
            return;
        }
        let mut written = std::mem::take(&mut self.scratch.written);
        self.mem.swap_written(&mut written);
        let stale = |run: &Run| {
            written.may_cover(run.mask)
                && run.mem[run.applied..]
                    .iter()
                    .any(|op| written.covers(op.addr))
        };
        self.for_each_due(
            u64::MAX - 1,
            |m| &mut m.sched.mem,
            |m, i| {
                if stale(&m.runs[i]) {
                    m.cut(i, t);
                    m.ready_at[i] = t;
                    m.sched.cpu.set(i, t);
                }
            },
        );
        written.clear();
        self.scratch.written = written;
    }

    /// Runs `act` on every node whose word in `wake(self)` is at most
    /// `c`, in index order, skipping blocks whose bound is past `c`; a
    /// scanned block gets its exact bound.
    fn for_each_due(
        &mut self,
        c: u64,
        wake: impl Fn(&mut Self) -> &mut Wake,
        mut act: impl FnMut(&mut Self, usize),
    ) {
        let n = self.nodes.len();
        for start in (0..n).step_by(BLOCK) {
            if wake(self).bound(start) > c {
                continue;
            }
            let mut min = u64::MAX;
            for k in start..(start + BLOCK).min(n) {
                let mut word = wake(self).get(k);
                if word <= c {
                    // `act` rewrites node `k`'s word and no other.
                    act(self, k);
                    word = wake(self).get(k);
                }
                min = min.min(word);
            }
            wake(self).set_bound(start, min);
        }
    }

    /// Phase one of cycle `c` — open-loop ingress (DESIGN.md §15):
    /// requests whose birth cycle is due land in their edge node's ring
    /// before any deliveries or steps this cycle, so a service loop
    /// polling the slot observes them at the exact same cycle under
    /// both schedulers. Injection is a functional edge-DMA write; it
    /// makes no CPU runnable (parked nodes discover the data through
    /// their own polling).
    pub(crate) fn ingress(&mut self, c: u64) {
        let Some(plan) = self.plan.as_deref() else {
            return;
        };
        for &(node, _) in plan.entries() {
            if let Some(tr) = self.nodes[node].traffic.as_deref_mut() {
                inject_due(plan, node, tr, c, &mut self.mem);
            }
        }
    }

    /// Phase two, once per message due at cycle `c`, in the network's
    /// hand-over order: hands `env` to node `dst`.
    ///
    /// A delivery can make its destination CPU runnable — but only a
    /// CPU-touching one (a reply waking a frame, an IPI posting an
    /// interrupt). Directory-bound traffic never changes processor
    /// state, and no delivery touches any *other* node's processor, so
    /// exactly the CPU-touching deliveries unpark their destination and
    /// cut its booked run.
    pub(crate) fn deliver(&mut self, c: u64, dst: usize, env: Env) {
        if msg_touches_cpu(&env.msg) {
            // Cut a booked run *before* this cycle's instruction: the
            // `c - start` instructions whose cycles have fully elapsed
            // retire, and the node steps (or re-books) this cycle — so
            // e.g. an IPI's interrupt is taken exactly where lockstep
            // would take it.
            if self.runs[dst].is_open() {
                self.cut(dst, c);
                self.ready_at[dst] = c;
            }
        }
        let node = &mut self.nodes[dst];
        // Clocks are stamped on demand: the handlers below timestamp
        // trace events and compute retry deadlines from their engine's
        // clock.
        node.cpu.set_clock(c);
        node.ctl.set_clock(c);
        node.dir.set_clock(c);
        if msg_touches_cpu(&env.msg) {
            if self.parked[dst] {
                // The idle span accrued since the node parked ends
                // *here*: the delivery makes the CPU runnable this very
                // cycle, so the span `[ready_at, c)` was idle but `c`
                // itself is not — exactly the per-cycle charges
                // lockstep makes before the delivery wakes the node.
                if !node.cpu.is_halted() && self.ready_at[dst] < c {
                    node.cpu.charge_idle(c - self.ready_at[dst]);
                    self.ready_at[dst] = c;
                }
                self.parked[dst] = false;
            }
            self.sched
                .cpu
                .set(dst, cpu_word(node, false, self.ready_at[dst]));
        }
        let Scratch { out, dir_out, .. } = &mut self.scratch;
        out.clear();
        dir_out.clear();
        let dispatched = dispatch_to_node(dst, node, env, &self.cfg, out, dir_out);
        self.sched.protocol_ran(dst, node);
        match dispatched {
            Ok(()) => {
                // Controller-originated messages leave immediately (the
                // cache tags are SRAM); every directory-generated
                // message pays the home memory latency — the directory
                // lives in DRAM beside the data. The delay is uniform,
                // which also keeps home→node message streams FIFO: a
                // later-generated invalidation can never overtake an
                // earlier data grant.
                post(&mut self.net, &self.cfg, c, dst, out);
                post(
                    &mut self.net,
                    &self.cfg,
                    c + self.cfg.mem_latency,
                    dst,
                    dir_out,
                );
            }
            Err(fault) => {
                self.fault.get_or_insert(fault);
            }
        }
    }

    /// Phase three of cycle `c`: steps every due processor in node
    /// order, appending the events that need run-time attention onto
    /// `evs`.
    ///
    /// A CPU still parked once this cycle's deliveries are in has a
    /// `u64::MAX` word and is not stepped at all: stepping it would
    /// yield `NoReadyFrame`, which every driver answers with exactly
    /// `charge_idle(i, 1)`, so its idle cycles are a pure function of
    /// `(ready_at, now)`, charged when it unparks (see
    /// `Alewife::pending_idle`).
    pub(crate) fn step(&mut self, c: u64, evs: &mut Vec<(usize, StepEvent)>) {
        self.for_each_due(c, |m| &mut m.sched.cpu, |m, i| m.step_node(i, c, evs));
    }

    /// Steps node `i`, whose CPU word is due.
    fn step_node(&mut self, i: usize, c: u64, evs: &mut Vec<(usize, StepEvent)>) {
        let node = &mut self.nodes[i];
        if node.cpu.is_halted() {
            // Halted behind the word's back (by a driver).
            self.sched.cpu.set(i, u64::MAX);
            return;
        }
        debug_assert!(!self.parked[i] && self.ready_at[i] == self.sched.cpu.get(i));
        // This node acts this cycle: give all three of its engines the
        // current clock (trace timestamps, retry deadlines).
        node.cpu.set_clock(c);
        node.ctl.set_clock(c);
        node.dir.set_clock(c);
        // Booked runs (DESIGN.md §13): a visit first retires the run
        // that just elapsed, then runs the CPU ahead as far as it can
        // go without an event and books the ops it ran: the whole span
        // is charged now and retires at the next visit. A booked cycle
        // emits no event and sends nothing, which is exactly what
        // lockstep's per-cycle `Executed` steps amount to. Lockstep
        // never books: it is the per-instruction referee.
        let run = &mut self.runs[i];
        if run.is_open() {
            node.cpu.commit_run(&run.end, run.len);
            self.sched.materialized(run.start, run.len);
            run.cap = (2 * run.cap).min(MAX_RUN);
            run.close();
        }
        let pc = node.cpu.active_frame().pc;
        if !self.cfg.lockstep && self.dec.op(pc).is_some_and(|op| op != DecOp::Other) {
            let mut ahead = Ahead {
                ctl: &node.ctl,
                frame: node.cpu.fp(),
                mem: &self.mem,
                ops: &mut run.mem,
            };
            let len = node
                .cpu
                .run_ahead(&self.dec, run.cap, &mut ahead, &mut run.end);
            if len > 0 {
                (run.start, run.len) = (c, len);
                run.mask = run.mem.iter().fold(0, |m, op| m | Written::mask(op.addr));
                self.sched.mem.set(i, run.next_mem());
                self.sched.book(c);
                self.ready_at[i] = c + len as u64;
                self.sched.cpu.set(i, self.ready_at[i]);
                return;
            }
        }
        let Scratch {
            out, io, retired, ..
        } = &mut self.scratch;
        out.clear();
        io.clear();
        retired.clear();
        let (cycles, instrs) = (node.cpu.stats.total(), node.cpu.stats.instructions);
        let mut accessed = false;
        let ev = node.cpu.step(
            &self.prog,
            NodePort {
                node: i,
                ctl: &mut node.ctl,
                dir: &mut node.dir,
                io_regs: &mut node.io_regs,
                mem: &mut self.mem,
                cfg: &self.cfg,
                out,
                io_sends: io,
                retired,
                accessed: &mut accessed,
            },
        );
        self.ready_at[i] = c + (node.cpu.stats.total() - cycles);
        if node.cpu.is_halted() {
            self.sched.halted += 1;
            self.halted_at[i].get_or_insert(c);
        }
        self.sched
            .cpu
            .set(i, cpu_word(node, false, self.ready_at[i]));
        self.sched.retire(node.cpu.stats.instructions - instrs);
        if accessed {
            self.sched.protocol_ran(i, node);
        }
        if let (Some(plan), Some(tr)) = (self.plan.as_deref(), node.traffic.as_deref_mut()) {
            for &w in retired.iter() {
                record_retire(plan, i, tr, w, c);
            }
        }
        post(&mut self.net, &self.cfg, c, i, out);
        for &(to, msg) in io.iter() {
            self.net.send(c, i, to, MIN_FLITS, Env { src: i, msg });
        }
        match ev {
            StepEvent::Executed | StepEvent::Stalled { .. } => {}
            other => evs.push((i, other)),
        }
    }

    /// Phase four of cycle `c`: advances the protocol clocks in node
    /// order — controller, then directory, per node — retransmitting
    /// overdue requests and overdue demands. `tick` stamps its engine's
    /// clock itself and is a no-op until its raw deadline, so the call
    /// (and its scratch churn) is skipped until the node's tick word
    /// says something is due.
    pub(crate) fn tick(&mut self, c: u64) {
        self.for_each_due(c, |m| &mut m.sched.tick, |m, i| m.tick_node(i, c));
    }

    /// Ticks node `i`, whose tick word is due.
    fn tick_node(&mut self, i: usize, c: u64) {
        let (cfg, out) = (&self.cfg, &mut self.scratch.out);
        let node = &mut self.nodes[i];
        if node.ctl.tick_pending(c) {
            out.clear();
            match node.ctl.tick(c, |a| cfg.home_of(a), out) {
                Ok(()) => post(&mut self.net, cfg, c, i, out),
                Err(error) => {
                    self.fault
                        .get_or_insert(MachineFault::Protocol { node: i, error });
                }
            }
        }
        if node.dir.tick_pending(c) {
            out.clear();
            match node.dir.tick(c, out) {
                Ok(()) => post(&mut self.net, cfg, c + cfg.mem_latency, i, out),
                Err(error) => {
                    self.fault
                        .get_or_insert(MachineFault::Protocol { node: i, error });
                }
            }
        }
        self.sched.protocol_ran(i, node);
    }
}

//! The node-cycle kernel: what one cycle of machine work does to a
//! contiguous slice of ALEWIFE nodes (paper, Figure 1 — processor,
//! cache/directory controller, network interface — defined once and
//! replicated).
//!
//! A cycle is four phases over a [`Cells`] view, always in this order:
//! open-loop [ingress](Cells::ingress), [delivery](Cells::deliver) of
//! the network messages due, the CPU [step](Cells::step) loop, and the
//! protocol [tick](Cells::tick) loop. Schedulers only decide *when* to
//! run a cycle and over *which* slice: the sequential machine runs the
//! whole machine at the cycles its event skip selects; a parallel shard
//! runs its slice at every cycle of a conservative window, against a
//! memory replica and a write log.
//!
//! The one thing the kernel is generic over is where sends and faults
//! go — the [`Outbox`]. Packet ids, and through them fault-injection
//! verdicts and event tie-breaks, depend only on the order of
//! `Network::send` calls. The kernel announces every sending *unit*
//! with a `(cycle, phase, unit)` key that ascends in exactly the order
//! a whole-machine pass visits them: phase 0 is delivery dispatch
//! (unit = hand-over index), phase 1 the step loop (unit = node id),
//! phase 2 the tick loop (unit = `2·node` for the controller,
//! `2·node + 1` for the directory). An outbox that injects immediately
//! and one that stages `(key, seq)`-tagged sends and injects them
//! sorted therefore produce the same network, bit for bit
//! (DESIGN.md §9).

use crate::alewife::{dispatch_to_node, msg_touches_cpu, Env, Node, NodePort, Resv, MIN_RUN};
use crate::config::MachineConfig;
use crate::traffic::{inject_due, record_retire, ArrivalPlan};
use crate::watchdog::MachineFault;
use april_core::cpu::StepEvent;
use april_core::decoded::DecodedProgram;
use april_core::program::Program;
use april_mem::femem::FeMemory;
use april_mem::msg::CohMsg;

/// The smallest protocol packet in flits (header + address): the size
/// of every I/O-triggered send, and the packet the parallel lookahead
/// bound is computed against. `CohMsg::size_flits` never reports less.
pub(crate) const MIN_FLITS: u64 = 2;

/// Where a cycle's network sends and fatal faults go.
pub(crate) trait Outbox {
    /// Announces the unit whose sends (and possible fault) follow.
    fn unit(&mut self, cycle: u64, phase: u8, unit: u64);
    /// One network injection, in the unit's program order.
    fn send(&mut self, at: u64, src: usize, dst: usize, size: u64, env: Env);
    /// A fatal fault raised by the current unit; the first one wins.
    fn fault(&mut self, fault: MachineFault);
}

/// Scratch buffers reused across cycles so the hot loops allocate
/// nothing: controller sends, directory sends, I/O sends, retired
/// request words.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    out: Vec<(usize, CohMsg)>,
    dir_out: Vec<(usize, CohMsg)>,
    io: Vec<(usize, CohMsg)>,
    retired: Vec<u32>,
}

/// A contiguous slice of the machine plus everything one cycle of its
/// work reads or writes. `base` is the global id of `nodes[0]`; the
/// per-node slices are all indexed locally.
pub(crate) struct Cells<'a> {
    pub(crate) base: usize,
    pub(crate) nodes: &'a mut [Node],
    pub(crate) ready_at: &'a mut [u64],
    pub(crate) halted_at: &'a mut [Option<u64>],
    /// See [`crate::Alewife::parked`]. Window shards never park, so
    /// theirs stays all-false and the parked branches never run.
    pub(crate) parked: &'a mut [bool],
    /// The slice's wake words and signature counts: the phase loops
    /// open a [`Node`] only when its word says it is due.
    pub(crate) sched: &'a mut Schedule,
    /// The memory this slice's processors see: the canonical image, or
    /// a shard's replica.
    pub(crate) mem: &'a mut FeMemory,
    /// When present, every address a processor access or an ingress
    /// injection mutates is appended here (see [`NodePort::write_log`]).
    pub(crate) write_log: Option<&'a mut Vec<u32>>,
    pub(crate) prog: &'a Program,
    pub(crate) dec: Option<&'a DecodedProgram>,
    pub(crate) cfg: &'a MachineConfig,
    pub(crate) plan: Option<&'a ArrivalPlan>,
    pub(crate) scratch: &'a mut Scratch,
}

/// Hands one unit's messages to the outbox, sized for the wire.
fn post<O: Outbox>(ob: &mut O, cfg: &MachineConfig, at: u64, src: usize, msgs: &[(usize, CohMsg)]) {
    for &(to, msg) in msgs {
        let size = msg.size_flits(cfg.block_words()) as u64;
        ob.send(at, src, to, size, Env { src, msg });
    }
}

/// Forward-progress signature counts: instructions retired, directory
/// events, controller events.
pub(crate) type Progress = (u64, u64, u64);

/// Node `n`'s protocol counts: directory events, controller events.
fn protocol_counts(n: &Node) -> (u64, u64) {
    (n.dir.stats.total(), n.ctl.stats.total())
}

/// The slice's signature counted from scratch.
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

/// A slice's derived scheduling state, built from its nodes in O(N)
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
    /// Instructions are added as they retire; a node whose protocol
    /// engines ran is marked, and [`Self::settle`] adds what the marked
    /// nodes counted since they last were.
    sig: Progress,
    counted: Vec<(u64, u64)>,
    /// Bit `k % 64` of word `k / 64` marks node `k`.
    marked: Vec<u64>,
    /// Halted CPUs: the step loop counts each `halt` it executes.
    pub(crate) halted: usize,
}

impl Schedule {
    pub(crate) fn new(nodes: &[Node], parked: &[bool], ready_at: &[u64]) -> Schedule {
        let cpu = nodes.iter().zip(parked.iter().zip(ready_at));
        let (tick, skip) = nodes.iter().map(proto_words).unzip();
        Schedule {
            cpu: Wake::new(cpu.map(|(n, (&p, &r))| cpu_word(n, p, r)).collect()),
            tick: Wake::new(tick),
            skip: Wake::new(skip),
            sig: signature(nodes),
            counted: nodes.iter().map(protocol_counts).collect(),
            marked: vec![0; nodes.len().div_ceil(64)],
            halted: nodes.iter().filter(|n| n.cpu.is_halted()).count(),
        }
    }

    /// Node `k`'s protocol engines ran: its counts and deadlines may
    /// have moved.
    fn protocol_ran(&mut self, k: usize, n: &Node) {
        self.marked[k / 64] |= 1 << (k % 64);
        let (tick, skip) = proto_words(n);
        self.tick.set(k, tick);
        self.skip.set(k, skip);
    }

    pub(crate) fn retire(&mut self, instructions: u64) {
        self.sig.0 += instructions;
    }

    /// Adds what the marked nodes counted; returns the signature.
    pub(crate) fn settle(&mut self, nodes: &[Node]) -> Progress {
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
        self.sig
    }
}

impl Cells<'_> {
    /// Runs `act` on every node whose word in `wake(self)` is at most
    /// `c`, in index order, skipping blocks whose bound is past `c`; a
    /// block scanned with nothing due gets its exact bound.
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
            let (mut min, mut acted) = (u64::MAX, false);
            for k in start..(start + BLOCK).min(n) {
                let word = wake(self).get(k);
                if word <= c {
                    act(self, k);
                    acted = true;
                }
                min = min.min(word);
            }
            if !acted {
                wake(self).set_bound(start, min);
            }
        }
    }

    /// Phase one of cycle `c` — open-loop ingress (DESIGN.md §15):
    /// requests whose birth cycle is due land in their edge node's ring
    /// before any deliveries or steps this cycle, so a service loop
    /// polling the slot observes them at the exact same cycle under
    /// every scheduler. Injection is a functional edge-DMA write; it
    /// makes no CPU runnable (parked nodes discover the data through
    /// their own polling). Only the edge node itself ever touches its
    /// ring slots, so a shard's replica is always current for them.
    pub(crate) fn ingress(&mut self, c: u64) {
        let Some(plan) = self.plan else {
            return;
        };
        for &(node, _) in plan.entries() {
            let Some(n) = node
                .checked_sub(self.base)
                .and_then(|k| self.nodes.get_mut(k))
            else {
                continue;
            };
            if let Some(tr) = n.traffic.as_deref_mut() {
                inject_due(plan, node, tr, c, self.mem, self.write_log.as_deref_mut());
            }
        }
    }

    /// Phase two, once per message due at cycle `c`: hands `env` to
    /// node `dst`. `unit` is the message's position in the machine-wide
    /// hand-over order.
    ///
    /// A delivery can make its destination CPU runnable — but only a
    /// CPU-touching one (a reply waking a frame, an IPI posting an
    /// interrupt). Directory-bound traffic never changes processor
    /// state, and no delivery touches any *other* node's processor, so
    /// exactly the CPU-touching deliveries unpark their destination and
    /// cut its booked run.
    pub(crate) fn deliver<O: Outbox>(
        &mut self,
        c: u64,
        unit: u64,
        dst: usize,
        env: Env,
        ob: &mut O,
    ) {
        let k = dst - self.base;
        let node = &mut self.nodes[k];
        // Clocks are stamped on demand: the handlers below timestamp
        // trace events and compute retry deadlines from their engine's
        // clock.
        node.cpu.set_clock(c);
        node.ctl.set_clock(c);
        node.dir.set_clock(c);
        if msg_touches_cpu(&env.msg) {
            if self.parked[k] {
                // The idle span accrued since the node parked ends
                // *here*: the delivery makes the CPU runnable this very
                // cycle, so the span `[ready_at, c)` was idle but `c`
                // itself is not — exactly the per-cycle charges
                // lockstep would have made before the delivery woke
                // the node.
                if !node.cpu.is_halted() && self.ready_at[k] < c {
                    node.cpu.charge_idle(c - self.ready_at[k]);
                    self.ready_at[k] = c;
                }
                self.parked[k] = false;
            }
            // Cut a booked run *before* this cycle's instruction: the
            // `c - start` instructions whose cycles have fully elapsed
            // materialize, and the node steps (or re-books) this cycle
            // — so e.g. an IPI's interrupt is taken exactly where
            // lockstep would take it.
            if let Some(r) = node.resv.take() {
                let done = (c - r.start) as u32;
                if done > 0 {
                    let dec = self.dec.expect("booked run without decode image");
                    node.cpu.run_decoded(dec, done);
                    self.sched.retire(done as u64);
                }
                self.ready_at[k] = c;
            }
            self.sched
                .cpu
                .set(k, cpu_word(node, false, self.ready_at[k]));
        }
        let Scratch { out, dir_out, .. } = &mut *self.scratch;
        out.clear();
        dir_out.clear();
        ob.unit(c, 0, unit);
        match dispatch_to_node(dst, node, env, self.cfg, out, dir_out) {
            Ok(()) => {
                // Controller-originated messages leave immediately (the
                // cache tags are SRAM); every directory-generated
                // message pays the home memory latency — the directory
                // lives in DRAM beside the data. The delay is uniform,
                // which also keeps home→node message streams FIFO: a
                // later-generated invalidation can never overtake an
                // earlier data grant.
                post(ob, self.cfg, c, dst, out);
                post(ob, self.cfg, c + self.cfg.mem_latency, dst, dir_out);
            }
            Err(fault) => ob.fault(fault),
        }
        self.sched.protocol_ran(k, node);
    }

    /// Phase three of cycle `c`: steps every due processor in node
    /// order, appending the events that need run-time attention onto
    /// `evs` under global node ids.
    ///
    /// A CPU still parked once this cycle's deliveries are in has a
    /// `u64::MAX` word and is not stepped at all: stepping it would
    /// yield `NoReadyFrame`, which every driver answers with exactly
    /// `charge_idle(i, 1)`, so its idle cycles are a pure function of
    /// `(ready_at, now)`, charged when it unparks (see
    /// `Alewife::pending_idle`).
    pub(crate) fn step<O: Outbox>(
        &mut self,
        c: u64,
        ob: &mut O,
        evs: &mut Vec<(usize, StepEvent)>,
    ) {
        self.for_each_due(c, |s| &mut s.sched.cpu, |s, k| s.step_node(k, c, ob, evs));
    }

    /// Steps the node at local index `k`, whose CPU word is due.
    fn step_node<O: Outbox>(
        &mut self,
        k: usize,
        c: u64,
        ob: &mut O,
        evs: &mut Vec<(usize, StepEvent)>,
    ) {
        let node = &mut self.nodes[k];
        if node.cpu.is_halted() {
            // Halted behind the word's back (by a driver).
            self.sched.cpu.set(k, u64::MAX);
            return;
        }
        debug_assert!(!self.parked[k] && self.ready_at[k] == self.sched.cpu.get(k));
        // This node acts this cycle: give all three of its engines the
        // current clock (trace timestamps, retry deadlines).
        node.cpu.set_clock(c);
        node.ctl.set_clock(c);
        node.dir.set_clock(c);
        // Decode engine (DESIGN.md §13): a visit first materializes the
        // booked run that just elapsed, then — if the next instructions
        // are a safe straight-line run — books a new one: charge the
        // whole span now, execute at the next visit. A booked cycle
        // emits no event and sends nothing (safe ops can't), which is
        // exactly what lockstep's per-cycle `Executed` steps amount to.
        if let Some(dec) = self.dec {
            if let Some(r) = node.resv.take() {
                node.cpu.run_decoded(dec, r.len);
                self.sched.retire(r.len as u64);
            }
            let len = node.cpu.bookable_run(dec);
            if len >= MIN_RUN {
                node.resv = Some(Resv { start: c, len });
                self.ready_at[k] = c + len as u64;
                self.sched.cpu.set(k, self.ready_at[k]);
                return;
            }
        }
        let i = self.base + k;
        let Scratch {
            out, io, retired, ..
        } = &mut *self.scratch;
        out.clear();
        io.clear();
        retired.clear();
        let (cycles, instrs) = (node.cpu.stats.total(), node.cpu.stats.instructions);
        let mut accessed = false;
        let ev = node.cpu.step(
            self.prog,
            NodePort {
                node: i,
                ctl: &mut node.ctl,
                dir: &mut node.dir,
                io_regs: &mut node.io_regs,
                mem: self.mem,
                cfg: self.cfg,
                out,
                io_sends: io,
                write_log: self.write_log.as_deref_mut(),
                retired,
                accessed: &mut accessed,
            },
        );
        self.ready_at[k] = c + (node.cpu.stats.total() - cycles);
        if node.cpu.is_halted() {
            self.sched.halted += 1;
            self.halted_at[k].get_or_insert(c);
        }
        self.sched
            .cpu
            .set(k, cpu_word(node, false, self.ready_at[k]));
        self.sched.retire(node.cpu.stats.instructions - instrs);
        if accessed {
            self.sched.protocol_ran(k, node);
        }
        if let (Some(plan), Some(tr)) = (self.plan, node.traffic.as_deref_mut()) {
            for &w in retired.iter() {
                record_retire(plan, i, tr, w, c);
            }
        }
        ob.unit(c, 1, i as u64);
        post(ob, self.cfg, c, i, out);
        for &(to, msg) in io.iter() {
            ob.send(c, i, to, MIN_FLITS, Env { src: i, msg });
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
    pub(crate) fn tick<O: Outbox>(&mut self, c: u64, ob: &mut O) {
        self.for_each_due(c, |s| &mut s.sched.tick, |s, k| s.tick_node(k, c, ob));
    }

    /// Ticks the node at local index `k`, whose tick word is due.
    fn tick_node<O: Outbox>(&mut self, k: usize, c: u64, ob: &mut O) {
        let (cfg, out) = (self.cfg, &mut self.scratch.out);
        let node = &mut self.nodes[k];
        let i = self.base + k;
        if node.ctl.tick_pending(c) {
            out.clear();
            ob.unit(c, 2, 2 * i as u64);
            match node.ctl.tick(c, |a| cfg.home_of(a), out) {
                Ok(()) => post(ob, cfg, c, i, out),
                Err(error) => ob.fault(MachineFault::Protocol { node: i, error }),
            }
        }
        if node.dir.tick_pending(c) {
            out.clear();
            ob.unit(c, 2, 2 * i as u64 + 1);
            match node.dir.tick(c, out) {
                Ok(()) => post(ob, cfg, c + cfg.mem_latency, i, out),
                Err(error) => ob.fault(MachineFault::Protocol { node: i, error }),
            }
        }
        self.sched.protocol_ran(k, node);
    }
}

#[cfg(test)]
mod tests {
    use crate::driver::{drive_sequential, drive_sequential_until, SwitchSpin};
    use crate::{diff_snapshots, Alewife, Machine, MachineConfig, ParallelAlewife};
    use april_core::isa::asm::assemble;
    use april_core::program::Program;
    use april_net::network::NetConfig;
    use april_net::topology::Topology;

    /// False-sharing increments (remote misses: parked CPUs, protocol
    /// traffic) separated by straight-line ALU work (booked runs).
    fn prog() -> Program {
        assemble(
            "
            ldio 1, r8         ; node id (fixnum == 4*id: byte offset)
            movi 0x200, r9
            add r9, r8, r9     ; my word within the shared block
            movi 12, r10
        loop:
            ld r9+0, r11
            add r11, 4, r11
            st r11, r9+0
            add r12, 1, r12
            add r12, r12, r13
            add r13, r12, r14
            add r14, r13, r15
            add r15, 1, r12
            sub r10, 1, r10
            jne loop
            nop
            halt
        ",
        )
        .unwrap()
    }

    /// The sequential and the windowed scheduler run the same kernel
    /// over the same machine, so they may take turns on it: every
    /// hand-over (parked flags dropped, signature marked stale, booked
    /// runs carried across, node slices lent and returned) must land on
    /// the state an all-sequential run reaches.
    #[test]
    fn schedulers_alternate_on_one_machine() {
        let cfg = MachineConfig {
            topology: Topology::new(2, 2),
            region_bytes: 1 << 20,
            workers: 2,
            // A 2-cycle loopback earns 2-cycle windows, so odd cuts
            // clamp a window.
            net: NetConfig {
                hop_latency: 1,
                loopback_latency: 2,
            },
            ..MachineConfig::default()
        };
        let driver = SwitchSpin::default();
        let max = 1_000_000;

        let mut reference = Alewife::new(cfg, prog());
        reference.boot_all();
        assert_eq!(drive_sequential(&mut reference, &driver, max), None);

        let mut m = ParallelAlewife::new(cfg, prog());
        m.boot_all();
        for (i, cut) in [41, 90, 157, 300, 455].into_iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(drive_sequential_until(&mut m, &driver, cut, max), None);
            } else {
                assert_eq!(m.run_until(&driver, cut, max), None);
            }
            assert_eq!(m.now(), cut, "cut {i} lands exactly");
            assert!(!m.finished(), "cut {i} is mid-run");
        }
        assert_eq!(drive_sequential(&mut m, &driver, max), None);

        assert_eq!(m.halted_cycles(), reference.halted_cycles());
        assert_eq!(
            diff_snapshots(&reference.checkpoint().unwrap(), &m.checkpoint().unwrap()),
            None
        );
    }
}

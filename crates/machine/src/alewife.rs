//! The full ALEWIFE machine: APRIL processors, coherent caches,
//! distributed directories, and the direct network (paper, Figure 1).
//!
//! Each node couples a processor, a cache controller with its cache, a
//! directory for the memory it is home to, and a network interface.
//! Remote cache misses trap the processor (so the run-time can switch
//! task frames) while the controller conducts the protocol transaction;
//! when the reply arrives the waiting frame is made runnable again.
//!
//! Data words are functionally backed by a single global [`FeMemory`]
//! (a standard timing-simulator shortcut): caches and directories carry
//! tags and protocol state, messages carry realistic sizes, and all
//! timing — local fills, remote round trips, invalidations,
//! write-backs, contention — is simulated faithfully.

use crate::config::MachineConfig;
use crate::kernel::{cpu_word, proto_words, Schedule, Scratch, BLOCK};
use crate::traffic::{ArrivalPlan, NodeTraffic, IO_RETIRE};
use crate::watchdog::{
    BusyEntry, FrameStall, InFlightMsg, MachineFault, OutstandingTxn, PostMortem, UndeliverableMsg,
    Watchdog,
};
use crate::Machine;
use april_core::cpu::{Cpu, StepEvent};
use april_core::decoded::DecodedProgram;
use april_core::frame::FrameState;
use april_core::isa::{LoadFlavor, StoreFlavor};
use april_core::memport::{AccessCtx, LoadReply, MemoryPort, StoreReply};
use april_core::program::Program;
use april_core::stats::CpuStats;
use april_core::word::Word;
use april_mem::controller::{CacheController, Outcome};
use april_mem::directory::Directory;
use april_mem::femem::FeMemory;
use april_mem::msg::CohMsg;
use april_net::fault::{FaultPlan, FaultStats};
use april_net::network::Network;
use april_net::topology::Channel;
use april_obs::{lane, Component, EventKind, Probe, StatsReport, Trace, TraceConfig};

/// I/O register: reading returns this node's id (fixnum).
pub const IO_NODE_ID: u16 = 1;
/// I/O register: reading returns the fence counter (fixnum).
pub const IO_FENCE: u16 = 2;
/// I/O register: writing node id `n` sends an IPI to node `n`.
pub const IO_IPI: u16 = 3;
/// I/O register: block-transfer destination node.
pub const IO_BXFER_NODE: u16 = 4;
/// I/O register: block-transfer address; writing triggers the transfer.
pub const IO_BXFER_ADDR: u16 = 5;
/// I/O register: block-transfer length in words (set before address).
pub const IO_BXFER_LEN: u16 = 6;

/// One ALEWIFE node.
#[derive(Debug)]
pub struct Node {
    /// The APRIL processor.
    pub cpu: Cpu,
    /// Requester-side cache controller.
    pub ctl: CacheController,
    /// Home-side directory for this node's memory region.
    pub dir: Directory,
    pub(crate) io_regs: [u32; 8],
    /// An outstanding *booked run* on the decode engine (DESIGN.md
    /// §13): at cycle `start` the CPU was known to execute `len`
    /// straight-line safe instructions over cycles `start ..
    /// start+len`, so the scheduler charged the whole span up front
    /// (`ready_at = start + len`) and deferred executing the ops. The
    /// run *materializes* — executes for real, in one tight loop — at
    /// the next visit, or is cut short the moment anything could
    /// observe or perturb the CPU (a delivery addressed to it, a
    /// driver mutation, a checkpoint). Scheduler bookkeeping, never
    /// snapshotted: restores clear it.
    pub(crate) resv: Option<Resv>,
    /// Open-loop traffic state (DESIGN.md §15): `Some` on edge
    /// I/O-handler nodes of a machine with [`MachineConfig::traffic`]
    /// set, `None` everywhere else.
    pub(crate) traffic: Option<Box<NodeTraffic>>,
}

/// A booked decode-engine run: `len` safe instructions promised over
/// cycles `start .. start + len`. See [`Node::resv`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Resv {
    pub(crate) start: u64,
    pub(crate) len: u32,
}

/// The smallest run worth booking: a 1-instruction "run" costs the
/// same bookkeeping as stepping, so book only from 2 up.
pub(crate) const MIN_RUN: u32 = 2;

/// Whether a delivered message can observe or perturb the destination
/// CPU. An IPI posts an interrupt the next step must take; every
/// controller-bound message can wake task frames. Directory-bound
/// messages only touch home-directory state, which a booked run of
/// safe (register-only) instructions can neither read nor write, so
/// they leave a reservation standing.
pub(crate) fn msg_touches_cpu(msg: &CohMsg) -> bool {
    !matches!(
        msg,
        CohMsg::RdReq { .. }
            | CohMsg::WrReq { .. }
            | CohMsg::InvAck { .. }
            | CohMsg::DownAck { .. }
            | CohMsg::WbInvalAck { .. }
            | CohMsg::FlushData { .. }
    )
}

/// A protocol message in flight.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Env {
    pub(crate) src: usize,
    pub(crate) msg: CohMsg,
}

/// The ALEWIFE machine.
#[derive(Debug)]
pub struct Alewife {
    /// Per-node state.
    pub nodes: Vec<Node>,
    pub(crate) mem: FeMemory,
    pub(crate) net: Network<Env>,
    pub(crate) prog: Program,
    /// The program lowered to flat bytecode for the decode engine
    /// (`None` with `cfg.decode` off). Derived state: rebuilt by
    /// construction, never part of a snapshot.
    pub(crate) dec: Option<DecodedProgram>,
    pub(crate) cfg: MachineConfig,
    pub(crate) ready_at: Vec<u64>,
    pub(crate) now: u64,
    pub(crate) watchdog: Watchdog,
    pub(crate) fault: Option<MachineFault>,
    /// `halted_at[i]`: the cycle at which node `i`'s CPU executed
    /// `halt`, once it has.
    pub(crate) halted_at: Vec<Option<u64>>,
    /// `parked[i]`: stepping CPU `i` is known to yield `NoReadyFrame`,
    /// which every driver answers with exactly `charge_idle(i, 1)` and
    /// nothing else. A parked CPU is neither stepped nor allowed to
    /// hold the event-driven skip back, and its idle cycles are a pure
    /// function of `(ready_at[i], now)` ([`Alewife::pending_idle`]):
    /// they are folded into the ledger when the node unparks or is
    /// checkpointed, and added on read by every ledger reader, which
    /// reproduces the lockstep ledger bit for bit. The flag is cleared
    /// by every path that could void the idle promise: a CPU-touching
    /// delivery to the node, a driver mutation of its CPU, or a
    /// shared-memory write (the run queue lives there, so all nodes are
    /// cleared). A stale `true` could skip real work; a spurious
    /// `false` only costs an extra idle step.
    pub(crate) parked: Vec<bool>,
    /// The dense per-node wake words the skip and the phase loops read
    /// instead of the nodes (a [`Node`] is opened only when it is due),
    /// and the forward-progress signature counts. Derived state: never
    /// snapshotted, rebuilt on restore.
    pub(crate) sched: Schedule,
    /// Scratch buffers reused across cycles so the hot loop allocates
    /// nothing: network deliveries, and the kernel's send buffers.
    scratch_deliveries: Vec<(usize, Env)>,
    pub(crate) scratch: Scratch,
    /// The open-loop arrival plan derived from `cfg.traffic` (`None`
    /// without traffic). Derived state, never snapshotted.
    pub(crate) plan: Option<Box<ArrivalPlan>>,
    /// Scheduler-internal events (watchdog arming/firing). Lives on
    /// the meta lane, which [`Trace::retain_semantic`] excludes from
    /// the cross-scheduler determinism contract.
    pub(crate) meta_probe: Probe,
    /// The CPU last handed out by [`Machine::cpu_mut`]: a driver may
    /// halt or boot it behind the halted count's back, so it is counted
    /// by looking, not in `sched.halted`, until the next advance takes
    /// it back.
    pub(crate) lent: Option<usize>,
}

impl Alewife {
    /// Builds the machine described by `cfg`, loading `prog`'s static
    /// image into global memory.
    pub fn new(cfg: MachineConfig, prog: Program) -> Alewife {
        let n = cfg.num_nodes();
        let mut mem = FeMemory::new(cfg.total_mem_bytes());
        mem.load_image(&prog);
        let plan = ArrivalPlan::build(&cfg).map(Box::new);
        let nodes = (0..n)
            .map(|i| Node {
                cpu: Cpu::new(cfg.cpu),
                ctl: CacheController::new(i, cfg.cache, cfg.ctl),
                dir: Directory::with_config(cfg.dir, n),
                io_regs: [0; 8],
                resv: None,
                traffic: plan
                    .as_ref()
                    .filter(|p| p.is_edge(i))
                    .map(|_| Box::default()),
            })
            .collect();
        let dec = cfg.decode.then(|| DecodedProgram::lower(&prog));
        let mut m = Alewife {
            nodes,
            mem,
            net: Network::new(cfg.topology, cfg.net),
            prog,
            dec,
            cfg,
            ready_at: vec![0; n],
            now: 0,
            watchdog: Watchdog::default(),
            fault: None,
            halted_at: vec![None; n],
            parked: vec![false; n],
            sched: Schedule::default(),
            scratch_deliveries: Vec::new(),
            scratch: Scratch::default(),
            plan,
            meta_probe: Probe::default(),
            lent: None,
        };
        m.rebuild_schedule();
        m
    }

    /// Installs a fault-injection plan on the network. The run stays
    /// exactly reproducible from the plan's seed and the machine's
    /// schedule.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.net.set_fault_plan(Some(plan));
    }

    /// Counts of faults the network has injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.net.fault_stats
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.net.fault_plan()
    }

    /// Quarantines a channel: the router detours around it from now on
    /// (installing an inert fault plan first if none was configured).
    pub fn quarantine_channel(&mut self, ch: Channel) {
        self.net.fault_plan_mut().quarantine_channel(ch);
    }

    /// Quarantines a node: the router stops routing through or to it.
    pub fn quarantine_node(&mut self, node: usize) {
        self.net.fault_plan_mut().quarantine_node(node);
    }

    /// Replaces the watchdog's no-progress horizon. The recovery layer
    /// backs this off exponentially across attempts; the horizon is
    /// scheduler policy, not machine state, so changing it never
    /// perturbs the simulated computation.
    pub fn set_watchdog_horizon(&mut self, horizon: u64) {
        self.cfg.watchdog.horizon = horizon;
    }

    /// The watchdog's current no-progress horizon.
    pub fn watchdog_horizon(&self) -> u64 {
        self.cfg.watchdog.horizon
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Network statistics so far.
    pub fn net_stats(&self) -> april_net::network::NetStats {
        self.net.stats
    }

    /// Sum of all processors' cycle ledgers.
    pub fn total_stats(&self) -> CpuStats {
        let mut s = CpuStats::default();
        for i in 0..self.nodes.len() {
            s.merge(&self.cpu_stats(i));
        }
        s
    }

    /// Boots node 0 at the program entry (the run-time system
    /// dispatches everything else).
    pub fn boot(&mut self) {
        let entry = self.prog.entry;
        self.nodes[0].cpu.boot(entry);
        self.rebuild_schedule();
    }

    /// Boots every node at the program entry — the SPMD convention the
    /// sweep/serve harnesses and the equivalence suites use, where all
    /// processors run the same program and self-select work by node
    /// id.
    pub fn boot_all(&mut self) {
        let entry = self.prog.entry;
        for node in &mut self.nodes {
            node.cpu.boot(entry);
        }
        self.rebuild_schedule();
    }

    /// Rebuilds the schedule from the nodes (construction, boot,
    /// restore).
    pub(crate) fn rebuild_schedule(&mut self) {
        self.sched = Schedule::new(&self.nodes, &self.parked, &self.ready_at);
        self.lent = None;
    }

    /// Idle cycles parked CPU `i` is owed: lockstep would have charged
    /// one at each cycle `ready_at[i] ..= now`.
    pub(crate) fn pending_idle(&self, i: usize) -> u64 {
        if self.parked[i] && !self.nodes[i].cpu.is_halted() {
            (self.now + 1).saturating_sub(self.ready_at[i])
        } else {
            0
        }
    }

    /// Charges parked CPU `i` what it is owed, leaving the ledger and
    /// `ready_at` lockstep would show after the current cycle.
    pub(crate) fn settle_idle(&mut self, i: usize) {
        let idle = self.pending_idle(i);
        if idle > 0 {
            self.nodes[i].cpu.charge_idle(idle);
            self.ready_at[i] = self.now + 1;
        }
    }

    /// Rewrites CPU `i`'s word after a driver call moved `ready_at` or
    /// `parked`, ignoring halts: the CPU may be the one lent out.
    fn set_cpu_wake(&mut self, i: usize) {
        let word = if self.parked[i] {
            u64::MAX
        } else {
            self.ready_at[i]
        };
        self.sched.cpu.set(i, word);
    }

    /// Settles and clears CPU `i`'s parked flag.
    fn unpark(&mut self, i: usize) {
        if self.parked[i] {
            self.settle_idle(i);
            self.parked[i] = false;
            self.set_cpu_wake(i);
        }
    }

    /// Unparks every CPU, opening only the parked nodes.
    fn unpark_all(&mut self) {
        if self.parked.iter().fold(false, |any, &p| any | p) {
            for i in 0..self.parked.len() {
                self.unpark(i);
            }
        }
    }

    /// Takes back the CPU [`Machine::cpu_mut`] lent out.
    fn reclaim_lent(&mut self) {
        if let Some(i) = self.lent.take() {
            if self.nodes[i].cpu.is_halted() {
                self.sched.halted += 1;
            }
        }
    }

    /// Settles node `i`'s booked run *after* the current cycle's work:
    /// instructions through cycle `now` inclusive materialize and the
    /// node is ready next cycle. Called before anything outside the
    /// advance loop (a driver mutation, a checkpoint) can observe the
    /// CPU.
    pub(crate) fn settle_resv(&mut self, i: usize) {
        let Some(r) = self.nodes[i].resv.take() else {
            return;
        };
        let done = (self.now - r.start + 1).min(r.len as u64) as u32;
        let dec = self.dec.as_ref().expect("booked run without decode image");
        self.nodes[i].cpu.run_decoded(dec, done);
        self.sched.retire(done as u64);
        self.ready_at[i] = self.now + 1;
        self.sched.cpu.set(i, self.ready_at[i]);
    }

    /// Whether the machine still owes anyone an answer: packets in
    /// flight, outstanding transactions, busy directory entries, raised
    /// fences, waiting frames. With no pending work a stable progress
    /// signature means quiescence, not deadlock.
    pub fn pending_work(&self) -> bool {
        self.net.in_flight_count() > 0
            || self.nodes.iter().any(|n| {
                n.ctl.outstanding() > 0
                    || n.ctl.fence_count() > 0
                    || n.dir.busy_count() > 0
                    || (0..n.cpu.nframes())
                        .any(|f| n.cpu.frame(f).state == FrameState::WaitingRemote)
            })
    }

    /// Whether every processor has executed `halt`.
    pub fn all_halted(&self) -> bool {
        let lent = self.lent.is_some_and(|i| self.nodes[i].cpu.is_halted());
        self.sched.halted + lent as usize == self.nodes.len()
    }

    /// Whether the run is complete: every processor halted *and* no
    /// protocol or network work pending. The one stop predicate of
    /// every driver loop, scheduler and supervisor; draining to
    /// quiescence — rather than stopping at the last `halt` — is what
    /// makes final machine states comparable across schedulers whose
    /// clocks stop at different points.
    pub fn finished(&self) -> bool {
        self.all_halted() && !self.pending_work()
    }

    /// Per-node halt cycles: `Some(c)` once the node's CPU executed
    /// `halt` at cycle `c`, else `None`. Part of the cross-mode
    /// equivalence contract — `now` itself can differ across schedulers
    /// once the machine is quiescent, but halt cycles cannot.
    pub fn halted_cycles(&self) -> &[Option<u64>] {
        &self.halted_at
    }

    /// The next cycle at which anything can happen: the min over
    /// runnable CPUs' `ready_at`, every node's earliest controller/
    /// directory retransmission deadline, the network's earliest
    /// delivery, and — with work pending — the watchdog's firing cycle.
    /// Never less than `now + 1`; returns `now + 1` when the machine is
    /// quiescent so a driver polling `advance()` sees time still move.
    ///
    /// Retransmit deadlines must participate: on a lossy network the
    /// only future event may be a controller deciding a request is
    /// overdue, and skipping past that moment would retransmit late (or
    /// miss a `RetriesExhausted` fault) relative to the lockstep path.
    ///
    /// The network is consulted after the CPUs and protocol deadlines,
    /// with their min as the bound: that min is the earliest cycle any
    /// non-network component can act, i.e. the earliest new traffic can
    /// enter the network, which is exactly the guarantee
    /// [`Network::earliest_delivery`] needs to route in-flight packets
    /// ahead and see past its per-hop internal events.
    ///
    /// The node scan reads the schedule's dense words, opening a node
    /// only to confirm that a CPU word which would lower `t` does not
    /// name a CPU a driver has since halted.
    fn next_event(&mut self) -> u64 {
        debug_assert!(self.wake_words_consistent());
        let floor = self.now + 1;
        // The block with the lowest bound first, so that `t` drops early
        // and the other blocks' bounds skip them.
        let n = self.nodes.len();
        let bound = |m: &Self, s: usize| m.sched.cpu.bound(s).min(m.sched.skip.bound(s));
        let first = (BLOCK..n).step_by(BLOCK).fold(0, |f, s| {
            if bound(self, s) < bound(self, f) {
                s
            } else {
                f
            }
        });
        let Some(mut t) = self.scan_block(first, floor, u64::MAX) else {
            return floor;
        };
        // With one block, that scan saw every node.
        if n > BLOCK {
            for start in (0..n).step_by(BLOCK) {
                if start != first && bound(self, start).max(floor) < t {
                    let Some(lower) = self.scan_block(start, floor, t) else {
                        return floor;
                    };
                    t = lower;
                }
            }
        }
        // Open-loop arrivals are machine-driven events: the skip must
        // land exactly on each edge node's next birth cycle so the
        // injection happens where lockstep would perform it, and while
        // a poison word is still waiting for its ring slot the machine
        // retries every cycle — no skipping at all.
        if let Some(plan) = &self.plan {
            for (node, arrivals) in plan.entries() {
                let Some(tr) = self.nodes[*node].traffic.as_deref() else {
                    continue;
                };
                if tr.cursor < arrivals.len() {
                    t = t.min(arrivals[tr.cursor].max(floor));
                } else if !tr.poison_sent {
                    return floor;
                }
            }
        }
        // `t` is now the earliest cycle any traffic source can act, the
        // bound `earliest_delivery` needs (the watchdog, below, sends
        // nothing, so it does not constrain the bound).
        if let Some(d) = self.net.earliest_delivery(t) {
            t = t.min(d.max(floor));
        }
        if self.cfg.watchdog.enabled {
            let wd = self.watchdog.deadline(self.cfg.watchdog.horizon).max(floor);
            // `pending_work` walks every frame of every node; only
            // pay for it when the skip would actually jump the firing
            // cycle (idle machines must not be woken by the watchdog,
            // and busy ones are checked only on the rare advance whose
            // every other event is past the horizon).
            if wd < t && self.pending_work() {
                t = wd;
            }
        }
        if t == u64::MAX {
            floor
        } else {
            t
        }
    }

    /// The cycle the next `advance()` would jump to: the next event
    /// under the event-driven skip, or simply `now + 1` in lockstep
    /// mode or once a fault has been recorded.
    fn advance_target(&mut self) -> u64 {
        if self.cfg.lockstep || self.fault.is_some() {
            self.now + 1
        } else {
            self.next_event()
        }
    }

    /// Advances like [`Machine::advance_into`], but never past cycle
    /// `cap`.
    ///
    /// Capping is what makes cycle-exact checkpoints possible on the
    /// event-driven scheduler: the skip would otherwise jump over the
    /// requested cycle. A capped target is just a smaller skip — the
    /// parked-CPU idle bulk-charge is linear in the skipped span, so
    /// stopping early and resuming reproduces the uncapped ledger bit
    /// for bit.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is not in the future (`cap <= now()`).
    pub fn advance_capped(&mut self, cap: u64, evs: &mut Vec<(usize, StepEvent)>) {
        assert!(
            cap > self.now,
            "advance_capped: cap {cap} <= now {}",
            self.now
        );
        evs.clear();
        let target = self.advance_target().min(cap);
        self.advance_to(target, evs);
    }

    /// The jump-and-execute body shared by [`Machine::advance_into`]
    /// and [`Alewife::advance_capped`]: moves the clock to `target` and
    /// runs the kernel's full cycle of machine work there over the
    /// whole machine, appending the events that need run-time attention
    /// onto `evs`.
    ///
    /// Component clocks are stamped *on demand* by the kernel, not
    /// wholesale: only a component about to act (a dispatch, a step, a
    /// driver mutation) needs a current clock — it marks fresh
    /// transactions `clock + timeout` and timestamps trace events with
    /// it. An idle node's stale clock is unobservable: `tick` stamps
    /// itself, the idle charges are pure ledger adds, and `checkpoint`
    /// settles every clock before encoding.
    fn advance_to(&mut self, target: u64, evs: &mut Vec<(usize, StepEvent)>) {
        self.reclaim_lent();
        self.now = target;
        let faulted = self.fault.is_some();
        self.ingress(target);
        let mut deliveries = std::mem::take(&mut self.scratch_deliveries);
        deliveries.clear();
        self.net.poll_into(target, &mut deliveries);
        for &(dst, env) in &deliveries {
            self.deliver(target, dst, env);
        }
        self.scratch_deliveries = deliveries;
        self.step(target, evs);
        self.tick(target);
        // Forward-progress watchdog: fire only when work is pending —
        // a stable signature on an idle machine is quiescence. Both
        // moves of its firing deadline are narrated on the meta lane.
        if self.cfg.watchdog.enabled && self.fault.is_none() {
            let (instrs, dir_events, ctl_events) = self.sched.settle(&self.nodes);
            let sig = (instrs, self.net.stats.delivered, dir_events, ctl_events);
            let horizon = self.cfg.watchdog.horizon;
            let before = self.watchdog.deadline(horizon);
            let fired = self.watchdog.observe(target, sig, horizon);
            let deadline = self.watchdog.deadline(horizon);
            if deadline != before {
                self.meta_probe
                    .emit(target, EventKind::WatchdogArmed, deadline, 0);
            }
            if fired && self.pending_work() {
                self.meta_probe
                    .emit(target, EventKind::WatchdogFired, deadline, 0);
                let pm = Box::new(self.post_mortem());
                self.fault = Some(MachineFault::NoForwardProgress(pm));
            }
        }
        if !faulted && self.fault.is_some() {
            // The run ends here: settle every parked ledger, so the
            // faulted machine reads like lockstep, which never parks.
            for i in 0..self.nodes.len() {
                self.settle_idle(i);
            }
        }
    }

    /// `t` lowered to the earliest cycle the nodes of the block starting
    /// at `start` can act, never below `floor` — or `None` as soon as a
    /// CPU is runnable at `floor`: nothing to skip. On a machine of more
    /// than one block, the block's bounds are made exact.
    fn scan_block(&mut self, start: usize, floor: u64, mut t: u64) -> Option<u64> {
        let refresh = self.nodes.len() > BLOCK;
        let (mut cpu_min, mut skip_min) = (u64::MAX, u64::MAX);
        for k in start..(start + BLOCK).min(self.nodes.len()) {
            let r = self.sched.cpu.get(k).max(floor);
            if r < t {
                if self.nodes[k].cpu.is_halted() {
                    self.sched.cpu.set(k, u64::MAX);
                } else if r == floor {
                    return None;
                } else {
                    t = r;
                }
            }
            let skip = self.sched.skip.get(k);
            t = t.min(skip.max(floor));
            if refresh {
                cpu_min = cpu_min.min(self.sched.cpu.get(k));
                skip_min = skip_min.min(skip);
            }
        }
        if refresh {
            self.sched.cpu.set_bound(start, cpu_min);
            self.sched.skip.set_bound(start, skip_min);
        }
        Some(t)
    }

    /// Debug cross-check of the schedule's words against the nodes.
    fn wake_words_consistent(&self) -> bool {
        self.nodes.iter().enumerate().all(|(k, n)| {
            let (cpu, ready_at) = (self.sched.cpu.get(k), self.ready_at[k]);
            let halted_stale = n.cpu.is_halted() && cpu == ready_at;
            (cpu == cpu_word(n, self.parked[k], ready_at) || halted_stale)
                && (self.sched.tick.get(k), self.sched.skip.get(k)) == proto_words(n)
        })
    }

    /// Captures the machine's stuck state for a watchdog report:
    /// in-flight and dead-lettered messages, the injected-fault
    /// counters, busy directory blocks, outstanding controller
    /// transactions, remotely stalled frames, and pending fences.
    pub fn post_mortem(&self) -> PostMortem {
        let net = &self.net;
        // The network hands packets over unsorted (keeping its hot-path
        // accessor cheap); order the owned snapshot here, where a
        // post-mortem is actually being built.
        let mut in_flight: Vec<InFlightMsg> = net
            .in_flight_packets()
            .map(|(id, dst, sent_at, _, env)| InFlightMsg {
                id,
                src: env.src,
                dst,
                sent_at,
                msg: env.msg,
            })
            .collect();
        in_flight.sort_by_key(|m| m.id);
        let undeliverable = net
            .dead_letters()
            .iter()
            .map(|dl| UndeliverableMsg {
                id: dl.id,
                dst: dl.dst,
                at: dl.at,
                msg: dl.payload.msg,
            })
            .collect();
        let mut pm = PostMortem {
            cycle: self.now,
            horizon: self.cfg.watchdog.horizon,
            in_flight,
            undeliverable,
            fault_stats: net.fault_stats,
            ..PostMortem::default()
        };
        for (i, n) in self.nodes.iter().enumerate() {
            for (block, requester, write, epoch, awaiting) in n.dir.busy_entries() {
                pm.busy_blocks.push(BusyEntry {
                    home: i,
                    block,
                    requester,
                    write,
                    epoch,
                    awaiting: awaiting.to_vec(),
                });
            }
            for (block, xid, write_issued, frames) in n.ctl.outstanding_txns() {
                pm.outstanding.push(OutstandingTxn {
                    node: i,
                    block,
                    xid,
                    write_issued,
                    frames,
                });
            }
            for f in 0..n.cpu.nframes() {
                let frame = n.cpu.frame(f);
                if frame.state == FrameState::WaitingRemote {
                    pm.stalled_frames.push(FrameStall {
                        node: i,
                        frame: f,
                        state: frame.state,
                        pc: frame.pc,
                    });
                }
            }
            if n.ctl.fence_count() > 0 {
                pm.fences.push((i, n.ctl.fence_count()));
            }
        }
        pm
    }
}

/// Hands one delivered protocol message to its destination node,
/// collecting the node's responses: controller-originated messages into
/// `out` (sent at the current cycle) and directory-originated messages
/// into `dir_out` (sent after the home memory latency). On a protocol
/// error the node's response messages are suppressed (the fault aborts
/// the run before they could matter) and the fault is returned for the
/// caller to record.
pub(crate) fn dispatch_to_node(
    dst: usize,
    node: &mut Node,
    env: Env,
    cfg: &MachineConfig,
    out: &mut Vec<(usize, CohMsg)>,
    dir_out: &mut Vec<(usize, CohMsg)>,
) -> Result<(), MachineFault> {
    match env.msg {
        CohMsg::RdReq { block, xid } => {
            node.dir
                .handle_request_into(env.src, block, false, xid, dir_out);
        }
        CohMsg::WrReq { block, xid } => {
            node.dir
                .handle_request_into(env.src, block, true, xid, dir_out);
        }
        CohMsg::InvAck { .. }
        | CohMsg::DownAck { .. }
        | CohMsg::WbInvalAck { .. }
        | CohMsg::FlushData { .. } => {
            if let Err(e) = node.dir.handle_ack_into(env.src, env.msg, dir_out) {
                return Err(MachineFault::Protocol {
                    node: dst,
                    error: e,
                });
            }
        }
        CohMsg::Ipi => {
            node.cpu.post_interrupt(env.src);
        }
        CohMsg::RdReply { .. }
        | CohMsg::WrReply { .. }
        | CohMsg::Nack { .. }
        | CohMsg::Inval { .. }
        | CohMsg::DownReq { .. }
        | CohMsg::WbInvalReq { .. }
        | CohMsg::FlushAck { .. }
        | CohMsg::BlockXfer { .. } => {
            match node
                .ctl
                .handle_msg(env.src, env.msg, |a| cfg.home_of(a), out)
            {
                Ok(woken) => {
                    for f in woken {
                        if node.cpu.frame(f).state == FrameState::WaitingRemote {
                            node.cpu.frame_mut(f).state = FrameState::Ready;
                        }
                    }
                }
                Err(e) => {
                    return Err(MachineFault::Protocol {
                        node: dst,
                        error: e,
                    });
                }
            }
        }
    }
    Ok(())
}

/// The per-node memory port: routes processor accesses through the
/// cache controller and, for home-local blocks, the local directory.
pub(crate) struct NodePort<'a> {
    pub(crate) node: usize,
    pub(crate) ctl: &'a mut CacheController,
    pub(crate) dir: &'a mut Directory,
    pub(crate) io_regs: &'a mut [u32; 8],
    pub(crate) mem: &'a mut FeMemory,
    pub(crate) cfg: &'a MachineConfig,
    /// Outgoing messages (drained into the network by the machine).
    pub(crate) out: &'a mut Vec<(usize, CohMsg)>,
    /// IPIs and block transfers triggered by STIO.
    pub(crate) io_sends: &'a mut Vec<(usize, CohMsg)>,
    /// Request words stored to [`IO_RETIRE`]; the machine drains this
    /// after the step and timestamps each retirement against its
    /// arrival plan (a no-op on machines without traffic).
    pub(crate) retired: &'a mut Vec<u32>,
    /// Set once an access or flush reaches the controller: the node's
    /// protocol counters and deadlines may have moved.
    pub(crate) accessed: &'a mut bool,
}

impl NodePort<'_> {
    fn access(&mut self, addr: u32, write_grade: bool, ctx: AccessCtx) -> Outcome {
        let home = self.cfg.home_of(addr);
        let cfg = self.cfg;
        *self.accessed = true;
        let dir = if home == self.node {
            Some(&mut *self.dir)
        } else {
            None
        };
        self.ctl.cpu_access(
            addr,
            write_grade,
            ctx.frame,
            home,
            dir,
            |a| cfg.home_of(a),
            self.out,
        )
    }
}

impl MemoryPort for NodePort<'_> {
    fn load(&mut self, addr: u32, flavor: LoadFlavor, ctx: AccessCtx) -> LoadReply {
        // Loads that mutate the full/empty bit need write permission.
        let write_grade = flavor.reset_fe;
        match self.access(addr, write_grade, ctx) {
            Outcome::Hit => match self.mem.apply_load(addr, flavor) {
                Some((word, fe)) => LoadReply::Data { word, fe },
                None => LoadReply::FeViolation,
            },
            Outcome::LocalFill { stall } => LoadReply::Stall { cycles: stall },
            Outcome::Remote => {
                if flavor.miss_wait {
                    // MHOLD: poll until the transaction completes.
                    LoadReply::Stall { cycles: 1 }
                } else {
                    LoadReply::RemoteMiss
                }
            }
        }
    }

    fn store(&mut self, addr: u32, value: Word, flavor: StoreFlavor, ctx: AccessCtx) -> StoreReply {
        match self.access(addr, true, ctx) {
            Outcome::Hit => match self.mem.apply_store(addr, value, flavor) {
                Some(fe) => StoreReply::Done { fe },
                None => StoreReply::FeViolation,
            },
            Outcome::LocalFill { stall } => StoreReply::Stall { cycles: stall },
            Outcome::Remote => {
                if flavor.miss_wait {
                    StoreReply::Stall { cycles: 1 }
                } else {
                    StoreReply::RemoteMiss
                }
            }
        }
    }

    fn flush(&mut self, addr: u32) -> u32 {
        let cfg = self.cfg;
        *self.accessed = true;
        self.ctl.flush(addr, |a| cfg.home_of(a), self.out)
    }

    fn fence_count(&self) -> u32 {
        self.ctl.fence_count()
    }

    fn ldio(&mut self, reg: u16) -> Word {
        match reg {
            IO_NODE_ID => Word::fixnum(self.node as i32),
            IO_FENCE => Word::fixnum(self.ctl.fence_count() as i32),
            r if (r as usize) < self.io_regs.len() => Word(self.io_regs[r as usize]),
            _ => Word::ZERO,
        }
    }

    fn stio(&mut self, reg: u16, value: Word) {
        match reg {
            IO_RETIRE => {
                self.retired.push(value.0);
            }
            IO_IPI => {
                let to = value.as_fixnum().unwrap_or(0).max(0) as usize;
                self.io_sends.push((to, CohMsg::Ipi));
            }
            IO_BXFER_ADDR => {
                let to = self.io_regs[IO_BXFER_NODE as usize] as usize;
                let words = self.io_regs[IO_BXFER_LEN as usize].max(1);
                self.io_sends.push((
                    to,
                    CohMsg::BlockXfer {
                        block: value.0,
                        words,
                    },
                ));
            }
            r if (r as usize) < self.io_regs.len() => {
                self.io_regs[r as usize] = value.0;
            }
            _ => {}
        }
    }
}

impl Machine for Alewife {
    fn num_procs(&self) -> usize {
        self.nodes.len()
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn advance_into(&mut self, evs: &mut Vec<(usize, StepEvent)>) {
        // Event-driven skip: jump straight to the next cycle at which
        // anything can happen. Cycle-exact with the lockstep path (see
        // DESIGN.md §8): every skipped cycle is one in which lockstep
        // would only have stepped parked CPUs into `NoReadyFrame` and
        // charged them one idle cycle each — replayed in bulk by
        // `advance_to`.
        evs.clear();
        let target = self.advance_target();
        self.advance_to(target, evs);
    }

    fn cpu(&self, i: usize) -> &Cpu {
        &self.nodes[i].cpu
    }

    fn cpu_stats(&self, i: usize) -> CpuStats {
        let mut s = self.nodes[i].cpu.stats;
        s.idle_cycles += self.pending_idle(i);
        s
    }

    fn cpu_mut(&mut self, i: usize) -> &mut Cpu {
        // The driver is about to observe or mutate this CPU: any booked
        // run must materialize first so the caller sees the state
        // lockstep would show.
        self.settle_resv(i);
        // The driver may make this CPU runnable (assign a frame, wake a
        // waiter): it can no longer be assumed idle.
        self.unpark(i);
        // It may also halt or boot it: until the next advance takes it
        // back, it is counted by looking and keeps a finite word.
        if self.lent != Some(i) {
            self.reclaim_lent();
            self.sched.halted -= self.nodes[i].cpu.is_halted() as usize;
            self.lent = Some(i);
            self.sched.cpu.set(i, self.ready_at[i]);
        }
        // Whatever the driver does may emit trace events; make sure
        // they carry the current cycle even if this node has been
        // asleep (clocks are stamped on demand, see `advance_to`).
        self.nodes[i].cpu.set_clock(self.now);
        &mut self.nodes[i].cpu
    }

    fn mem(&self) -> &FeMemory {
        &self.mem
    }

    fn mem_mut(&mut self) -> &mut FeMemory {
        // A memory write (e.g. setting a full/empty bit) can unblock
        // any node; unpark every CPU rather than reason about which.
        self.unpark_all();
        &mut self.mem
    }

    fn program(&self) -> &Program {
        &self.prog
    }

    fn charge_handler(&mut self, i: usize, cycles: u64) {
        self.settle_resv(i);
        self.settle_idle(i);
        self.nodes[i].cpu.charge_handler(cycles);
        self.ready_at[i] += cycles;
        self.set_cpu_wake(i);
        // No parked flags change here: a handler charge is a pure
        // cycle charge. Anything a handler *publishes* that another
        // node's scheduler could see travels through `mem_mut` (the
        // run-queue lives in shared memory — it unparks everyone),
        // `cpu_mut` (unparks that node), or `send_ipi` (the delivery
        // unparks its destination), so every path that could void an
        // idle promise already clears the flag itself.
    }

    fn charge_idle(&mut self, i: usize, cycles: u64) {
        self.settle_idle(i);
        self.nodes[i].cpu.charge_idle(cycles);
        self.ready_at[i] += cycles;
        // `charge_idle(i, 1)` is the universal driver response to
        // `NoReadyFrame` — the signal that node `i` will stay idle
        // until some machine-visible event, which lets the event-driven
        // advance skip its dead cycles. Any other amount is a custom
        // charge that carries no such promise. Lockstep never parks: it
        // steps every CPU every cycle and charges each idle cycle as it
        // happens, the reference the skip's lazy charges are held to.
        self.parked[i] = cycles == 1 && !self.cfg.lockstep;
        self.set_cpu_wake(i);
    }

    fn send_ipi(&mut self, from: usize, to: usize) {
        self.net.send(
            self.now,
            from,
            to,
            2,
            Env {
                src: from,
                msg: CohMsg::Ipi,
            },
        );
    }

    fn home_of(&self, addr: u32) -> usize {
        self.cfg.home_of(addr)
    }

    fn fault(&self) -> Option<&MachineFault> {
        self.fault.as_ref()
    }

    fn retire_request(&mut self, node: usize, word: u32) -> bool {
        let (Some(plan), Some(tr)) = (
            self.plan.as_deref(),
            self.nodes[node].traffic.as_deref_mut(),
        ) else {
            return false;
        };
        let before = tr.retired;
        crate::traffic::record_retire(plan, node, tr, word, self.now);
        tr.retired > before
    }

    fn attach_tracer(&mut self, cfg: TraceConfig) {
        crate::obs::attach_node_probes(&mut self.nodes, cfg);
        self.net
            .attach_probe(Probe::new(lane(Component::Net, 0), cfg));
        self.meta_probe = Probe::new(lane(Component::Meta, 0), cfg);
    }

    fn collect_trace(&self) -> Trace {
        let mut t = Trace::new();
        crate::obs::collect_node_traces(&mut t, &self.nodes);
        t.push_probe(self.net.trace_probe());
        t.push_probe(&self.meta_probe);
        t.sort();
        t
    }

    fn stats_report(&self) -> StatsReport {
        crate::obs::build_report(self)
    }

    fn checkpoint(&mut self) -> Result<crate::snapshot::Snapshot, crate::snapshot::SnapshotError> {
        Alewife::checkpoint(self)
    }

    fn restore(
        &mut self,
        snap: &crate::snapshot::Snapshot,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        Alewife::restore(self, snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use april_core::isa::asm::assemble;
    use april_core::isa::Reg;
    use april_core::trap::Trap;
    use april_net::topology::Topology;

    fn tiny_cfg() -> MachineConfig {
        MachineConfig {
            topology: Topology::new(2, 2),
            region_bytes: 0x10000,
            ..MachineConfig::default()
        }
    }

    /// Drives the machine with a trivial "runtime": on remote-miss
    /// traps, mark the frame waiting and (with only one thread) idle.
    fn run(m: &mut Alewife, max: u64) {
        while !m.nodes[0].cpu.is_halted() {
            assert!(m.now() < max, "timeout at cycle {}", m.now());
            for (i, ev) in m.advance() {
                match ev {
                    StepEvent::Trapped(Trap::RemoteMiss { .. }) => {
                        let fp = m.nodes[i].cpu.fp();
                        let f = m.nodes[i].cpu.frame_mut(fp);
                        f.state = FrameState::WaitingRemote;
                        f.psr.in_trap = false;
                        m.charge_handler(i, 6);
                        m.nodes[i].cpu.count_context_switch();
                    }
                    StepEvent::Trapped(t) => panic!("node {i} trapped: {t}"),
                    StepEvent::NoReadyFrame => m.charge_idle(i, 1),
                    StepEvent::RtCall { n } => panic!("rtcall {n}"),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn local_access_hits_after_fill() {
        // Node 0 accesses its own region: local fill, then hits.
        let prog = assemble(
            "
            movi 0x100, r1
            st r1, r1+0
            ld r1+0, r2
            ld r1+4, r3
            halt
        ",
        )
        .unwrap();
        let mut m = Alewife::new(tiny_cfg(), prog);
        m.boot();
        run(&mut m, 10_000);
        assert_eq!(m.nodes[0].cpu.get_reg(Reg::L(2)), Word(0x100));
        assert_eq!(m.nodes[0].ctl.stats.local_fills, 1);
        assert!(
            m.nodes[0].cpu.stats.stall_cycles >= 10,
            "local fill stalls 10"
        );
        assert_eq!(m.nodes[0].cpu.stats.remote_misses, 0);
    }

    #[test]
    fn remote_access_traps_and_completes() {
        // Node 0 reads node 1's region (0x10000): remote miss, trap,
        // wait for the reply, then retry succeeds.
        let prog = assemble(
            "
            movi 0x10000, r1
            movi 77, r2
            st r2, r1+0
            ld r1+0, r3
            halt
        ",
        )
        .unwrap();
        let mut m = Alewife::new(tiny_cfg(), prog);
        m.boot();
        run(&mut m, 100_000);
        assert_eq!(m.nodes[0].cpu.get_reg(Reg::L(3)), Word(77));
        assert!(m.nodes[0].cpu.stats.remote_misses >= 1);
        assert!(m.net_stats().delivered >= 2, "request and reply traveled");
        assert_eq!(m.mem().read(0x10000), Word(77));
    }

    #[test]
    fn wait_flavor_polls_instead_of_trapping() {
        let prog = assemble(
            "
            movi 0x10000, r1
            ldnw r1+0, r2
            halt
        ",
        )
        .unwrap();
        let mut m = Alewife::new(tiny_cfg(), prog);
        m.boot();
        run(&mut m, 100_000);
        assert_eq!(m.nodes[0].cpu.stats.remote_misses, 0, "no trap");
        assert!(
            m.nodes[0].cpu.stats.stall_cycles > 10,
            "held while remote fill completed"
        );
    }

    #[test]
    fn flush_and_fence_complete() {
        let prog = assemble(
            "
            movi 0x100, r1
            st r1, r1+0     ; dirty the line (local, node 0 home)
            flush r1+0
            fence
            ldio 2, r4      ; fence counter must be 0 now
            halt
        ",
        )
        .unwrap();
        let mut m = Alewife::new(tiny_cfg(), prog);
        m.boot();
        run(&mut m, 100_000);
        assert_eq!(m.nodes[0].cpu.get_reg(Reg::L(4)), Word::fixnum(0));
        assert_eq!(m.nodes[0].ctl.stats.writebacks, 1);
    }

    #[test]
    fn node_id_io_register() {
        let prog = assemble("ldio 1, r1\nhalt").unwrap();
        let mut m = Alewife::new(tiny_cfg(), prog);
        m.boot();
        run(&mut m, 1_000);
        assert_eq!(m.nodes[0].cpu.get_reg(Reg::L(1)), Word::fixnum(0));
    }

    #[test]
    fn coherence_read_write_sequence_is_consistent() {
        // One CPU writes its own region then reads a remote region;
        // directory states must reflect the protocol.
        let prog = assemble(
            "
            movi 0x100, r1
            movi 5, r2
            st r2, r1+0
            movi 0x10000, r3
            ld r3+0, r4
            halt
        ",
        )
        .unwrap();
        let mut m = Alewife::new(tiny_cfg(), prog);
        m.boot();
        run(&mut m, 100_000);
        use april_mem::directory::{DirState, SharerSet};
        assert_eq!(m.nodes[0].dir.state(0x100), DirState::Exclusive(0));
        assert_eq!(
            m.nodes[1].dir.state(0x10000),
            DirState::Shared(SharerSet::one(0))
        );
    }
}

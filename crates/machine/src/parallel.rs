//! Deterministic parallel execution of the ALEWIFE machine.
//!
//! [`ParallelAlewife`] is a *window scheduler* over one [`Alewife`]: it
//! lends the machine's nodes (CPU + cache controller + home directory
//! slice) to worker threads as contiguous shards and runs the
//! node-cycle kernel (`kernel.rs`) over every shard concurrently
//! inside *conservative time windows* (classic conservative-PDES). The
//! window width never exceeds the network's
//! [lookahead](april_net::network::Network::lookahead) — the minimum
//! cross-node message latency — so no worker can observe a message
//! another worker has not yet staged. The kernel's sends go to a
//! per-shard staging outbox and are injected at the window barrier
//! sorted by the kernel's unit keys, which replays the order a
//! whole-machine pass would have sent them in. Parallel runs are
//! therefore **bit-exact** with the sequential lockstep path — and,
//! transitively, with the event-driven skip — for any worker count.
//! DESIGN.md §9 walks through the full argument.

use crate::alewife::{
    net_post_mortem, node_post_mortem_fragments, nodes_pending_work, Alewife, Env, Node,
};
use crate::config::MachineConfig;
use crate::driver::{EventCtx, NodeDriver};
use crate::kernel::{Cells, Outbox, Progress, Schedule, Scratch, Wake, MIN_FLITS};
use crate::snapshot::{Snapshot, SnapshotError};
use crate::traffic::ArrivalPlan;
use crate::watchdog::{MachineFault, PostMortem};
use april_core::cpu::{Cpu, StepEvent};
use april_core::decoded::DecodedProgram;
use april_core::program::Program;
use april_core::word::Word;
use april_mem::femem::FeMemory;
use april_obs::{EventKind, TraceConfig};
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex};

/// One window's staged network injection, tagged with the kernel's
/// `(cycle, phase, unit)` key plus the send's position within its unit.
/// Injecting a window's sends sorted by this tag replays the order in
/// which a whole-machine pass would have injected them (see
/// [`crate::kernel`]).
#[derive(Debug, Clone, Copy)]
struct StagedSend {
    key: (u64, u8, u64, u32),
    at: u64,
    src: usize,
    dst: usize,
    size: u64,
    env: Env,
}

/// A fatal fault raised inside a shard, positioned by the key of the
/// unit that raised it so the coordinator keeps the globally *first*
/// one — the one the sequential machine would have recorded.
#[derive(Debug, Clone)]
struct ShardFault {
    key: (u64, u8, u64),
    fault: MachineFault,
}

/// A shard's [`Outbox`]: sends and the first fault are staged for the
/// window barrier instead of touching the (coordinator-owned) network.
#[derive(Debug, Default)]
struct Staged {
    key: (u64, u8, u64),
    seq: u32,
    sends: Vec<StagedSend>,
    fault: Option<ShardFault>,
}

impl Outbox for Staged {
    fn unit(&mut self, cycle: u64, phase: u8, unit: u64) {
        self.key = (cycle, phase, unit);
        self.seq = 0;
    }

    fn send(&mut self, at: u64, src: usize, dst: usize, size: u64, env: Env) {
        let (cycle, phase, unit) = self.key;
        self.sends.push(StagedSend {
            key: (cycle, phase, unit, self.seq),
            at,
            src,
            dst,
            size,
            env,
        });
        self.seq += 1;
    }

    fn fault(&mut self, fault: MachineFault) {
        // Keys ascend within a shard, so the first recorded fault is
        // the shard's earliest.
        if self.fault.is_none() {
            self.fault = Some(ShardFault {
                key: self.key,
                fault,
            });
        }
    }
}

/// A shard's contribution to a watchdog post-mortem, captured at the
/// window's last cycle after the protocol ticks but before driver
/// events — the exact point the sequential machine captures its own.
#[derive(Debug, Default)]
struct PmFragment {
    /// The node half of the post-mortem, for this shard's nodes only.
    nodes: PostMortem,
    /// `nodes_pending_work` over the shard at capture time; the
    /// watchdog only faults when some shard (or the network) still has
    /// pending work.
    pending_pre_driver: bool,
}

/// One window of work for a shard.
struct WindowCmd {
    start: u64,
    end: u64,
    /// Capture a [`PmFragment`] at the last cycle: set whenever the
    /// watchdog could fire inside this window.
    capture_pm: bool,
    /// This shard's deliveries, `(cycle, global_index, dst, env)` in
    /// global hand-over order.
    deliveries: Vec<(u64, u64, usize, Env)>,
    /// All shards' memory writes from the previous window, replayed
    /// into this shard's replica before the window starts.
    foreign_writes: Vec<(u32, Word, bool)>,
}

enum Cmd {
    Window(Box<WindowCmd>),
    Stop,
}

/// What a shard reports back at a window barrier.
#[derive(Default)]
struct WindowResult {
    staged: Staged,
    /// Final `(addr, word, full/empty)` snapshots of every word this
    /// shard's processors wrote during the window. The coherence
    /// protocol admits one writer per word per window (write permission
    /// cannot transfer without a cross-node round trip, which exceeds
    /// the lookahead), so snapshots from different shards never
    /// collide and replay in any order.
    writes: Vec<(u32, Word, bool)>,
    /// Cumulative shard progress counters after each cycle of the
    /// window: (instructions, directory events, controller events).
    sigs: Vec<Progress>,
    halted_all: bool,
    /// `nodes_pending_work` after driver events, for the quiescence
    /// stop check.
    pending: bool,
    /// Earliest controller/directory retransmission deadline in the
    /// shard after the window; feeds the next window-shrink decision.
    next_deadline: u64,
    pm: Option<PmFragment>,
}

/// Earliest controller/directory retransmission deadline in a slice.
fn earliest_deadline(nodes: &[Node]) -> u64 {
    nodes
        .iter()
        .map(|n| n.ctl.next_deadline().min(n.dir.next_deadline()))
        .min()
        .unwrap_or(u64::MAX)
}

/// A contiguous slice of the machine lent to one worker for the length
/// of a run, plus the worker-private state the kernel runs against.
struct Shard<'a> {
    base: usize,
    nodes: &'a mut [Node],
    ready_at: &'a mut [u64],
    halted_at: &'a mut [Option<u64>],
    parked: &'a mut [bool],
    /// The shard's own schedule over its slice; the machine rebuilds
    /// its own after the run.
    sched: Schedule,
    /// Replica of global memory. Reads are coherent because read and
    /// write permission for a word cannot coexist across shards within
    /// one window; writes are reconciled through the write logs.
    /// Open-loop injection and retirement both happen on the edge
    /// node's own shard, so the one-writer invariant covers them too.
    mem: FeMemory,
    write_log: Vec<u32>,
    prog: &'a Program,
    dec: Option<&'a DecodedProgram>,
    cfg: &'a MachineConfig,
    plan: Option<&'a ArrivalPlan>,
    scratch: Scratch,
    evs: Vec<(usize, StepEvent)>,
}

/// Charging context handed to the driver for a single node's event; the
/// shard owns both halves, so drivers run lock-free on worker threads.
struct ShardCtx<'a> {
    cpu: &'a mut Cpu,
    ready_at: &'a mut u64,
    /// The shard's CPU wake words and the node's index in them: the
    /// word tracks `ready_at` (shards never park; a halt is caught by
    /// the next scan).
    wake: (&'a mut Wake, usize),
}

impl EventCtx for ShardCtx<'_> {
    fn cpu(&mut self) -> &mut Cpu {
        self.cpu
    }

    fn charge_handler(&mut self, cycles: u64) {
        self.cpu.charge_handler(cycles);
        *self.ready_at += cycles;
        self.wake.0.set(self.wake.1, *self.ready_at);
    }

    fn charge_idle(&mut self, cycles: u64) {
        self.cpu.charge_idle(cycles);
        *self.ready_at += cycles;
        self.wake.0.set(self.wake.1, *self.ready_at);
    }
}

impl Shard<'_> {
    /// Runs the kernel over this shard for every cycle of the window —
    /// no event skipping and no parking inside a window — servicing
    /// driver events where the sequential loop does: after the cycle's
    /// machine work, before the next cycle.
    fn run_window(&mut self, cmd: &WindowCmd, driver: &dyn NodeDriver) -> WindowResult {
        let mut res = WindowResult::default();
        for &(addr, w, full) in &cmd.foreign_writes {
            self.mem.set_word_state(addr, w, full);
        }
        self.write_log.clear();
        let mut cells = Cells {
            base: self.base,
            nodes: &mut *self.nodes,
            ready_at: &mut *self.ready_at,
            halted_at: &mut *self.halted_at,
            parked: &mut *self.parked,
            sched: &mut self.sched,
            mem: &mut self.mem,
            write_log: Some(&mut self.write_log),
            prog: self.prog,
            dec: self.dec,
            cfg: self.cfg,
            plan: self.plan,
            scratch: &mut self.scratch,
        };
        let mut deliveries = cmd.deliveries.iter().peekable();
        for c in cmd.start..cmd.end {
            cells.ingress(c);
            while let Some(&(_, gidx, dst, env)) = deliveries.next_if(|d| d.0 == c) {
                cells.deliver(c, gidx, dst, env, &mut res.staged);
            }
            cells.step(c, &mut res.staged, &mut self.evs);
            cells.tick(c, &mut res.staged);
            // Cumulative progress counters after this cycle; the
            // coordinator adds the network's delivered count and
            // replays the watchdog per cycle at the barrier.
            res.sigs.push(cells.sched.settle(cells.nodes));
            if cmd.capture_pm && c == cmd.end - 1 {
                let mut pm = PmFragment {
                    pending_pre_driver: nodes_pending_work(cells.nodes),
                    ..PmFragment::default()
                };
                node_post_mortem_fragments(cells.base, cells.nodes, &mut pm.nodes);
                res.pm = Some(pm);
            }
            for (i, ev) in self.evs.drain(..) {
                let k = i - cells.base;
                let mut ctx = ShardCtx {
                    cpu: &mut cells.nodes[k].cpu,
                    ready_at: &mut cells.ready_at[k],
                    wake: (&mut cells.sched.cpu, k),
                };
                driver.on_event(i, ev, &mut ctx);
            }
        }
        // The window-shrink rule (see `run_inner`) puts every cycle
        // that can fault last in its window.
        debug_assert!(
            res.staged
                .fault
                .as_ref()
                .is_none_or(|f| f.key.0 == cmd.end - 1),
            "fault off the window's last cycle"
        );
        // Collapse the write log into final word snapshots.
        self.write_log.sort_unstable();
        self.write_log.dedup();
        res.writes = self
            .write_log
            .iter()
            .map(|&addr| {
                let (w, full) = self.mem.word_state(addr);
                (addr, w, full)
            })
            .collect();
        res.halted_all = self.nodes.iter().all(|n| n.cpu.is_halted());
        res.pending = nodes_pending_work(self.nodes);
        res.next_deadline = earliest_deadline(self.nodes);
        res
    }
}

/// A mailbox between the coordinator and one worker. Windows are a few
/// microseconds of work, so the receiver first spins (`spin` tries)
/// hoping the producer lands the value without a syscall, then parks on
/// the condvar. The spin budget is sized by the caller: generous when
/// the host has a core per thread, near-zero when threads outnumber
/// cores and spinning can only steal the producer's timeslice.
struct Slot {
    cmd: Mutex<Option<Cmd>>,
    cmd_cv: Condvar,
    res: Mutex<Option<WindowResult>>,
    res_cv: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            cmd: Mutex::new(None),
            cmd_cv: Condvar::new(),
            res: Mutex::new(None),
            res_cv: Condvar::new(),
        }
    }
}

/// Posts `v` into a mailbox and wakes its receiver.
fn post<T>(m: &Mutex<Option<T>>, cv: &Condvar, v: T) {
    let prev = m.lock().expect("mailbox poisoned").replace(v);
    debug_assert!(prev.is_none(), "mailbox overwritten");
    cv.notify_one();
}

/// Takes the next value from a mailbox: spin briefly, then block.
fn take<T>(m: &Mutex<Option<T>>, cv: &Condvar, spin: u32) -> T {
    for _ in 0..spin {
        if let Ok(mut g) = m.try_lock() {
            if let Some(v) = g.take() {
                return v;
            }
        }
        std::hint::spin_loop();
    }
    let mut g = m.lock().expect("mailbox poisoned");
    loop {
        if let Some(v) = g.take() {
            return v;
        }
        g = cv.wait(g).expect("mailbox poisoned");
    }
}

/// The ALEWIFE machine under the deterministic window scheduler:
/// bit-exact with [`Alewife`]'s own lockstep and event-driven
/// schedulers under the same [`NodeDriver`], for any worker count.
///
/// It owns one [`Alewife`] and nothing else, and dereferences to it:
/// construction, boot, inspection, fault plans, checkpoint and restore
/// are the sequential machine's. What it adds is
/// [`ParallelAlewife::run`], which replaces the `advance()` loop — the
/// driver is embedded rather than polled, because step events are
/// serviced on worker threads inside the conservative windows. The two
/// schedulers may alternate freely on the one machine (through
/// `DerefMut`), landing on identical state at every cycle.
#[derive(Debug)]
pub struct ParallelAlewife {
    m: Alewife,
}

impl Deref for ParallelAlewife {
    type Target = Alewife;

    fn deref(&self) -> &Alewife {
        &self.m
    }
}

impl DerefMut for ParallelAlewife {
    fn deref_mut(&mut self) -> &mut Alewife {
        &mut self.m
    }
}

impl ParallelAlewife {
    /// Builds the machine described by `cfg`, loading `prog`'s static
    /// image into global memory.
    pub fn new(cfg: MachineConfig, prog: Program) -> ParallelAlewife {
        ParallelAlewife {
            m: Alewife::new(cfg, prog),
        }
    }

    /// Builds the machine described by `cfg`/`prog` and immediately
    /// restores `snap` into it (see [`Alewife::from_snapshot`]);
    /// snapshots cross freely between schedulers and worker counts.
    pub fn from_snapshot(
        cfg: MachineConfig,
        prog: Program,
        tracer: Option<TraceConfig>,
        snap: &Snapshot,
    ) -> Result<ParallelAlewife, SnapshotError> {
        Alewife::from_snapshot(cfg, prog, tracer, snap).map(|m| ParallelAlewife { m })
    }

    /// Node `i` (processor, controller, directory).
    pub fn node(&self, i: usize) -> &Node {
        &self.m.nodes[i]
    }

    /// The window width the scheduler will use: the network lookahead,
    /// optionally narrowed (never widened) by
    /// [`MachineConfig::window_override`].
    pub fn window_width(&self) -> u64 {
        let la = self.m.net.lookahead(MIN_FLITS);
        if self.m.cfg.window_override == 0 {
            la
        } else {
            self.m.cfg.window_override.min(la)
        }
    }

    /// Runs the machine under `driver` until it faults or goes fully
    /// quiescent (every CPU halted, no protocol work pending, network
    /// idle), returning the fault if one ended the run. Identical to
    /// [`crate::driver::drive_sequential`] over the same machine — same
    /// final state, bit for bit — for any worker count.
    ///
    /// # Panics
    ///
    /// Panics if simulated time reaches `max` (a hang), or if the
    /// configuration admits no conservative window (zero lookahead).
    pub fn run<D: NodeDriver>(&mut self, driver: &D, max: u64) -> Option<MachineFault> {
        self.run_inner(driver, max, None)
    }

    /// Like [`ParallelAlewife::run`], but stops as soon as the clock
    /// reaches `stop_at` (the machine lands on that cycle exactly),
    /// whether or not the run is finished. Window widths are clamped so
    /// no window crosses `stop_at`; narrower windows are always sound
    /// (see [`MachineConfig::window_override`]), so the run stays
    /// bit-exact with the sequential schedulers. Used to position a
    /// machine for a checkpoint or to replay a restored one.
    pub fn run_until<D: NodeDriver>(
        &mut self,
        driver: &D,
        stop_at: u64,
        max: u64,
    ) -> Option<MachineFault> {
        self.run_inner(driver, max, Some(stop_at))
    }

    fn run_inner<D: NodeDriver>(
        &mut self,
        driver: &D,
        max: u64,
        stop_at: Option<u64>,
    ) -> Option<MachineFault> {
        let width_max = self.window_width();
        assert!(
            width_max >= 1,
            "network config admits no conservative window (lookahead 0)"
        );
        // Hand-over from the event-driven scheduler: shards step every
        // cycle, so its idle promises are settled and dropped (a cleared
        // flag only costs an idle step).
        self.m.unpark_all();
        // Lend the node state to the shards and keep the rest — the
        // network, the canonical memory image, the watchdog, the clock
        // — for the per-window coordinator below.
        let Alewife {
            nodes,
            mem,
            net,
            prog,
            dec,
            cfg,
            ready_at,
            now,
            watchdog,
            fault,
            halted_at,
            parked,
            plan,
            meta_probe: meta,
            ..
        } = &mut self.m;
        let (cfg, prog, dec, plan) = (&*cfg, &*prog, dec.as_ref(), plan.as_deref());

        let n = nodes.len();
        let chunk = n.div_ceil(cfg.workers.clamp(1, n));
        let mut min_deadline = earliest_deadline(nodes);
        let mut shards: Vec<Shard> = nodes
            .chunks_mut(chunk)
            .zip(ready_at.chunks_mut(chunk))
            .zip(halted_at.chunks_mut(chunk))
            .zip(parked.chunks_mut(chunk))
            .enumerate()
            .map(|(s, (((nodes, ready_at), halted_at), parked))| Shard {
                base: s * chunk,
                sched: Schedule::new(nodes, parked, ready_at),
                nodes,
                ready_at,
                halted_at,
                parked,
                mem: mem.clone(),
                write_log: Vec::new(),
                prog,
                dec,
                cfg,
                plan,
                scratch: Scratch::default(),
                evs: Vec::new(),
            })
            .collect();
        let nshards = shards.len();

        let slots: Vec<Slot> = (0..nshards).map(|_| Slot::new()).collect();
        // Spin only when the host has a core for every thread
        // (coordinator included); otherwise spinning can only steal the
        // producing thread's timeslice, so park almost immediately.
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let spin: u32 = if cores > nshards { 1 << 14 } else { 8 };
        let mut timed_out = false;

        // The per-window coordinator, shared by the inline and threaded
        // paths: plans each window, hands one command per shard to
        // `submit`, and merges the results it returns (in shard order).
        let mut coordinate = |submit: &mut dyn FnMut(Vec<WindowCmd>) -> Vec<WindowResult>| {
            let mut quiesced = false;
            let mut deliveries: Vec<(u64, usize, Env)> = Vec::new();
            let mut shard_deliveries: Vec<Vec<(u64, u64, usize, Env)>> =
                (0..nshards).map(|_| Vec::new()).collect();
            let mut foreign: Vec<(u32, Word, bool)> = Vec::new();
            let mut staged: Vec<StagedSend> = Vec::new();

            loop {
                if fault.is_some() || quiesced {
                    break;
                }
                if stop_at.is_some_and(|s| *now >= s) {
                    break;
                }
                if *now >= max {
                    timed_out = true;
                    break;
                }
                let start = *now + 1;

                // Window-shrink rule: any event that could raise a
                // fault (a delivery faulting a protocol engine, an
                // overdue retransmission exhausting its retries, the
                // watchdog firing) must land on the window's *last*
                // cycle, so every shard completes the faulting cycle
                // exactly as the sequential machine does. Deadlines
                // and deliveries that arise mid-window always mature
                // at least one cycle later, which with a width-2
                // window is the last cycle; only those already due at
                // `start` force a width-1 window.
                let due_now = net.earliest_delivery(start) == Some(start);
                let horizon = cfg.watchdog.horizon;
                let wd_deadline = if cfg.watchdog.enabled {
                    watchdog.deadline(horizon)
                } else {
                    u64::MAX
                };
                let width = if width_max > 1
                    && (due_now || min_deadline <= start || wd_deadline <= start)
                {
                    1
                } else {
                    width_max
                };
                // A checkpoint stop clamps the window so `end - 1`
                // never crosses it; narrower windows are always sound.
                let width = match stop_at {
                    Some(stop) => width.min(stop - *now),
                    None => width,
                };
                let end = start + width;
                meta.emit(end - 1, EventKind::WindowBarrier, start, width);
                let capture_pm = cfg.watchdog.enabled && wd_deadline < end;

                let base_delivered = net.stats.delivered;
                deliveries.clear();
                net.window_deliveries(start, end, &mut deliveries);
                for v in &mut shard_deliveries {
                    v.clear();
                }
                for (gidx, &(t, dst, env)) in deliveries.iter().enumerate() {
                    shard_deliveries[dst / chunk].push((t, gidx as u64, dst, env));
                }

                let cmds = (0..nshards)
                    .map(|s| WindowCmd {
                        start,
                        end,
                        capture_pm,
                        deliveries: std::mem::take(&mut shard_deliveries[s]),
                        foreign_writes: foreign.clone(),
                    })
                    .collect();
                let mut results = submit(cmds);

                // Merge staged sends in the kernel's key order and
                // inject; packet ids now match the sequential run's.
                staged.clear();
                for r in &results {
                    staged.extend_from_slice(&r.staged.sends);
                }
                staged.sort_unstable_by_key(|s| s.key);
                for s in &staged {
                    net.send(s.at, s.src, s.dst, s.size, s.env);
                }

                // Reconcile memory: apply every shard's write snapshots
                // to the canonical image and broadcast them to all
                // replicas next window.
                foreign.clear();
                #[cfg(debug_assertions)]
                {
                    let mut seen = std::collections::HashSet::new();
                    for r in &results {
                        for &(addr, ..) in &r.writes {
                            assert!(
                                seen.insert(addr),
                                "two shards wrote {addr:#x} in one window"
                            );
                        }
                    }
                }
                for r in &results {
                    for &(addr, w, full) in &r.writes {
                        mem.set_word_state(addr, w, full);
                    }
                    foreign.extend_from_slice(&r.writes);
                }

                // Catch the network's internal clock up to the last
                // executed cycle (resolving drops and outage stalls due
                // by then), as the sequential per-cycle poll would
                // have; injection order above guarantees identical
                // event ordering.
                net.route_to(end - 1);

                // The globally first fault wins, exactly as the
                // sequential machine records only the first.
                let first = results
                    .iter()
                    .filter_map(|r| r.staged.fault.as_ref())
                    .min_by_key(|f| f.key);
                if let Some(f) = first {
                    *fault = Some(f.fault.clone());
                } else if cfg.watchdog.enabled {
                    // Replay the watchdog cycle by cycle against the
                    // merged progress signature.
                    for (ci, c) in (start..end).enumerate() {
                        let mut instrs = 0;
                        let mut dir_events = 0;
                        let mut ctl_events = 0;
                        for r in &results {
                            let (i, d, l) = r.sigs[ci];
                            instrs += i;
                            dir_events += d;
                            ctl_events += l;
                        }
                        let delivered = base_delivered
                            + deliveries.iter().take_while(|&&(t, ..)| t <= c).count() as u64;
                        let sig = (instrs, delivered, dir_events, ctl_events);
                        if !watchdog.observe_traced(c, sig, horizon, meta) {
                            continue;
                        }
                        let pending = net.in_flight_count() > 0
                            || results
                                .iter()
                                .any(|r| r.pm.as_ref().is_some_and(|p| p.pending_pre_driver));
                        if pending {
                            debug_assert_eq!(c, end - 1, "watchdog fired mid-window");
                            let mut pm = net_post_mortem(net, c, horizon);
                            for frag in results.iter_mut().filter_map(|r| r.pm.take()) {
                                pm.busy_blocks.extend(frag.nodes.busy_blocks);
                                pm.outstanding.extend(frag.nodes.outstanding);
                                pm.stalled_frames.extend(frag.nodes.stalled_frames);
                                pm.fences.extend(frag.nodes.fences);
                            }
                            *fault = Some(watchdog.declare_dead(pm, meta));
                            break;
                        }
                    }
                }

                min_deadline = results
                    .iter()
                    .map(|r| r.next_deadline)
                    .min()
                    .unwrap_or(u64::MAX);
                quiesced = results.iter().all(|r| r.halted_all && !r.pending) && net.is_idle();
                *now = end - 1;
            }
        };

        if nshards == 1 {
            // Single shard: run the windows inline on this thread. No
            // spawn, no hand-offs — this is also the 1-worker baseline
            // the scaling benchmark measures against, so it must not
            // pay for parallelism it does not use.
            let mut sh = shards.pop().expect("one shard");
            coordinate(&mut |mut cmds| {
                let cmd = cmds.pop().expect("one command");
                vec![sh.run_window(&cmd, driver)]
            });
        } else {
            // Scoped workers borrow their node slices for the length of
            // the run and are joined when the scope ends.
            std::thread::scope(|scope| {
                for (mut sh, slot) in shards.into_iter().zip(&slots) {
                    scope.spawn(move || loop {
                        match take(&slot.cmd, &slot.cmd_cv, spin) {
                            Cmd::Stop => return,
                            Cmd::Window(w) => {
                                let res = sh.run_window(&w, driver);
                                post(&slot.res, &slot.res_cv, res);
                            }
                        }
                    });
                }

                coordinate(&mut |cmds: Vec<WindowCmd>| {
                    for (slot, cmd) in slots.iter().zip(cmds) {
                        post(&slot.cmd, &slot.cmd_cv, Cmd::Window(Box::new(cmd)));
                    }
                    slots
                        .iter()
                        .map(|slot| take(&slot.res, &slot.res_cv, spin))
                        .collect()
                });

                for slot in &slots {
                    post(&slot.cmd, &slot.cmd_cv, Cmd::Stop);
                }
            });
        }

        // The shards kept the wake words and their own counts; the
        // machine's are rebuilt from the nodes they hand back.
        self.m.rebuild_schedule();
        assert!(!timed_out, "timeout at cycle {}", self.m.now);
        self.m.fault.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::SwitchSpin;
    use crate::Machine;
    use april_core::isa::asm::assemble;
    use april_net::topology::Topology;

    fn small_cfg(workers: usize) -> MachineConfig {
        MachineConfig {
            topology: Topology::new(2, 2),
            region_bytes: 0x10000,
            workers,
            net: april_net::network::NetConfig {
                hop_latency: 1,
                loopback_latency: 2,
            },
            ..MachineConfig::default()
        }
    }

    #[test]
    fn remote_access_completes_in_parallel_mode() {
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
        for workers in [1, 2, 4] {
            let mut m = ParallelAlewife::new(small_cfg(workers), prog.clone());
            // Boot every node: the run drains to quiescence, which
            // requires all processors to reach `halt`.
            for i in 0..m.num_procs() {
                m.cpu_mut(i).boot(0);
            }
            assert_eq!(m.run(&SwitchSpin::default(), 100_000), None);
            assert_eq!(m.mem().read(0x10000), Word(77));
            assert!(m.cpu(0).is_halted());
            assert!(m.halted_cycles()[0].is_some());
        }
    }

    #[test]
    fn window_override_narrows_but_never_widens() {
        let mut cfg = small_cfg(2);
        let m = ParallelAlewife::new(cfg, assemble("halt").unwrap());
        assert_eq!(m.window_width(), 2);
        cfg.window_override = 1;
        let m = ParallelAlewife::new(cfg, assemble("halt").unwrap());
        assert_eq!(m.window_width(), 1);
        cfg.window_override = 100;
        let m = ParallelAlewife::new(cfg, assemble("halt").unwrap());
        assert_eq!(m.window_width(), 2, "override must not exceed lookahead");
    }

    #[test]
    #[should_panic(expected = "no conservative window")]
    fn zero_lookahead_is_rejected() {
        let cfg = MachineConfig {
            net: april_net::network::NetConfig {
                hop_latency: 1,
                loopback_latency: 0,
            },
            ..small_cfg(2)
        };
        let mut m = ParallelAlewife::new(cfg, assemble("halt").unwrap());
        m.boot();
        m.run(&SwitchSpin::default(), 1_000);
    }
}

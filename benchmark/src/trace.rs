//! The harness's own tracing: spans recorded in memory around the
//! public calls into each layer, and the [`Timed`] machine wrapper that
//! splits a run into time inside `advance_into` and time in its driver.
//! Nothing inside the simulator is instrumented.

use april_core::cpu::{Cpu, StepEvent};
use april_core::program::Program;
use april_machine::{Machine, MachineFault};
use april_mem::femem::FeMemory;
use april_obs::{StatsReport, Trace, TraceConfig};
use std::sync::OnceLock;
use std::time::Instant;

/// One recorded interval. `count > 1` marks an aggregate: a call made
/// too often to record one span each (`advance_into`), summed into one
/// record whose `end - start` is the (estimated) total time inside the
/// call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. When off, `begin`/`end` cost one branch, so workload
/// code is written once and runs untraced for the end-to-end metrics.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            count: 1,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn end(&mut self, span: Open) {
        if let Some(id) = span.0 {
            assert_eq!(self.open.pop(), Some(id), "spans must nest");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Records `count` calls totalling `total_ns` as one child of the
    /// innermost open span.
    pub fn aggregate(&mut self, name: &'static str, total_ns: u64, count: u64) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        let start_ns = parent.map_or(0, |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + total_ns,
            parent,
            count,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total nanoseconds in spans called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .sum()
    }

    /// Total calls recorded under `name` (aggregates count all theirs).
    pub fn calls(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.count)
            .sum()
    }

    /// Self time of the spans called `name`: their duration minus the
    /// part covered by their direct children.
    pub fn self_ns(&self, name: &str) -> f64 {
        let mut total = 0.0;
        for (id, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let children: u64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(Span::dur_ns)
                .sum();
            total += s.dur_ns().saturating_sub(children) as f64;
        }
        total
    }
}

/// One call in this many is timed. An advance of a 16-node machine
/// takes a few hundred nanoseconds, so reading the clock around every
/// one would itself be a fifth of the run.
const SAMPLE_EVERY: u64 = 7;

/// Nanoseconds one timed sample spends reading the clock, measured once
/// and subtracted from every sample.
fn clock_cost_ns() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        (0..1000)
            .map(|_| {
                let t0 = Instant::now();
                t0.elapsed().as_nanos() as u64
            })
            .min()
            .unwrap_or(0)
    })
}

/// A machine whose `advance_into` calls are counted, and timed by
/// sampling. Every other method forwards untouched, so
/// `Runtime<Timed<Alewife>>` runs the same simulation as
/// `Runtime<Alewife>`.
pub struct Timed<M: Machine> {
    pub inner: M,
    /// Calls of `advance_into`: the cycles the machine visited.
    pub visits: u64,
    sampled: u64,
    sampled_ns: u64,
    clock_ns: u64,
}

impl<M: Machine> Timed<M> {
    pub fn new(inner: M) -> Timed<M> {
        Timed {
            inner,
            visits: 0,
            sampled: 0,
            sampled_ns: 0,
            clock_ns: clock_cost_ns(),
        }
    }

    /// Estimated nanoseconds inside `advance_into`: the timed samples'
    /// mean, less the clock's own cost, times the number of calls.
    pub fn advance_ns(&self) -> u64 {
        if self.sampled == 0 {
            return 0;
        }
        let own = self.sampled_ns.saturating_sub(self.sampled * self.clock_ns);
        (own as u128 * self.visits as u128 / self.sampled as u128) as u64
    }
}

impl<M: Machine> Machine for Timed<M> {
    fn num_procs(&self) -> usize {
        self.inner.num_procs()
    }
    fn now(&self) -> u64 {
        self.inner.now()
    }
    fn advance_into(&mut self, evs: &mut Vec<(usize, StepEvent)>) {
        self.visits += 1;
        if !self.visits.is_multiple_of(SAMPLE_EVERY) {
            return self.inner.advance_into(evs);
        }
        let t0 = Instant::now();
        self.inner.advance_into(evs);
        self.sampled_ns += t0.elapsed().as_nanos() as u64;
        self.sampled += 1;
    }
    fn cpu(&self, i: usize) -> &Cpu {
        self.inner.cpu(i)
    }
    fn cpu_mut(&mut self, i: usize) -> &mut Cpu {
        self.inner.cpu_mut(i)
    }
    fn mem(&self) -> &FeMemory {
        self.inner.mem()
    }
    fn mem_mut(&mut self) -> &mut FeMemory {
        self.inner.mem_mut()
    }
    fn program(&self) -> &Program {
        self.inner.program()
    }
    fn charge_handler(&mut self, i: usize, cycles: u64) {
        self.inner.charge_handler(i, cycles);
    }
    fn charge_idle(&mut self, i: usize, cycles: u64) {
        self.inner.charge_idle(i, cycles);
    }
    fn send_ipi(&mut self, from: usize, to: usize) {
        self.inner.send_ipi(from, to);
    }
    fn home_of(&self, addr: u32) -> usize {
        self.inner.home_of(addr)
    }
    fn fault(&self) -> Option<&MachineFault> {
        self.inner.fault()
    }
    fn attach_tracer(&mut self, cfg: TraceConfig) {
        self.inner.attach_tracer(cfg);
    }
    fn collect_trace(&self) -> Trace {
        self.inner.collect_trace()
    }
    fn stats_report(&self) -> StatsReport {
        self.inner.stats_report()
    }
    fn retire_request(&mut self, node: usize, word: u32) -> bool {
        self.inner.retire_request(node, word)
    }
}

//! The six workloads and the loop that measures a batch workload.
//!
//! A batch workload is one complete simulation repeated for the length
//! of the run: every repeat sets up afresh (timed as `setup_s`), runs
//! (timed as the operation) and is then checked against its oracle
//! (untimed). `serve_warm_sweep` has its own loop in [`serve`] because
//! its operation is a job, not a run.

pub mod ckpt;
pub mod fib;
pub mod loops;
pub mod serve;

use crate::measure::{median, peak_rss_mb, quiet_s, Stopwatch, Timing};
use crate::trace::{Span, Timed, Tracer};
use april_core::cpu::Cpu;
use april_machine::alewife::Node;
use april_machine::driver::{drive_sequential, EventCtx, NodeDriver, SwitchSpin};
use april_machine::{Alewife, Machine};
use april_mem::femem::FeMemory;
use april_obs::StatsReport;
use std::collections::BTreeMap;
use std::time::Instant;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes: for the contract test and `agree.sh --smoke`.
    pub smoke: bool,
}

/// Per-layer samples by metric name; a metric's value is the median of
/// its samples, so counts (identical every repeat) pass through. A
/// metric nobody `put` is a layer the workload does not exercise.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Values that could not be measured: a statistics key the report
    /// no longer has, or a number that is not finite. Any of them fails
    /// the operation that produced it.
    problems: Vec<String>,
}

impl Layers {
    pub fn put(&mut self, name: &'static str, value: f64) {
        if value.is_finite() {
            self.samples.entry(name).or_default().push(value);
        } else {
            self.missing(name, &format!("the value is {value}"));
        }
    }

    /// Records that `name` could not be measured.
    pub fn missing(&mut self, name: &str, why: &str) {
        self.problems.push(format!("{name}: {why}"));
    }

    pub fn values(&self) -> BTreeMap<&'static str, f64> {
        self.samples.iter().map(|(k, v)| (*k, median(v))).collect()
    }

    /// Moves `other`'s samples in.
    pub fn absorb(&mut self, other: Layers) {
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
    }

    pub fn problems(&self) -> &[String] {
        &self.problems
    }
}

/// What one checked repeat produced.
pub struct Outcome {
    pub nodes: usize,
    pub cycles: u64,
    pub instrs: u64,
    /// Digest of the stats JSON: must repeat exactly.
    pub digest: u64,
    /// Why the oracle rejected the repeat, if it did.
    pub failure: Option<String>,
}

/// One untraced measurement window: a repeat of a batch workload, a
/// block of jobs on `serve_warm_sweep`.
pub struct Window {
    pub wall: Timing,
    /// Simulated cycles and retired instructions inside the window.
    pub cycles: u64,
    pub instrs: u64,
    /// Raw milliseconds of one operation: the wall of a repeat, the
    /// median Submit-to-Done latency of a block's jobs.
    pub job_raw_ms: f64,
}

/// Everything a run of one workload measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The untraced windows and set-ups the end-to-end metrics are
    /// computed from (see `output`).
    pub windows: Vec<Window>,
    pub setups: Vec<Timing>,
    pub peak_rss_mb: f64,
    pub layers: Layers,
    /// Spans of every traced repeat, in order.
    pub spans: Vec<Vec<Span>>,
}

impl Report {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

pub trait Batch {
    /// A machine ready to run.
    type Ready;
    /// A machine that has run.
    type Done;
    /// Everything before the timed phase: compile or assemble,
    /// construct, place the seeded inputs, boot.
    fn setup(&self, tr: &mut Tracer) -> Self::Ready;
    /// The timed phase.
    fn run(&self, ready: Self::Ready, tr: &mut Tracer) -> Self::Done;
    /// Untimed: the oracle, the stats digest and the layer counts.
    fn check(&self, done: Self::Done, tr: &mut Tracer, layers: &mut Layers) -> Outcome;
    /// Measurements the traced pass makes once, after its repeats.
    fn extras(&self, _untraced_wall_s: f64, _layers: &mut Layers) {}
}

/// The low 48 bits of a digest: exact in a JSON number.
pub const DIGEST_MASK: u64 = (1 << 48) - 1;

/// Fewest untraced repeats a run reports on, however short `--seconds`.
const MIN_REPEATS: usize = 3;

/// Raw time one `setup_s` sample should cover. A 16-node machine sets
/// up in 0.2 ms, too little to time once, so a repeat first sets up and
/// drops as many machines as the previous repeat's set-up time says fit
/// in here, then sets up the one it runs, and reports the mean.
const SETUP_SAMPLE_S: f64 = 0.005;

pub fn run_batch<W: Batch>(w: &W, o: &Opts) -> Report {
    let epoch = Instant::now();
    let mut rep = Report::default();
    let mut traced_walls = Vec::new();
    let mut first: Option<(u64, u64, u64)> = None;
    let mut one_setup_s = f64::INFINITY;
    loop {
        // The traced pass alternates untraced and traced repeats, so
        // the two walls it compares saw the same host conditions.
        let traced = o.trace && rep.attempted % 2 == 1;
        let mut tr = Tracer::new(traced, epoch);
        let root = tr.begin("repeat");
        let warm = ((SETUP_SAMPLE_S / one_setup_s) as u32).min(1000);
        let watch = Stopwatch::start();
        for _ in 0..warm {
            // One machine alive at a time, as in a user's process.
            drop(w.setup(&mut Tracer::off()));
        }
        let ready = w.setup(&mut tr);
        let setup = watch.stop().per(warm + 1);
        one_setup_s = setup.raw_s;
        let watch = Stopwatch::start();
        let done = w.run(ready, &mut tr);
        let wall = watch.stop();
        let mut layers = Layers::default();
        let out = w.check(done, &mut tr, &mut layers);
        tr.end(root);

        rep.attempted += 1;
        let id = (out.cycles, out.instrs, out.digest);
        if let Some(why) = out.failure {
            rep.fail(why);
        } else if let Some(why) = layers.problems().first() {
            rep.fail(format!("unmeasured layer value: {why}"));
        } else if *first.get_or_insert(id) != id {
            rep.fail(format!(
                "repeat {} diverged: (cycles, instrs, digest) {id:?} vs {first:?}",
                rep.attempted
            ));
        }
        if traced {
            traced_walls.push(wall);
            span_layers(&tr, wall.factor(), out.nodes, out.cycles, &mut layers);
            layers.put("host.calib_step_ns", wall.step_ns());
            layers.put("sim.cycles", out.cycles as f64);
            layers.put("sim.stats_digest", (out.digest & DIGEST_MASK) as f64);
            rep.layers.absorb(layers);
            rep.spans.push(tr.spans().to_vec());
        } else {
            rep.setups.push(setup);
            rep.windows.push(Window {
                wall,
                cycles: out.cycles,
                instrs: out.instrs,
                job_raw_ms: wall.raw_s * 1e3,
            });
        }
        let enough = rep.windows.len() >= MIN_REPEATS && (!o.trace || !traced_walls.is_empty());
        if enough && epoch.elapsed().as_secs_f64() >= o.seconds {
            break;
        }
    }
    if o.trace {
        let walls: Vec<Timing> = rep.windows.iter().map(|w| w.wall).collect();
        let untraced = quiet_s(&walls);
        rep.layers.put(
            "trace.overhead_share",
            quiet_s(&traced_walls) / untraced - 1.0,
        );
        w.extras(untraced, &mut rep.layers);
    }
    rep.peak_rss_mb = peak_rss_mb();
    rep
}

/// Turns one traced repeat's spans into its per-layer time samples.
/// `factor` turns the spans' raw nanoseconds into calibrated ones.
fn span_layers(tr: &Tracer, factor: f64, nodes: usize, cycles: u64, layers: &mut Layers) {
    let s = |ns: f64| ns * factor / 1e9;
    let ms = |ns: f64| ns * factor / 1e6;
    for (span, metric) in [
        ("core.assemble", "core.assemble_ms"),
        ("mult.compile", "mult.compile_ms"),
        ("obs.stats_json", "obs.stats_json_ms"),
    ] {
        if tr.calls(span) > 0 {
            layers.put(metric, ms(tr.total_ns(span)));
        }
    }
    layers.put("machine.construct_s", s(tr.total_ns("machine.construct")));
    layers.put("machine.boot_s", s(tr.total_ns("machine.boot")));
    let visits = tr.calls("machine.advance");
    if visits > 0 {
        let advance_ns = tr.total_ns("machine.advance") * factor;
        layers.put("machine.advance_s", advance_ns / 1e9);
        layers.put("machine.visited_cycles", visits as f64);
        layers.put("machine.visited_share", visits as f64 / cycles as f64);
        let per_visit = advance_ns / visits as f64;
        layers.put("machine.advance_ns_per_visit", per_visit);
        layers.put(
            "machine.advance_ns_per_node_visit",
            per_visit / nodes as f64,
        );
    }
    if tr.calls("machine.run") > 0 {
        layers.put("machine.driver_s", s(tr.self_ns("machine.run")));
    }
    if tr.calls("runtime.run") > 0 {
        let run = tr.total_ns("runtime.run");
        let own = tr.self_ns("runtime.run");
        layers.put("runtime.run_s", s(run));
        layers.put("runtime.self_s", s(own));
        layers.put("runtime.self_share", own / run);
    }
}

/// Upper limit on simulated cycles: a run that reaches it has hung.
const MAX_CYCLES: u64 = 2_000_000_000;

struct TimedCtx<'a> {
    m: &'a mut Timed<Alewife>,
    node: usize,
}

impl EventCtx for TimedCtx<'_> {
    fn cpu(&mut self) -> &mut Cpu {
        self.m.cpu_mut(self.node)
    }
    fn charge_handler(&mut self, cycles: u64) {
        self.m.charge_handler(self.node, cycles);
    }
    fn charge_idle(&mut self, cycles: u64) {
        self.m.charge_idle(self.node, cycles);
    }
}

/// Runs a booted machine to quiescence under the switch-spin driver.
/// Untraced, through the shipped `drive_sequential`, so that the
/// end-to-end numbers time the repository's own driver loop. Traced,
/// the same loop written over [`Timed`] (`drive_sequential` takes the
/// bare `Alewife` only), leaving a `machine.run` span with the
/// `machine.advance` aggregate as its child.
pub fn run_machine(mut m: Alewife, tr: &mut Tracer) -> Alewife {
    let driver = SwitchSpin::default();
    if !tr.is_on() {
        drive_sequential(&mut m, &driver, MAX_CYCLES);
        return m;
    }
    let span = tr.begin("machine.run");
    let mut t = Timed::new(m);
    let mut evs = Vec::new();
    loop {
        assert!(t.now() < MAX_CYCLES, "timeout at cycle {}", t.now());
        if t.fault().is_some() || (t.inner.all_halted() && !t.inner.pending_work()) {
            break;
        }
        t.advance_into(&mut evs);
        for (i, ev) in evs.drain(..) {
            driver.on_event(i, ev, &mut TimedCtx { m: &mut t, node: i });
        }
    }
    tr.aggregate("machine.advance", t.advance_ns(), t.visits);
    tr.end(span);
    t.inner
}

/// Encodes the stats report (timed as `obs.stats_json`) and reads the
/// deterministic layer counts out of it.
pub fn stats_layers(report: &StatsReport, tr: &mut Tracer, layers: &mut Layers) -> String {
    let span = tr.begin("obs.stats_json");
    let json = report.to_json();
    tr.end(span);
    layers.put("obs.stats_json_bytes", json.len() as f64);
    // A key the report has lost is a failure, not an idle layer.
    let mut count = |metric: &'static str, section: &str, key: &str| match report
        .section(section)
        .and_then(|s| s.get_counter(key))
    {
        Some(v) => layers.put(metric, v as f64),
        None => layers.missing(metric, &format!("no counter {section}.{key}")),
    };
    count("core.instructions", "cpu", "instructions");
    count("core.context_switches", "cpu", "context_switches");
    count("core.traps", "cpu", "traps");
    count("core.remote_misses", "cpu", "remote_misses");
    count("mem.controller.hits", "cache", "hits");
    count("mem.controller.local_fills", "cache", "local_fills");
    count("mem.controller.remote_txns", "cache", "remote_txns");
    count("mem.controller.invals", "cache", "invals");
    count("mem.controller.retransmits", "cache", "retransmits");
    count("mem.directory.read_reqs", "dir", "read_reqs");
    count("mem.directory.write_reqs", "dir", "write_reqs");
    count("mem.directory.invals_sent", "dir", "invals_sent");
    count("mem.directory.overflows", "dir", "overflows");
    count("net.delivered", "net", "delivered");
    count("net.total_hops", "net", "total_hops");
    let avg = report
        .section("net")
        .and_then(|s| s.get_gauge("avg_latency"));
    match avg {
        Some(v) => layers.put("net.avg_latency_cycles", v),
        None => layers.missing("net.avg_latency_cycles", "no gauge net.avg_latency"),
    }
    json
}

/// Host memory the simulated state occupies, per node.
pub fn footprint_layers<'a>(
    nodes: impl ExactSizeIterator<Item = &'a Node>,
    mem: &FeMemory,
    layers: &mut Layers,
) {
    let n = nodes.len() as f64;
    let dir: usize = nodes.map(|node| node.dir.state_bytes()).sum();
    layers.put("mem.directory.state_bytes_per_node", dir as f64 / n);
    layers.put(
        "mem.femem.resident_bytes_per_node",
        mem.resident_bytes() as f64 / n,
    );
}

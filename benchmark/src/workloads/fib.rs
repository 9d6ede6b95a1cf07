//! `mult_fib_lazy_16node`: the paper's Table 3 stack end to end — the
//! Mul-T compiler's lazy-future code under the run-time system on the
//! full machine.

use super::{footprint_layers, stats_layers, Batch, Layers, Opts, Outcome};
use crate::measure::digest;
use crate::trace::{Timed, Tracer};
use april_machine::{Alewife, Machine, MachineConfig, Topology};
use april_mult::{compile, CompileOptions};
use april_obs::StatsReport;
use april_runtime::{RtConfig, RunError, RunResult, Runtime};

/// Per-node region: heaps and thread stacks for the whole task tree.
const REGION: u32 = 16 << 20;

pub struct Fib {
    n: u32,
    /// Seeded addend: `main` returns `fib(n) + offset`.
    offset: i32,
}

pub fn fib(o: &Opts) -> Fib {
    Fib {
        n: if o.smoke { 12 } else { 23 },
        offset: (o.seed % 1000) as i32,
    }
}

fn fib_value(n: u32) -> i32 {
    (0..n).fold((0, 1), |(a, b), _| (b, a + b)).0
}

/// The run-time over the bare machine, or over its timed wrapper when
/// the repeat is traced.
pub enum Booted {
    Plain(Box<Runtime<Alewife>>),
    Traced(Box<Runtime<Timed<Alewife>>>),
}

impl Booted {
    fn machine(&self) -> &Alewife {
        match self {
            Booted::Plain(rt) => rt.machine(),
            Booted::Traced(rt) => &rt.machine().inner,
        }
    }

    fn stats_report(&self) -> StatsReport {
        match self {
            Booted::Plain(rt) => rt.stats_report(),
            Booted::Traced(rt) => rt.stats_report(),
        }
    }
}

pub struct Finished {
    result: Result<RunResult, RunError>,
    rt: Booted,
}

impl Fib {
    fn source(&self) -> String {
        format!(
            "
(define (fib n)
  (if (< n 2)
      n
      (+ (future (fib (- n 1)))
         (future (fib (- n 2))))))

(define (main) (+ (fib {}) {}))
",
            self.n, self.offset
        )
    }
}

impl Batch for Fib {
    type Ready = Booted;
    type Done = Finished;

    fn setup(&self, tr: &mut Tracer) -> Booted {
        let span = tr.begin("mult.compile");
        let prog = compile(&self.source(), &CompileOptions::april_lazy()).expect("fib compiles");
        tr.end(span);
        let span = tr.begin("machine.construct");
        let m = Alewife::new(
            MachineConfig {
                topology: Topology::new(2, 4),
                region_bytes: REGION,
                ..MachineConfig::default()
            },
            prog,
        );
        tr.end(span);
        let rt_cfg = RtConfig {
            region_bytes: REGION,
            ..RtConfig::default()
        };
        let span = tr.begin("machine.boot");
        let booted = if tr.is_on() {
            let mut rt = Box::new(Runtime::new(Timed::new(m), rt_cfg));
            rt.boot();
            Booted::Traced(rt)
        } else {
            let mut rt = Box::new(Runtime::new(m, rt_cfg));
            rt.boot();
            Booted::Plain(rt)
        };
        tr.end(span);
        booted
    }

    fn run(&self, mut rt: Booted, tr: &mut Tracer) -> Finished {
        let span = tr.begin("runtime.run");
        let result = match &mut rt {
            Booted::Plain(rt) => rt.run(),
            Booted::Traced(rt) => {
                let result = rt.run();
                let timed = rt.machine();
                tr.aggregate("machine.advance", timed.advance_ns(), timed.visits);
                result
            }
        };
        tr.end(span);
        Finished { result, rt }
    }

    fn check(&self, done: Finished, tr: &mut Tracer, layers: &mut Layers) -> Outcome {
        let json = stats_layers(&done.rt.stats_report(), tr, layers);
        let machine = done.rt.machine();
        footprint_layers(machine.nodes.iter(), machine.mem(), layers);
        let want = fib_value(self.n) + self.offset;
        let (instrs, failure) = match &done.result {
            Ok(r) => {
                let s = &r.sched;
                layers.put("runtime.threads_created", s.threads_created as f64);
                layers.put("runtime.lazy_created", s.lazy_created as f64);
                layers.put("runtime.lazy_steals", s.lazy_steals as f64);
                layers.put("runtime.inline_evals", s.inline_evals as f64);
                layers.put("runtime.blocks", s.blocks as f64);
                layers.put("runtime.loads", s.loads as f64);
                let got = r.value.as_fixnum();
                let failure =
                    (got != Some(want)).then(|| format!("main returned {got:?}, expected {want}"));
                (r.total.instructions, failure)
            }
            Err(e) => (0, Some(format!("run failed: {e}"))),
        };
        Outcome {
            nodes: machine.num_procs(),
            cycles: machine.now(),
            instrs,
            digest: digest(json.as_bytes()),
            failure,
        }
    }
}

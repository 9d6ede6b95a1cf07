//! The shared job executor: one code path for cold boots and snapshot
//! warm starts.
//!
//! Every job — whether run in-process by the sweep harness or farmed
//! out by the daemon — goes through [`run_job`], which phases the run
//! identically in both modes:
//!
//! 1. **Setup.** Cold: build the machine, boot every processor, and
//!    re-execute the warmup to `warm_cycles`. Warm: build the machine
//!    and restore the registered checkpoint (cut at exactly
//!    `warm_cycles`). Because APRL restores are bit-exact and
//!    scheduler-agnostic (DESIGN.md §11), the two setups land on the
//!    same machine state; what differs is only host time, which is the
//!    whole point of warm starts.
//! 2. **Knobs.** The sweep-varied fault plan is installed *at the warm
//!    point* in both modes, so warm and cold jobs see identical fault
//!    schedules.
//! 3. **Run.** Drive to quiescence or the cycle budget, then collect
//!    the stats report and (optionally) the semantic trace.
//!
//! The determinism contract — a warm-started job is byte-identical in
//! stats and semantic trace to its cold twin, on any scheduler — is
//! enforced by `crates/machine/tests/warm_start.rs` and the serve
//! integration suite.

use crate::spec::{JobSpec, SimSpec};
use crate::ServeError;
use april_machine::driver::{drive_sequential_until, SwitchSpin};
use april_machine::{Alewife, Machine, Snapshot};
use april_obs::TraceConfig;
use std::time::Instant;

/// A registered warm image: a checkpoint of a booted, warmed machine,
/// plus the spec it was built from so forks can be validated.
#[derive(Debug, Clone)]
pub struct WarmImage {
    /// The machine + workload the image was built from.
    pub sim: SimSpec,
    /// The cycle the checkpoint was cut at.
    pub cycle: u64,
    /// The checkpoint itself.
    pub snap: Snapshot,
    /// Host nanoseconds the boot + warmup + checkpoint took.
    pub build_ns: u64,
}

/// Everything a finished job reports. The stats JSON and trace JSONL
/// are deterministic functions of the spec (plus warm image); the two
/// `*_ns` timings are host wall-clock and are excluded from the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Whether the job forked a warm image.
    pub warm_used: bool,
    /// Final simulated cycle.
    pub cycles: u64,
    /// Instructions retired across all processors.
    pub instrs: u64,
    /// Instructions / total processor cycles.
    pub utilization: f64,
    /// Network fault injections: drops.
    pub drops: u64,
    /// Network fault injections: duplications.
    pub dups: u64,
    /// Network fault injections: delays.
    pub delays: u64,
    /// Host nanoseconds of setup (build + boot + warmup, or build +
    /// restore).
    pub setup_ns: u64,
    /// Host nanoseconds of the post-warm run phase.
    pub run_ns: u64,
    /// Fatal fault or budget exhaustion, `None` for a clean quiesced
    /// run.
    pub fault: Option<String>,
    /// The machine's stats report as JSON.
    pub stats_json: String,
    /// The semantic event trace as JSONL, when the spec asked for it.
    pub trace_jsonl: Option<String>,
}

/// Builds the machine a spec describes: cold (`snap` absent, ready to
/// boot) or directly from a checkpoint (`snap` present — the warm-start
/// fork). Which scheduler drives it is the spec's `lockstep` knob, and
/// both are bit-exact.
fn build(spec: &SimSpec, snap: Option<&Snapshot>) -> Result<Alewife, ServeError> {
    let cfg = spec.machine_config();
    let prog = spec.program()?;
    let tracer = TraceConfig::default();
    Ok(match snap {
        Some(s) => Alewife::from_snapshot(cfg, prog, Some(tracer), s)?,
        None => {
            let mut m = Alewife::new(cfg, prog);
            m.attach_tracer(tracer);
            m
        }
    })
}

/// Runs to quiescence or `stop_at`, whichever comes first.
fn run_until(m: &mut Alewife, stop_at: u64) {
    drive_sequential_until(
        m,
        &SwitchSpin::default(),
        stop_at,
        stop_at.saturating_add(2),
    );
}

fn outcome(m: &Alewife, spec: &JobSpec, warm_used: bool, setup_ns: u64, run_ns: u64) -> JobOutcome {
    let stats = m.total_stats();
    let fstats = m.fault_stats();
    let fault = m
        .fault()
        .map(|f| f.to_string())
        .or_else(|| (!m.finished()).then(|| "budget exhausted".to_string()));
    let trace_jsonl = spec.want_trace.then(|| {
        let mut t = m.collect_trace();
        t.retain_semantic();
        t.to_jsonl()
    });
    JobOutcome {
        warm_used,
        cycles: m.now(),
        instrs: stats.instructions,
        utilization: stats.instructions as f64 / (stats.total() as f64).max(1.0),
        drops: fstats.dropped,
        dups: fstats.duplicated,
        delays: fstats.delayed,
        setup_ns,
        run_ns,
        fault,
        stats_json: m.stats_report().to_json(),
        trace_jsonl,
    }
}

/// Boots the machine described by `sim`, executes `warm_cycles` cycles
/// under the event-driven scheduler, and checkpoints. The resulting
/// image forks into either scheduler (the snapshot layer normalizes
/// scheduler knobs away). Refuses a warm point the workload never
/// reaches — a checkpoint of a quiesced machine would make every fork
/// a no-op and the "warm equals cold" contract vacuous.
pub fn build_warm_image(sim: &SimSpec, warm_cycles: u64) -> Result<WarmImage, ServeError> {
    if warm_cycles == 0 {
        return Err(ServeError::BadSpec(
            "warm image needs warm_cycles > 0".into(),
        ));
    }
    // Warm images are always cut on the event-driven scheduler;
    // restores are scheduler-agnostic so this is purely an
    // implementation choice.
    let base = SimSpec {
        lockstep: false,
        ..*sim
    };
    let t0 = Instant::now();
    let mut m = build(&base, None)?;
    m.boot_all();
    run_until(&mut m, warm_cycles);
    if let Some(f) = m.fault() {
        return Err(ServeError::BadSpec(format!(
            "machine faulted during warmup: {f}"
        )));
    }
    if m.finished() {
        return Err(ServeError::BadSpec(format!(
            "workload quiesced at cycle {} before the warm point {warm_cycles}",
            m.now()
        )));
    }
    let snap = m.checkpoint()?;
    Ok(WarmImage {
        sim: *sim,
        cycle: warm_cycles,
        snap,
        build_ns: t0.elapsed().as_nanos() as u64,
    })
}

/// Runs one job to completion. With `warm` present (and the spec
/// naming a warm image), setup is a snapshot restore; otherwise the
/// warmup is re-executed from a cold boot. Both paths continue
/// identically: fault plan at the warm point, then run to quiescence
/// or budget.
pub fn run_job(spec: &JobSpec, warm: Option<&WarmImage>) -> Result<JobOutcome, ServeError> {
    if spec.warm.is_some() != warm.is_some() {
        return Err(ServeError::BadSpec(
            "spec and executor disagree about warm start".into(),
        ));
    }
    if let Some(img) = warm {
        if !spec.sim.warm_compatible(&img.sim) {
            return Err(ServeError::WarmMismatch(format!(
                "job sim {:?} is not warm-compatible with image sim {:?}",
                spec.sim, img.sim
            )));
        }
        if spec.warm_cycles != img.cycle {
            return Err(ServeError::WarmMismatch(format!(
                "job warm_cycles {} but image was cut at cycle {}",
                spec.warm_cycles, img.cycle
            )));
        }
    }

    let t0 = Instant::now();
    let (mut m, warm_used) = if let Some(img) = warm {
        (build(&spec.sim, Some(&img.snap))?, true)
    } else {
        let mut m = build(&spec.sim, None)?;
        m.boot_all();
        if spec.warm_cycles > 0 {
            run_until(&mut m, spec.warm_cycles.min(spec.max_cycles));
        }
        (m, false)
    };
    let setup_ns = t0.elapsed().as_nanos() as u64;

    // Sweep-varied knobs apply at the warm point, identically for both
    // setup paths.
    if let Some(f) = &spec.fault {
        m.set_fault_plan(f.plan());
    }

    let t1 = Instant::now();
    run_until(&mut m, spec.max_cycles);
    let run_ns = t1.elapsed().as_nanos() as u64;
    Ok(outcome(&m, spec, warm_used, setup_ns, run_ns))
}

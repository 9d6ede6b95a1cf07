//! What a run prints and writes: a line per metric for people, result
//! files stamped with provenance under `out/`, and the one-line JSON
//! object the driver reads as the last line of standard output.
//!
//! The end-to-end metrics are defined here, from the windows and
//! set-ups a workload recorded, once in calibrated and once in raw host
//! time.

use crate::measure::{median, provenance_json, quartiles, quiet, usable, Timing};
use crate::names::{MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::{Opts, Report};
use std::fmt::Write as _;
use std::path::Path;

/// One timed sample of an end-to-end metric.
struct Sample {
    /// In calibrated time.
    value: f64,
    /// The same in raw host time.
    raw: f64,
    /// What a step of the calibration chain took around it.
    step_ns: f64,
    /// Whether the metric's statistics use it (see `measure::usable`).
    used: bool,
}

struct Row<'a> {
    def: &'a MetricDef,
    /// What the result line carries; `None` for a layer the workload
    /// does not exercise (the result line then says 0).
    value: Option<f64>,
    /// The same from raw host time.
    raw_value: f64,
    median: f64,
    q1: f64,
    q3: f64,
    samples: Vec<Sample>,
}

impl Row<'_> {
    /// An end-to-end metric: the [`quiet`] value of its used samples,
    /// with their median and quartiles beside it.
    fn timed(def: &MetricDef, samples: Vec<Sample>) -> Row<'_> {
        let used = |f: fn(&Sample) -> f64| -> Vec<f64> {
            samples.iter().filter(|s| s.used).map(f).collect()
        };
        let values = used(|s| s.value);
        let (q1, q3) = quartiles(&values);
        Row {
            def,
            value: Some(quiet(&values, def.higher)),
            raw_value: quiet(&used(|s| s.raw), def.higher),
            median: median(&values),
            q1,
            q3,
            samples,
        }
    }

    /// A single number, nothing timed.
    fn plain(def: &MetricDef, value: Option<f64>) -> Row<'_> {
        let v = value.unwrap_or(0.0);
        Row {
            def,
            value,
            raw_value: v,
            median: v,
            q1: v,
            q3: v,
            samples: Vec::new(),
        }
    }
}

/// A sample of `of(seconds)` over the interval `t`.
fn sample(t: &Timing, used: bool, of: impl Fn(f64) -> f64) -> Sample {
    Sample {
        value: of(t.calibrated_s()),
        raw: of(t.raw_s),
        step_ns: t.step_ns(),
        used,
    }
}

/// The end-to-end metrics of a run. A speed is a window's simulated
/// work over its wall, `job_ms_p50` a window's operation time, and
/// `setup_s` one set-up.
fn end_to_end(rep: &Report) -> Vec<Row<'_>> {
    let walls: Vec<Timing> = rep.windows.iter().map(|w| w.wall).collect();
    let (wall_used, setup_used) = (usable(&walls), usable(&rep.setups));
    END_TO_END
        .iter()
        .map(|def| {
            let windows = rep.windows.iter().zip(&wall_used);
            let samples = match def.name {
                "sim_cycles_per_s" => windows
                    .map(|(w, u)| sample(&w.wall, *u, |s| w.cycles as f64 / s))
                    .collect(),
                "sim_instr_per_s" => windows
                    .map(|(w, u)| sample(&w.wall, *u, |s| w.instrs as f64 / s))
                    .collect(),
                "job_ms_p50" => windows
                    .map(|(w, u)| sample(&w.wall, *u, |s| w.job_raw_ms * s / w.wall.raw_s))
                    .collect(),
                "setup_s" => rep
                    .setups
                    .iter()
                    .zip(&setup_used)
                    .map(|(t, u)| sample(t, *u, |s| s))
                    .collect(),
                "peak_rss_mb" => return Row::plain(def, Some(rep.peak_rss_mb)),
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            Row::timed(def, samples)
        })
        .collect()
}

fn per_layer(rep: &Report) -> Vec<Row<'_>> {
    let values = rep.layers.values();
    PER_LAYER
        .iter()
        .map(|def| Row::plain(def, values.get(def.name).copied()))
        .collect()
}

fn list<T: ToString>(v: impl Iterator<Item = T>) -> String {
    v.map(|x| x.to_string()).collect::<Vec<_>>().join(", ")
}

fn write_file(path: &Path, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

fn trace_json(workload: &str, provenance: &str, rep: &Report) -> String {
    let mut s = format!("{{\"workload\": \"{workload}\", {provenance}, \"spans\": [\n");
    let mut first = true;
    for (repeat, spans) in rep.spans.iter().enumerate() {
        for (id, sp) in spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".into(), |p| p.to_string());
            let sep = if first { "" } else { ",\n" };
            first = false;
            let _ = write!(
                s,
                "{sep}{{\"workload\": \"{workload}\", \"repeat\": {repeat}, \"id\": {id}, \
                 \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"count\": {}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.count
            );
        }
    }
    s.push_str("\n]}\n");
    s
}

/// The result-line shape, `"name": {"value": v, "unit": "u"}, ...`.
fn metrics_object(rows: &[Row], value: impl Fn(&Row) -> f64) -> String {
    list(rows.iter().map(|r| {
        format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            r.def.name,
            value(r),
            r.def.unit
        )
    }))
}

pub fn emit(workload: &str, o: &Opts, rep: &Report, out_dir: &Path) {
    let rows = if o.trace {
        per_layer(rep)
    } else {
        end_to_end(rep)
    };
    let steps: Vec<f64> = rep.windows.iter().map(|w| w.wall.step_ns()).collect();
    let provenance = format!(
        "{}, \"time_unit\": \"calibrated s = raw host s x 1 ns / calib_step_ns\", \
         \"calib_step_ns_median\": {}",
        provenance_json(o.seed, o.seconds, o.smoke),
        median(&steps)
    );
    let pass = if o.trace { "layers" } else { "e2e" };

    // A value that is not a finite number is a measurement that failed.
    let mut failures = rep.failures.clone();
    for r in &rows {
        if r.value.is_some_and(|v| !v.is_finite()) {
            failures.push(format!("{} is not finite", r.def.name));
        }
    }
    let failed = rep.failed + (failures.len() - rep.failures.len()) as u64;
    let attempted = rep.attempted.max(failed);

    println!("# {workload} ({pass}) {{{provenance}}}");
    for r in &rows {
        let name = r.def.name;
        match r.value {
            None => println!("{name:<44} {:>18}", "not exercised"),
            Some(v) if r.samples.is_empty() => println!("{name:<44} {v:>18} {}", r.def.unit),
            Some(v) => println!(
                "{name:<44} {v:>18} {:<9} median {} q1 {} q3 {} n {} of {} raw {}",
                r.def.unit,
                r.median,
                r.q1,
                r.q3,
                r.samples.iter().filter(|s| s.used).count(),
                r.samples.len(),
                r.raw_value
            ),
        }
    }
    println!("# attempted {attempted} failed {failed}");
    for why in &failures {
        println!("# FAILED: {why}");
    }

    let mut file = format!(
        "{{\"workload\": \"{workload}\", \"pass\": \"{pass}\", {provenance}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{\n"
    );
    let measured: Vec<&Row> = rows.iter().filter(|r| r.value.is_some()).collect();
    for (i, r) in measured.iter().enumerate() {
        let sep = if i + 1 < measured.len() { "," } else { "" };
        let v = r.value.unwrap_or_default();
        let _ = write!(file, "  \"{}\": {{\"value\": {v}", r.def.name);
        if !r.samples.is_empty() {
            let s = &r.samples;
            let _ = write!(
                file,
                ", \"raw_value\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \
                 \"samples\": [{}], \"raw_samples\": [{}], \"calib_step_ns\": [{}], \
                 \"used\": [{}]",
                r.raw_value,
                r.median,
                r.q1,
                r.q3,
                s.iter().filter(|s| s.used).count(),
                list(s.iter().map(|s| s.value)),
                list(s.iter().map(|s| s.raw)),
                list(s.iter().map(|s| s.step_ns)),
                list(s.iter().map(|s| s.used))
            );
        }
        let _ = writeln!(file, ", \"unit\": \"{}\"}}{sep}", r.def.unit);
    }
    file.push_str("}}\n");
    write_file(&out_dir.join(format!("{workload}.{pass}.json")), &file);
    if o.trace {
        write_file(
            &out_dir.join(format!("trace.{workload}.json")),
            &trace_json(workload, &provenance, rep),
        );
    } else {
        // The same metrics from raw host time, for `--agree` to set
        // beside the calibrated ones.
        println!("# raw {{{}}}", metrics_object(&rows, |r| r.raw_value));
    }
    let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics_object(&rows, |r| finite(r.value.unwrap_or(0.0)))
    );
}

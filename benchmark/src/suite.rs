//! Every workload, each run in a fresh process: `--all` (one set, both
//! passes) and `--agree` (two sets of the same build, judged the way
//! the driver judges a benchmark: by the spread of each end-to-end
//! metric over a set's seeds, and by how far the second set's median
//! is from the first's, against the metric's bound).

use crate::measure::{median, quartiles};
use crate::names::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::Opts;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// What a child printed: the result object of its last line and, on an
/// untraced pass, the `# raw` line before it.
pub struct Parsed {
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
    /// The end-to-end metrics in raw host time (empty on a traced pass).
    pub raw: BTreeMap<String, f64>,
}

/// Reads `"name": {"value": v, ...}` pairs out of a line.
fn parse_metrics(line: &str) -> Option<BTreeMap<String, f64>> {
    let mut metrics = BTreeMap::new();
    let mut pieces = line.split("\": {\"value\": ");
    let mut before = pieces.next()?;
    for piece in pieces {
        let name = before.rsplit('"').next()?;
        let value = piece.split(',').next()?.parse().ok()?;
        metrics.insert(name.to_string(), value);
        before = piece;
    }
    Some(metrics)
}

/// Reads back what `output::emit` printed.
pub fn parse_result(text: &str) -> Option<Parsed> {
    let last = text.lines().last()?;
    if !last.starts_with("{\"correct\": ") {
        return None;
    }
    let raw = text
        .lines()
        .find(|l| l.starts_with("# raw "))
        .and_then(parse_metrics)
        .unwrap_or_default();
    Some(Parsed {
        correct: last.starts_with("{\"correct\": true"),
        metrics: parse_metrics(last)?,
        raw,
    })
}

/// Runs one workload in a child process, passing its report through.
fn child(workload: &str, o: &Opts, seed: u64, trace: bool) -> Result<Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if o.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or_default();
    for line in text.lines().filter(|l| *l != last) {
        println!("{line}");
    }
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    parse_result(&text).ok_or_else(|| format!("{workload} printed no result"))
}

/// One workload's runs in a set: untraced on each seed, traced on the
/// first.
#[derive(Default)]
struct Runs {
    untraced: Vec<Parsed>,
    traced: Option<Parsed>,
}

type Set = BTreeMap<&'static str, Runs>;

/// One set: every workload on `seeds` consecutive seeds from `--seed`.
fn run_set(o: &Opts, seeds: u64, bad: &mut Vec<String>) -> Set {
    let mut set = Set::new();
    for w in WORKLOADS {
        let runs = set.entry(w.name).or_default();
        let passes = (0..seeds)
            .map(|i| (o.seed + i, false))
            .chain([(o.seed, true)]);
        for (seed, trace) in passes {
            match child(w.name, o, seed, trace) {
                Ok(p) => {
                    if !p.correct {
                        bad.push(format!(
                            "{} (seed {seed}, trace {}) is incorrect",
                            w.name, trace as u8
                        ));
                    }
                    if trace {
                        runs.traced = Some(p);
                    } else {
                        runs.untraced.push(p);
                    }
                }
                Err(e) => bad.push(e),
            }
        }
    }
    set
}

fn finish(bad: &[String]) -> ExitCode {
    for b in bad {
        println!("# FAILED: {b}");
    }
    if bad.is_empty() {
        println!("# all workloads correct");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

pub fn run_all(o: &Opts) -> ExitCode {
    let mut bad = Vec::new();
    run_set(o, 1, &mut bad);
    finish(&bad)
}

/// Metrics that are counts of simulated events: identical in any two
/// runs of one build on one seed.
fn is_count(unit: &str) -> bool {
    matches!(unit, "count" | "cycles" | "hash48")
}

/// A metric over one set's seeds: its median, and the distance between
/// its quartiles as a share of the median (0 for a single seed).
fn summary(values: &[f64]) -> (f64, f64) {
    let m = median(values);
    let (q1, q3) = quartiles(values);
    (m, (q3 - q1) / m.abs().max(f64::MIN_POSITIVE))
}

/// By what share of `a` the median `b` is worse, given the direction.
fn worse_by(m: &MetricDef, a: f64, b: f64) -> f64 {
    let d = if m.higher { a - b } else { b - a };
    d / a.abs().max(f64::MIN_POSITIVE)
}

pub fn agree(o: &Opts, seeds: u64) -> ExitCode {
    let mut bad = Vec::new();
    let a = run_set(o, seeds, &mut bad);
    let b = run_set(o, seeds, &mut bad);
    println!(
        "# two sets of {seeds} seeds: median and quartile spread of each set, how much \
         worse (+) the second median is, and the same in raw host time"
    );
    if o.smoke {
        println!("# smoke sizes are too small to gate times on: only counts are");
    }
    println!(
        "{:<22} {:<18} {:>14} {:>7} {:>14} {:>7} {:>7} {:>6}   {:>7} {:>7} {:>7}",
        "workload",
        "metric",
        "median A",
        "spread",
        "median B",
        "spread",
        "B worse",
        "bound",
        "raw A",
        "raw B",
        "B worse"
    );
    for w in WORKLOADS {
        let (Some(x), Some(y)) = (a.get(w.name), b.get(w.name)) else {
            continue;
        };
        for m in END_TO_END {
            let col = |runs: &Runs, raw: bool| -> Vec<f64> {
                runs.untraced
                    .iter()
                    .filter_map(|p| if raw { &p.raw } else { &p.metrics }.get(m.name).copied())
                    .collect()
            };
            let (ma, sa) = summary(&col(x, false));
            let (mb, sb) = summary(&col(y, false));
            let (ra, rsa) = summary(&col(x, true));
            let (rb, rsb) = summary(&col(y, true));
            let shift = worse_by(m, ma, mb);
            // The driver holds every spread but set-up's to the bound,
            // and every median shift.
            let spread_ok = m.name == "setup_s" || sa.max(sb) <= m.bound;
            let ok = o.smoke || (spread_ok && shift.abs() <= m.bound);
            println!(
                "{:<22} {:<18} {:>14.5} {:>6.2}% {:>14.5} {:>6.2}% {:>+6.2}% {:>5.0}%   \
                 {:>6.2}% {:>6.2}% {:>+6.2}%{}",
                w.name,
                m.name,
                ma,
                sa * 100.0,
                mb,
                sb * 100.0,
                shift * 100.0,
                m.bound * 100.0,
                rsa * 100.0,
                rsb * 100.0,
                worse_by(m, ra, rb) * 100.0,
                if ok { "" } else { "  DISAGREE" }
            );
            if !ok {
                bad.push(format!(
                    "{} {}: spreads {:.1}% and {:.1}%, medians {:+.1}% apart, bound {:.0}%",
                    w.name,
                    m.name,
                    sa * 100.0,
                    sb * 100.0,
                    shift * 100.0,
                    m.bound * 100.0
                ));
            }
        }
        let (Some(x), Some(y)) = (&x.traced, &y.traced) else {
            continue;
        };
        for m in PER_LAYER.iter().filter(|m| is_count(m.unit)) {
            let (va, vb) = (x.metrics[m.name], y.metrics[m.name]);
            if va != vb {
                bad.push(format!("{} count {} differs: {va} vs {vb}", w.name, m.name));
            }
        }
    }
    finish(&bad)
}

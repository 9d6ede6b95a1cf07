//! Sample statistics, the calibrated stopwatch, process memory, digests
//! and provenance.

use std::hint::black_box;
use std::time::Instant;

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Median; 0 for an empty sample.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them; both equal the single value of a one-element sample.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile, `p` in 0..=100.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The value a metric had in the quietest tenth of a run's windows: the
/// 10th percentile of times, the 90th of speeds.
///
/// The reference host is a shared virtual machine. Its neighbours slow
/// a window by 30 to 80 %, in phases that last from a fraction of a
/// second to longer than a run, and never speed one up; the median of a
/// run's windows therefore says how busy the neighbours were (over ten
/// runs of one build in a busy hour it spread by 13 to 18 % on three of
/// the workloads, the quiet tenth by 3 to 4 %; see
/// `results/estimators.md`). The extreme is left out because a window
/// whose calibration was off can land there.
pub fn quiet(v: &[f64], higher_is_better: bool) -> f64 {
    let mut s = sorted(v);
    if higher_is_better {
        s.reverse();
    }
    let rank = s.len().div_ceil(10);
    s.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}

/// Nanoseconds one step of the calibration chain takes when the host
/// runs at the speed calibrated seconds are stated for.
pub const REFERENCE_STEP_NS: f64 = 1.0;

/// Nanoseconds per step of a dependent multiply-add chain, right now:
/// the best of three sub-millisecond bursts, so an interrupt in one of
/// them does not count. The chain is pure latency, so its time follows
/// the core's clock and nothing else.
pub fn calib_step_ns() -> f64 {
    const STEPS: u64 = 400_000;
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = 1u64;
            for i in 0..STEPS {
                x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
            }
            t0.elapsed().as_nanos() as f64 / STEPS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// One timed interval: the raw host seconds it took, and what a step of
/// the calibration chain took immediately before and after it.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub raw_s: f64,
    step_before: f64,
    step_after: f64,
}

/// Most by which the two calibration readings of a [`Timing`] may differ
/// for its clock to count as known. The reference host's clock moves by
/// 28 %, mostly between two speeds, and readings taken at one speed
/// scatter by 1 %.
const STABLE_CLOCK: f64 = 0.02;

impl Timing {
    /// Nanoseconds per step of the calibration chain around the
    /// interval: the mean of the two readings.
    pub fn step_ns(&self) -> f64 {
        (self.step_before + self.step_after) / 2.0
    }

    /// Whether both readings saw the same clock. When they did not, the
    /// clock changed somewhere inside the interval, its calibrated time
    /// is a guess (off by up to half the difference), and the
    /// end-to-end metrics leave the interval out.
    pub fn stable(&self) -> bool {
        (self.step_before - self.step_after).abs() <= STABLE_CLOCK * self.step_ns()
    }

    /// Turns a raw time taken inside the interval into calibrated time.
    pub fn factor(&self) -> f64 {
        REFERENCE_STEP_NS / self.step_ns()
    }

    /// One of `n` equal parts of the interval.
    pub fn per(self, n: u32) -> Timing {
        Timing {
            raw_s: self.raw_s / f64::from(n),
            ..self
        }
    }

    /// The interval in **calibrated seconds**: what it would have taken
    /// had the calibration chain run at `REFERENCE_STEP_NS` per step.
    pub fn calibrated_s(&self) -> f64 {
        self.raw_s * self.factor()
    }
}

/// Fewest intervals with a known clock a statistic is computed from; a
/// run that has fewer uses every interval it timed.
const MIN_STABLE: usize = 10;

/// Which of `timings` a statistic uses: those whose clock is known
/// ([`Timing::stable`]), or all of them when too few are.
pub fn usable(timings: &[Timing]) -> Vec<bool> {
    let stable: Vec<bool> = timings.iter().map(Timing::stable).collect();
    if stable.iter().filter(|s| **s).count() < MIN_STABLE {
        vec![true; timings.len()]
    } else {
        stable
    }
}

/// The [`quiet`] calibrated seconds of the usable `timings`.
pub fn quiet_s(timings: &[Timing]) -> f64 {
    let used = usable(timings);
    let s: Vec<f64> = timings
        .iter()
        .zip(used)
        .filter(|(_, used)| *used)
        .map(|(t, _)| t.calibrated_s())
        .collect();
    quiet(&s, false)
}

/// A stopwatch that measures the host's speed around what it times.
///
/// The reference host changes its core clock by a quarter (the chain
/// above takes 0.95 ns to 1.25 ns per step) several times a minute, and
/// every workload here follows it. So the
/// harness times the chain immediately before and after each timed
/// interval; the interval's [`Timing`] carries both numbers, and every
/// output states both the raw and the calibrated time.
pub struct Stopwatch {
    start: Instant,
    step_ns_before: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        let step_ns_before = calib_step_ns();
        Stopwatch {
            start: Instant::now(),
            step_ns_before,
        }
    }

    pub fn stop(self) -> Timing {
        let raw_s = self.start.elapsed().as_secs_f64();
        Timing {
            raw_s,
            step_before: self.step_ns_before,
            step_after: calib_step_ns(),
        }
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over `bytes`: the identity of a run's statistics.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The revision in `./.git`, read from the files so that nothing
/// outside the checkout is consulted; `unknown` in a source archive.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().into();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// Where a set of numbers came from, as JSON object fields.
pub fn provenance_json(seed: u64, seconds: f64, smoke: bool) -> String {
    let rustc = env!("APRIL_BENCH_RUSTC");
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release lto=thin codegen-units=1 debug=true"
    };
    format!(
        "\"git_revision\": \"{}\", \"host_cpus\": {cpus}, \"rustc\": \"{rustc}\", \
         \"profile\": \"{profile}\", \"seed\": {seed}, \
         \"seconds\": {seconds}, \"smoke\": {smoke}",
        git_revision()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn quiet_is_the_same_rank_from_either_end() {
        let times: Vec<f64> = (1..=45).map(f64::from).collect();
        let speeds: Vec<f64> = times.iter().map(|t| 90.0 / t).collect();
        assert_eq!(quiet(&times, false), 5.0);
        assert_eq!(quiet(&speeds, true), 90.0 / 5.0);
        assert_eq!(quiet(&[7.0], false), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 95.0), 19.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
    }
}

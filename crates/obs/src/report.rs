//! The counter / gauge / histogram registry snapshot.

use crate::json::JsonWriter;
use april_util::wire::{u32_index, Codec, Wire, WireError};

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket `i` counts samples whose value `v` satisfies
/// `floor(log2(v)) == i - 1` (bucket 0 counts `v == 0`), i.e. bucket
/// boundaries are `0, 1, 2, 4, 8, …`. Recording is branch-light and
/// allocation-free; merging is element-wise, so merged snapshots are
/// independent of recording order.
///
/// # Examples
///
/// ```
/// use april_obs::Hist;
///
/// let mut h = Hist::new();
/// for v in [0, 1, 3, 3, 17] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.sum(), 24);
/// assert_eq!(h.max(), 17);
/// assert_eq!(h.bucket(2), 2); // the two 3s land in [2, 4)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hist {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Hist {
    /// Creates an empty histogram.
    pub fn new() -> Hist {
        Hist::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = (64 - v.leading_zeros()) as usize;
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The count in bucket `i` (samples in `[2^(i-1), 2^i)`; bucket 0
    /// holds zeros).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Element-wise accumulation of `other` into `self`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("count");
        w.u64_value(self.count);
        w.key("sum");
        w.u64_value(self.sum);
        w.key("max");
        w.u64_value(self.max);
        w.key("mean");
        w.f64_value(self.mean());
        w.key("buckets");
        w.begin_array();
        // Trailing empty buckets are elided for compactness; the
        // boundary sequence 0,1,2,4,… makes index i self-describing.
        let hi = 65 - self.buckets.iter().rev().take_while(|&&c| c == 0).count();
        for &c in &self.buckets[..hi] {
            w.u64_value(c);
        }
        w.end_array();
        w.end_object();
    }
}

impl Wire for Hist {
    /// The histogram's snapshot layout (DESIGN.md §11).
    ///
    /// # Examples
    ///
    /// ```
    /// use april_obs::Hist;
    /// use april_util::wire::{ByteReader, ByteWriter, Wire};
    ///
    /// let mut h = Hist::new();
    /// h.record(12);
    /// let mut w = ByteWriter::new();
    /// h.wire(&mut w).unwrap();
    /// let bytes = w.finish();
    /// let mut back = Hist::new();
    /// back.wire(&mut ByteReader::new(&bytes)).unwrap();
    /// assert_eq!(back, h);
    /// ```
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        self.buckets.wire(c)?;
        c.u64(&mut self.count)?;
        c.u64(&mut self.sum)?;
        c.u64(&mut self.max)
    }
}

/// Sub-bucket count per power-of-two group in a [`QHist`].
const QSUB: usize = 16;
/// Total bucket count of a [`QHist`]: 16 exact buckets for values
/// below 16, then 16 linear sub-buckets per power-of-two group up to
/// `u64::MAX` (groups for exponents 4..=63).
const QBUCKETS: usize = QSUB + 60 * QSUB;

/// A quantile histogram: log2 groups refined by 16 linear sub-buckets,
/// bounding the relative error of any reported quantile by 1/16.
///
/// [`Hist`]'s pure log2 buckets are fine for means and tails-by-decade
/// but far too coarse for p999 latency curves, where a factor-of-two
/// bucket swallows the whole tail. `QHist` records values below 16
/// exactly and everything else into `(exponent, v >> (exponent - 4))`
/// buckets, so [`QHist::quantile`] answers with at most ~6% error.
/// Recording is allocation-free; merging is element-wise and therefore
/// independent of recording order, which is what makes reports built
/// from merged per-node histograms deterministic.
///
/// # Examples
///
/// ```
/// use april_obs::QHist;
///
/// let mut h = QHist::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.quantile(0.50);
/// assert!((470..=530).contains(&p50), "p50 = {p50}");
/// assert_eq!(h.quantile(1.0), 1000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QHist {
    buckets: Box<[u64; QBUCKETS]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for QHist {
    fn default() -> QHist {
        QHist {
            buckets: Box::new([0; QBUCKETS]),
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl QHist {
    /// Creates an empty histogram.
    pub fn new() -> QHist {
        QHist::default()
    }

    /// The bucket index of value `v`.
    #[inline]
    fn index_of(v: u64) -> usize {
        if v < QSUB as u64 {
            v as usize
        } else {
            let top = (63 - v.leading_zeros()) as usize; // >= 4
            (top - 3) * QSUB + ((v >> (top - 4)) & (QSUB as u64 - 1)) as usize
        }
    }

    /// The largest value that lands in bucket `idx` (its reported
    /// representative).
    fn upper_bound(idx: usize) -> u64 {
        if idx < QSUB {
            idx as u64
        } else {
            let top = idx / QSUB + 3;
            let sub = (idx % QSUB) as u64;
            let width = 1u64 << (top - 4);
            ((QSUB as u64 + sub) << (top - 4)) + (width - 1)
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[QHist::index_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: an upper bound on the
    /// sample at rank `ceil(q * count)`, within 1/16 relative error
    /// (and clamped to the true maximum). Returns 0 on an empty
    /// histogram. Deterministic: a pure function of the recorded
    /// multiset.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return QHist::upper_bound(idx).min(self.max);
            }
        }
        self.max
    }

    /// Element-wise accumulation of `other` into `self`.
    pub fn merge(&mut self, other: &QHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("count");
        w.u64_value(self.count);
        w.key("sum");
        w.u64_value(self.sum);
        w.key("max");
        w.u64_value(self.max);
        w.key("mean");
        w.f64_value(self.mean());
        w.key("p50");
        w.u64_value(self.quantile(0.50));
        w.key("p99");
        w.u64_value(self.quantile(0.99));
        w.key("p999");
        w.u64_value(self.quantile(0.999));
        // Sparse [index, count] pairs; the bucket geometry (16 linear
        // sub-buckets per log2 group) makes the index self-describing.
        w.key("buckets");
        w.begin_array();
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c != 0 {
                w.begin_array();
                w.u64_value(idx as u64);
                w.u64_value(c);
                w.end_array();
            }
        }
        w.end_array();
        w.end_object();
    }
}

impl Wire for QHist {
    /// Sparse: only non-empty buckets are written.
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        c.u64(&mut self.count)?;
        c.u64(&mut self.sum)?;
        c.u64(&mut self.max)?;
        c.sparse(
            &mut self.buckets[..],
            |&n| n != 0,
            u32_index,
            |c, n| c.u64(n),
        )
    }
}

/// What a [`Section`] entry holds.
#[derive(Debug, Clone, PartialEq)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Hist(Box<Hist>),
    QHist(Box<QHist>),
}

/// A named group of metrics within a [`StatsReport`] (e.g. one per
/// node, plus machine-wide sections).
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    name: String,
    entries: Vec<(&'static str, Metric)>,
}

impl Section {
    /// Creates an empty section called `name`.
    pub fn new(name: impl Into<String>) -> Section {
        Section {
            name: name.into(),
            entries: Vec::new(),
        }
    }

    /// The section's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a monotonic counter.
    pub fn counter(&mut self, key: &'static str, v: u64) -> &mut Section {
        self.entries.push((key, Metric::Counter(v)));
        self
    }

    /// Adds a derived floating-point gauge (serialized with fixed
    /// 6-digit precision so equal inputs give byte-equal JSON).
    pub fn gauge(&mut self, key: &'static str, v: f64) -> &mut Section {
        self.entries.push((key, Metric::Gauge(v)));
        self
    }

    /// Adds a histogram snapshot.
    pub fn hist(&mut self, key: &'static str, h: Hist) -> &mut Section {
        self.entries.push((key, Metric::Hist(Box::new(h))));
        self
    }

    /// Adds a quantile-histogram snapshot.
    pub fn qhist(&mut self, key: &'static str, h: QHist) -> &mut Section {
        self.entries.push((key, Metric::QHist(Box::new(h))));
        self
    }

    /// Looks up a counter by key.
    pub fn get_counter(&self, key: &str) -> Option<u64> {
        self.entries.iter().find_map(|(k, m)| match m {
            Metric::Counter(v) if *k == key => Some(*v),
            _ => None,
        })
    }

    /// Looks up a gauge by key.
    pub fn get_gauge(&self, key: &str) -> Option<f64> {
        self.entries.iter().find_map(|(k, m)| match m {
            Metric::Gauge(v) if *k == key => Some(*v),
            _ => None,
        })
    }

    /// Looks up a quantile histogram by key.
    pub fn get_qhist(&self, key: &str) -> Option<&QHist> {
        self.entries.iter().find_map(|(k, m)| match m {
            Metric::QHist(h) if *k == key => Some(h.as_ref()),
            _ => None,
        })
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.key(&self.name);
        w.begin_object();
        for (k, m) in &self.entries {
            w.key(k);
            match m {
                Metric::Counter(v) => w.u64_value(*v),
                Metric::Gauge(v) => w.f64_value(*v),
                Metric::Hist(h) => h.write_json(w),
                Metric::QHist(h) => h.write_json(w),
            }
        }
        w.end_object();
    }
}

/// A complete metrics snapshot of one run: an ordered list of named
/// [`Section`]s, serializable as a single JSON object.
///
/// Reports are built exclusively from deterministic simulation state
/// (per-node ledgers, protocol counters, fault statistics) — never
/// from wall clocks or from quiescence-dependent values such as the
/// final scheduler cycle — so the same workload produces a byte-equal
/// report under every scheduler.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsReport {
    sections: Vec<Section>,
}

impl StatsReport {
    /// Creates an empty report.
    pub fn new() -> StatsReport {
        StatsReport::default()
    }

    /// Appends a section. Section order is part of the serialized
    /// form; builders must append in a deterministic order.
    pub fn push(&mut self, section: Section) {
        self.sections.push(section);
    }

    /// The sections, in insertion order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Finds a section by name.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name() == name)
    }

    /// Serializes the whole report as one compact JSON object.
    /// Byte-equal for equal reports.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        for s in &self.sections {
            s.write_json(&mut w);
        }
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;
    use april_util::wire::{ByteReader, ByteWriter};

    #[test]
    fn hist_buckets_by_log2() {
        let mut h = Hist::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8] {
            h.record(v);
        }
        assert_eq!(h.bucket(0), 1); // 0
        assert_eq!(h.bucket(1), 1); // 1
        assert_eq!(h.bucket(2), 2); // 2, 3
        assert_eq!(h.bucket(3), 2); // 4, 7
        assert_eq!(h.bucket(4), 1); // 8
        assert_eq!(h.max(), 8);
    }

    #[test]
    fn hist_merge_is_order_independent() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        for v in 0..100u64 {
            if v % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 100);
    }

    #[test]
    fn qhist_quantiles_are_tight_and_merge_is_order_independent() {
        let mut h = QHist::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.quantile(1.0), 10_000);
        assert_eq!(h.quantile(0.0), 1);
        for (q, exact) in [(0.5, 5_000u64), (0.99, 9_900), (0.999, 9_990)] {
            let got = h.quantile(q);
            assert!(
                got >= exact && (got - exact) as f64 <= exact as f64 / 16.0 + 1.0,
                "q={q}: got {got}, exact {exact}"
            );
        }

        // Small values are exact.
        let mut s = QHist::new();
        for v in [0u64, 3, 3, 7] {
            s.record(v);
        }
        assert_eq!(s.quantile(0.5), 3);
        assert_eq!(s.quantile(1.0), 7);

        // Merge is element-wise, so order-independent.
        let mut a = QHist::new();
        let mut b = QHist::new();
        for v in 0..1000u64 {
            if v % 3 == 0 {
                a.record(v * v);
            } else {
                b.record(v * v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 1000);

        // Wire roundtrip.
        let mut w = ByteWriter::new();
        ab.wire(&mut w).unwrap();
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        let mut back = QHist::new();
        back.wire(&mut r).unwrap();
        assert_eq!(back, ab);
        assert!(r.is_empty());
    }

    #[test]
    fn qhist_extremes_roundtrip() {
        let mut h = QHist::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.quantile(0.1), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
        let mut w = ByteWriter::new();
        h.wire(&mut w).unwrap();
        let bytes = w.finish();
        let mut back = QHist::new();
        back.wire(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn report_json_is_valid_and_deterministic() {
        let build = || {
            let mut r = StatsReport::new();
            let mut s = Section::new("node0.cpu");
            s.counter("useful_cycles", 1000)
                .counter("traps", 7)
                .gauge("utilization", 2.0 / 3.0);
            let mut h = Hist::new();
            h.record(5);
            h.record(40);
            s.hist("latency", h);
            r.push(s);
            r
        };
        let a = build().to_json();
        let b = build().to_json();
        assert_eq!(a, b);
        assert!(validate_json(&a).is_ok(), "{a}");
        let r = build();
        assert_eq!(
            r.section("node0.cpu").unwrap().get_counter("traps"),
            Some(7)
        );
        assert!(
            (r.section("node0.cpu")
                .unwrap()
                .get_gauge("utilization")
                .unwrap()
                - 2.0 / 3.0)
                .abs()
                < 1e-12
        );
    }
}

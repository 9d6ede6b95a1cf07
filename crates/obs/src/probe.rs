//! Per-component event recorders.

use crate::event::{Event, EventKind};
use april_util::splitmix64;
use april_util::wire::{Codec, Wire, WireError};

/// Tracing configuration shared by every probe of a machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Master switch. A disabled probe's `emit` is a single branch.
    pub enabled: bool,
    /// Ring capacity per lane, in events, at most
    /// [`MAX_RING_CAPACITY`]. Each lane retains its most recent
    /// `capacity` sampled events; older ones are overwritten
    /// (oldest-first *within the lane*, which keeps eviction
    /// deterministic across schedulers). Total trace memory is bounded
    /// by `lanes × capacity × size_of::<Event>()`.
    pub capacity: usize,
    /// Sampling seed. Decisions are pure hashes of `(seed, event)`,
    /// never a stateful generator, so they are independent of
    /// emission interleaving across lanes.
    pub seed: u64,
    /// Fraction of events to record, in `0.0..=1.0`. `1.0` keeps
    /// everything.
    pub sample: f64,
}

/// The largest ring capacity a probe takes: [`Probe::new`] clamps to
/// it, and a snapshot naming a larger one is refused. A ring is
/// allocated at full capacity up front, so unlike an element count the
/// capacity is not bounded by the length of the snapshot that carries
/// it.
pub const MAX_RING_CAPACITY: usize = 1 << 20;

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            enabled: true,
            capacity: 4096,
            seed: 0,
            sample: 1.0,
        }
    }
}

impl TraceConfig {
    /// The sampling threshold: an event is kept when its content hash
    /// is at most this value.
    fn threshold(&self) -> u64 {
        if self.sample >= 1.0 {
            u64::MAX
        } else if self.sample <= 0.0 {
            0
        } else {
            (self.sample * (u64::MAX as f64)) as u64
        }
    }
}

/// A fixed-capacity event recorder owned by one instrumented
/// component (one lane).
///
/// `emit` allocates nothing: the ring is sized once at construction
/// and overwrites oldest-first when full. A default-constructed probe
/// is disabled and records nothing.
///
/// # Examples
///
/// ```
/// use april_obs::{lane, Component, EventKind, Probe, TraceConfig};
///
/// let cfg = TraceConfig { capacity: 2, ..TraceConfig::default() };
/// let mut p = Probe::new(lane(Component::Cpu, 0), cfg);
/// for c in 0..5 {
///     p.emit(c, EventKind::ContextSwitch, c, 0);
/// }
/// // Capacity 2: only the two most recent events survive.
/// let kept: Vec<u64> = p.events().map(|e| e.cycle).collect();
/// assert_eq!(kept, vec![3, 4]);
/// assert_eq!(p.emitted(), 5);
/// assert_eq!(p.overwritten(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Probe {
    lane: u32,
    enabled: bool,
    threshold: u64,
    seed: u64,
    ring: Vec<Event>,
    /// Next write position in `ring` once it is full.
    head: usize,
    /// Emissions on this lane so far (sampled out or not).
    seq: u64,
    sampled_out: u64,
    overwritten: u64,
}

impl Probe {
    /// Creates a probe for `lane`. With `cfg.enabled == false` (or a
    /// zero capacity) the probe stays inert and allocates nothing; the
    /// capacity is clamped to [`MAX_RING_CAPACITY`].
    pub fn new(lane: u32, cfg: TraceConfig) -> Probe {
        let enabled = cfg.enabled && cfg.capacity > 0;
        Probe {
            lane,
            enabled,
            threshold: cfg.threshold(),
            seed: cfg.seed,
            ring: if enabled {
                Vec::with_capacity(cfg.capacity.min(MAX_RING_CAPACITY))
            } else {
                Vec::new()
            },
            head: 0,
            seq: 0,
            sampled_out: 0,
            overwritten: 0,
        }
    }

    /// This probe's lane id.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Whether the probe records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event. The hot-path cost when disabled is a single
    /// branch; when enabled, a hash and a ring store — no allocation.
    #[inline]
    pub fn emit(&mut self, cycle: u64, kind: EventKind, a: u64, b: u64) {
        if !self.enabled {
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        if self.threshold != u64::MAX {
            // Order-independent sampling: a pure hash of the event
            // content. Identical events on one lane are distinguished
            // by `seq`, so repeated events still sample independently.
            let mut h = self.seed ^ cycle.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h = splitmix64(h ^ (((self.lane as u64) << 8) | kind as u64));
            h = splitmix64(h ^ seq);
            h = splitmix64(h ^ a ^ b.rotate_left(32));
            if h > self.threshold {
                self.sampled_out += 1;
                return;
            }
        }
        let ev = Event {
            cycle,
            lane: self.lane,
            seq,
            kind,
            a,
            b,
        };
        if self.ring.len() < self.ring.capacity() {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.ring.len();
            self.overwritten += 1;
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> + '_ {
        let (newer, older) = self.ring.split_at(self.head);
        older.iter().chain(newer.iter())
    }

    /// Total emissions on this lane (including sampled-out ones).
    pub fn emitted(&self) -> u64 {
        self.seq
    }

    /// Emissions discarded by sampling.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// Sampled events evicted because the ring was full.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }
}

impl Wire for Probe {
    /// The probe's complete state — configuration, counters, and
    /// retained ring contents (DESIGN.md §11).
    ///
    /// Snapshotting the full state (not just the ring) matters for
    /// restore-equivalence: `seq` feeds both the sampling hash and the
    /// canonical event key, so a restored probe must resume counting
    /// exactly where the original stopped.
    ///
    /// # Examples
    ///
    /// ```
    /// use april_obs::{lane, Component, EventKind, Probe, TraceConfig};
    /// use april_util::wire::{ByteReader, ByteWriter, Wire};
    ///
    /// let mut p = Probe::new(lane(Component::Cpu, 0), TraceConfig::default());
    /// p.emit(3, EventKind::TrapTaken, 1, 2);
    /// let mut w = ByteWriter::new();
    /// p.wire(&mut w).unwrap();
    /// let bytes = w.finish();
    /// let mut q = Probe::default();
    /// q.wire(&mut ByteReader::new(&bytes)).unwrap();
    /// assert_eq!(q.emitted(), 1);
    /// assert_eq!(q.events().count(), 1);
    /// ```
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        c.u32(&mut self.lane)?;
        c.bool(&mut self.enabled)?;
        c.u64(&mut self.threshold)?;
        c.u64(&mut self.seed)?;
        // The ring's *capacity* (not just its contents) is state: it
        // decides when overwriting starts, so it must survive the
        // round trip for eviction to stay deterministic.
        let at = c.pos();
        let mut cap = self.ring.capacity();
        c.usize(&mut cap)?;
        if cap > MAX_RING_CAPACITY {
            return Err(WireError::BadLen {
                at,
                len: cap as u64,
            });
        }
        let len = c.count(self.ring.len())?;
        if C::READS {
            if len > cap {
                return Err(WireError::Corrupt("probe ring longer than its capacity"));
            }
            self.ring = Vec::with_capacity(cap);
            self.ring.resize(len, Event::default());
        }
        self.ring.as_mut_slice().wire(c)?;
        c.usize(&mut self.head)?;
        if self.head >= self.ring.len().max(1) {
            return Err(WireError::Corrupt("probe ring head out of range"));
        }
        c.u64(&mut self.seq)?;
        c.u64(&mut self.sampled_out)?;
        c.u64(&mut self.overwritten)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{lane, Component};
    use april_util::wire::{ByteReader, ByteWriter};

    fn cfg(capacity: usize, sample: f64) -> TraceConfig {
        TraceConfig {
            enabled: true,
            capacity,
            seed: 0x5eed,
            sample,
        }
    }

    #[test]
    fn disabled_probe_records_nothing() {
        let mut p = Probe::default();
        p.emit(1, EventKind::TrapTaken, 2, 3);
        assert_eq!(p.events().count(), 0);
        assert_eq!(p.emitted(), 0);
    }

    #[test]
    fn seq_numbers_every_emission() {
        let mut p = Probe::new(lane(Component::Net, 0), cfg(8, 1.0));
        for c in 0..3 {
            p.emit(c, EventKind::NetHop, c, 0);
        }
        let seqs: Vec<u64> = p.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn sampling_is_a_pure_function_of_content() {
        let run = || {
            let mut p = Probe::new(lane(Component::Cpu, 7), cfg(1024, 0.5));
            for c in 0..1000u64 {
                p.emit(c, EventKind::CacheMiss, c * 4, c % 2);
            }
            (
                p.events().copied().collect::<Vec<_>>(),
                p.sampled_out(),
                p.emitted(),
            )
        };
        let (a, a_out, a_n) = run();
        let (b, b_out, b_n) = run();
        assert_eq!(a, b);
        assert_eq!(a_out, b_out);
        assert_eq!(a_n, b_n);
        assert!(a_out > 300 && a_out < 700, "~half sampled out: {a_out}");
    }

    #[test]
    fn snapshot_roundtrip_resumes_identically() {
        // Two probes that diverge unless *all* state (seq, head,
        // counters, ring capacity) survives the round trip.
        let mut live = Probe::new(lane(Component::Ctl, 3), cfg(4, 0.5));
        for c in 0..37u64 {
            live.emit(c, EventKind::NackRecv, c * 8, c);
        }
        let mut w = ByteWriter::new();
        live.wire(&mut w).unwrap();
        let bytes = w.finish();
        let mut restored = Probe::default();
        restored.wire(&mut ByteReader::new(&bytes)).unwrap();
        for c in 37..100u64 {
            live.emit(c, EventKind::NackRecv, c * 8, c);
            restored.emit(c, EventKind::NackRecv, c * 8, c);
        }
        assert_eq!(
            live.events().copied().collect::<Vec<_>>(),
            restored.events().copied().collect::<Vec<_>>()
        );
        assert_eq!(live.emitted(), restored.emitted());
        assert_eq!(live.sampled_out(), restored.sampled_out());
        assert_eq!(live.overwritten(), restored.overwritten());
    }

    #[test]
    fn corrupt_probe_bytes_are_rejected() {
        let mut p = Probe::new(lane(Component::Cpu, 1), cfg(2, 1.0));
        let mut w = ByteWriter::new();
        p.wire(&mut w).unwrap();
        let bytes = w.finish();
        let mut q = Probe::default();
        assert!(q
            .wire(&mut ByteReader::new(&bytes[..bytes.len() - 1]))
            .is_err());
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut p = Probe::new(lane(Component::Cpu, 0), cfg(4, 1.0));
        for c in 0..10u64 {
            p.emit(c, EventKind::ContextSwitch, 0, 0);
        }
        let cycles: Vec<u64> = p.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
        assert_eq!(p.overwritten(), 6);
    }
}

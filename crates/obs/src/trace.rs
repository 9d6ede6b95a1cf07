//! The merged, canonically ordered event stream.

use crate::event::{lane_component, lane_node, Component, Event};
use crate::json::JsonWriter;
use crate::probe::Probe;

/// A machine-wide trace assembled from every component's [`Probe`].
///
/// Events are held in canonical `(cycle, lane, seq)` order after
/// [`Trace::sort`]. Because each lane's stream, sampling decisions,
/// and ring eviction are deterministic (see the crate docs), the
/// sorted trace is identical across the lockstep and event-driven
/// schedulers once [`Trace::retain_semantic`] has dropped the
/// scheduler-internal meta lane.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<Event>,
    emitted: u64,
    sampled_out: u64,
    overwritten: u64,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends every retained event of `probe`, accumulating its
    /// emission accounting.
    pub fn push_probe(&mut self, probe: &Probe) {
        self.events.extend(probe.events().copied());
        self.emitted += probe.emitted();
        self.sampled_out += probe.sampled_out();
        self.overwritten += probe.overwritten();
    }

    /// Sorts into canonical `(cycle, lane, seq)` order. Call once after
    /// the last `push_probe`.
    pub fn sort(&mut self) {
        self.events.sort_unstable_by_key(Event::key);
    }

    /// Drops scheduler-internal events ([`Component::Meta`] lanes:
    /// watchdog arming/firing), leaving only events
    /// that describe the simulated machine. The result is what the
    /// cross-scheduler determinism contract covers.
    pub fn retain_semantic(&mut self) {
        self.events
            .retain(|e| lane_component(e.lane) != Component::Meta);
    }

    /// The events, in insertion order (canonical order after
    /// [`Trace::sort`]).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Total emissions across all pushed probes, including sampled-out
    /// events.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Emissions discarded by sampling.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// Sampled events lost to ring eviction.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Exports as JSON Lines: one compact JSON object per event, in
    /// current order. Byte-identical for identical traces.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for e in &self.events {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("cycle");
            w.u64_value(e.cycle);
            w.key("comp");
            w.str_value(lane_component(e.lane).name());
            w.key("node");
            w.u64_value(lane_node(e.lane) as u64);
            w.key("seq");
            w.u64_value(e.seq);
            w.key("kind");
            w.str_value(e.kind.name());
            w.key("a");
            w.u64_value(e.a);
            w.key("b");
            w.u64_value(e.b);
            w.end_object();
            out.push_str(&w.finish());
            out.push('\n');
        }
        out
    }

    /// Exports as Chrome `trace_event` JSON (the object form,
    /// `{"traceEvents":[...]}`), loadable in chrome://tracing and
    /// Perfetto. Each event becomes an instant event with `ts` = cycle
    /// (microsecond slot reused as a cycle count), `pid` = node and
    /// `tid` = component, so the viewer groups rows by node and
    /// component.
    pub fn to_chrome_trace(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("displayTimeUnit");
        w.str_value("ns");
        w.key("traceEvents");
        w.begin_array();
        for e in &self.events {
            let comp = lane_component(e.lane);
            w.begin_object();
            w.key("name");
            w.str_value(e.kind.name());
            w.key("ph");
            w.str_value("i");
            w.key("ts");
            w.u64_value(e.cycle);
            w.key("pid");
            w.u64_value(lane_node(e.lane) as u64);
            w.key("tid");
            w.u64_value(comp as u64);
            w.key("s");
            w.str_value("t");
            w.key("args");
            w.begin_object();
            w.key("comp");
            w.str_value(comp.name());
            w.key("seq");
            w.u64_value(e.seq);
            w.key("a");
            w.u64_value(e.a);
            w.key("b");
            w.u64_value(e.b);
            w.end_object();
            w.end_object();
        }
        // Name the component rows once per (node, component) pair seen.
        let mut pairs: Vec<(u32, Component)> = self
            .events
            .iter()
            .map(|e| (lane_node(e.lane), lane_component(e.lane)))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        for (node, comp) in pairs {
            w.begin_object();
            w.key("name");
            w.str_value("thread_name");
            w.key("ph");
            w.str_value("M");
            w.key("pid");
            w.u64_value(node as u64);
            w.key("tid");
            w.u64_value(comp as u64);
            w.key("args");
            w.begin_object();
            w.key("name");
            w.str_value(comp.name());
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{lane, EventKind};
    use crate::json::validate_json;
    use crate::probe::TraceConfig;

    fn probe_with(lane_id: u32, cycles: &[u64]) -> Probe {
        let mut p = Probe::new(lane_id, TraceConfig::default());
        for &c in cycles {
            p.emit(c, EventKind::NetHop, c, 0);
        }
        p
    }

    #[test]
    fn sort_is_canonical_regardless_of_push_order() {
        let a = probe_with(lane(Component::Cpu, 0), &[5, 9]);
        let b = probe_with(lane(Component::Net, 0), &[1, 9]);
        let mut t1 = Trace::new();
        t1.push_probe(&a);
        t1.push_probe(&b);
        t1.sort();
        let mut t2 = Trace::new();
        t2.push_probe(&b);
        t2.push_probe(&a);
        t2.sort();
        assert_eq!(t1.events(), t2.events());
        let keys: Vec<_> = t1.events().iter().map(Event::key).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn retain_semantic_drops_meta_lanes() {
        let meta = probe_with(lane(Component::Meta, 0), &[1]);
        let cpu = probe_with(lane(Component::Cpu, 0), &[2]);
        let mut t = Trace::new();
        t.push_probe(&meta);
        t.push_probe(&cpu);
        t.retain_semantic();
        assert_eq!(t.events().len(), 1);
        assert_eq!(lane_component(t.events()[0].lane), Component::Cpu);
    }

    #[test]
    fn exports_are_valid_json() {
        let p = probe_with(lane(Component::Ctl, 3), &[1, 2, 3]);
        let mut t = Trace::new();
        t.push_probe(&p);
        t.sort();
        let chrome = t.to_chrome_trace();
        assert!(validate_json(&chrome).is_ok(), "{chrome}");
        for line in t.to_jsonl().lines() {
            assert!(validate_json(line).is_ok(), "{line}");
        }
    }
}

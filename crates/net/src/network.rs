//! The packet-switched direct network simulator.
//!
//! Packets cut through the network virtual-cut-through style: a header
//! flit advances one hop per cycle when channels are free; each channel
//! along the path is occupied for the packet's full length in flits, so
//! an unloaded packet of size B crossing h hops is delivered after
//! roughly `h + B` cycles, and contention appears as queueing for busy
//! channels — the behavior the network model of Section 8 captures
//! analytically.
//!
//! The simulator is deterministic: events are ordered by (time,
//! sequence number), and ties resolve in send order.

use crate::calendar::{Calendar, Event};
use crate::fault::{FaultPlan, FaultStats, Verdict};
use crate::topology::{Channel, Topology};
use april_obs::{EventKind, Hist, Probe};
use std::collections::VecDeque;

/// Packet ids with this bit set are fault-injected duplicates; they
/// draw from a separate counter so primary ids (and therefore primary
/// fault decisions) depend only on send order, and so duplicates never
/// themselves duplicate.
const DUP_BIT: u64 = 1 << 63;

/// Network timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Cycles for a header to traverse one router/channel stage.
    pub hop_latency: u64,
    /// Latency of a node sending to itself (loopback through the
    /// network interface).
    pub loopback_latency: u64,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            hop_latency: 1,
            loopback_latency: 1,
        }
    }
}

/// Aggregate network statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetStats {
    /// Packets delivered.
    pub delivered: u64,
    /// Sum of end-to-end packet latencies (cycles).
    pub total_latency: u64,
    /// Sum of hop counts.
    pub total_hops: u64,
    /// Sum of flit·cycles of channel occupancy (for utilization).
    pub busy_flit_cycles: u64,
}

impl NetStats {
    /// Mean end-to-end latency per delivered packet.
    pub fn avg_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.delivered as f64
        }
    }

    /// Mean hops per delivered packet.
    pub fn avg_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.delivered as f64
        }
    }

    /// Mean channel utilization over `elapsed` cycles and
    /// `num_channels` channels.
    pub fn channel_utilization(&self, num_channels: usize, elapsed: u64) -> f64 {
        if elapsed == 0 || num_channels == 0 {
            0.0
        } else {
            self.busy_flit_cycles as f64 / (num_channels as f64 * elapsed as f64)
        }
    }
}

/// A packet the network had to give up on: under the current
/// quarantine there is no alive route to its destination (or the
/// destination itself is quarantined). Dead letters are the *typed*
/// form of loss — recorded with their payload, counted in
/// [`FaultStats::dead_letters`], and surfaced in machine post-mortems —
/// as opposed to the silent swallowing a fail-stop fault produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeadLetter<P> {
    /// The packet's id.
    pub id: u64,
    /// The unreachable destination.
    pub dst: usize,
    /// The cycle the router gave up.
    pub at: u64,
    /// The undelivered payload.
    pub payload: P,
}

#[derive(Debug, Default)]
pub(crate) struct Flight<P> {
    pub(crate) id: u64,
    pub(crate) dst: usize,
    pub(crate) size: u64,
    pub(crate) sent_at: u64,
    pub(crate) hops: u64,
    pub(crate) payload: P,
}

/// The interconnection network, generic over the payload type.
///
/// # Examples
///
/// ```
/// use april_net::network::{NetConfig, Network};
/// use april_net::topology::Topology;
///
/// let mut net: Network<&str> = Network::new(Topology::new(2, 4), NetConfig::default());
/// net.send(0, 0, 15, 4, "hello");
/// let mut d = Vec::new();
/// let mut t = 0;
/// while d.is_empty() {
///     net.poll_into(t, &mut d);
///     t += 1;
/// }
/// assert_eq!(d[0], (15, "hello"));
/// // 6 hops + 4 flits: delivered by cycle 10.
/// assert!(t <= 11);
/// ```
#[derive(Debug)]
pub struct Network<P> {
    pub(crate) topo: Topology,
    pub(crate) cfg: NetConfig,
    /// Header arrivals, each naming its flight by slab slot.
    pub(crate) events: Calendar,
    /// In-flight packets: a slab indexed by slot, `None` on the slots
    /// listed in `free`. Slots are memory addresses only — events order
    /// by `(time, seq)` and the wire names flights by packet id.
    pub(crate) flights: Vec<Option<Flight<P>>>,
    pub(crate) free: Vec<usize>,
    /// The cycle each channel is next free, indexed by
    /// [`Network::channel_index`]; 0 for a channel never used.
    pub(crate) channel_free: Vec<u64>,
    /// `(deliver_time, slot)` of packets whose header has arrived, in
    /// deliver-time order.
    pub(crate) ready: VecDeque<(u64, usize)>,
    pub(crate) next_id: u64,
    pub(crate) next_dup_id: u64,
    pub(crate) seq: u64,
    pub(crate) fault: Option<FaultPlan>,
    /// Aggregate statistics.
    pub stats: NetStats,
    /// Counts of injected faults (all zero without a fault plan).
    pub fault_stats: FaultStats,
    /// End-to-end delivery latency distribution (log2 buckets).
    /// Recorded unconditionally: hand-over order is deterministic, the
    /// merge is order-independent, and the cost is a few adds.
    pub(crate) latency_hist: Hist,
    /// Hop-count distribution of delivered packets.
    pub(crate) hops_hist: Hist,
    /// Packets that had no alive route under the quarantine, in the
    /// deterministic order the router gave up on them.
    pub(crate) dead_letters: Vec<DeadLetter<P>>,
    /// Trace recorder for the network lane (inert by default).
    pub(crate) probe: Probe,
    /// Each node's coordinates, `dim` digits per node, and each
    /// dimension's node-number stride: the router compares digits
    /// where [`Topology::next_hop`] divides.
    digits: Vec<usize>,
    strides: Vec<usize>,
}

impl<P> Network<P> {
    /// Creates an idle network.
    pub fn new(topo: Topology, cfg: NetConfig) -> Network<P> {
        let n = topo.num_nodes();
        Network {
            digits: (0..n).flat_map(|v| topo.coords(v)).collect(),
            strides: (0..topo.dim).map(|d| topo.radix.pow(d as u32)).collect(),
            topo,
            cfg,
            events: Calendar::default(),
            flights: Vec::new(),
            free: Vec::new(),
            channel_free: vec![0; n * topo.dim * 2],
            ready: VecDeque::new(),
            next_id: 0,
            next_dup_id: 0,
            seq: 0,
            fault: None,
            stats: NetStats::default(),
            fault_stats: FaultStats::default(),
            latency_hist: Hist::new(),
            hops_hist: Hist::new(),
            dead_letters: Vec::new(),
            probe: Probe::default(),
        }
    }

    /// Installs a trace recorder for the network lane.
    pub fn attach_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The network's trace recorder.
    pub fn trace_probe(&self) -> &Probe {
        &self.probe
    }

    /// Distribution of end-to-end delivery latencies (log2 buckets).
    pub fn latency_hist(&self) -> &Hist {
        &self.latency_hist
    }

    /// Distribution of delivered packets' hop counts.
    pub fn hops_hist(&self) -> &Hist {
        &self.hops_hist
    }

    /// Creates an idle network with a fault-injection plan installed.
    pub fn with_faults(topo: Topology, cfg: NetConfig, plan: FaultPlan) -> Network<P> {
        let mut net = Network::new(topo, cfg);
        net.fault = Some(plan);
        net
    }

    /// Installs (or, with `None`, removes) a fault plan mid-run.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Mutable access to the fault plan, installing an inert seed-0
    /// plan first if none was configured — the recovery layer applies
    /// quarantines through this regardless of how the run was faulted.
    pub fn fault_plan_mut(&mut self) -> &mut FaultPlan {
        self.fault.get_or_insert_with(|| FaultPlan::new(0))
    }

    /// Packets the router had to give up on (no alive route under the
    /// quarantine), in the order it gave up.
    pub fn dead_letters(&self) -> &[DeadLetter<P>] {
        &self.dead_letters
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of packets currently in flight.
    pub fn in_flight_count(&self) -> usize {
        self.flights.len() - self.free.len()
    }

    /// In-flight packets as `(id, dst, sent_at, hops, payload)`, in
    /// arbitrary order. Callers building a post-mortem sort the owned
    /// snapshot themselves; nothing is rebuilt or sorted here, so the
    /// accessor is safe to call on hot paths.
    pub fn in_flight_packets(&self) -> impl Iterator<Item = (u64, usize, u64, u64, &P)> + '_ {
        self.flights
            .iter()
            .flatten()
            .map(|f| (f.id, f.dst, f.sent_at, f.hops, &f.payload))
    }

    /// Injects a packet of `size` flits at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`dst` are out of range or `size` is zero.
    pub fn send(&mut self, now: u64, src: usize, dst: usize, size: u64, payload: P) {
        assert!(src < self.topo.num_nodes() && dst < self.topo.num_nodes());
        assert!(size > 0, "empty packet");
        let id = self.next_id;
        self.next_id += 1;
        let slot = self.insert(Flight {
            id,
            dst,
            size,
            sent_at: now,
            hops: 0,
            payload,
        });
        self.push_event(now, slot, src);
    }

    fn push_event(&mut self, time: u64, slot: usize, node: usize) {
        self.seq += 1;
        self.events.push(Event {
            time,
            seq: self.seq,
            slot,
            node,
        });
    }

    /// Puts `f` in a free slot, the last freed first.
    fn insert(&mut self, f: Flight<P>) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.flights[slot] = Some(f);
                slot
            }
            None => {
                self.flights.push(Some(f));
                self.flights.len() - 1
            }
        }
    }

    /// Takes the flight out of `slot` and frees the slot.
    fn remove(&mut self, slot: usize) -> Flight<P> {
        self.free.push(slot);
        self.flights[slot].take().expect("live flight slot")
    }

    /// The flight in `slot`, which an event or `ready` entry names.
    pub(crate) fn flight(&self, slot: usize) -> &Flight<P> {
        self.flights[slot].as_ref().expect("live flight slot")
    }

    /// `ch`'s slot in the dense channel table: `(node, dim, plus)`
    /// order, so the table's order is the snapshot's.
    pub(crate) fn channel_index(&self, ch: Channel) -> usize {
        (ch.node * self.topo.dim + ch.dim) * 2 + ch.plus as usize
    }

    /// Dimension-order routing, [`Topology::next_hop`]'s answer for
    /// every mesh size: the hop along the first dimension whose digits
    /// differ, toward `dst`'s digit, or `None` at `dst`.
    #[inline]
    fn route(&self, cur: usize, dst: usize) -> Option<(Channel, usize)> {
        let dim = self.topo.dim;
        let (c, d) = (
            &self.digits[cur * dim..][..dim],
            &self.digits[dst * dim..][..dim],
        );
        let k = (0..dim).find(|&k| c[k] != d[k])?;
        let (plus, stride) = (d[k] > c[k], self.strides[k]);
        let next = if plus { cur + stride } else { cur - stride };
        Some((
            Channel {
                node: cur,
                dim: k,
                plus,
            },
            next,
        ))
    }

    /// Advances the simulation to `now` and appends packets delivered
    /// by then onto a caller-supplied buffer, in deterministic order —
    /// the buffer is reused by machine cycle loops so the hot path
    /// never allocates.
    ///
    /// Requires `P: Clone` so a fault plan can fork duplicate packets;
    /// without a plan no clone ever happens.
    pub fn poll_into(&mut self, now: u64, out: &mut Vec<(usize, P)>)
    where
        P: Clone,
    {
        while let Some(ev) = self.events.pop_due(now) {
            self.advance(ev);
        }
        while let Some(&(t, slot)) = self.ready.front() {
            if t > now {
                break;
            }
            self.ready.pop_front();
            let flight = self.remove(slot);
            self.count_delivery(t, &flight);
            out.push((flight.dst, flight.payload));
        }
    }

    /// Delivery statistics are charged when a packet is handed over
    /// (popped), not when its header first reaches the destination:
    /// hand-over order is deterministic in machine time, while header
    /// routing may run early under [`Network::earliest_delivery`], and
    /// the machine's forward-progress signature reads these counters.
    fn count_delivery(&mut self, tail: u64, flight: &Flight<P>) {
        self.stats.delivered += 1;
        self.stats.total_latency += tail - flight.sent_at;
        self.stats.total_hops += flight.hops;
        self.latency_hist.record(tail - flight.sent_at);
        self.hops_hist.record(flight.hops);
    }

    /// Removes a packet that has no alive route and records it as a
    /// typed dead letter.
    fn dead_letter(&mut self, slot: usize, at: u64) {
        let Flight {
            id, dst, payload, ..
        } = self.remove(slot);
        self.fault_stats.dead_letters += 1;
        self.probe
            .emit(at, EventKind::NetDeadLetter, id, dst as u64);
        self.dead_letters.push(DeadLetter {
            id,
            dst,
            at,
            payload,
        });
    }

    /// Silently swallows a packet at a fail-stopped link or node.
    fn fail_stop(&mut self, slot: usize, at: u64, site: u64) {
        let id = self.remove(slot).id;
        self.fault_stats.failstop_drops += 1;
        self.probe.emit(at, EventKind::NetFailStop, id, site);
    }

    /// One header arrival: delivery at the destination, otherwise one
    /// channel crossing.
    fn advance(&mut self, ev: Event)
    where
        P: Clone,
    {
        let f = self.flight(ev.slot);
        let (id, dst, size, hops) = (f.id, f.dst, f.size, f.hops);
        if ev.node == dst {
            // Node-level faults apply to delivery (and loopback) too: a
            // quarantined destination is a typed dead letter, a
            // fail-stopped one swallows silently.
            if let Some(plan) = &self.fault {
                if plan.node_quarantined(dst) {
                    self.dead_letter(ev.slot, ev.time);
                    return;
                }
                if plan.node_killed(dst, ev.time) {
                    self.fail_stop(ev.slot, ev.time, dst as u64);
                    return;
                }
            }
            // Header arrived; the tail needs size-1 more cycles (or
            // loopback latency for self-sends that never hopped).
            let tail = if hops == 0 {
                ev.time + self.cfg.loopback_latency
            } else {
                ev.time + size.saturating_sub(1)
            };
            let pos = self.ready.partition_point(|&(t, _)| t <= tail);
            self.ready.insert(pos, (tail, ev.slot));
            return;
        }
        let (ch, next, extra) = if self.fault.is_none() {
            let (ch, next) = self.route(ev.node, dst).expect("not at the destination");
            (ch, next, 0)
        } else {
            match self.faulty_crossing(ev) {
                Some(hop) => hop,
                None => return,
            }
        };
        let c = self.channel_index(ch);
        let start = ev.time.max(self.channel_free[c]);
        self.channel_free[c] = start + size;
        self.stats.busy_flit_cycles += size;
        self.probe
            .emit(ev.time, EventKind::NetHop, id, ev.node as u64);
        if let Some(f) = &mut self.flights[ev.slot] {
            f.hops += 1;
        }
        self.push_event(start + self.cfg.hop_latency + extra, ev.slot, next);
    }

    /// The fault plan's say over one crossing, in order: routing
    /// (minimal-detour avoidance once a quarantine is in force, else a
    /// dead letter), the fail-stop kills — which the router does not
    /// know about, so does not avoid — and the verdict. Returns the
    /// hop and its extra delay, or `None` if the packet does not cross
    /// now.
    fn faulty_crossing(&mut self, ev: Event) -> Option<(Channel, usize, u64)>
    where
        P: Clone,
    {
        let f = self.flight(ev.slot);
        let (id, dst, size, hops) = (f.id, f.dst, f.size, f.hops);
        let plan = self.fault.as_ref().expect("a fault plan");
        let hop = if plan.has_quarantine() {
            let avoid = |ch: Channel, next: usize| {
                plan.channel_quarantined(ch) || plan.node_quarantined(next)
            };
            self.topo.next_hop_avoiding(ev.node, dst, &avoid)
        } else {
            self.route(ev.node, dst)
        };
        let Some((ch, next)) = hop else {
            self.dead_letter(ev.slot, ev.time);
            return None;
        };
        if plan.link_killed(ch, ev.time)
            || plan.node_killed(ev.node, ev.time)
            || plan.node_killed(next, ev.time)
        {
            self.fail_stop(ev.slot, ev.time, ch.node as u64);
            return None;
        }
        let mut extra = 0;
        match plan.decide(id, hops, ch, ev.time, id & DUP_BIT == 0) {
            Verdict::Pass => {}
            Verdict::Drop => {
                self.remove(ev.slot);
                self.fault_stats.dropped += 1;
                self.probe.emit(ev.time, EventKind::NetDrop, id, 0);
                return None;
            }
            Verdict::StallUntil(t) => {
                // The link is down; retry the crossing when the outage
                // window closes.
                self.fault_stats.outage_stalls += 1;
                self.probe.emit(ev.time, EventKind::NetOutage, id, t);
                self.push_event(t, ev.slot, ev.node);
                return None;
            }
            Verdict::Duplicate => {
                self.fault_stats.duplicated += 1;
                let dup_id = DUP_BIT | self.next_dup_id;
                self.next_dup_id += 1;
                self.probe.emit(ev.time, EventKind::NetDup, id, dup_id);
                let dup = Flight {
                    id: dup_id,
                    dst,
                    size,
                    sent_at: ev.time,
                    hops,
                    payload: self.flight(ev.slot).payload.clone(),
                };
                let slot = self.insert(dup);
                self.push_event(ev.time, slot, ev.node);
            }
            Verdict::Delay(d) => {
                self.fault_stats.delayed += 1;
                self.probe.emit(ev.time, EventKind::NetDelay, id, d);
                extra = d;
            }
        }
        Some((ch, next, extra))
    }

    /// True if no packets are in flight.
    pub fn is_idle(&self) -> bool {
        self.in_flight_count() == 0
    }

    /// The earliest cycle at which a packet will be handed to its
    /// destination, routing in-flight packets forward as far as needed
    /// to find out.
    ///
    /// Hop traversal is simulated with one internal event per channel
    /// crossing, so the next internal event is almost always the next
    /// hop — an event-driven machine stepping by it crawls through
    /// transit cycle by cycle. This accessor instead *processes* those
    /// internal events (in the same deterministic `(time, seq)` order
    /// `poll` would) until the earliest pending delivery time is known,
    /// and returns it without delivering anything.
    ///
    /// # Safety contract (logical, not memory)
    ///
    /// The caller must guarantee that no `send` will be issued before
    /// `min(bound, returned time)` — routing decisions (channel
    /// occupancy, fault verdicts) are made in event order, so traffic
    /// injected earlier than an already-routed hop would be reordered
    /// against it. The ALEWIFE machine guarantees this by passing the
    /// earliest cycle any non-network component can act as `bound`:
    /// while every processor is stalled and every retransmit deadline
    /// is in the future, only a delivery (which this accessor stops at)
    /// can trigger new traffic. Events beyond `bound` are left queued.
    pub fn earliest_delivery(&mut self, bound: u64) -> Option<u64>
    where
        P: Clone,
    {
        loop {
            // Tails are never earlier than the event that created them,
            // so once the front-of-queue delivery is at or before the
            // next unrouted event nothing can beat it: route only the
            // events strictly before it.
            let limit = match self.ready.front() {
                Some(&(t, _)) => match t.checked_sub(1) {
                    Some(before) => bound.min(before),
                    None => return Some(t),
                },
                None => bound,
            };
            match self.events.pop_due(limit) {
                Some(ev) => self.advance(ev),
                None => return self.ready.front().map(|&(t, _)| t),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<P: Copy>(net: &mut Network<P>, until: u64) -> Vec<(u64, usize, P)> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for t in 0..=until {
            net.poll_into(t, &mut scratch);
            for (dst, p) in scratch.drain(..) {
                out.push((t, dst, p));
            }
        }
        out
    }

    #[test]
    fn unloaded_latency_is_hops_plus_size() {
        let mut net: Network<u32> = Network::new(Topology::new(1, 8), NetConfig::default());
        // 0 -> 7: 7 hops, size 4: header 7 cycles, tail 3 more.
        net.send(0, 0, 7, 4, 42);
        let got = drain(&mut net, 100);
        assert_eq!(got, vec![(10, 7, 42)]);
        assert_eq!(net.stats.avg_hops(), 7.0);
        assert_eq!(net.stats.avg_latency(), 10.0);
    }

    #[test]
    fn loopback_delivery() {
        let mut net: Network<u32> = Network::new(Topology::new(2, 4), NetConfig::default());
        net.send(5, 3, 3, 4, 9);
        let got = drain(&mut net, 20);
        assert_eq!(got, vec![(6, 3, 9)]);
    }

    #[test]
    fn contention_serializes_on_shared_channel() {
        let mut net: Network<u32> = Network::new(Topology::new(1, 4), NetConfig::default());
        // Two packets from 0 to 1 at the same time share channel 0→1.
        net.send(0, 0, 1, 8, 1);
        net.send(0, 0, 1, 8, 2);
        let got = drain(&mut net, 100);
        assert_eq!(got.len(), 2);
        // First: start 0, arrive 1, tail at 8. Second: channel free at
        // 8, arrive 9, tail at 16.
        assert_eq!(got[0].0, 8);
        assert_eq!(got[1].0, 16);
        assert_eq!(got[0].2, 1, "FIFO order preserved");
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let mut net: Network<u32> = Network::new(Topology::new(2, 4), NetConfig::default());
        net.send(0, 0, 1, 4, 1); // x+ channel from 0
        net.send(0, 4, 5, 4, 2); // x+ channel from 4 (different row)
        let got = drain(&mut net, 50);
        assert_eq!(got[0].0, got[1].0, "equal latency on disjoint paths");
    }

    #[test]
    fn many_packets_all_delivered() {
        let mut net: Network<usize> = Network::new(Topology::new(2, 4), NetConfig::default());
        let n = net.topology().num_nodes();
        for i in 0..100 {
            net.send((i % 7) as u64, i % n, (i * 5 + 3) % n, 4, i);
        }
        let got = drain(&mut net, 10_000);
        assert_eq!(got.len(), 100);
        assert!(net.is_idle());
        assert_eq!(net.stats.delivered, 100);
    }

    #[test]
    fn utilization_accounting() {
        let mut net: Network<u32> = Network::new(Topology::new(1, 2), NetConfig::default());
        net.send(0, 0, 1, 10, 1);
        drain(&mut net, 100);
        // One channel of two carried 10 flit-cycles.
        let u = net
            .stats
            .channel_utilization(net.topology().num_channels(), 100);
        assert!((u - 10.0 / 200.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_order() {
        let run = || {
            let mut net: Network<usize> = Network::new(Topology::new(2, 3), NetConfig::default());
            for i in 0..20 {
                net.send(0, i % 9, (i * 2) % 9, 3, i);
            }
            drain(&mut net, 1000)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn earliest_delivery_sees_past_hop_events() {
        let mut net: Network<u32> = Network::new(Topology::new(1, 8), NetConfig::default());
        // 0 -> 7: 7 hops + 3 tail cycles = delivered at 10, but the
        // next *internal* event is the first hop at cycle 0, and routing
        // only that far finds no delivery.
        net.send(0, 0, 7, 4, 42);
        assert_eq!(net.earliest_delivery(0), None);
        assert_eq!(net.earliest_delivery(u64::MAX), Some(10));
        // Routing ahead must not change what poll delivers, or when.
        let mut got = Vec::new();
        net.poll_into(9, &mut got);
        assert!(got.is_empty());
        net.poll_into(10, &mut got);
        assert_eq!(got, vec![(7, 42)]);
        assert!(net.is_idle());
    }

    #[test]
    fn earliest_delivery_respects_bound() {
        let mut net: Network<u32> = Network::new(Topology::new(1, 8), NetConfig::default());
        net.send(0, 0, 7, 4, 42);
        // Nothing is deliverable by cycle 3; events past the bound must
        // stay queued so traffic injected at 4 still orders correctly:
        // a packet sent from node 5 at cycle 4 takes channel 5 -> 6
        // first, because 42's header reaches node 5 only at cycle 5.
        assert_eq!(net.earliest_delivery(3), None);
        net.send(4, 5, 7, 4, 43);
        let got = drain(&mut net, 100);
        assert_eq!(got, vec![(9, 7, 43), (13, 7, 42)]);
    }

    /// The network's router answers exactly as [`Topology::next_hop`]
    /// from every source to every destination in `dsts(src)`.
    fn assert_routes_match(topo: Topology, dsts: impl Fn(usize) -> Vec<usize>) {
        let net: Network<u32> = Network::new(topo, NetConfig::default());
        for src in 0..topo.num_nodes() {
            for dst in dsts(src) {
                assert_eq!(
                    net.route(src, dst),
                    topo.next_hop(src, dst),
                    "{topo}: {src}->{dst}"
                );
            }
        }
    }

    #[test]
    fn router_matches_next_hop_on_every_pair() {
        // (2, 33) is the 1089-node fan-in mesh.
        for (dim, radix) in [(1, 8), (2, 4), (3, 6), (2, 33)] {
            let topo = Topology::new(dim, radix);
            assert_routes_match(topo, |_| (0..topo.num_nodes()).collect());
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn router_matches_next_hop_on_the_paper_mesh() {
        // Section 8's 8000 processors, each against 128 seeded
        // destinations.
        let topo = Topology::new(3, 20);
        assert_routes_match(topo, |src| {
            let mut rng = april_util::Rng::seed_from(src as u64);
            (0..128).map(|_| rng.gen_index(topo.num_nodes())).collect()
        });
    }

    use crate::fault::{FaultPlan, FaultRule};

    fn faulty(plan: FaultPlan) -> Network<usize> {
        Network::with_faults(Topology::new(2, 4), NetConfig::default(), plan)
    }

    fn spray(net: &mut Network<usize>, n: usize) -> Vec<(u64, usize, usize)> {
        let nodes = net.topology().num_nodes();
        for i in 0..n {
            net.send((i % 11) as u64, i % nodes, (i * 7 + 3) % nodes, 4, i);
        }
        drain(net, 1_000_000)
    }

    #[test]
    fn drops_lose_packets_and_are_counted() {
        let mut net = faulty(FaultPlan::new(0xd0).with_default_rule(FaultRule::drop(0.2)));
        let got = spray(&mut net, 400);
        assert!(
            net.fault_stats.dropped > 0,
            "0.2 drop over 400 packets must drop some"
        );
        assert_eq!(got.len() as u64 + net.fault_stats.dropped, 400);
        assert!(net.is_idle(), "dropped packets must not linger in flight");
    }

    #[test]
    fn duplicates_arrive_twice_and_are_counted() {
        let mut net = faulty(FaultPlan::new(0xdb).with_default_rule(FaultRule::dup(0.2)));
        let got = spray(&mut net, 400);
        assert!(net.fault_stats.duplicated > 0);
        assert_eq!(got.len() as u64, 400 + net.fault_stats.duplicated);
        // Every duplicate is a bit-exact copy of some original.
        for &(_, dst, p) in &got {
            assert_eq!(dst, (p * 7 + 3) % net.topology().num_nodes());
        }
    }

    #[test]
    fn delays_slow_but_do_not_lose() {
        let mut clean = faulty(FaultPlan::new(1));
        let base = spray(&mut clean, 200);
        let mut net = faulty(FaultPlan::new(1).with_default_rule(FaultRule::delay(0.5, 32)));
        let got = spray(&mut net, 200);
        assert_eq!(got.len(), 200);
        assert!(net.fault_stats.delayed > 0);
        let sum = |v: &[(u64, usize, usize)]| v.iter().map(|&(t, ..)| t).sum::<u64>();
        assert!(sum(&got) > sum(&base), "jitter must increase total latency");
    }

    #[test]
    fn outage_stalls_crossing_until_window_ends() {
        let (ch, _) = Topology::new(1, 4).next_hop(0, 1).expect("hop exists");
        let mut net: Network<u32> = Network::with_faults(
            Topology::new(1, 4),
            NetConfig::default(),
            FaultPlan::new(7).with_outage(ch, 0, 50),
        );
        net.send(0, 0, 1, 4, 9);
        let got = drain(&mut net, 1000);
        assert_eq!(got.len(), 1);
        assert!(
            got[0].0 >= 50,
            "delivered at {} despite outage until 50",
            got[0].0
        );
        assert_eq!(net.fault_stats.outage_stalls, 1);
    }

    #[test]
    fn link_kill_swallows_silently_from_onset() {
        let topo = Topology::new(1, 4);
        let (ch, _) = topo.next_hop(0, 1).expect("hop exists");
        let mut net: Network<u32> = Network::with_faults(
            topo,
            NetConfig::default(),
            FaultPlan::new(7).with_link_kill(ch, 5),
        );
        net.send(0, 0, 1, 4, 1); // crosses at cycle 0: survives
        net.send(5, 0, 1, 4, 2); // crosses at cycle 5: swallowed
        let got = drain(&mut net, 1000);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].2, 1);
        assert_eq!(net.fault_stats.failstop_drops, 1);
        assert_eq!(net.fault_stats.dead_letters, 0, "silent, not typed");
        assert!(net.dead_letters().is_empty());
        assert!(net.is_idle(), "swallowed packets must not linger");
    }

    #[test]
    fn node_kill_swallows_traffic_at_through_and_to_the_node() {
        let mut net: Network<u32> = Network::with_faults(
            Topology::new(1, 4),
            NetConfig::default(),
            FaultPlan::new(7).with_node_kill(1, 0),
        );
        net.send(0, 0, 1, 4, 1); // to the dead node
        net.send(0, 0, 2, 4, 2); // through the dead node
        net.send(0, 1, 1, 4, 3); // loopback at the dead node
        net.send(0, 3, 2, 4, 4); // untouched
        let got = drain(&mut net, 1000);
        assert_eq!(got, vec![(4, 2, 4)]);
        assert_eq!(net.fault_stats.failstop_drops, 3);
        assert!(net.is_idle());
    }

    #[test]
    fn quarantine_reroutes_around_a_dead_link() {
        let topo = Topology::new(2, 2);
        let (dead, _) = topo.next_hop(0, 1).expect("hop exists");
        // The link is killed from cycle 0 AND quarantined: the router
        // detours 0 -> 2 -> 3 -> 1 and the packet survives.
        let plan = FaultPlan::new(7)
            .with_link_kill(dead, 0)
            .with_quarantined_channel(dead);
        let mut net: Network<u32> = Network::with_faults(topo, NetConfig::default(), plan);
        net.send(0, 0, 1, 4, 9);
        let got = drain(&mut net, 1000);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, 1);
        assert_eq!(net.fault_stats.failstop_drops, 0);
        assert_eq!(net.stats.total_hops, 3, "minimal detour is 3 hops");
    }

    #[test]
    fn unreachable_destination_is_a_typed_dead_letter() {
        let topo = Topology::new(1, 2);
        let (only, _) = topo.next_hop(0, 1).expect("hop exists");
        let plan = FaultPlan::new(7).with_quarantined_channel(only);
        let mut net: Network<u32> = Network::with_faults(topo, NetConfig::default(), plan);
        net.send(3, 0, 1, 4, 9);
        let got = drain(&mut net, 1000);
        assert!(got.is_empty());
        assert_eq!(net.fault_stats.dead_letters, 1);
        assert_eq!(
            net.dead_letters(),
            &[DeadLetter {
                id: 0,
                dst: 1,
                at: 3,
                payload: 9
            }]
        );
        assert!(net.is_idle(), "dead letters leave the flight table");
    }

    #[test]
    fn quarantined_destination_dead_letters_deliveries() {
        let plan = FaultPlan::new(7).with_quarantined_node(1);
        let mut net: Network<u32> =
            Network::with_faults(Topology::new(1, 4), NetConfig::default(), plan);
        net.send(0, 0, 1, 4, 9);
        net.send(0, 3, 2, 4, 8);
        let got = drain(&mut net, 1000);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].2, 8);
        assert_eq!(net.fault_stats.dead_letters, 1);
        assert_eq!(net.dead_letters().len(), 1);
    }

    #[test]
    fn fault_schedule_is_reproducible() {
        let run = || {
            let plan = FaultPlan::new(0x5eed).with_default_rule(FaultRule {
                drop: 0.1,
                dup: 0.1,
                delay: 0.2,
                max_delay: 16,
            });
            let mut net = faulty(plan);
            let got = spray(&mut net, 300);
            (got, net.fault_stats)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_guard_zero_denominators() {
        // An empty or zero-elapsed run must report 0.0, never NaN or a
        // division panic.
        let s = NetStats::default();
        assert_eq!(s.avg_latency(), 0.0);
        assert_eq!(s.avg_hops(), 0.0);
        assert_eq!(s.channel_utilization(0, 0), 0.0);
        assert_eq!(s.channel_utilization(16, 0), 0.0);
        assert_eq!(s.channel_utilization(0, 1_000), 0.0);
        let busy = NetStats {
            busy_flit_cycles: 40,
            ..NetStats::default()
        };
        assert_eq!(busy.avg_latency(), 0.0, "no deliveries yet");
        assert!(busy.channel_utilization(4, 10).is_finite());
    }

    #[test]
    fn stats_charged_at_handover_not_at_routing() {
        let mut net: Network<u32> = Network::new(Topology::new(1, 8), NetConfig::default());
        net.send(0, 0, 7, 4, 42);
        // Route the packet all the way forward: no delivery counted.
        assert_eq!(net.earliest_delivery(u64::MAX), Some(10));
        assert_eq!(net.stats.delivered, 0);
        assert_eq!(net.stats.total_latency, 0);
        assert_eq!(net.stats.total_hops, 0);
        // Popping it charges latency and hops exactly once.
        let mut got = Vec::new();
        net.poll_into(10, &mut got);
        assert_eq!(got, vec![(7, 42)]);
        assert_eq!(net.stats.delivered, 1);
        assert_eq!(net.stats.total_latency, 10);
        assert_eq!(net.stats.total_hops, 7);
    }

    #[test]
    fn inert_plan_is_bit_identical_to_no_plan() {
        let mut plain: Network<usize> = Network::new(Topology::new(2, 4), NetConfig::default());
        let a = spray(&mut plain, 200);
        let mut inert = faulty(FaultPlan::new(42));
        let b = spray(&mut inert, 200);
        assert_eq!(a, b);
        assert_eq!(inert.fault_stats.total(), 0);
    }
}

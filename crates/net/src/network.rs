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
use april_util::hash::DetState;
use std::collections::{HashMap, VecDeque};

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
    pub(crate) dst: usize,
    pub(crate) size: u64,
    pub(crate) sent_at: u64,
    pub(crate) hops: u64,
    pub(crate) payload: P,
}

/// One precomputed routing-table entry: the dimension-order next hop
/// from the row's source toward the column's destination. `next` is
/// `u32::MAX` on the (never consulted) diagonal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RouteHop {
    next: u32,
    dim: u8,
    plus: bool,
}

/// Largest `n * n` for which the routing table is materialized. Beyond
/// this (e.g. the paper's 8000-processor analysis configuration) the
/// router falls back to computing hops digit by digit.
const ROUTE_TABLE_MAX: usize = 1 << 20;

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
    pub(crate) events: Calendar,
    // The flight map uses the deterministic multiply-mix hasher: it is
    // probed several times per routed hop, keyed by sequential ids the
    // simulator generates itself, and every serialized view sorts keys
    // — SipHash bought nothing.
    pub(crate) flights: HashMap<u64, Flight<P>, DetState>,
    /// The cycle each channel is next free, indexed by
    /// [`Network::channel_index`]; 0 for a channel never used.
    pub(crate) channel_free: Vec<u64>,
    pub(crate) ready: VecDeque<(u64, usize, u64)>, // (deliver_time, dst, id)
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
    /// Dimension-order next hops, indexed `cur * route_stride + dst`:
    /// the per-channel-crossing routing decision becomes one table
    /// load instead of a mixed-radix digit peel (division chains on
    /// the hottest line in the simulator). A pure function of the
    /// immutable topology — derived state, never snapshotted — and
    /// empty for meshes too large to tabulate (the computed path is
    /// bit-identical, just slower).
    pub(crate) routes: Vec<RouteHop>,
    pub(crate) route_stride: usize,
}

impl<P> Network<P> {
    /// Creates an idle network.
    pub fn new(topo: Topology, cfg: NetConfig) -> Network<P> {
        let n = topo.num_nodes();
        let routes = if n * n <= ROUTE_TABLE_MAX {
            let mut t = Vec::with_capacity(n * n);
            for cur in 0..n {
                for dst in 0..n {
                    t.push(match topo.next_hop(cur, dst) {
                        Some((ch, next)) => RouteHop {
                            next: next as u32,
                            dim: ch.dim as u8,
                            plus: ch.plus,
                        },
                        None => RouteHop {
                            next: u32::MAX,
                            dim: 0,
                            plus: false,
                        },
                    });
                }
            }
            t
        } else {
            Vec::new()
        };
        Network {
            routes,
            route_stride: n,
            topo,
            cfg,
            events: Calendar::default(),
            flights: HashMap::default(),
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
        self.flights.len()
    }

    /// In-flight packets as `(id, dst, sent_at, hops, payload)`, in
    /// arbitrary order. Callers building a post-mortem sort the owned
    /// snapshot themselves; nothing is rebuilt or sorted here, so the
    /// accessor is safe to call on hot paths.
    pub fn in_flight_packets(&self) -> impl Iterator<Item = (u64, usize, u64, u64, &P)> + '_ {
        self.flights
            .iter()
            .map(|(&id, f)| (id, f.dst, f.sent_at, f.hops, &f.payload))
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
        self.flights.insert(
            id,
            Flight {
                dst,
                size,
                sent_at: now,
                hops: 0,
                payload,
            },
        );
        self.push_event(now, id, src);
    }

    fn push_event(&mut self, time: u64, id: u64, node: usize) {
        self.seq += 1;
        self.events.push(Event {
            time,
            seq: self.seq,
            id,
            node,
        });
    }

    /// `ch`'s slot in the dense channel table: `(node, dim, plus)`
    /// order, so the table's order is the snapshot's.
    pub(crate) fn channel_index(&self, ch: Channel) -> usize {
        (ch.node * self.topo.dim + ch.dim) * 2 + ch.plus as usize
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
        self.route_until(now);
        while let Some(&(t, _, _)) = self.ready.front() {
            if t > now {
                break;
            }
            let (t, dst, id) = self.ready.pop_front().expect("checked nonempty");
            let flight = self.flights.remove(&id).expect("flight exists");
            self.count_delivery(t, &flight);
            out.push((dst, flight.payload));
        }
    }

    /// Processes queued routing events up to and including `bound`.
    fn route_until(&mut self, bound: u64)
    where
        P: Clone,
    {
        while let Some(ev) = self.events.pop_due(bound) {
            self.advance(ev);
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
    fn dead_letter(&mut self, id: u64, dst: usize, at: u64) {
        let flight = self.flights.remove(&id).expect("flight exists");
        self.fault_stats.dead_letters += 1;
        self.probe
            .emit(at, EventKind::NetDeadLetter, id, dst as u64);
        self.dead_letters.push(DeadLetter {
            id,
            dst,
            at,
            payload: flight.payload,
        });
    }

    /// Silently swallows a packet at a fail-stopped link or node.
    fn fail_stop(&mut self, id: u64, at: u64, site: u64) {
        self.flights.remove(&id);
        self.fault_stats.failstop_drops += 1;
        self.probe.emit(at, EventKind::NetFailStop, id, site);
    }

    /// The fault-free dimension-order next hop, from the table when it
    /// was built, otherwise computed — identical results either way
    /// (the table is filled by [`Topology::next_hop`] itself).
    #[inline]
    fn route_hop(&self, cur: usize, dst: usize) -> Option<(Channel, usize)> {
        if self.routes.is_empty() {
            return self.topo.next_hop(cur, dst);
        }
        let h = self.routes[cur * self.route_stride + dst];
        if h.next == u32::MAX {
            return None;
        }
        Some((
            Channel {
                node: cur,
                dim: h.dim as usize,
                plus: h.plus,
            },
            h.next as usize,
        ))
    }

    fn advance(&mut self, ev: Event)
    where
        P: Clone,
    {
        let flight = self.flights.get(&ev.id).expect("flight exists");
        let (dst, size, hops) = (flight.dst, flight.size, flight.hops);
        if ev.node == dst {
            // Node-level faults apply to delivery (and loopback) too: a
            // quarantined destination is a typed dead letter, a
            // fail-stopped one swallows silently.
            if let Some(plan) = &self.fault {
                if plan.node_quarantined(dst) {
                    self.dead_letter(ev.id, dst, ev.time);
                    return;
                }
                if plan.node_killed(dst, ev.time) {
                    self.fail_stop(ev.id, ev.time, dst as u64);
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
            // Insert keeping deliver-time order (events are processed
            // in time order, so tails are nearly sorted; fix up local
            // inversions caused by differing sizes).
            let pos = self
                .ready
                .iter()
                .position(|&(t, _, _)| t > tail)
                .unwrap_or(self.ready.len());
            self.ready.insert(pos, (tail, dst, ev.id));
            return;
        }
        // Routing: dimension order normally; minimal-detour avoidance
        // once a quarantine is in force. Fail-stop kills are *not*
        // avoided — the router does not know about them.
        let hop = match &self.fault {
            Some(plan) if plan.has_quarantine() => {
                let avoid = |ch: Channel, next: usize| {
                    plan.channel_quarantined(ch) || plan.node_quarantined(next)
                };
                self.topo.next_hop_avoiding(ev.node, dst, &avoid)
            }
            _ => self.route_hop(ev.node, dst),
        };
        let Some((ch, next)) = hop else {
            self.dead_letter(ev.id, dst, ev.time);
            return;
        };
        if let Some(plan) = &self.fault {
            if plan.link_killed(ch, ev.time)
                || plan.node_killed(ev.node, ev.time)
                || plan.node_killed(next, ev.time)
            {
                self.fail_stop(ev.id, ev.time, ch.node as u64);
                return;
            }
        }
        let mut extra = 0;
        if let Some(plan) = &self.fault {
            match plan.decide(ev.id, hops, ch, ev.time, ev.id & DUP_BIT == 0) {
                Verdict::Pass => {}
                Verdict::Drop => {
                    self.flights.remove(&ev.id);
                    self.fault_stats.dropped += 1;
                    self.probe.emit(ev.time, EventKind::NetDrop, ev.id, 0);
                    return;
                }
                Verdict::StallUntil(t) => {
                    // The link is down; retry the crossing when the
                    // outage window closes.
                    self.fault_stats.outage_stalls += 1;
                    self.probe.emit(ev.time, EventKind::NetOutage, ev.id, t);
                    self.push_event(t, ev.id, ev.node);
                    return;
                }
                Verdict::Duplicate => {
                    self.fault_stats.duplicated += 1;
                    let dup_id = DUP_BIT | self.next_dup_id;
                    self.next_dup_id += 1;
                    self.probe.emit(ev.time, EventKind::NetDup, ev.id, dup_id);
                    let payload = self
                        .flights
                        .get(&ev.id)
                        .expect("flight exists")
                        .payload
                        .clone();
                    self.flights.insert(
                        dup_id,
                        Flight {
                            dst,
                            size,
                            sent_at: ev.time,
                            hops,
                            payload,
                        },
                    );
                    self.push_event(ev.time, dup_id, ev.node);
                }
                Verdict::Delay(d) => {
                    self.fault_stats.delayed += 1;
                    self.probe.emit(ev.time, EventKind::NetDelay, ev.id, d);
                    extra = d;
                }
            }
        }
        let slot = self.channel_index(ch);
        let start = ev.time.max(self.channel_free[slot]);
        self.channel_free[slot] = start + size;
        self.stats.busy_flit_cycles += size;
        self.probe
            .emit(ev.time, EventKind::NetHop, ev.id, ev.node as u64);
        self.flights.get_mut(&ev.id).expect("flight exists").hops += 1;
        let arrive = start + self.cfg.hop_latency + extra;
        self.push_event(arrive, ev.id, next);
    }

    /// True if no packets are in flight.
    pub fn is_idle(&self) -> bool {
        self.flights.is_empty()
    }

    /// Number of packets in flight.
    pub fn in_flight(&self) -> usize {
        self.flights.len()
    }

    /// The time of the next internal event, if any (lets a machine skip
    /// quiet cycles).
    pub fn next_event_time(&self) -> Option<u64> {
        let ev = self.events.peek().map(|e| e.time);
        let rd = self.ready.front().map(|&(t, _, _)| t);
        match (ev, rd) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The earliest cycle at which a packet will be handed to its
    /// destination, routing in-flight packets forward as far as needed
    /// to find out.
    ///
    /// Hop traversal is simulated with one internal event per channel
    /// crossing, so [`Network::next_event_time`] can never see past the
    /// next hop — an event-driven machine stepping by it crawls through
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
                Some(&(t, _, _)) => match t.checked_sub(1) {
                    Some(before) => bound.min(before),
                    None => return Some(t),
                },
                None => bound,
            };
            match self.events.pop_due(limit) {
                Some(ev) => self.advance(ev),
                None => return self.ready.front().map(|&(t, _, _)| t),
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
        // next *internal* event is the first hop at cycle 0.
        net.send(0, 0, 7, 4, 42);
        assert_eq!(net.next_event_time(), Some(0));
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
        // stay queued so traffic injected at 4 still orders correctly.
        assert_eq!(net.earliest_delivery(3), None);
        assert!(net.next_event_time().expect("hops remain") >= 3);
        let got = drain(&mut net, 100);
        assert_eq!(got, vec![(10, 7, 42)]);
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

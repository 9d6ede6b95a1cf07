//! Wire layout of the network simulator's full state.
//!
//! The network is generic over its payload type `P`, which brings its
//! own [`Wire`] layout (the machine layer's protocol envelope).
//! Everything else — the event queue, in-flight packets, channel
//! reservations, the fault plan and its statistics — is written in a
//! canonical order (queues drained to sorted vectors, maps sorted by
//! key, channels in `(node, dim, plus)` order) so that two networks in
//! the same logical state always produce identical bytes. See
//! DESIGN.md §11 for the format rules.

use crate::calendar::{Calendar, Event};
use crate::fault::{FaultPlan, FaultRule, FaultStats, Outage};
use crate::network::{DeadLetter, Flight, NetStats, Network};
use crate::topology::Channel;
use april_util::wire::{Codec, Wire, WireError};
use april_util::wire_fields;

wire_fields!(Channel { node, dim, plus });
wire_fields!(FaultRule {
    drop,
    dup,
    delay,
    max_delay,
});
wire_fields!(FaultPlan {
    seed,
    default_rule,
    per_channel,
    outages,
    link_kills,
    node_kills,
    quarantined_channels,
    quarantined_nodes,
});
wire_fields!(NetStats {
    delivered,
    total_latency,
    total_hops,
    busy_flit_cycles,
});
wire_fields!(FaultStats {
    dropped,
    duplicated,
    delayed,
    outage_stalls,
    failstop_drops,
    dead_letters,
});
wire_fields!([P] Flight<P> {
    id,
    dst,
    size,
    sent_at,
    hops,
    payload,
});
wire_fields!([P] DeadLetter<P> {
    id,
    dst,
    at,
    payload,
});

/// An outage window; a restored window must be non-empty.
impl Wire for Outage {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        c.u64(&mut self.start)?;
        c.u64(&mut self.end)?;
        if self.start >= self.end {
            return Err(WireError::Corrupt("outage window start >= end"));
        }
        Ok(())
    }
}

/// The network's complete state.
///
/// The topology and timing configuration lead, so a restore into a
/// differently shaped network is rejected rather than silently
/// corrupting routing state: `self` must have been constructed with the
/// same topology and timing as the encoded network, and a mismatch is
/// reported as [`WireError::Corrupt`] and leaves `self` unchanged.
impl<P: Wire + Default> Wire for Network<P> {
    fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
        let (dim, nodes) = (self.topo.dim, self.topo.num_nodes());
        c.same(dim, "network topology mismatch")?;
        c.same(self.topo.radix, "network topology mismatch")?;
        c.same(self.cfg.hop_latency, "network timing config mismatch")?;
        c.same(self.cfg.loopback_latency, "network timing config mismatch")?;

        // Events and `ready` name flights by slab slot in memory and by
        // packet id on the wire, where events are sorted (the order the
        // calendar requires of pushes on restore) and flights are sorted
        // by id, so a restore puts flight `i` in slot `i`.
        let mut events: Vec<(u64, u64, u64, usize)> = Vec::new(); // (time, seq, id, node)
        if !C::READS {
            let mut queued: Vec<Event> = self.events.iter().copied().collect();
            queued.sort();
            let id = |e: &Event| self.flight(e.slot).id;
            events.extend(queued.iter().map(|e| (e.time, e.seq, id(e), e.node)));
        }
        events.wire(c)?;

        let n = c.count(self.in_flight_count())?;
        let mut ids = Vec::with_capacity(n);
        if C::READS {
            self.flights.clear();
            self.free.clear();
            for _ in 0..n {
                let mut f = Flight::default();
                f.wire(c)?;
                if f.dst >= nodes || ids.last().is_some_and(|&last| last >= f.id) {
                    return Err(WireError::Corrupt("flight out of range or order"));
                }
                ids.push(f.id);
                self.flights.push(Some(f));
            }
        } else {
            let mut live: Vec<&mut Flight<P>> = self.flights.iter_mut().flatten().collect();
            live.sort_unstable_by_key(|f| f.id);
            live.into_iter().try_for_each(|f| f.wire(c))?;
        }
        // How many events and `ready` entries name each restored flight:
        // exactly one must, or a packet would advance twice or never.
        let mut named = vec![0u32; ids.len()];
        let mut slot_of = |id: u64| match ids.binary_search(&id) {
            Ok(slot) => {
                named[slot] += 1;
                Ok(slot)
            }
            Err(_) => Err(WireError::Corrupt("unknown packet id in network queue")),
        };
        if C::READS {
            let order = |w: &[(u64, u64, u64, usize)]| (w[0].0, w[0].1) >= (w[1].0, w[1].1);
            if events.iter().any(|e| e.3 >= nodes) || events.windows(2).any(order) {
                return Err(WireError::Corrupt("network event out of range or order"));
            }
            self.events = Calendar::default();
            for (time, seq, id, node) in events {
                let slot = slot_of(id)?;
                self.events.push(Event {
                    time,
                    seq,
                    slot,
                    node,
                });
            }
        }

        // Every channel ever crossed (its free time is nonzero), at its
        // [`Network::channel_index`] slot.
        let in_use = |&t: &u64| t != 0;
        c.sparse(
            &mut self.channel_free,
            in_use,
            |c, i| {
                let mut ch = Channel {
                    node: *i / (2 * dim),
                    dim: *i / 2 % dim,
                    plus: *i % 2 == 1,
                };
                ch.wire(c)?;
                if ch.node >= nodes || ch.dim >= dim {
                    return Err(WireError::Corrupt("channel out of range"));
                }
                *i = (ch.node * dim + ch.dim) * 2 + ch.plus as usize;
                Ok(())
            },
            |c, t| c.u64(t),
        )?;

        let mut ready: Vec<(u64, usize, u64)> = Vec::new(); // (tail, dst, id)
        if !C::READS {
            let entry = |&(t, s): &(u64, usize)| (t, self.flight(s).dst, self.flight(s).id);
            ready.extend(self.ready.iter().map(entry));
        }
        ready.wire(c)?;
        if C::READS {
            if ready.windows(2).any(|w| w[0].0 > w[1].0) {
                return Err(WireError::Corrupt("ready tails out of order"));
            }
            self.ready.clear();
            for (tail, dst, id) in ready {
                let slot = slot_of(id)?;
                if self.flight(slot).dst != dst {
                    return Err(WireError::Corrupt("ready destination is not its flight's"));
                }
                self.ready.push_back((tail, slot));
            }
            if named.iter().any(|&k| k != 1) {
                return Err(WireError::Corrupt("flight not queued exactly once"));
            }
        }
        c.u64(&mut self.next_id)?;
        c.u64(&mut self.next_dup_id)?;
        c.u64(&mut self.seq)?;
        self.fault.wire(c)?;
        self.stats.wire(c)?;
        self.fault_stats.wire(c)?;
        self.dead_letters.wire(c)?;
        if C::READS && self.dead_letters.iter().any(|d| d.dst >= nodes) {
            return Err(WireError::Corrupt("dead letter destination out of range"));
        }
        self.latency_hist.wire(c)?;
        self.hops_hist.wire(c)?;
        self.probe.wire(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetConfig;
    use crate::topology::Topology;
    use april_util::wire::{ByteReader, ByteWriter};

    fn loaded_net(seed: u64) -> Network<u64> {
        let plan = FaultPlan::new(seed)
            .with_default_rule(FaultRule {
                drop: 0.05,
                dup: 0.05,
                delay: 0.1,
                max_delay: 7,
            })
            .with_outage(
                Channel {
                    node: 1,
                    dim: 0,
                    plus: true,
                },
                40,
                60,
            );
        let mut net = Network::with_faults(Topology::new(2, 4), NetConfig::default(), plan);
        let mut out = Vec::new();
        let mut payload = 0u64;
        for t in 0..50u64 {
            if t % 3 == 0 {
                let src = (t as usize) % 16;
                let dst = (t as usize * 7 + 3) % 16;
                net.send(t, src, dst, 4, payload);
                payload += 1;
            }
            net.poll_into(t, &mut out);
        }
        net
    }

    fn snapshot(net: &mut Network<u64>) -> Vec<u8> {
        let mut w = ByteWriter::new();
        net.wire(&mut w).unwrap();
        w.finish()
    }

    #[test]
    fn fault_plan_roundtrips() {
        let mut plan = FaultPlan::new(99)
            .with_default_rule(FaultRule {
                drop: 0.25,
                dup: 0.0,
                delay: 0.5,
                max_delay: 12,
            })
            .with_channel_rule(
                Channel {
                    node: 3,
                    dim: 1,
                    plus: false,
                },
                FaultRule {
                    drop: 1.0,
                    dup: 0.0,
                    delay: 0.0,
                    max_delay: 0,
                },
            )
            .with_outage(
                Channel {
                    node: 0,
                    dim: 0,
                    plus: true,
                },
                10,
                20,
            )
            .with_link_kill(
                Channel {
                    node: 2,
                    dim: 0,
                    plus: false,
                },
                5_000,
            )
            .with_node_kill(7, 12_000)
            .with_quarantined_channel(Channel {
                node: 1,
                dim: 1,
                plus: true,
            })
            .with_quarantined_node(4);
        let mut w = ByteWriter::new();
        plan.wire(&mut w).unwrap();
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        let mut back = FaultPlan::default();
        back.wire(&mut r).unwrap();
        assert!(r.is_empty());
        let mut w2 = ByteWriter::new();
        back.wire(&mut w2).unwrap();
        assert_eq!(bytes, w2.finish());
    }

    #[test]
    fn restored_network_continues_identically() {
        // Run two networks in lockstep to cycle 50, snapshot one,
        // restore into a fresh network, then drive both (original and
        // restored) identically: deliveries, ids, and stats must match
        // cycle for cycle.
        let mut original = loaded_net(0xA11CE);
        let bytes = snapshot(&mut original);

        let plan = original.fault_plan().cloned().unwrap();
        let mut restored = Network::with_faults(Topology::new(2, 4), NetConfig::default(), plan);
        let mut r = ByteReader::new(&bytes);
        restored.wire(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(bytes, snapshot(&mut restored), "re-encoding is byte-stable");

        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for t in 50..200u64 {
            if t % 5 == 0 {
                let src = (t as usize) % 16;
                let dst = (t as usize * 11 + 1) % 16;
                original.send(t, src, dst, 6, t);
                restored.send(t, src, dst, 6, t);
            }
            original.poll_into(t, &mut out_a);
            restored.poll_into(t, &mut out_b);
            assert_eq!(out_a, out_b, "divergence at cycle {t}");
        }
        assert_eq!(original.stats, restored.stats);
        assert_eq!(original.fault_stats, restored.fault_stats);
        assert_eq!(snapshot(&mut original), snapshot(&mut restored));
    }

    #[test]
    fn dead_letters_roundtrip_with_payloads() {
        let topo = Topology::new(1, 2);
        let (only, _) = topo.next_hop(0, 1).expect("hop exists");
        let plan = FaultPlan::new(9).with_quarantined_channel(only);
        let mut net: Network<u64> = Network::with_faults(topo, NetConfig::default(), plan);
        let mut out = Vec::new();
        net.send(0, 0, 1, 4, 0xdead);
        net.poll_into(10, &mut out);
        assert_eq!(net.dead_letters().len(), 1);

        let bytes = snapshot(&mut net);
        let mut restored: Network<u64> = Network::with_faults(
            topo,
            NetConfig::default(),
            net.fault_plan().cloned().unwrap(),
        );
        let mut r = ByteReader::new(&bytes);
        restored.wire(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(restored.dead_letters(), net.dead_letters());
        assert_eq!(restored.fault_stats, net.fault_stats);
        assert_eq!(bytes, snapshot(&mut restored));
    }

    #[test]
    fn topology_mismatch_is_rejected() {
        let mut net = loaded_net(7);
        let bytes = snapshot(&mut net);
        let mut other: Network<u64> = Network::new(Topology::new(2, 8), NetConfig::default());
        let mut r = ByteReader::new(&bytes);
        assert!(other.wire(&mut r).is_err());
    }

    #[test]
    fn queues_naming_no_flight_are_corrupt() {
        // 0 -> 1 (8 flits) and 2 -> 1 (2 flits) have arrived by cycle 1,
        // their tails due at 8 and 2; 3 -> 2 is just sent.
        let mut net: Network<u64> = Network::new(Topology::new(1, 4), NetConfig::default());
        let mut out = Vec::new();
        net.send(0, 0, 1, 8, 10);
        net.send(0, 2, 1, 2, 11);
        net.poll_into(1, &mut out);
        net.send(1, 3, 2, 4, 12);
        let bytes = snapshot(&mut net);
        // Layout offsets: 4 config words; one event (time, seq, id,
        // node); three flights of 6 words; two channels of 25 bytes;
        // then the ready count and (tail, dst, id) entries.
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let (event_id, flight0_id) = (56, 80);
        let ready = 72 + 8 + 3 * 48 + 8 + 2 * 25 + 8;
        let (tail0, dst0, id0) = (ready, ready + 8, ready + 16);
        assert_eq!([word(32), word(event_id)], [1, 2], "one event, packet 2");
        assert_eq!([word(72), word(flight0_id)], [3, 0], "flights 0, 1, 2");
        assert_eq!(
            [word(ready - 8), word(tail0), word(dst0), word(id0)],
            [2, 2, 1, 1]
        );
        assert_eq!(word(ready + 40), 0, "second ready entry: packet 0");

        let restore = |at: usize, value: u64| {
            let mut hostile = bytes.clone();
            hostile[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let mut fresh: Network<u64> = Network::new(Topology::new(1, 4), NetConfig::default());
            fresh.wire(&mut ByteReader::new(&hostile))
        };
        assert!(restore(event_id, 2).is_ok(), "the genuine bytes restore");
        for (at, value, what) in [
            (event_id, 9, "event names an unknown packet"),
            (event_id, 0, "event names a packet already ready"),
            (id0, 9, "ready entry names an unknown packet"),
            (id0, 2, "ready entry names a packet still routing"),
            (dst0, 3, "ready destination is not the flight's"),
            (dst0, 99, "ready destination out of range"),
            (tail0, 9, "ready tails out of order"),
            (flight0_id, 5, "flight ids out of order"),
        ] {
            assert!(
                matches!(restore(at, value), Err(WireError::Corrupt(_))),
                "{what}"
            );
        }
    }

    #[test]
    fn truncated_bytes_are_rejected() {
        let mut net = loaded_net(7);
        let bytes = snapshot(&mut net);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            let mut victim: Network<u64> =
                Network::with_faults(Topology::new(2, 4), NetConfig::default(), FaultPlan::new(7));
            assert!(victim.wire(&mut r).is_err());
        }
    }
}

//! Wire encoding of the network simulator's full state.
//!
//! The network is the one component whose state is generic over the
//! payload type, so the entry points here take payload encode/decode
//! closures: the machine layer passes closures that encode its own
//! envelope type. Everything else — the event queue, in-flight packets,
//! channel reservations, the fault plan and its statistics — is encoded
//! in a canonical order (queues drained to sorted vectors, maps sorted
//! by key, channels in `(node, dim, plus)` order) so that two networks
//! in the same logical state always produce identical bytes. See
//! DESIGN.md §11 for the format rules.

use crate::calendar::{Calendar, Event};
use crate::fault::{FaultPlan, FaultRule, FaultStats, Outage};
use crate::network::{DeadLetter, Flight, NetStats, Network};
use crate::topology::Channel;
use april_obs::{Hist, Probe};
use april_util::hash::DetState;
use april_util::wire::{ByteReader, ByteWriter, WireError};
use std::collections::{HashMap, HashSet, VecDeque};

fn encode_channel(ch: &Channel, w: &mut ByteWriter) {
    w.usize(ch.node);
    w.usize(ch.dim);
    w.bool(ch.plus);
}

fn decode_channel(r: &mut ByteReader) -> Result<Channel, WireError> {
    Ok(Channel {
        node: r.usize()?,
        dim: r.usize()?,
        plus: r.bool()?,
    })
}

fn encode_rule(rule: &FaultRule, w: &mut ByteWriter) {
    w.f64(rule.drop);
    w.f64(rule.dup);
    w.f64(rule.delay);
    w.u64(rule.max_delay);
}

fn decode_rule(r: &mut ByteReader) -> Result<FaultRule, WireError> {
    Ok(FaultRule {
        drop: r.f64()?,
        dup: r.f64()?,
        delay: r.f64()?,
        max_delay: r.u64()?,
    })
}

/// Encode a fault plan (seed, default rule, per-channel rules, outage
/// windows) in canonical key order.
pub fn encode_fault_plan(plan: &FaultPlan, w: &mut ByteWriter) {
    w.u64(plan.seed);
    encode_rule(&plan.default_rule, w);
    let mut chans: Vec<&Channel> = plan.per_channel.keys().collect();
    chans.sort_by_key(|c| (c.node, c.dim, c.plus));
    w.usize(chans.len());
    for ch in chans {
        encode_channel(ch, w);
        encode_rule(&plan.per_channel[ch], w);
    }
    let mut outs: Vec<&Channel> = plan.outages.keys().collect();
    outs.sort_by_key(|c| (c.node, c.dim, c.plus));
    w.usize(outs.len());
    for ch in outs {
        encode_channel(ch, w);
        let windows = &plan.outages[ch];
        w.usize(windows.len());
        for o in windows {
            w.u64(o.start);
            w.u64(o.end);
        }
    }
    let mut kills: Vec<&Channel> = plan.link_kills.keys().collect();
    kills.sort_by_key(|c| (c.node, c.dim, c.plus));
    w.usize(kills.len());
    for ch in kills {
        encode_channel(ch, w);
        w.u64(plan.link_kills[ch]);
    }
    let mut nodes: Vec<&usize> = plan.node_kills.keys().collect();
    nodes.sort();
    w.usize(nodes.len());
    for n in nodes {
        w.usize(*n);
        w.u64(plan.node_kills[n]);
    }
    let mut qc: Vec<&Channel> = plan.quarantined_channels.iter().collect();
    qc.sort_by_key(|c| (c.node, c.dim, c.plus));
    w.usize(qc.len());
    for ch in qc {
        encode_channel(ch, w);
    }
    let mut qn: Vec<&usize> = plan.quarantined_nodes.iter().collect();
    qn.sort();
    w.usize(qn.len());
    for n in qn {
        w.usize(*n);
    }
}

/// Decode a fault plan encoded by [`encode_fault_plan`].
pub fn decode_fault_plan(r: &mut ByteReader) -> Result<FaultPlan, WireError> {
    let seed = r.u64()?;
    let default_rule = decode_rule(r)?;
    let nchan = r.usize()?;
    let mut per_channel = HashMap::new();
    for _ in 0..nchan {
        let ch = decode_channel(r)?;
        per_channel.insert(ch, decode_rule(r)?);
    }
    let nout = r.usize()?;
    let mut outages: HashMap<Channel, Vec<Outage>> = HashMap::new();
    for _ in 0..nout {
        let ch = decode_channel(r)?;
        let nwin = r.usize()?;
        let mut windows = Vec::with_capacity(nwin);
        for _ in 0..nwin {
            let start = r.u64()?;
            let end = r.u64()?;
            if start >= end {
                return Err(WireError::Corrupt("outage window start >= end"));
            }
            windows.push(Outage { start, end });
        }
        outages.insert(ch, windows);
    }
    let nkill = r.usize()?;
    let mut link_kills = HashMap::new();
    for _ in 0..nkill {
        let ch = decode_channel(r)?;
        link_kills.insert(ch, r.u64()?);
    }
    let nnode = r.usize()?;
    let mut node_kills = HashMap::new();
    for _ in 0..nnode {
        let n = r.usize()?;
        node_kills.insert(n, r.u64()?);
    }
    let nqc = r.usize()?;
    let mut quarantined_channels = HashSet::new();
    for _ in 0..nqc {
        quarantined_channels.insert(decode_channel(r)?);
    }
    let nqn = r.usize()?;
    let mut quarantined_nodes = HashSet::new();
    for _ in 0..nqn {
        quarantined_nodes.insert(r.usize()?);
    }
    Ok(FaultPlan {
        seed,
        default_rule,
        per_channel,
        outages,
        link_kills,
        node_kills,
        quarantined_channels,
        quarantined_nodes,
    })
}

fn encode_net_stats(s: &NetStats, w: &mut ByteWriter) {
    w.u64(s.delivered);
    w.u64(s.total_latency);
    w.u64(s.total_hops);
    w.u64(s.busy_flit_cycles);
}

fn decode_net_stats(r: &mut ByteReader) -> Result<NetStats, WireError> {
    Ok(NetStats {
        delivered: r.u64()?,
        total_latency: r.u64()?,
        total_hops: r.u64()?,
        busy_flit_cycles: r.u64()?,
    })
}

fn encode_fault_stats(s: &FaultStats, w: &mut ByteWriter) {
    w.u64(s.dropped);
    w.u64(s.duplicated);
    w.u64(s.delayed);
    w.u64(s.outage_stalls);
    w.u64(s.failstop_drops);
    w.u64(s.dead_letters);
}

fn decode_fault_stats(r: &mut ByteReader) -> Result<FaultStats, WireError> {
    Ok(FaultStats {
        dropped: r.u64()?,
        duplicated: r.u64()?,
        delayed: r.u64()?,
        outage_stalls: r.u64()?,
        failstop_drops: r.u64()?,
        dead_letters: r.u64()?,
    })
}

impl<P> Network<P> {
    /// Encode the network's complete state, using `enc` to encode each
    /// in-flight payload.
    ///
    /// The topology and timing configuration are included so a restore
    /// into a differently-shaped network is rejected rather than
    /// silently corrupting routing state.
    pub fn encode_with(&self, w: &mut ByteWriter, mut enc: impl FnMut(&P, &mut ByteWriter)) {
        w.usize(self.topo.dim);
        w.usize(self.topo.radix);
        w.u64(self.cfg.hop_latency);
        w.u64(self.cfg.loopback_latency);

        let mut events: Vec<Event> = self.events.iter().copied().collect();
        events.sort();
        w.usize(events.len());
        for e in &events {
            w.u64(e.time);
            w.u64(e.seq);
            w.u64(e.id);
            w.usize(e.node);
        }

        let mut ids: Vec<&u64> = self.flights.keys().collect();
        ids.sort();
        w.usize(ids.len());
        for id in ids {
            let f = &self.flights[id];
            w.u64(*id);
            w.usize(f.dst);
            w.u64(f.size);
            w.u64(f.sent_at);
            w.u64(f.hops);
            enc(&f.payload, w);
        }

        // Every channel ever crossed (its free time is nonzero), in
        // table — `(node, dim, plus)` — order.
        let dim = self.topo.dim;
        w.usize(self.channel_free.iter().filter(|&&t| t != 0).count());
        for (i, &t) in self.channel_free.iter().enumerate() {
            if t != 0 {
                let ch = Channel {
                    node: i / (2 * dim),
                    dim: i / 2 % dim,
                    plus: i % 2 == 1,
                };
                encode_channel(&ch, w);
                w.u64(t);
            }
        }

        w.usize(self.ready.len());
        for &(time, dst, id) in &self.ready {
            w.u64(time);
            w.usize(dst);
            w.u64(id);
        }

        w.u64(self.next_id);
        w.u64(self.next_dup_id);
        w.u64(self.seq);

        w.bool(self.fault.is_some());
        if let Some(plan) = &self.fault {
            encode_fault_plan(plan, w);
        }

        encode_net_stats(&self.stats, w);
        encode_fault_stats(&self.fault_stats, w);

        w.usize(self.dead_letters.len());
        for dl in &self.dead_letters {
            w.u64(dl.id);
            w.usize(dl.dst);
            w.u64(dl.at);
            enc(&dl.payload, w);
        }

        self.latency_hist.encode(w);
        self.hops_hist.encode(w);
        self.probe.encode(w);
    }

    /// Restore state encoded by [`Network::encode_with`] into `self`,
    /// using `dec` to decode each in-flight payload.
    ///
    /// `self` must have been constructed with the same topology and
    /// timing configuration as the encoded network; a mismatch is
    /// reported as [`WireError::Corrupt`] and leaves `self` unchanged.
    pub fn restore_with(
        &mut self,
        r: &mut ByteReader,
        mut dec: impl FnMut(&mut ByteReader) -> Result<P, WireError>,
    ) -> Result<(), WireError> {
        let dim = r.usize()?;
        let radix = r.usize()?;
        if dim != self.topo.dim || radix != self.topo.radix {
            return Err(WireError::Corrupt("network topology mismatch"));
        }
        let hop = r.u64()?;
        let loopback = r.u64()?;
        if hop != self.cfg.hop_latency || loopback != self.cfg.loopback_latency {
            return Err(WireError::Corrupt("network timing config mismatch"));
        }

        // Sorted, as encoded: the order the calendar requires of pushes.
        let nevents = r.usize()?;
        let mut events = Calendar::default();
        let mut last = None;
        for _ in 0..nevents {
            let ev = Event {
                time: r.u64()?,
                seq: r.u64()?,
                id: r.u64()?,
                node: r.usize()?,
            };
            if ev.node >= self.topo.num_nodes() || last.is_some_and(|l| l >= ev) {
                return Err(WireError::Corrupt("network event out of range or order"));
            }
            last = Some(ev);
            events.push(ev);
        }

        let nflights = r.usize()?;
        let mut flights = HashMap::with_capacity_and_hasher(nflights, DetState);
        for _ in 0..nflights {
            let id = r.u64()?;
            let dst = r.usize()?;
            let size = r.u64()?;
            let sent_at = r.u64()?;
            let hops = r.u64()?;
            let payload = dec(r)?;
            if dst >= self.topo.num_nodes() {
                return Err(WireError::Corrupt("flight destination out of range"));
            }
            flights.insert(
                id,
                Flight {
                    dst,
                    size,
                    sent_at,
                    hops,
                    payload,
                },
            );
        }

        let nchan = r.usize()?;
        let mut channel_free = vec![0; self.channel_free.len()];
        for _ in 0..nchan {
            let ch = decode_channel(r)?;
            if ch.node >= self.topo.num_nodes() || ch.dim >= self.topo.dim {
                return Err(WireError::Corrupt("channel out of range"));
            }
            channel_free[self.channel_index(ch)] = r.u64()?;
        }

        let nready = r.usize()?;
        let mut ready = VecDeque::with_capacity(nready);
        for _ in 0..nready {
            ready.push_back((r.u64()?, r.usize()?, r.u64()?));
        }

        let next_id = r.u64()?;
        let next_dup_id = r.u64()?;
        let seq = r.u64()?;

        let fault = if r.bool()? {
            Some(decode_fault_plan(r)?)
        } else {
            None
        };

        let stats = decode_net_stats(r)?;
        let fault_stats = decode_fault_stats(r)?;

        let ndead = r.usize()?;
        let mut dead_letters = Vec::with_capacity(ndead);
        for _ in 0..ndead {
            let id = r.u64()?;
            let dst = r.usize()?;
            let at = r.u64()?;
            let payload = dec(r)?;
            if dst >= self.topo.num_nodes() {
                return Err(WireError::Corrupt("dead letter destination out of range"));
            }
            dead_letters.push(DeadLetter {
                id,
                dst,
                at,
                payload,
            });
        }

        let latency_hist = Hist::decode(r)?;
        let hops_hist = Hist::decode(r)?;
        let probe = Probe::decode(r)?;

        self.events = events;
        self.flights = flights;
        self.channel_free = channel_free;
        self.ready = ready;
        self.next_id = next_id;
        self.next_dup_id = next_dup_id;
        self.seq = seq;
        self.fault = fault;
        self.stats = stats;
        self.fault_stats = fault_stats;
        self.dead_letters = dead_letters;
        self.latency_hist = latency_hist;
        self.hops_hist = hops_hist;
        self.probe = probe;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetConfig;
    use crate::topology::Topology;

    fn enc_u64(p: &u64, w: &mut ByteWriter) {
        w.u64(*p);
    }

    fn dec_u64(r: &mut ByteReader) -> Result<u64, WireError> {
        r.u64()
    }

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

    fn snapshot(net: &Network<u64>) -> Vec<u8> {
        let mut w = ByteWriter::new();
        net.encode_with(&mut w, enc_u64);
        w.finish()
    }

    #[test]
    fn fault_plan_roundtrips() {
        let plan = FaultPlan::new(99)
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
        encode_fault_plan(&plan, &mut w);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        let back = decode_fault_plan(&mut r).unwrap();
        assert!(r.is_empty());
        let mut w2 = ByteWriter::new();
        encode_fault_plan(&back, &mut w2);
        assert_eq!(bytes, w2.finish());
    }

    #[test]
    fn restored_network_continues_identically() {
        // Run two networks in lockstep to cycle 50, snapshot one,
        // restore into a fresh network, then drive both (original and
        // restored) identically: deliveries, ids, and stats must match
        // cycle for cycle.
        let mut original = loaded_net(0xA11CE);
        let bytes = snapshot(&original);

        let plan = original.fault_plan().cloned().unwrap();
        let mut restored = Network::with_faults(Topology::new(2, 4), NetConfig::default(), plan);
        let mut r = ByteReader::new(&bytes);
        restored.restore_with(&mut r, dec_u64).unwrap();
        assert!(r.is_empty());
        assert_eq!(bytes, snapshot(&restored), "re-encoding is byte-stable");

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
        assert_eq!(snapshot(&original), snapshot(&restored));
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

        let bytes = snapshot(&net);
        let mut restored: Network<u64> = Network::with_faults(
            topo,
            NetConfig::default(),
            net.fault_plan().cloned().unwrap(),
        );
        let mut r = ByteReader::new(&bytes);
        restored.restore_with(&mut r, dec_u64).unwrap();
        assert!(r.is_empty());
        assert_eq!(restored.dead_letters(), net.dead_letters());
        assert_eq!(restored.fault_stats, net.fault_stats);
        assert_eq!(bytes, snapshot(&restored));
    }

    #[test]
    fn topology_mismatch_is_rejected() {
        let net = loaded_net(7);
        let bytes = snapshot(&net);
        let mut other: Network<u64> = Network::new(Topology::new(2, 8), NetConfig::default());
        let mut r = ByteReader::new(&bytes);
        assert!(other.restore_with(&mut r, dec_u64).is_err());
    }

    #[test]
    fn truncated_bytes_are_rejected() {
        let net = loaded_net(7);
        let bytes = snapshot(&net);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            let mut victim: Network<u64> =
                Network::with_faults(Topology::new(2, 4), NetConfig::default(), FaultPlan::new(7));
            assert!(victim.restore_with(&mut r, dec_u64).is_err());
        }
    }
}

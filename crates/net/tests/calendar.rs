//! The network's event queue and its snapshot. The calendar queue is
//! held event for event to a binary heap on seeded random traffic —
//! events in the window, far past it and behind it — and a network
//! whose fault plan schedules hops far past the window restores mid-run
//! into a machine that continues bit for bit. Restores refuse channel
//! and event entries that name no channel or node of the topology.

use april_net::calendar::{Calendar, Event};
use april_net::fault::{FaultPlan, FaultRule};
use april_net::network::{NetConfig, Network};
use april_net::topology::{Channel, Topology};
use april_util::rng::Rng;
use april_util::wire::{ByteReader, ByteWriter, Wire, WireError};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[test]
fn calendar_pops_exactly_as_a_binary_heap() {
    for seed in 0..40 {
        let mut rng = Rng::seed_from(seed);
        let mut cal = Calendar::default();
        let mut heap = BinaryHeap::new();
        let (mut now, mut seq) = (0u64, 0u64);
        for _ in 0..3000 {
            if rng.gen_bool(0.55) {
                seq += 1;
                // Mostly near the last pop; sometimes far past any
                // window, or behind the last pop.
                let time = match rng.gen_below(20) {
                    0 => now + 1000 + rng.gen_below(5000),
                    1 => now.saturating_sub(rng.gen_below(50)),
                    _ => now + rng.gen_below(40),
                };
                let ev = Event {
                    time,
                    seq,
                    slot: rng.gen_index(1 << 20),
                    node: rng.gen_index(16),
                };
                cal.push(ev);
                heap.push(Reverse(ev));
            } else {
                let bound = now + rng.gen_below(60);
                let due = heap.peek().is_some_and(|Reverse(e)| e.time <= bound);
                let want = due.then(|| heap.pop().expect("peeked").0);
                assert_eq!(cal.pop_due(bound), want, "seed {seed}");
                if let Some(e) = want {
                    now = e.time;
                }
            }
            assert_eq!(cal.peek(), heap.peek().map(|Reverse(e)| e), "seed {seed}");
        }
        let mut queued: Vec<Event> = cal.iter().copied().collect();
        let mut want: Vec<Event> = heap.iter().map(|Reverse(e)| *e).collect();
        queued.sort();
        want.sort();
        assert_eq!(queued, want, "seed {seed}: the queued set");
        while let Some(Reverse(e)) = heap.pop() {
            assert_eq!(cal.pop_due(u64::MAX), Some(e), "seed {seed}");
        }
        assert_eq!(cal.pop_due(u64::MAX), None);
    }
}

fn encode(net: &mut Network<u64>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    net.wire(&mut w).expect("writing cannot fail");
    w.finish()
}

fn restore(net: &mut Network<u64>, bytes: &[u8]) -> Result<(), WireError> {
    net.wire(&mut ByteReader::new(bytes))
}

#[test]
fn far_future_hops_restore_mid_run_and_continue_identically() {
    let topo = Topology::new(2, 4);
    let cfg = NetConfig::default();
    for seed in 0..6 {
        // Delays and outages that push hops thousands of cycles out.
        let plan = FaultPlan::new(seed)
            .with_default_rule(FaultRule::delay(0.2, 3000))
            .with_outage(
                Channel {
                    node: 5,
                    dim: 0,
                    plus: true,
                },
                100,
                2600,
            );
        let mut rng = Rng::seed_from(seed);
        let mut sends = Vec::new();
        for t in 0..4000u64 {
            if rng.gen_bool(0.3) {
                let (src, dst) = (rng.gen_index(16), rng.gen_index(16));
                sends.push((t, src, dst, 2 + rng.gen_below(6)));
            }
        }
        let run = |net: &mut Network<u64>, cycles: std::ops::Range<u64>| {
            let mut got = Vec::new();
            for t in cycles {
                for &(at, src, dst, size) in sends.iter().filter(|s| s.0 == t) {
                    net.send(at, src, dst, size, at);
                }
                let mut out = Vec::new();
                net.poll_into(t, &mut out);
                got.extend(out.into_iter().map(|d| (t, d)));
            }
            got
        };
        let mut original = Network::with_faults(topo, cfg, plan.clone());
        run(&mut original, 0..1500);
        let cut = encode(&mut original);
        let mut restored = Network::with_faults(topo, cfg, plan);
        restore(&mut restored, &cut).expect("restores");
        assert_eq!(
            encode(&mut restored),
            cut,
            "seed {seed}: re-encoding is stable"
        );

        let later = run(&mut original, 1500..12_000);
        assert_eq!(run(&mut restored, 1500..12_000), later, "seed {seed}");
        assert!(!later.is_empty() && original.is_idle(), "seed {seed}");
        assert!(original.fault_stats.delayed > 0 && original.fault_stats.outage_stalls > 0);
        assert_eq!(encode(&mut restored), encode(&mut original), "seed {seed}");
    }
}

#[test]
fn out_of_range_entries_restore_to_corrupt() {
    // One packet 0 -> 1 on a 2-node line: afterwards the network is
    // idle with exactly one channel in use.
    let topo = Topology::new(1, 2);
    let mut net: Network<u64> = Network::new(topo, NetConfig::default());
    net.send(0, 0, 1, 4, 7);
    let mut out = Vec::new();
    for t in 0..10 {
        net.poll_into(t, &mut out);
    }
    assert_eq!(out, vec![(1, 7)]);
    let bytes = encode(&mut net);
    // dim, radix, hop latency, loopback latency, no events, no flights,
    // then the channel table: one entry, (node, dim, plus, free time).
    assert_eq!(bytes[48..56], 1u64.to_le_bytes());
    assert_eq!(bytes[56..72], [0; 16], "channel (node 0, dim 0)");
    let mut fresh: Network<u64> = Network::new(topo, NetConfig::default());
    restore(&mut fresh, &bytes).expect("the genuine bytes restore");
    for (at, value) in [(56, 2u64), (64, 1), (56, u32::MAX as u64)] {
        assert_corrupt(&bytes, at, value);
    }

    // A packet just sent: one event (time, seq, id, node) queued.
    let mut net: Network<u64> = Network::new(topo, NetConfig::default());
    net.send(0, 1, 0, 4, 7);
    let bytes = encode(&mut net);
    assert_eq!(bytes[32..40], 1u64.to_le_bytes());
    assert_eq!(bytes[64..72], 1u64.to_le_bytes(), "event at node 1");
    assert_corrupt(&bytes, 64, 2);
}

/// Restoring `bytes` with the `u64` at `at` replaced by `value` fails
/// with a typed corruption error, not a panic.
fn assert_corrupt(bytes: &[u8], at: usize, value: u64) {
    let mut hostile = bytes.to_vec();
    hostile[at..at + 8].copy_from_slice(&value.to_le_bytes());
    let mut fresh: Network<u64> = Network::new(Topology::new(1, 2), NetConfig::default());
    assert!(
        matches!(restore(&mut fresh, &hostile), Err(WireError::Corrupt(_))),
        "field at byte {at} = {value}"
    );
}

//! Checkpoint/restore round-trips across schedulers under fault
//! injection.
//!
//! The determinism contract (DESIGN.md §8) says the two schedulers are
//! bit-exact over the semantic event stream; the snapshot contract
//! (§11) extends it: a run may be cut at *any* cycle, checkpointed,
//! and resumed on the *other* scheduler — event-driven to lockstep and
//! back — and the stitched-together run's semantic trace, statistics
//! report, and final memory image must be byte-identical to an
//! unbroken run's. These soaks exercise exactly
//! that, under a seeded fault plan (drops, duplicates, delay-reorders)
//! so the checkpoint lands mid-protocol with the injector's PRNG
//! cursors in flight.

use april_core::program::Program;
use april_machine::alewife::Alewife;
use april_machine::config::MachineConfig;
use april_machine::driver::{drive_sequential, drive_sequential_until, SwitchSpin};
use april_machine::{Machine, Snapshot, SnapshotError, TrafficConfig};
use april_net::fault::{FaultPlan, FaultRule};
use april_net::topology::{Channel, Topology};
use april_obs::{Event, Trace, TraceConfig};
use april_util::rng::Rng;
use april_util::wire::{digest64, WireError};

const MAX: u64 = 3_000_000;

fn cfg() -> MachineConfig {
    MachineConfig {
        topology: Topology::new(2, 2),
        region_bytes: 1 << 20,
        ..MachineConfig::default()
    }
}

/// The false-sharing increment stress: four nodes each increment
/// their own word of one shared block 50 times, forcing continuous
/// invalidation traffic.
fn prog() -> Program {
    april_core::isa::asm::assemble(
        "
        .entry main
        main:
            ldio 1, r8         ; node id (fixnum == 4*id: byte offset!)
            movi 0x200, r9
            add r9, r8, r9     ; my word within the shared block
            movi 50, r10
        loop:
            ld r9+0, r11
            add r11, 4, r11    ; increment (fixnum +1)
            st r11, r9+0
            sub r10, 1, r10
            jne loop
            nop
            halt
        ",
    )
    .unwrap()
}

/// Drops, duplicates, and reordering jitter, deterministically seeded.
fn plan() -> FaultPlan {
    FaultPlan::new(0x50a1).with_default_rule(FaultRule {
        drop: 0.02,
        dup: 0.02,
        delay: 0.04,
        max_delay: 40,
    })
}

fn semantic(t: Trace) -> Vec<Event> {
    let mut t = t;
    t.retain_semantic();
    t.events().to_vec()
}

/// A booted, fault-seeded, traced sequential machine.
fn fresh_seq(lockstep: bool) -> Alewife {
    let mut m = Alewife::new(MachineConfig { lockstep, ..cfg() }, prog());
    m.attach_tracer(TraceConfig::default());
    m.set_fault_plan(plan());
    for i in 0..m.num_procs() {
        m.cpu_mut(i).boot(0);
    }
    m
}

fn assert_same_memory(a: &april_mem::femem::FeMemory, b: &april_mem::femem::FeMemory, who: &str) {
    assert_eq!(a.len_bytes(), b.len_bytes());
    for addr in (0..a.len_bytes() as u32).step_by(4) {
        assert_eq!(
            a.word_state(addr),
            b.word_state(addr),
            "{who}: memory diverged at {addr:#x}"
        );
    }
}

#[test]
fn fault_seeded_checkpoint_resumes_on_any_scheduler() {
    // Unbroken reference: event-skipping sequential run to quiescence.
    let mut reference = fresh_seq(false);
    drive_sequential(&mut reference, &SwitchSpin::default(), MAX);
    assert!(reference.fault().is_none());
    let ref_trace = semantic(reference.collect_trace());
    let ref_report = reference.stats_report().to_json();

    // Cut the same run mid-flight, with protocol and injector state
    // live, and checkpoint.
    let mut cut = fresh_seq(false);
    drive_sequential_until(&mut cut, &SwitchSpin::default(), 400, MAX);
    assert!(
        !cut.all_halted(),
        "checkpoint cycle must land mid-run for the test to mean anything"
    );
    let snap = cut.checkpoint().unwrap();
    assert_eq!(snap.cycle(), 400);

    // Resume on the lockstep scheduler.
    let mut lockstep = fresh_seq(true);
    lockstep.restore(&snap).unwrap();
    drive_sequential(&mut lockstep, &SwitchSpin::default(), MAX);
    assert_eq!(
        semantic(lockstep.collect_trace()),
        ref_trace,
        "lockstep resume: semantic trace diverged"
    );
    assert_eq!(
        lockstep.stats_report().to_json(),
        ref_report,
        "lockstep resume: stats diverged"
    );
    assert_same_memory(reference.mem(), lockstep.mem(), "lockstep resume");
}

#[test]
fn lockstep_checkpoint_resumes_event_driven() {
    // Reference: unbroken event-driven run.
    let mut reference = fresh_seq(false);
    drive_sequential(&mut reference, &SwitchSpin::default(), MAX);
    let ref_trace = semantic(reference.collect_trace());
    let ref_report = reference.stats_report().to_json();

    // Cut a *lockstep* run at the same point and checkpoint there.
    let mut cut = fresh_seq(true);
    drive_sequential_until(&mut cut, &SwitchSpin::default(), 400, MAX);
    let snap = cut.checkpoint().unwrap();

    // An event-driven checkpoint at the same cycle must be identical
    // in every semantic section (the meta lane legitimately differs:
    // the watchdog narration is a scheduler artifact).
    let mut skip_cut = fresh_seq(false);
    drive_sequential_until(&mut skip_cut, &SwitchSpin::default(), snap.cycle(), MAX);
    let skip_snap = skip_cut.checkpoint().unwrap();
    let d = april_machine::diff_snapshots(&skip_snap, &snap);
    assert!(
        d.is_none() || d.as_deref() == Some("section meta@0"),
        "lockstep and event-driven checkpoints differ beyond the meta lane: {d:?}"
    );

    // Resume the lockstep checkpoint event-driven and finish.
    let mut skip = fresh_seq(false);
    skip.restore(&snap).unwrap();
    drive_sequential(&mut skip, &SwitchSpin::default(), MAX);
    assert_eq!(
        semantic(skip.collect_trace()),
        ref_trace,
        "event-driven resume of lockstep checkpoint: semantic trace diverged"
    );
    assert_eq!(
        skip.stats_report().to_json(),
        ref_report,
        "event-driven resume of lockstep checkpoint: stats diverged"
    );
    assert_same_memory(reference.mem(), skip.mem(), "event-driven resume");
}

#[test]
fn chained_checkpoints_compose() {
    // Checkpoint at 300 on the skip scheduler, resume in lockstep,
    // checkpoint *that* at a later cycle, resume on the skip — two
    // scheduler crossings in one run, still bit-exact.
    let mut reference = fresh_seq(false);
    drive_sequential(&mut reference, &SwitchSpin::default(), MAX);
    let ref_trace = semantic(reference.collect_trace());

    let mut first = fresh_seq(false);
    drive_sequential_until(&mut first, &SwitchSpin::default(), 300, MAX);
    let snap1 = first.checkpoint().unwrap();

    let mut lockstep = fresh_seq(true);
    lockstep.restore(&snap1).unwrap();
    drive_sequential_until(&mut lockstep, &SwitchSpin::default(), 700, MAX);
    let snap2 = lockstep.checkpoint().unwrap();
    assert_eq!(snap2.cycle(), 700);

    let mut last = fresh_seq(false);
    last.restore(&snap2).unwrap();
    drive_sequential(&mut last, &SwitchSpin::default(), MAX);
    assert_eq!(
        semantic(last.collect_trace()),
        ref_trace,
        "doubly-resumed run diverged from the unbroken reference"
    );
}

/// The golden checkpoint: sixteen nodes on a 4x4 mesh increment their
/// words of one block homed at node 0 while four edge nodes absorb a
/// seeded open-loop arrival stream, under a fault plan that drops,
/// duplicates and delays, schedules a link kill and quarantines a
/// channel. Cut at cycle 600 it holds every kind of state the format
/// carries: busy directory episodes, outstanding controller
/// transactions, packets in flight, traced probe rings that have
/// wrapped, and `traffic` sections.
fn golden_cut() -> Alewife {
    let cfg = MachineConfig {
        topology: Topology::new(2, 4),
        region_bytes: 1 << 16,
        cache: april_mem::cache::CacheConfig {
            size_bytes: 1024,
            block_bytes: 16,
            assoc: 2,
        },
        traffic: Some(TrafficConfig {
            seed: 0x0417_beef,
            edge_every: 4,
            requests_per_edge: 24,
            mean_gap: 40,
            phase_len: 256,
            off_mul: 2,
            ring_offset: 0x400,
            ring_slots: 4,
            work_remote: 2,
            work_local: 8,
        }),
        ..MachineConfig::default()
    };
    let plan = FaultPlan::new(0x60_1d)
        .with_default_rule(FaultRule {
            drop: 0.02,
            dup: 0.02,
            delay: 0.04,
            max_delay: 40,
        })
        .with_link_kill(
            Channel {
                node: 5,
                dim: 0,
                plus: true,
            },
            1_000_000,
        )
        .with_quarantined_channel(Channel {
            node: 10,
            dim: 1,
            plus: false,
        });
    let mut m = Alewife::new(cfg, prog());
    m.attach_tracer(TraceConfig {
        capacity: 48,
        ..TraceConfig::default()
    });
    m.set_fault_plan(plan);
    for i in 0..m.num_procs() {
        m.cpu_mut(i).boot(0);
    }
    drive_sequential_until(&mut m, &SwitchSpin::default(), 600, MAX);
    m
}

/// The referee for the snapshot format: the length and digest of the
/// golden checkpoint are fixed, so a layout change made the same way
/// on the encode and the restore side (which every round trip above
/// would accept) still fails here.
#[test]
fn golden_checkpoint_bytes_are_pinned() {
    let mut m = golden_cut();
    let pm = m.post_mortem();
    assert!(!pm.busy_blocks.is_empty(), "a busy directory episode");
    assert!(!pm.outstanding.is_empty(), "controller transactions");
    assert!(!pm.in_flight.is_empty(), "network flights");
    let bytes = m.checkpoint().unwrap().as_bytes().to_vec();
    assert_eq!(
        (bytes.len(), digest64(&bytes)),
        (56_473, 0x1cae_def6_f0fe_5b03)
    );
}

/// Restores `bytes` into a fresh machine configured like the golden
/// one: `Ok` or a typed error, never a panic.
fn restore_hostile(cfg: MachineConfig, bytes: Vec<u8>) -> Result<(), SnapshotError> {
    let snap = Snapshot::from_bytes(bytes)?;
    Alewife::new(cfg, prog()).restore(&snap)
}

/// A snapshot's sections as `(kind, node, payload offset, payload
/// length)`, read off its framing: a header (length-prefixed magic,
/// version byte, cycle, length-prefixed config, program digest, node
/// and section counts), then per section a kind byte, a `u32` node id
/// and a length-prefixed payload.
fn sections(bytes: &[u8]) -> Vec<(u8, u32, usize, usize)> {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let mut at = 8 + word(0) + 1 + 8;
    at += 8 + word(at) + 16;
    let count = word(at);
    at += 8;
    (0..count)
        .map(|_| {
            let node = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap());
            let (kind, len) = (bytes[at], word(at + 5));
            at += 13 + len;
            (kind, node, at - len, len)
        })
        .collect()
}

/// The payload offset of section `kind` on `node`.
fn payload_at(bytes: &[u8], kind: u8, node: u32) -> usize {
    let s = sections(bytes);
    s.iter().find(|s| (s.0, s.1) == (kind, node)).unwrap().2
}

/// Every count read from a snapshot is bounded by the bytes left
/// before anything is allocated, and a probe ring's capacity by an
/// explicit limit: a count patched to 2^40 is a typed error, not an
/// allocation that aborts the process.
#[test]
fn implausible_counts_restore_to_typed_errors() {
    let mut m = golden_cut();
    let cfg = *m.config();
    let bytes = m.checkpoint().unwrap().as_bytes().to_vec();
    let read_usize = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    // The first controller that caches a line: node id, then the cache
    // (three geometry words, the chunk count, per chunk its `u32`
    // index, line count and 17 bytes per line — a `u32` index and the
    // 13-byte line — then clock and six counters), then the
    // transaction store's entry count.
    let ctl = (0..16)
        .map(|n| payload_at(&bytes, 1, n))
        .find(|&ctl| read_usize(ctl + 20) > 0)
        .expect("a controller caches a line");
    let cache_chunks = ctl + 20;
    let first_chunk_lines = cache_chunks + 12;
    let mut at = cache_chunks + 8;
    for _ in 0..read_usize(cache_chunks) {
        at += 12 + read_usize(at + 4) * 17;
    }
    let store = at + 56;
    // Directory 0 opens with its entry count; the network with
    // topology and timing (32 bytes), the event count and 32-byte
    // events, then the flight count; the meta probe with lane, enabled
    // flag, threshold and seed (21 bytes), then the ring capacity.
    let dir = payload_at(&bytes, 2, 0);
    let net = payload_at(&bytes, 5, 0);
    let flights = net + 40 + read_usize(net + 32) * 32;
    let ring_cap = payload_at(&bytes, 8, 0) + 21;
    for (what, at) in [
        ("cache chunks", cache_chunks),
        ("lines of a cache chunk", first_chunk_lines),
        ("controller store entries", store),
        ("directory entries", dir),
        ("network flights", flights),
        ("probe ring capacity", ring_cap),
    ] {
        let mut hostile = bytes.clone();
        hostile[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert_eq!(
            restore_hostile(cfg, hostile),
            Err(SnapshotError::Corrupt(WireError::BadLen {
                at,
                len: 1 << 40
            })),
            "{what}"
        );
    }
}

/// Truncations and single-byte flips of the golden checkpoint, seeded:
/// every restore ends in `Ok` or a typed error.
#[test]
fn hostile_checkpoint_bytes_restore_without_panicking() {
    let mut m = golden_cut();
    let cfg = *m.config();
    let bytes = m.checkpoint().unwrap().as_bytes().to_vec();
    let mut rng = Rng::seed_from(0xa921);
    for _ in 0..200 {
        let mut hostile = bytes.clone();
        if rng.gen_bool(0.3) {
            hostile.truncate(rng.gen_index(bytes.len()));
        } else {
            hostile[rng.gen_index(bytes.len())] ^= 1 + rng.gen_below(255) as u8;
        }
        let _ = restore_hostile(cfg, hostile);
    }
}

/// The deep variant: truncations at, one before and one after every
/// section boundary, and a flipped byte at each of those offsets.
/// Release only: it restores about a thousand checkpoints.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn every_section_boundary_restores_without_panicking() {
    let mut m = golden_cut();
    let cfg = *m.config();
    let bytes = m.checkpoint().unwrap().as_bytes().to_vec();
    let mut cuts: Vec<usize> = sections(&bytes)
        .iter()
        .flat_map(|&(_, _, at, len)| [at - 13, at, at + len])
        .flat_map(|b| [b - 1, b, b + 1])
        .filter(|&b| b < bytes.len())
        .collect();
    cuts.dedup();
    for at in cuts {
        let _ = restore_hostile(cfg, bytes[..at].to_vec());
        let mut flipped = bytes.clone();
        flipped[at] ^= 0xff;
        let _ = restore_hostile(cfg, flipped);
    }
}

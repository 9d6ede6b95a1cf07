//! The run-time snapshot's wire format (APRT): a pinned golden image,
//! and restores of hostile bytes that must end in typed errors.

use april_core::isa::asm::assemble;
use april_machine::{Alewife, MachineConfig, SnapshotError, Topology};
use april_obs::TraceConfig;
use april_runtime::{abi, RtConfig, Runtime, RuntimeSnapshot};
use april_util::rng::Rng;
use april_util::wire::{digest64, WireError};

const REGION: u32 = 1 << 20;

/// A fan-out/join program on a 2x2 ALEWIFE: main spawns four eager and
/// four lazy futures and sums them through strict touches, so a cut
/// mid-run holds threads in every state, ready and lazy queues, future
/// waiters and stealable thunks.
fn fresh_rt() -> Runtime<Alewife> {
    let body = "
        .entry main
        main:
            movi 0, r10        ; sum
            movi 8, r11        ; count
            movi 0x200, r12    ; future array base
        spawn:
            or g5, 0, g1
            add g5, 8, g5
            movi @five, g2
            st g2, g1+0
            or g1, 2, r1       ; other-tag the closure
            and r11, 4, r13
            jeq lazy
            nop
            rtcall 2           ; RT_FUTURE -> r1
            jmp stored
            nop
        lazy:
            rtcall 4           ; RT_LAZY_FUTURE -> r1
        stored:
            st r1, r12+0
            add r12, 4, r12
            sub r11, 1, r11
            jne spawn
            nop
            movi 8, r11
            movi 0x200, r12
        join:
            ld r12+0, r13
            tadd r10, r13, r10 ; strict add: touches the future
            add r12, 4, r12
            sub r11, 1, r11
            jne join
            nop
            or r10, 0, r1
            rtcall 1           ; RT_MAIN_DONE
        five:
            movi 300, r2       ; work long enough for main to block
        work:
            sub r2, 1, r2
            jne work
            nop
            movi 20, r1        ; fixnum 5
            jmpl r31+0, g0
            nop
    ";
    let prog = assemble(&format!("{body}\n{}", abi::entry_stubs_asm())).unwrap();
    let mcfg = MachineConfig {
        topology: Topology::new(2, 2),
        region_bytes: REGION,
        cache: april_mem::cache::CacheConfig {
            size_bytes: 1024,
            block_bytes: 16,
            assoc: 2,
        },
        decode: true,
        ..MachineConfig::default()
    };
    let mut rt = Runtime::new(
        Alewife::new(mcfg, prog),
        RtConfig {
            region_bytes: REGION,
            stack_bytes: 4096,
            max_cycles: 10_000_000,
            ..RtConfig::default()
        },
    );
    rt.attach_tracer(TraceConfig {
        capacity: 64,
        ..TraceConfig::default()
    });
    rt
}

/// The golden run-time checkpoint, cut at cycle 800: main is blocked
/// on a future and three lazy thunks are still unstolen.
fn golden_bytes() -> Vec<u8> {
    let mut rt = fresh_rt();
    assert!(rt.run_until(800).unwrap().is_none(), "cut lands mid-run");
    let st = rt.sched_stats();
    assert_eq!(
        (st.blocks, st.wakes, st.lazy_created, st.lazy_steals),
        (1, 0, 4, 1)
    );
    rt.checkpoint().unwrap().as_bytes().to_vec()
}

/// The length and digest of the golden image are fixed: a layout
/// change made alike on both sides of the codec fails here.
#[test]
fn golden_runtime_snapshot_bytes_are_pinned() {
    let bytes = golden_bytes();
    assert_eq!(
        (bytes.len(), digest64(&bytes)),
        (31_502, 0x0fdc_1bc5_345e_2d26)
    );
}

/// Offsets into a run-time snapshot, read off its layout: the header
/// (length-prefixed magic, version byte, length-prefixed config), the
/// length-prefixed machine snapshot, the thread count and each thread
/// (id; register image of 32 + 8 words, PC, nPC and PSR; state tag and
/// its fields; home node; stack base; saved-frame count and 172-byte
/// frames; started flag), then the scheduler's node count.
struct Layout {
    /// The first byte after the machine snapshot.
    payload: usize,
    /// Each thread's state tag.
    states: Vec<usize>,
    /// The scheduler's node count.
    sched: usize,
}

fn layout(bytes: &[u8]) -> Layout {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let mut at = 8 + word(0) + 1;
    at += 8 + word(at);
    at += 8 + word(at);
    let payload = at;
    let threads = word(at);
    at += 8;
    let mut states = Vec::new();
    for _ in 0..threads {
        at += 176;
        states.push(at);
        at += 1 + [0, 16, 4, 0][bytes[at] as usize] + 12;
        at += 8 + word(at) * 172 + 1;
    }
    Layout {
        payload,
        states,
        sched: at,
    }
}

/// Restores `bytes` into a fresh run-time: `Ok` or a typed error,
/// never a panic.
fn restore_hostile(bytes: Vec<u8>) -> Result<(), SnapshotError> {
    fresh_rt().restore(&RuntimeSnapshot::from_bytes(bytes)?)
}

/// An unknown thread-state tag is a `BadTag` at the tag's offset, like
/// every other tag in the formats.
#[test]
fn unknown_thread_state_is_a_bad_tag_at_its_offset() {
    let bytes = golden_bytes();
    for at in layout(&bytes).states {
        let mut hostile = bytes.clone();
        hostile[at] = 9;
        assert_eq!(
            restore_hostile(hostile),
            Err(SnapshotError::Corrupt(WireError::BadTag { at, tag: 9 }))
        );
    }
}

/// Counts are checked before anything is allocated: a scheduler sized
/// for 2^40 nodes is refused against the receiving machine's node
/// count instead of allocated, and a thread count of 2^40 is a
/// `BadLen`.
#[test]
fn implausible_counts_restore_to_typed_errors() {
    let bytes = golden_bytes();
    let l = layout(&bytes);
    let patched = |at: usize| {
        let mut hostile = bytes.clone();
        hostile[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        restore_hostile(hostile)
    };
    assert!(matches!(
        patched(l.sched),
        Err(SnapshotError::Corrupt(WireError::Corrupt(_)))
    ));
    assert_eq!(
        patched(l.payload),
        Err(SnapshotError::Corrupt(WireError::BadLen {
            at: l.payload,
            len: 1 << 40
        }))
    );
}

/// Truncations and single-byte flips of the golden image, seeded:
/// every restore ends in `Ok` or a typed error.
#[test]
fn hostile_runtime_bytes_restore_without_panicking() {
    let bytes = golden_bytes();
    let mut rng = Rng::seed_from(0xa9_7e);
    for _ in 0..200 {
        let mut hostile = bytes.clone();
        if rng.gen_bool(0.3) {
            hostile.truncate(rng.gen_index(bytes.len()));
        } else {
            hostile[rng.gen_index(bytes.len())] ^= 1 + rng.gen_below(255) as u8;
        }
        let _ = restore_hostile(hostile);
    }
}

/// The deep variant: every prefix of the run-time payload (the bytes
/// after the embedded machine snapshot). Release only.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn every_runtime_payload_prefix_restores_to_a_typed_error() {
    let bytes = golden_bytes();
    for len in layout(&bytes).payload..bytes.len() {
        assert!(restore_hostile(bytes[..len].to_vec()).is_err(), "{len}");
    }
}

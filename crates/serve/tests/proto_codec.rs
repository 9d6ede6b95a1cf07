//! The april-serve frame codec (PROTOCOL.md): a pinned golden encoding
//! of every frame kind, and decodes of hostile bytes that must end in
//! typed errors.

use april_machine::TrafficConfig;
use april_serve::{
    FaultSpec, Frame, JobSpec, JobSummary, ServeError, SimSpec, Workload, PROTO_VERSION,
};
use april_util::rng::Rng;
use april_util::wire::digest64;

/// One frame of each of the sixteen kinds, with every optional part
/// present: an open-loop workload, a fault spec, a warm id.
fn frames() -> Vec<Frame> {
    let sim = SimSpec {
        radix: 3,
        lockstep: true,
        watchdog_horizon: 9_999,
        workload: Workload::OpenLoop(TrafficConfig {
            seed: 0xfeed,
            requests_per_edge: 11,
            ..TrafficConfig::default()
        }),
        ..SimSpec::default()
    };
    let spec = JobSpec {
        sim: SimSpec {
            workload: Workload::Contended {
                outer: 17,
                inner: 3,
            },
            ..sim
        },
        fault: Some(FaultSpec {
            seed: 42,
            drop: 0.01,
            dup: 0.02,
            delay: 0.03,
            max_delay: 40,
        }),
        warm: Some(7),
        warm_cycles: 12_345,
        max_cycles: 1 << 30,
        want_trace: true,
    };
    vec![
        Frame::Hello {
            version: PROTO_VERSION,
            client: "golden".into(),
        },
        Frame::RegisterWarm {
            warm_id: 7,
            sim,
            warm_cycles: 12_345,
        },
        Frame::Submit { job_id: 3, spec },
        Frame::Shutdown { cancel: true },
        Frame::Ping { nonce: 0xabcd },
        Frame::HelloAck {
            version: PROTO_VERSION,
            server: "april-serve".into(),
            pool_threads: 4,
        },
        Frame::WarmReady {
            warm_id: 7,
            cycle: 12_345,
            snap_bytes: 40_960,
            build_ns: 1_234_567,
        },
        Frame::Accepted {
            job_id: 3,
            queued: 2,
        },
        Frame::StatsChunk {
            job_id: 3,
            seq: 0,
            last: false,
            data: b"{\"cycles\":".to_vec(),
        },
        Frame::TraceChunk {
            job_id: 3,
            seq: 1,
            last: true,
            data: vec![0, 1, 2, 0xff],
        },
        Frame::Done {
            job_id: 3,
            summary: JobSummary {
                warm_used: true,
                cycles: 100_000,
                instrs: 50_000,
                utilization: 0.5,
                drops: 1,
                dups: 2,
                delays: 3,
                setup_ns: 10,
                run_ns: 20,
                fault: "budget exhausted".into(),
            },
        },
        Frame::JobError {
            job_id: 4,
            message: "unknown warm image".into(),
        },
        Frame::Canceled { job_id: 5 },
        Frame::Bye {
            completed: 5,
            canceled: 2,
        },
        Frame::Pong { nonce: 0xabcd },
        Frame::Error {
            message: "bad frame".into(),
        },
    ]
}

/// Every frame's full encoding (length prefix included).
fn encoded() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for mut f in frames() {
        out.push(f.encode());
    }
    out
}

/// PROTOCOL.md is normative: the length and digest of the sixteen
/// golden frames are fixed, so a layout change made alike on both
/// sides of the codec fails here.
#[test]
fn golden_frame_bytes_are_pinned() {
    let bytes = encoded().concat();
    assert_eq!(
        (bytes.len(), digest64(&bytes)),
        (571, 0x8bc5_7dae_b161_e7a5)
    );
}

/// Decodes a mutated frame both ways a daemon meets one: the body
/// alone, and the whole encoding off a stream. `Ok` or a typed error,
/// never a panic.
fn decode_hostile(bytes: &[u8]) -> Result<Frame, ServeError> {
    let _ = Frame::decode(bytes.get(4..).unwrap_or_default());
    Frame::read_from(&mut std::io::Cursor::new(bytes))
}

/// Truncations and single-byte flips of every golden frame, seeded.
#[test]
fn hostile_frame_bytes_decode_without_panicking() {
    let frames = encoded();
    let mut rng = Rng::seed_from(0xa9_f7);
    for _ in 0..600 {
        let mut hostile = rng.choose(&frames).clone();
        if rng.gen_bool(0.3) {
            hostile.truncate(rng.gen_index(hostile.len()));
        } else {
            let at = rng.gen_index(hostile.len());
            hostile[at] ^= 1 + rng.gen_below(255) as u8;
        }
        let _ = decode_hostile(&hostile);
    }
}

/// The deep variant: every proper prefix of every golden frame is a
/// typed error. Release only, with the other codecs' deep cases.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn every_frame_prefix_decodes_to_a_typed_error() {
    for frame in encoded() {
        for len in 0..frame.len() {
            assert!(
                decode_hostile(&frame[..len]).is_err(),
                "{frame:?} cut at {len}"
            );
            assert!(Frame::decode(&frame[4..len.max(4)]).is_err());
        }
    }
}

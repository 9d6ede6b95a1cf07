//! The april-serve wire protocol: compact length-prefixed frames over
//! a local Unix socket.
//!
//! Every frame is `len: u32 | kind: u8 | body`, all integers
//! little-endian, all variable-length fields length-prefixed — the
//! same dense conventions as the APRL snapshot format, built on the
//! same `april-util` codec. PROTOCOL.md is the normative byte-level
//! specification (layout tables, sequencing rules, versioning); this
//! module is its executable form, and the two are kept in lockstep.
//!
//! Versioning rule: the first frame on a connection must be
//! [`Frame::Hello`] carrying [`PROTO_VERSION`]; the daemon answers
//! [`Frame::HelloAck`] with its own version and refuses mismatches
//! with a connection-level [`Frame::Error`]. Adding a frame kind or
//! appending fields to a body bumps the version; nothing is ever
//! reinterpreted in place.

use crate::spec::{JobSpec, SimSpec};
use crate::ServeError;
use april_util::wire::{ByteReader, ByteWriter, Codec, Wire, WireError};
use april_util::wire_fields;
use std::io::Read;

/// The protocol version this build speaks (and the only one it
/// accepts). Version 2 dropped the two parallel-scheduler fields from
/// `SimSpec`, version 3 its `decode` engine switch, each changing the
/// `RegisterWarm` and `Submit` bodies.
pub const PROTO_VERSION: u8 = 3;

/// Upper bound on one frame's `kind + body` length; a peer announcing
/// more is treated as corrupt and the connection is dropped.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Payload bytes per stats/trace stream chunk. Reports larger than
/// this arrive as multiple ordered chunks per job.
pub const CHUNK_BYTES: usize = 32 * 1024;

/// The deterministic per-job result summary carried by
/// [`Frame::Done`]. Every field except the two wall-clock timings is a
/// pure function of the job spec (and warm image); the timings exist
/// for capacity planning and are excluded from the determinism
/// contract.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobSummary {
    /// Whether the job forked a warm image instead of re-executing the
    /// warmup.
    pub warm_used: bool,
    /// Final simulated cycle.
    pub cycles: u64,
    /// Instructions retired across all processors.
    pub instrs: u64,
    /// Instructions / total processor cycles.
    pub utilization: f64,
    /// Faults injected by the network: drops.
    pub drops: u64,
    /// Faults injected by the network: duplications.
    pub dups: u64,
    /// Faults injected by the network: delays.
    pub delays: u64,
    /// Host nanoseconds spent constructing the machine (cold: build +
    /// boot + warmup re-execution; warm: build + snapshot restore).
    /// Wall-clock: *not* part of the determinism contract.
    pub setup_ns: u64,
    /// Host nanoseconds spent in the post-warm measurement phase.
    /// Wall-clock: *not* part of the determinism contract.
    pub run_ns: u64,
    /// Human-readable fatal fault description, or empty for a clean
    /// run. A job that exhausts its cycle budget reports
    /// `"budget exhausted"` here rather than failing.
    pub fault: String,
}

wire_fields!(JobSummary {
    warm_used,
    cycles,
    instrs,
    utilization,
    drops,
    dups,
    delays,
    setup_ns,
    run_ns,
    fault,
});

/// One protocol frame. Kinds `0x01`–`0x0f` originate at the client,
/// `0x81`–`0x8f` at the daemon (see PROTOCOL.md for the tables).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client hello: must be the first frame on every connection.
    Hello {
        /// The client's [`PROTO_VERSION`].
        version: u8,
        /// Free-form client name, for daemon logs.
        client: String,
    },
    /// Register a warm image: the daemon boots the machine described
    /// by `sim`, executes `warm_cycles` cycles, checkpoints, and
    /// stores the snapshot under `warm_id`.
    RegisterWarm {
        /// Client-chosen image id; registering a taken id is a
        /// connection-level error.
        warm_id: u32,
        /// Machine + workload to warm up.
        sim: SimSpec,
        /// Cycle at which to cut the checkpoint.
        warm_cycles: u64,
    },
    /// Submit one job.
    Submit {
        /// Client-chosen job id; response frames echo it.
        job_id: u32,
        /// What to run.
        spec: JobSpec,
    },
    /// Ask the daemon to exit. With `cancel` false the queue drains
    /// (every accepted job still runs); with `cancel` true queued jobs
    /// are canceled in submission order and only in-flight jobs
    /// finish.
    Shutdown {
        /// Cancel queued jobs instead of draining them.
        cancel: bool,
    },
    /// Liveness probe.
    Ping {
        /// Echoed back in [`Frame::Pong`].
        nonce: u64,
    },

    /// Daemon hello response.
    HelloAck {
        /// The daemon's [`PROTO_VERSION`].
        version: u8,
        /// Free-form server name.
        server: String,
        /// Worker threads in the daemon's pool.
        pool_threads: u32,
    },
    /// A warm image finished building and is ready to fork.
    WarmReady {
        /// The id from [`Frame::RegisterWarm`].
        warm_id: u32,
        /// Cycle the checkpoint was cut at (equals the requested
        /// `warm_cycles`).
        cycle: u64,
        /// Encoded APRL snapshot size in bytes.
        snap_bytes: u64,
        /// Host nanoseconds the warmup + checkpoint took.
        build_ns: u64,
    },
    /// A submitted job entered the queue.
    Accepted {
        /// The id from [`Frame::Submit`].
        job_id: u32,
        /// Queue depth after this job was enqueued.
        queued: u32,
    },
    /// One ordered chunk of the job's stats-report JSON.
    StatsChunk {
        /// Owning job.
        job_id: u32,
        /// Chunk index, starting at 0.
        seq: u32,
        /// Whether this is the final stats chunk for the job.
        last: bool,
        /// UTF-8 JSON bytes.
        data: Vec<u8>,
    },
    /// One ordered chunk of the job's semantic trace JSONL (only when
    /// the spec asked for a trace).
    TraceChunk {
        /// Owning job.
        job_id: u32,
        /// Chunk index, starting at 0.
        seq: u32,
        /// Whether this is the final trace chunk for the job.
        last: bool,
        /// UTF-8 JSONL bytes.
        data: Vec<u8>,
    },
    /// Terminal job frame: the job ran (possibly into a fault or its
    /// budget) and its streams are complete.
    Done {
        /// Owning job.
        job_id: u32,
        /// The result summary.
        summary: JobSummary,
    },
    /// Terminal job frame: the job could not run (bad spec, unknown or
    /// incompatible warm image). The connection stays open.
    JobError {
        /// Owning job.
        job_id: u32,
        /// What was wrong.
        message: String,
    },
    /// Terminal job frame: the job was queued when a cancel shutdown
    /// arrived.
    Canceled {
        /// Owning job.
        job_id: u32,
    },
    /// Shutdown is complete; sent to the requesting connection after
    /// every worker has exited.
    Bye {
        /// Jobs that ran to a terminal [`Frame::Done`]/[`Frame::JobError`].
        completed: u64,
        /// Jobs canceled by a cancel shutdown.
        canceled: u64,
    },
    /// Liveness probe response.
    Pong {
        /// The nonce from [`Frame::Ping`].
        nonce: u64,
    },
    /// Connection-level failure (handshake violation, malformed frame,
    /// duplicate warm id, warm build failure). The daemon closes the
    /// connection after sending it.
    Error {
        /// What was wrong.
        message: String,
    },
}

/// The frame layouts (PROTOCOL.md), stated once: each kind's byte,
/// then its fields in wire order. [`Frame::kind`], decoding (which
/// starts from the blank frame of the kind read) and the [`Wire`]
/// layout are all generated from this table.
macro_rules! kinds {
    ($($kind:literal => $v:ident { $($f:ident),* },)*) => {
        impl Frame {
            /// The frame's kind byte (PROTOCOL.md tables).
            pub fn kind(&self) -> u8 {
                match self {
                    $(Frame::$v { .. } => $kind,)*
                }
            }

            /// The frame of kind `kind`, its fields still to be decoded.
            fn blank(kind: u8) -> Option<Frame> {
                Some(match kind {
                    $($kind => Frame::$v { $($f: Default::default()),* },)*
                    _ => return None,
                })
            }
        }

        /// The kind byte, then the kind's fields.
        impl Wire for Frame {
            fn wire<C: Codec>(&mut self, c: &mut C) -> Result<(), WireError> {
                c.tag(self, Frame::kind, Frame::blank)?;
                match self {
                    $(Frame::$v { $($f),* } => {
                        $($f.wire(c)?;)*
                    })*
                }
                Ok(())
            }
        }
    };
}

kinds! {
    0x01 => Hello { version, client },
    0x02 => RegisterWarm { warm_id, sim, warm_cycles },
    0x03 => Submit { job_id, spec },
    0x04 => Shutdown { cancel },
    0x05 => Ping { nonce },
    0x81 => HelloAck { version, server, pool_threads },
    0x82 => WarmReady { warm_id, cycle, snap_bytes, build_ns },
    0x83 => Accepted { job_id, queued },
    0x84 => StatsChunk { job_id, seq, last, data },
    0x85 => TraceChunk { job_id, seq, last, data },
    0x86 => Done { job_id, summary },
    0x87 => JobError { job_id, message },
    0x88 => Canceled { job_id },
    0x89 => Bye { completed, canceled },
    0x8a => Pong { nonce },
    0x8b => Error { message },
}

impl Frame {
    /// Encodes the frame, including the leading length prefix.
    pub fn encode(&mut self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        // The length prefix is patched once the frame is written.
        w.u32(&mut 0)
            .and_then(|()| self.wire(&mut w))
            .expect("writing to memory cannot fail");
        let mut out = w.finish();
        let len = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&len.to_le_bytes());
        out
    }

    /// Decodes one frame body (`kind + payload`, the bytes after the
    /// length prefix).
    pub fn decode(bytes: &[u8]) -> Result<Frame, ServeError> {
        let mut r = ByteReader::new(bytes);
        let mut frame = Frame::Canceled { job_id: 0 };
        frame.wire(&mut r)?;
        if !r.is_empty() {
            return Err(ServeError::Protocol(format!(
                "frame kind {:#x} has {} trailing bytes",
                frame.kind(),
                r.remaining()
            )));
        }
        Ok(frame)
    }

    /// Reads one frame from `r`, blocking. A clean EOF at a frame
    /// boundary reports [`ServeError::Closed`]; EOF mid-frame is a
    /// protocol error.
    pub fn read_from(r: &mut impl Read) -> Result<Frame, ServeError> {
        let mut len = [0u8; 4];
        let mut got = 0;
        while got < 4 {
            let n = r.read(&mut len[got..])?;
            if n == 0 {
                if got == 0 {
                    return Err(ServeError::Closed);
                }
                return Err(ServeError::Protocol("eof inside frame length".into()));
            }
            got += n;
        }
        let len = u32::from_le_bytes(len) as usize;
        if len == 0 || len > MAX_FRAME_BYTES {
            return Err(ServeError::Protocol(format!(
                "implausible frame length {len}"
            )));
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => {
                ServeError::Protocol("eof inside frame body".into())
            }
            _ => ServeError::Io(e),
        })?;
        Frame::decode(&body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(mut f: Frame) {
        let bytes = f.encode();
        let mut cursor = std::io::Cursor::new(bytes);
        let back = Frame::read_from(&mut cursor).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        roundtrip(Frame::Hello {
            version: PROTO_VERSION,
            client: "test".into(),
        });
        roundtrip(Frame::RegisterWarm {
            warm_id: 1,
            sim: SimSpec::default(),
            warm_cycles: 5000,
        });
        roundtrip(Frame::Submit {
            job_id: 2,
            spec: JobSpec::default(),
        });
        roundtrip(Frame::Shutdown { cancel: true });
        roundtrip(Frame::Ping { nonce: 7 });
        roundtrip(Frame::HelloAck {
            version: PROTO_VERSION,
            server: "april-serve".into(),
            pool_threads: 8,
        });
        roundtrip(Frame::WarmReady {
            warm_id: 1,
            cycle: 5000,
            snap_bytes: 4096,
            build_ns: 123456,
        });
        roundtrip(Frame::Accepted {
            job_id: 2,
            queued: 3,
        });
        roundtrip(Frame::StatsChunk {
            job_id: 2,
            seq: 0,
            last: false,
            data: vec![1, 2, 3],
        });
        roundtrip(Frame::TraceChunk {
            job_id: 2,
            seq: 1,
            last: true,
            data: Vec::new(),
        });
        roundtrip(Frame::Done {
            job_id: 2,
            summary: JobSummary {
                warm_used: true,
                cycles: 100,
                instrs: 50,
                utilization: 0.5,
                drops: 1,
                dups: 2,
                delays: 3,
                setup_ns: 10,
                run_ns: 20,
                fault: String::new(),
            },
        });
        roundtrip(Frame::JobError {
            job_id: 2,
            message: "nope".into(),
        });
        roundtrip(Frame::Canceled { job_id: 9 });
        roundtrip(Frame::Bye {
            completed: 5,
            canceled: 2,
        });
        roundtrip(Frame::Pong { nonce: 7 });
        roundtrip(Frame::Error {
            message: "bad".into(),
        });
    }

    #[test]
    fn clean_eof_is_closed_and_truncation_is_protocol_error() {
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(
            Frame::read_from(&mut empty),
            Err(ServeError::Closed)
        ));
        let bytes = Frame::Ping { nonce: 1 }.encode();
        let mut cut = std::io::Cursor::new(bytes[..6].to_vec());
        assert!(matches!(
            Frame::read_from(&mut cut),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut out = Vec::new();
        out.extend_from_slice(&1u32.to_le_bytes());
        out.push(0x7f);
        let mut cursor = std::io::Cursor::new(out);
        assert!(matches!(
            Frame::read_from(&mut cursor),
            Err(ServeError::Wire(WireError::BadTag { .. }))
        ));
    }
}

//! The april-serve daemon: accept loop, job queue, worker pool, and a
//! deterministic shutdown.
//!
//! Threading model (DESIGN.md §16):
//!
//! * The calling thread runs the Unix-socket accept loop.
//! * Each accepted connection gets a **reader thread** that performs
//!   the hello handshake and then demultiplexes client frames:
//!   registrations build warm images inline, submissions are
//!   acknowledged and enqueued, pings are answered in place.
//! * A bounded pool of **worker threads** pops jobs off a shared
//!   FIFO queue, runs each through [`crate::exec::run_job`], and
//!   streams the result frames back to the submitting connection.
//!
//! Shutdown is deterministic: a [`Frame::Shutdown`] marks the queue
//! stopping (cancel mode additionally drains queued jobs, sending each
//! a [`Frame::Canceled`] in submission order), workers finish their
//! in-flight jobs and exit, the requester receives [`Frame::Bye`] with
//! final counters, every connection is closed, and *every* spawned
//! thread is joined before [`serve`] returns — no orphaned workers, no
//! leaked socket file.

use crate::exec::{build_warm_image, run_job, JobOutcome, WarmImage};
use crate::proto::{Frame, JobSummary, CHUNK_BYTES, PROTO_VERSION};
use crate::spec::JobSpec;
use crate::ServeError;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

/// How to run the daemon.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Path to bind the Unix socket at. An existing file at the path
    /// is removed first (stale sockets from a killed daemon would
    /// otherwise wedge restarts).
    pub socket: PathBuf,
    /// Worker threads in the pool; clamped to at least 1.
    pub threads: usize,
}

/// What the daemon did over its lifetime, returned by [`serve`] after
/// a clean shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonReport {
    /// Jobs that reached a terminal [`Frame::Done`] or
    /// [`Frame::JobError`].
    pub completed: u64,
    /// Jobs canceled by a cancel shutdown.
    pub canceled: u64,
    /// Connections accepted (excluding the internal shutdown wakeup).
    pub connections: u64,
    /// Warm images registered and held at shutdown.
    pub warm_images: usize,
}

/// One connection's write half. Reads happen only on the connection's
/// reader thread; writes come from both the reader (acks, pongs) and
/// any worker (job streams), serialized by the lock so frames never
/// interleave mid-frame.
struct Conn {
    stream: UnixStream,
    wlock: Mutex<()>,
}

impl Conn {
    fn new(stream: UnixStream) -> Conn {
        Conn {
            stream,
            wlock: Mutex::new(()),
        }
    }

    fn send(&self, mut frame: Frame) -> Result<(), ServeError> {
        let _guard = self.wlock.lock().unwrap();
        let mut w = &self.stream;
        w.write_all(&frame.encode())?;
        Ok(())
    }

    fn close(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

struct QueuedJob {
    job_id: u32,
    spec: JobSpec,
    conn: Arc<Conn>,
}

struct QueueState {
    jobs: VecDeque<QueuedJob>,
    stopping: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    cv: Condvar,
    warm: Mutex<HashMap<u32, Arc<WarmImage>>>,
    completed: AtomicU64,
    canceled: AtomicU64,
    stopping: AtomicBool,
    requester: Mutex<Option<Arc<Conn>>>,
    socket: PathBuf,
    pool_threads: u32,
}

/// Runs the daemon until a client sends [`Frame::Shutdown`], then
/// drains (or cancels) the queue, joins every worker and reader
/// thread, removes the socket file, and reports lifetime counters.
pub fn serve(cfg: &DaemonConfig) -> Result<DaemonReport, ServeError> {
    let threads = cfg.threads.max(1);
    // A stale socket file from a killed daemon would make bind fail.
    let _ = std::fs::remove_file(&cfg.socket);
    let listener = UnixListener::bind(&cfg.socket)?;

    let shared = Arc::new(Shared {
        queue: Mutex::new(QueueState {
            jobs: VecDeque::new(),
            stopping: false,
        }),
        cv: Condvar::new(),
        warm: Mutex::new(HashMap::new()),
        completed: AtomicU64::new(0),
        canceled: AtomicU64::new(0),
        stopping: AtomicBool::new(false),
        requester: Mutex::new(None),
        socket: cfg.socket.clone(),
        pool_threads: threads as u32,
    });

    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let shared = shared.clone();
            thread::spawn(move || worker_loop(&shared))
        })
        .collect();

    let mut readers = Vec::new();
    let mut conns: Vec<Arc<Conn>> = Vec::new();
    let mut connections = 0u64;
    loop {
        let (stream, _) = listener.accept()?;
        if shared.stopping.load(Ordering::SeqCst) {
            // The wakeup connection a shutdown handler made to unblock
            // this accept; drop it and stop accepting.
            drop(stream);
            break;
        }
        connections += 1;
        let conn = Arc::new(Conn::new(stream));
        conns.push(conn.clone());
        let shared = shared.clone();
        let reader_conn = conn.clone();
        readers.push(thread::spawn(move || reader_loop(&reader_conn, &shared)));
    }

    // Workers exit once the queue is empty (drain) or drained (cancel).
    for w in workers {
        let _ = w.join();
    }
    let report = DaemonReport {
        completed: shared.completed.load(Ordering::SeqCst),
        canceled: shared.canceled.load(Ordering::SeqCst),
        connections,
        warm_images: shared.warm.lock().unwrap().len(),
    };
    // Bye goes out after every worker has exited, so its counters are
    // final and the requester can treat it as "all quiet".
    if let Some(req) = shared.requester.lock().unwrap().as_ref() {
        let _ = req.send(Frame::Bye {
            completed: report.completed,
            canceled: report.canceled,
        });
    }
    for c in &conns {
        c.close();
    }
    for r in readers {
        let _ = r.join();
    }
    let _ = std::fs::remove_file(&cfg.socket);
    Ok(report)
}

/// One worker: pop, run, stream, repeat; exit when the queue is empty
/// and stopping.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.stopping {
                    return;
                }
                q = shared.cv.wait(q).unwrap();
            }
        };
        run_one(shared, &job);
        shared.completed.fetch_add(1, Ordering::SeqCst);
    }
}

/// Runs one queued job and streams its result frames; every terminal
/// path sends exactly one of [`Frame::Done`] / [`Frame::JobError`].
/// Send failures are ignored — a client that hung up forfeits its
/// results, nothing else.
fn run_one(shared: &Shared, job: &QueuedJob) {
    let warm: Option<Arc<WarmImage>> = match job.spec.warm {
        Some(id) => match shared.warm.lock().unwrap().get(&id) {
            Some(img) => Some(img.clone()),
            None => {
                let _ = job.conn.send(Frame::JobError {
                    job_id: job.job_id,
                    message: ServeError::UnknownWarm(id).to_string(),
                });
                return;
            }
        },
        None => None,
    };
    match run_job(&job.spec, warm.as_deref()) {
        Ok(out) => {
            stream_text(&job.conn, job.job_id, out.stats_json.as_bytes(), false);
            if let Some(trace) = &out.trace_jsonl {
                stream_text(&job.conn, job.job_id, trace.as_bytes(), true);
            }
            let _ = job.conn.send(Frame::Done {
                job_id: job.job_id,
                summary: summarize(&out),
            });
        }
        Err(e) => {
            let _ = job.conn.send(Frame::JobError {
                job_id: job.job_id,
                message: e.to_string(),
            });
        }
    }
}

fn summarize(out: &JobOutcome) -> JobSummary {
    JobSummary {
        warm_used: out.warm_used,
        cycles: out.cycles,
        instrs: out.instrs,
        utilization: out.utilization,
        drops: out.drops,
        dups: out.dups,
        delays: out.delays,
        setup_ns: out.setup_ns,
        run_ns: out.run_ns,
        fault: out.fault.clone().unwrap_or_default(),
    }
}

/// Streams `data` as ordered [`CHUNK_BYTES`]-sized chunks; always at
/// least one chunk so the receiver's "seen a last chunk" state machine
/// has no empty-stream special case.
fn stream_text(conn: &Conn, job_id: u32, data: &[u8], trace: bool) {
    let total = data.len().div_ceil(CHUNK_BYTES);
    let total = total.max(1);
    for seq in 0..total {
        let start = seq * CHUNK_BYTES;
        let end = (start + CHUNK_BYTES).min(data.len());
        let chunk = data[start..end].to_vec();
        let last = seq + 1 == total;
        let frame = if trace {
            Frame::TraceChunk {
                job_id,
                seq: seq as u32,
                last,
                data: chunk,
            }
        } else {
            Frame::StatsChunk {
                job_id,
                seq: seq as u32,
                last,
                data: chunk,
            }
        };
        if conn.send(frame).is_err() {
            return;
        }
    }
}

/// One connection's reader: handshake, then serve client frames until
/// the peer hangs up or the daemon shuts the stream down.
fn reader_loop(conn: &Arc<Conn>, shared: &Shared) {
    let mut r = &conn.stream;
    // Handshake: the first frame must be a version-matched Hello.
    match Frame::read_from(&mut r) {
        Ok(Frame::Hello { version, .. }) if version == PROTO_VERSION => {
            let _ = conn.send(Frame::HelloAck {
                version: PROTO_VERSION,
                server: "april-serve".into(),
                pool_threads: shared.pool_threads,
            });
        }
        Ok(Frame::Hello { version, .. }) => {
            let _ = conn.send(Frame::Error {
                message: format!(
                    "protocol version mismatch: client {version}, daemon {PROTO_VERSION}"
                ),
            });
            conn.close();
            return;
        }
        Ok(other) => {
            let _ = conn.send(Frame::Error {
                message: format!("first frame must be hello, got kind {:#x}", other.kind()),
            });
            conn.close();
            return;
        }
        Err(_) => {
            conn.close();
            return;
        }
    }

    loop {
        let frame = match Frame::read_from(&mut r) {
            Ok(f) => f,
            Err(ServeError::Closed) => return,
            Err(ServeError::Io(_)) => return,
            Err(e) => {
                let _ = conn.send(Frame::Error {
                    message: e.to_string(),
                });
                conn.close();
                return;
            }
        };
        match frame {
            Frame::RegisterWarm {
                warm_id,
                sim,
                warm_cycles,
            } => {
                if shared.warm.lock().unwrap().contains_key(&warm_id) {
                    let _ = conn.send(Frame::Error {
                        message: format!("warm id {warm_id} already registered"),
                    });
                    conn.close();
                    return;
                }
                // Built inline on the reader thread: registration is a
                // handful of one-time boots per sweep, not worth
                // queueing behind jobs.
                match build_warm_image(&sim, warm_cycles) {
                    Ok(img) => {
                        let (cycle, snap_bytes, build_ns) =
                            (img.cycle, img.snap.as_bytes().len() as u64, img.build_ns);
                        shared.warm.lock().unwrap().insert(warm_id, Arc::new(img));
                        let _ = conn.send(Frame::WarmReady {
                            warm_id,
                            cycle,
                            snap_bytes,
                            build_ns,
                        });
                    }
                    Err(e) => {
                        let _ = conn.send(Frame::Error {
                            message: format!("warm image {warm_id} failed to build: {e}"),
                        });
                        conn.close();
                        return;
                    }
                }
            }
            Frame::Submit { job_id, spec } => {
                // Accepted goes out before the job can possibly
                // produce frames, so the client always sees
                // Accepted → chunks → terminal, in that order.
                let queued = {
                    let q = shared.queue.lock().unwrap();
                    if q.stopping {
                        None
                    } else {
                        Some(q.jobs.len() as u32 + 1)
                    }
                };
                match queued {
                    None => {
                        let _ = conn.send(Frame::JobError {
                            job_id,
                            message: "daemon is shutting down".into(),
                        });
                    }
                    Some(depth) => {
                        let _ = conn.send(Frame::Accepted {
                            job_id,
                            queued: depth,
                        });
                        let mut q = shared.queue.lock().unwrap();
                        q.jobs.push_back(QueuedJob {
                            job_id,
                            spec,
                            conn: conn.clone(),
                        });
                        drop(q);
                        shared.cv.notify_one();
                    }
                }
            }
            Frame::Ping { nonce } => {
                let _ = conn.send(Frame::Pong { nonce });
            }
            Frame::Shutdown { cancel } => {
                let drained: Vec<QueuedJob> = {
                    let mut q = shared.queue.lock().unwrap();
                    q.stopping = true;
                    if cancel {
                        q.jobs.drain(..).collect()
                    } else {
                        Vec::new()
                    }
                };
                shared.cv.notify_all();
                // Canceled frames go out in submission order — the
                // drain preserved the queue's FIFO order.
                for j in &drained {
                    shared.canceled.fetch_add(1, Ordering::SeqCst);
                    let _ = j.conn.send(Frame::Canceled { job_id: j.job_id });
                }
                let mut req = shared.requester.lock().unwrap();
                if req.is_none() {
                    *req = Some(conn.clone());
                }
                drop(req);
                shared.stopping.store(true, Ordering::SeqCst);
                // Wake the accept loop so it observes the flag.
                let _ = UnixStream::connect(&shared.socket);
                // Keep reading: the client is now waiting for Bye,
                // which serve() sends after the workers join; the
                // stream shutdown that follows ends this loop.
            }
            other => {
                let _ = conn.send(Frame::Error {
                    message: format!("unexpected client frame kind {:#x}", other.kind()),
                });
                conn.close();
                return;
            }
        }
    }
}

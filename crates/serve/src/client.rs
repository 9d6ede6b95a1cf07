//! A blocking april-serve client.
//!
//! [`Client`] wraps one Unix-socket connection: it performs the hello
//! handshake on connect, then exposes the protocol verbs —
//! [`Client::register_warm`], [`Client::submit`], [`Client::ping`],
//! [`Client::shutdown`] — plus [`Client::collect`], which reassembles
//! the streamed per-job chunk frames into whole [`JobResult`]s.
//!
//! The daemon may interleave frames for different jobs on one
//! connection (workers finish in host-time order, not submission
//! order), so every verb that waits for a specific response frame
//! absorbs unrelated job frames into the client's assembly state
//! instead of dropping them. Callers therefore never need to sequence
//! their calls around the daemon's scheduling.

use crate::proto::{Frame, JobSummary, PROTO_VERSION};
use crate::spec::{JobSpec, SimSpec};
use crate::ServeError;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::Path;

/// A fully reassembled job result. Exactly one of the three terminal
/// states holds: `summary` set (ran), `error` set (refused), or
/// `canceled` true (shut down before running).
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The id the job was submitted under.
    pub job_id: u32,
    /// The result summary, when the job ran to a [`Frame::Done`].
    pub summary: Option<JobSummary>,
    /// The refusal message, when the job ended in [`Frame::JobError`].
    pub error: Option<String>,
    /// Whether the job was canceled by a cancel shutdown.
    pub canceled: bool,
    /// The reassembled stats-report JSON (empty unless the job ran).
    pub stats_json: String,
    /// The reassembled semantic trace JSONL, when one was requested
    /// and the job ran.
    pub trace_jsonl: Option<String>,
}

/// What [`Client::register_warm`] reports once the daemon's warm image
/// is built and ready to fork.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmInfo {
    /// Cycle the checkpoint was cut at.
    pub cycle: u64,
    /// Encoded APRL snapshot size in bytes.
    pub snap_bytes: u64,
    /// Host nanoseconds the daemon spent on boot + warmup +
    /// checkpoint.
    pub build_ns: u64,
}

/// What [`Client::shutdown`] reports once the daemon's [`Frame::Bye`]
/// arrives.
#[derive(Debug, Clone)]
pub struct ShutdownReport {
    /// Daemon-lifetime count of jobs that reached a terminal
    /// [`Frame::Done`] / [`Frame::JobError`].
    pub completed: u64,
    /// Daemon-lifetime count of jobs canceled by a cancel shutdown.
    pub canceled: u64,
    /// Job results (including cancellations) that finished on this
    /// connection between the shutdown request and the bye, sorted by
    /// job id.
    pub results: Vec<JobResult>,
}

#[derive(Default)]
struct Assembly {
    stats: Vec<u8>,
    trace: Vec<u8>,
    traced: bool,
}

/// One connection to an april-serve daemon.
pub struct Client {
    stream: UnixStream,
    pool_threads: u32,
    assembling: HashMap<u32, Assembly>,
    finished: VecDeque<JobResult>,
}

impl Client {
    /// Connects and performs the hello handshake. `name` is free-form
    /// and only used for daemon-side identification.
    pub fn connect(socket: &Path, name: &str) -> Result<Client, ServeError> {
        let stream = UnixStream::connect(socket)?;
        let mut client = Client {
            stream,
            pool_threads: 0,
            assembling: HashMap::new(),
            finished: VecDeque::new(),
        };
        client.send(Frame::Hello {
            version: PROTO_VERSION,
            client: name.to_string(),
        })?;
        match client.read()? {
            Frame::HelloAck {
                version,
                pool_threads,
                ..
            } => {
                if version != PROTO_VERSION {
                    return Err(ServeError::Protocol(format!(
                        "daemon speaks protocol {version}, this client {PROTO_VERSION}"
                    )));
                }
                client.pool_threads = pool_threads;
            }
            Frame::Error { message } => return Err(ServeError::Remote(message)),
            other => {
                return Err(ServeError::Protocol(format!(
                    "expected hello-ack, got kind {:#x}",
                    other.kind()
                )))
            }
        }
        Ok(client)
    }

    /// Worker threads in the daemon's pool, as announced at handshake.
    pub fn pool_threads(&self) -> u32 {
        self.pool_threads
    }

    /// Asks the daemon to build a warm image: boot the `sim` machine,
    /// execute `warm_cycles` cycles, checkpoint, and hold the snapshot
    /// under `warm_id` for jobs to fork. Blocks until the image is
    /// ready.
    pub fn register_warm(
        &mut self,
        warm_id: u32,
        sim: &SimSpec,
        warm_cycles: u64,
    ) -> Result<WarmInfo, ServeError> {
        self.send(Frame::RegisterWarm {
            warm_id,
            sim: *sim,
            warm_cycles,
        })?;
        loop {
            match self.read()? {
                Frame::WarmReady {
                    warm_id: id,
                    cycle,
                    snap_bytes,
                    build_ns,
                } if id == warm_id => {
                    return Ok(WarmInfo {
                        cycle,
                        snap_bytes,
                        build_ns,
                    })
                }
                Frame::Error { message } => return Err(ServeError::Remote(message)),
                other => self.absorb(other)?,
            }
        }
    }

    /// Submits one job and waits for its [`Frame::Accepted`] ack.
    /// Returns the daemon's queue depth at acceptance.
    pub fn submit(&mut self, job_id: u32, spec: &JobSpec) -> Result<u32, ServeError> {
        self.send(Frame::Submit {
            job_id,
            spec: *spec,
        })?;
        loop {
            match self.read()? {
                Frame::Accepted { job_id: id, queued } if id == job_id => return Ok(queued),
                Frame::Error { message } => return Err(ServeError::Remote(message)),
                other => self.absorb(other)?,
            }
        }
    }

    /// Collects `n` finished jobs (in any completion order), returning
    /// them sorted by job id.
    pub fn collect(&mut self, n: usize) -> Result<Vec<JobResult>, ServeError> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            if let Some(r) = self.finished.pop_front() {
                out.push(r);
                continue;
            }
            let frame = self.read()?;
            if let Frame::Error { message } = frame {
                return Err(ServeError::Remote(message));
            }
            self.absorb(frame)?;
        }
        out.sort_by_key(|r| r.job_id);
        Ok(out)
    }

    /// Round-trips a liveness probe.
    pub fn ping(&mut self, nonce: u64) -> Result<(), ServeError> {
        self.send(Frame::Ping { nonce })?;
        loop {
            match self.read()? {
                Frame::Pong { nonce: n } if n == nonce => return Ok(()),
                Frame::Error { message } => return Err(ServeError::Remote(message)),
                other => self.absorb(other)?,
            }
        }
    }

    /// Requests shutdown (drain with `cancel` false, cancel queued
    /// jobs with `cancel` true) and blocks until the daemon's
    /// [`Frame::Bye`], absorbing any job results that complete in
    /// between.
    pub fn shutdown(&mut self, cancel: bool) -> Result<ShutdownReport, ServeError> {
        self.send(Frame::Shutdown { cancel })?;
        loop {
            match self.read()? {
                Frame::Bye {
                    completed,
                    canceled,
                } => {
                    let mut results: Vec<JobResult> = self.finished.drain(..).collect();
                    results.sort_by_key(|r| r.job_id);
                    return Ok(ShutdownReport {
                        completed,
                        canceled,
                        results,
                    });
                }
                Frame::Error { message } => return Err(ServeError::Remote(message)),
                other => self.absorb(other)?,
            }
        }
    }

    fn send(&mut self, mut frame: Frame) -> Result<(), ServeError> {
        self.stream.write_all(&frame.encode())?;
        Ok(())
    }

    fn read(&mut self) -> Result<Frame, ServeError> {
        Frame::read_from(&mut self.stream)
    }

    /// Folds a job-stream frame into the assembly state; terminal
    /// frames move the job to the finished queue.
    fn absorb(&mut self, frame: Frame) -> Result<(), ServeError> {
        match frame {
            Frame::StatsChunk { job_id, data, .. } => {
                self.assembling
                    .entry(job_id)
                    .or_default()
                    .stats
                    .extend_from_slice(&data);
            }
            Frame::TraceChunk { job_id, data, .. } => {
                let a = self.assembling.entry(job_id).or_default();
                a.traced = true;
                a.trace.extend_from_slice(&data);
            }
            Frame::Done { job_id, summary } => {
                let a = self.assembling.remove(&job_id).unwrap_or_default();
                let stats_json = String::from_utf8(a.stats)
                    .map_err(|_| ServeError::Protocol("stats chunk not utf-8".into()))?;
                let trace_jsonl = if a.traced {
                    Some(
                        String::from_utf8(a.trace)
                            .map_err(|_| ServeError::Protocol("trace chunk not utf-8".into()))?,
                    )
                } else {
                    None
                };
                self.finished.push_back(JobResult {
                    job_id,
                    summary: Some(summary),
                    error: None,
                    canceled: false,
                    stats_json,
                    trace_jsonl,
                });
            }
            Frame::JobError { job_id, message } => {
                self.assembling.remove(&job_id);
                self.finished.push_back(JobResult {
                    job_id,
                    summary: None,
                    error: Some(message),
                    canceled: false,
                    stats_json: String::new(),
                    trace_jsonl: None,
                });
            }
            Frame::Canceled { job_id } => {
                self.assembling.remove(&job_id);
                self.finished.push_back(JobResult {
                    job_id,
                    summary: None,
                    error: None,
                    canceled: true,
                    stats_json: String::new(),
                    trace_jsonl: None,
                });
            }
            Frame::Pong { .. } | Frame::WarmReady { .. } | Frame::Accepted { .. } => {}
            other => {
                return Err(ServeError::Protocol(format!(
                    "unexpected daemon frame kind {:#x}",
                    other.kind()
                )))
            }
        }
        Ok(())
    }
}

//! `serve_warm_sweep`: a fault-seed sweep through an in-process
//! april-serve daemon over its Unix socket. One client, **closed loop,
//! one job outstanding**: the next `Submit` is written only after the
//! previous job's `Done` frame has been read, so a slower daemon is
//! offered less load and latency is never queueing behind the
//! generator.

use super::{Opts, Report, Window, DIGEST_MASK};
use crate::measure::{digest, median, peak_rss_mb, percentile, quiet, Stopwatch};
use crate::trace::Tracer;
use april_serve::{
    build_warm_image, run_job, serve, Client, DaemonConfig, DaemonReport, FaultSpec, JobResult,
    JobSpec, ServeError, SimSpec, Workload,
};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const WARM_ID: u32 = 1;
/// Jobs checked byte for byte against the in-process executor.
const SPOT_CHECKS: usize = 8;
/// Jobs per window (five that stream their trace, fifteen that do not:
/// about 0.1 s), short so that a quiet moment of the host holds whole
/// windows; the traced pass also switches tracing on and off at this
/// boundary.
const BLOCK: usize = 20;
/// Daemon start + connect + `register_warm`, measured this many times.
const SETUPS: usize = 15;

fn sim(o: &Opts) -> SimSpec {
    SimSpec {
        workload: Workload::Contended {
            outer: if o.smoke { 100 } else { 1000 },
            inner: 0,
        },
        ..SimSpec::default()
    }
}

/// Job `i` of the sweep: fault seed derived from `--seed`, every
/// fourth job asking for its semantic trace.
fn job(o: &Opts, i: usize, warm_cycles: u64) -> JobSpec {
    JobSpec {
        sim: sim(o),
        fault: Some(FaultSpec {
            seed: o.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64,
            drop: 0.0,
            dup: 0.0,
            delay: 0.02,
            max_delay: 16,
        }),
        warm: Some(WARM_ID),
        warm_cycles,
        max_cycles: 50_000_000,
        want_trace: i % 4 == 3,
    }
}

struct Daemon {
    thread: JoinHandle<Result<DaemonReport, ServeError>>,
    client: Client,
    /// Raw seconds `register_warm` took.
    register_raw_s: f64,
}

impl Daemon {
    /// Starts the daemon with one worker, connects, and registers the
    /// warm image: everything a sweep needs before its first job.
    fn start(socket: &Path, o: &Opts, warm_cycles: u64, tr: &mut Tracer) -> Daemon {
        let cfg = DaemonConfig {
            socket: socket.to_path_buf(),
            threads: 1,
        };
        let thread = std::thread::spawn(move || serve(&cfg));
        let mut client = loop {
            match Client::connect(socket, "benchmark") {
                Ok(c) => break c,
                Err(_) if !thread.is_finished() => std::thread::sleep(Duration::from_micros(200)),
                Err(e) => panic!("daemon exited before accepting: {e}"),
            }
        };
        let span = tr.begin("serve.register_warm");
        let t0 = Instant::now();
        client
            .register_warm(WARM_ID, &sim(o), warm_cycles)
            .expect("warm registration");
        let register_raw_s = t0.elapsed().as_secs_f64();
        tr.end(span);
        Daemon {
            thread,
            client,
            register_raw_s,
        }
    }

    /// Drains, and waits for the daemon thread to end.
    fn stop(mut self) {
        self.client.shutdown(false).expect("shutdown");
        self.thread
            .join()
            .expect("daemon thread panicked")
            .expect("daemon errored");
    }
}

/// One job through the socket: `(latency_s, ack_s, result)`.
fn one_job(client: &mut Client, id: u32, spec: &JobSpec, tr: &mut Tracer) -> (f64, f64, JobResult) {
    let span = tr.begin("serve.job");
    let t0 = Instant::now();
    let ack = tr.begin("serve.submit_ack");
    client.submit(id, spec).expect("submit");
    tr.end(ack);
    let ack_s = t0.elapsed().as_secs_f64();
    let wait = tr.begin("serve.collect");
    let result = client.collect(1).expect("collect").remove(0);
    tr.end(wait);
    let latency = t0.elapsed().as_secs_f64();
    tr.end(span);
    (latency, ack_s, result)
}

/// A socket path short enough for `sun_path`: relative to the working
/// directory when the output directory lies under it.
fn socket_path(out_dir: &Path) -> PathBuf {
    let name = format!("serve-{}.sock", std::process::id());
    let dir = std::env::current_dir()
        .ok()
        .and_then(|cwd| out_dir.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| out_dir.to_path_buf());
    dir.join(name)
}

pub fn run_serve(o: &Opts, out_dir: &Path) -> Report {
    let epoch = Instant::now();
    let mut rep = Report::default();
    let socket = socket_path(out_dir);

    // Where the warm image is cut: three quarters of the way to
    // quiescence, so a cold job would mostly re-execute warm-up.
    let probe = run_job(
        &JobSpec {
            sim: sim(o),
            max_cycles: 50_000_000,
            ..JobSpec::default()
        },
        None,
    )
    .expect("probe run");
    let warm_cycles = (probe.cycles * 3 / 4).max(1);

    let mut setup_spans = Tracer::new(o.trace, epoch);
    let mut daemon = None;
    for i in 0..SETUPS {
        let watch = Stopwatch::start();
        let d = Daemon::start(&socket, o, warm_cycles, &mut setup_spans);
        let setup = watch.stop();
        rep.setups.push(setup);
        rep.layers.put(
            "serve.register_warm_ms",
            d.register_raw_s * setup.factor() * 1e3,
        );
        if i + 1 < SETUPS {
            d.stop();
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("at least one set-up");
    rep.spans.push(setup_spans.spans().to_vec());

    let mut latencies = Vec::new();
    let mut traced_latencies = Vec::new();
    let mut spot = Vec::new();
    let mut sweep_wall = 0.0;
    let mut next_id = 0usize;
    loop {
        let traced = o.trace && (next_id / BLOCK) % 2 == 1;
        let mut tr = Tracer::new(traced, epoch);
        let (mut cycles, mut instrs) = (0u64, 0u64);
        // Raw milliseconds per job, scaled once the block's host speed
        // is known: (latency, ack, executor set-up, executor run).
        let mut raw_ms = Vec::with_capacity(BLOCK);
        let watch = Stopwatch::start();
        for _ in 0..BLOCK {
            let spec = job(o, next_id, warm_cycles);
            let (latency, ack_s, result) =
                one_job(&mut daemon.client, next_id as u32, &spec, &mut tr);
            rep.attempted += 1;
            match &result.summary {
                Some(s) if s.fault.is_empty() && s.warm_used => {
                    cycles += s.cycles;
                    instrs += s.instrs;
                    let l = &mut rep.layers;
                    if spot.len() < SPOT_CHECKS {
                        // Counts come from the same first jobs every
                        // run, however many jobs the run has time for.
                        l.put("sim.cycles", s.cycles as f64);
                        l.put("core.instructions", s.instrs as f64);
                    }
                    l.put("serve.stats_bytes_per_job", result.stats_json.len() as f64);
                    if let Some(t) = &result.trace_jsonl {
                        l.put("serve.trace_bytes_per_job", t.len() as f64);
                    }
                    raw_ms.push([
                        latency * 1e3,
                        ack_s * 1e3,
                        s.setup_ns as f64 / 1e6,
                        s.run_ns as f64 / 1e6,
                    ]);
                }
                Some(s) if !s.warm_used => rep.fail(format!("job {next_id} ran cold")),
                Some(s) => rep.fail(format!("job {next_id} faulted: {}", s.fault)),
                None => rep.fail(format!("job {next_id} did not run: {:?}", result.error)),
            }
            if spot.len() < SPOT_CHECKS {
                spot.push((spec, result));
            }
            next_id += 1;
        }
        let wall = watch.stop();
        let factor = wall.factor();
        sweep_wall += wall.calibrated_s();
        let job_raw_ms = median(&raw_ms.iter().map(|r| r[0]).collect::<Vec<_>>());
        for [latency, ack, exec_setup, exec_run] in raw_ms {
            let l = &mut rep.layers;
            l.put("serve.submit_ack_ms_p50", ack * factor);
            l.put("serve.exec.setup_ms_p50", exec_setup * factor);
            l.put("serve.exec.run_ms_p50", exec_run * factor);
            l.put(
                "serve.overhead_ms_p50",
                (latency - exec_setup - exec_run) * factor,
            );
            if traced {
                traced_latencies.push(latency * factor);
            } else {
                latencies.push(latency * factor);
            }
        }
        rep.layers.put("host.calib_step_ns", wall.step_ns());
        if traced {
            rep.spans.push(tr.spans().to_vec());
        } else {
            rep.windows.push(Window {
                wall,
                cycles,
                instrs,
                job_raw_ms,
            });
        }
        let enough = !o.trace || !traced_latencies.is_empty();
        if enough && epoch.elapsed().as_secs_f64() >= o.seconds {
            break;
        }
    }
    daemon.stop();

    // The oracle: the daemon's answers are the in-process executor's.
    let img = build_warm_image(&sim(o), warm_cycles).expect("warm image");
    let mut identity = Vec::new();
    let mut inproc_raw_ms = Vec::new();
    let watch = Stopwatch::start();
    for (spec, via_socket) in &spot {
        let t0 = Instant::now();
        let direct = run_job(spec, Some(&img)).expect("in-process job");
        inproc_raw_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        rep.attempted += 1;
        if direct.stats_json != via_socket.stats_json
            || direct.trace_jsonl != via_socket.trace_jsonl
        {
            rep.fail(format!(
                "job {}: daemon result differs from in-process run_job",
                via_socket.job_id
            ));
        }
        identity.extend_from_slice(direct.stats_json.as_bytes());
    }
    let inproc_factor = watch.stop().factor();

    rep.peak_rss_mb = peak_rss_mb();
    if o.trace {
        let l = &mut rep.layers;
        l.put(
            "serve.inproc_job_ms_p50",
            median(&inproc_raw_ms) * inproc_factor,
        );
        l.put("serve.jobs_per_s", next_id as f64 / sweep_wall);
        l.put("serve.job_ms_p95", percentile(&latencies, 95.0));
        l.put(
            "trace.overhead_share",
            quiet(&traced_latencies, false) / quiet(&latencies, false) - 1.0,
        );
        l.put("sim.stats_digest", (digest(&identity) & DIGEST_MASK) as f64);
    }
    rep
}

//! End-to-end daemon tests: determinism under concurrency, warm-start
//! equivalence over the wire, shutdown semantics, and protocol
//! policing.
//!
//! The determinism contract under test: a job's stats JSON and
//! semantic trace JSONL are a pure function of its spec (plus warm
//! image) — independent of the daemon's worker-pool size, of what
//! other jobs run concurrently, of completion order, and of whether
//! setup was a cold boot or a warm fork.

use april_serve::{
    run_job, serve, Client, DaemonConfig, DaemonReport, FaultSpec, Frame, JobSpec, ServeError,
    SimSpec, Workload, PROTO_VERSION,
};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::Duration;

const WARM: u64 = 300;

fn sock(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "april-serve-test-{}-{name}.sock",
        std::process::id()
    ))
}

fn sim() -> SimSpec {
    SimSpec {
        radix: 2,
        dim: 2,
        workload: Workload::Contended {
            outer: 40,
            inner: 0,
        },
        ..SimSpec::default()
    }
}

fn job(seed: u64, warm: Option<u32>) -> JobSpec {
    JobSpec {
        sim: sim(),
        fault: Some(FaultSpec {
            seed,
            drop: 0.01,
            dup: 0.01,
            delay: 0.04,
            max_delay: 40,
        }),
        warm,
        warm_cycles: WARM,
        max_cycles: 3_000_000,
        want_trace: true,
    }
}

fn start_daemon(
    socket: &Path,
    threads: usize,
) -> thread::JoinHandle<Result<DaemonReport, ServeError>> {
    let cfg = DaemonConfig {
        socket: socket.to_path_buf(),
        threads,
    };
    thread::spawn(move || serve(&cfg))
}

fn connect(socket: &Path) -> Client {
    for _ in 0..200 {
        if let Ok(c) = Client::connect(socket, "test") {
            return c;
        }
        thread::sleep(Duration::from_millis(5));
    }
    panic!("daemon on {} never came up", socket.display());
}

#[test]
fn warm_jobs_over_the_wire_match_in_process_cold_runs() {
    let socket = sock("warm-eq");
    let daemon = start_daemon(&socket, 3);
    let mut client = connect(&socket);
    client.register_warm(1, &sim(), WARM).unwrap();

    let seeds = [11u64, 22, 33, 44, 55, 66];
    for (i, seed) in seeds.iter().enumerate() {
        client.submit(i as u32, &job(*seed, Some(1))).unwrap();
    }
    let results = client.collect(seeds.len()).unwrap();
    assert_eq!(results.len(), seeds.len());

    for (i, seed) in seeds.iter().enumerate() {
        let r = &results[i];
        assert_eq!(r.job_id, i as u32);
        let s = r.summary.as_ref().expect("job should have run");
        assert!(s.warm_used);
        assert!(s.fault.is_empty(), "job faulted: {}", s.fault);
        // The cold in-process reference re-executes the warmup instead
        // of forking the image; byte-identical outputs required.
        let cold = run_job(&job(*seed, None), None).unwrap();
        assert_eq!(r.stats_json, cold.stats_json, "seed {seed}: stats diverged");
        assert_eq!(
            r.trace_jsonl.as_deref(),
            cold.trace_jsonl.as_deref(),
            "seed {seed}: trace diverged"
        );
        assert_eq!(s.cycles, cold.cycles);
        assert_eq!(s.instrs, cold.instrs);
    }

    let report = client.shutdown(false).unwrap();
    assert_eq!(report.completed, seeds.len() as u64);
    assert_eq!(report.canceled, 0);
    let dr = daemon.join().unwrap().unwrap();
    assert_eq!(dr.completed, seeds.len() as u64);
    assert_eq!(dr.warm_images, 1);
}

#[test]
fn pool_size_does_not_affect_results() {
    // Same job set against a 3-worker daemon and a 1-worker daemon;
    // completion order differs, per-job bytes must not.
    let run_with = |threads: usize, tag: &str| {
        let socket = sock(&format!("pool-{tag}"));
        let daemon = start_daemon(&socket, threads);
        let mut client = connect(&socket);
        client.register_warm(1, &sim(), WARM).unwrap();
        // A mixed batch: warm and cold jobs interleaved.
        for i in 0..8u32 {
            let warm = (i % 2 == 0).then_some(1);
            client.submit(i, &job(100 + i as u64 / 2, warm)).unwrap();
        }
        let results = client.collect(8).unwrap();
        client.shutdown(false).unwrap();
        daemon.join().unwrap().unwrap();
        results
            .into_iter()
            .map(|r| (r.job_id, r.stats_json, r.trace_jsonl))
            .collect::<Vec<_>>()
    };
    let wide = run_with(3, "wide");
    let narrow = run_with(1, "narrow");
    assert_eq!(wide, narrow);
    // Warm/cold pairs with the same seed: byte-identical too.
    for pair in wide.chunks(2) {
        assert_eq!(pair[0].1, pair[1].1, "warm/cold pair diverged");
        assert_eq!(pair[0].2, pair[1].2, "warm/cold pair trace diverged");
    }
}

#[test]
fn drain_shutdown_finishes_every_accepted_job() {
    let socket = sock("drain");
    let daemon = start_daemon(&socket, 2);
    let mut client = connect(&socket);
    for i in 0..5u32 {
        client.submit(i, &job(7 + i as u64, None)).unwrap();
    }
    // Shutdown immediately: drain mode still runs all five.
    let report = client.shutdown(false).unwrap();
    assert_eq!(report.completed, 5);
    assert_eq!(report.canceled, 0);
    let done: Vec<u32> = report
        .results
        .iter()
        .filter(|r| r.summary.is_some())
        .map(|r| r.job_id)
        .collect();
    assert_eq!(done, vec![0, 1, 2, 3, 4]);
    daemon.join().unwrap().unwrap();
}

#[test]
fn cancel_shutdown_accounts_for_every_job() {
    let socket = sock("cancel");
    let daemon = start_daemon(&socket, 1);
    let mut client = connect(&socket);
    let total = 6u32;
    for i in 0..total {
        client.submit(i, &job(900 + i as u64, None)).unwrap();
    }
    let report = client.shutdown(true).unwrap();
    // Every accepted job is accounted for: ran or canceled, none lost.
    assert_eq!(report.completed + report.canceled, total as u64);
    assert!(
        report.canceled > 0,
        "single worker cannot have run all six before the cancel"
    );
    let mut seen: Vec<u32> = report.results.iter().map(|r| r.job_id).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..total).collect::<Vec<_>>());
    // Canceled jobs are exactly the queued tail, in submission order.
    let canceled: Vec<u32> = report
        .results
        .iter()
        .filter(|r| r.canceled)
        .map(|r| r.job_id)
        .collect();
    assert_eq!(
        canceled,
        ((total - report.canceled as u32)..total).collect::<Vec<_>>()
    );
    let dr = daemon.join().unwrap().unwrap();
    assert_eq!(dr.completed + dr.canceled, total as u64);
}

#[test]
fn version_mismatch_is_refused_at_handshake() {
    let socket = sock("version");
    let daemon = start_daemon(&socket, 1);
    // Raw socket: speak a future protocol version.
    let mut stream = {
        let mut s = None;
        for _ in 0..200 {
            if let Ok(c) = UnixStream::connect(&socket) {
                s = Some(c);
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        s.expect("daemon never came up")
    };
    stream
        .write_all(
            &Frame::Hello {
                version: PROTO_VERSION + 1,
                client: "from-the-future".into(),
            }
            .encode(),
        )
        .unwrap();
    match Frame::read_from(&mut stream).unwrap() {
        Frame::Error { message } => assert!(message.contains("version"), "{message}"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    // And the daemon closed the connection.
    assert!(matches!(
        Frame::read_from(&mut stream),
        Err(ServeError::Closed) | Err(ServeError::Protocol(_)) | Err(ServeError::Io(_))
    ));
    let mut client = connect(&socket);
    client.shutdown(false).unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn unknown_or_mismatched_warm_images_are_job_errors() {
    let socket = sock("badwarm");
    let daemon = start_daemon(&socket, 1);
    let mut client = connect(&socket);
    // Unknown warm id.
    client.submit(0, &job(1, Some(99))).unwrap();
    // Registered image, but the job asks for a different machine.
    client.register_warm(1, &sim(), WARM).unwrap();
    let mut wrong = job(1, Some(1));
    wrong.sim.mem_latency += 5;
    client.submit(1, &wrong).unwrap();
    // Wrong warm cycle.
    let mut off = job(1, Some(1));
    off.warm_cycles = WARM + 1;
    client.submit(2, &off).unwrap();
    // A correct job still runs on the same connection afterwards.
    client.submit(3, &job(1, Some(1))).unwrap();
    let results = client.collect(4).unwrap();
    assert!(results[0]
        .error
        .as_deref()
        .unwrap()
        .contains("unknown warm image"));
    assert!(results[1].error.as_deref().unwrap().contains("warm"));
    assert!(results[2]
        .error
        .as_deref()
        .unwrap()
        .contains("cut at cycle"));
    assert!(results[3].summary.is_some());
    client.shutdown(false).unwrap();
    daemon.join().unwrap().unwrap();
}

#[test]
fn ping_round_trips() {
    let socket = sock("ping");
    let daemon = start_daemon(&socket, 1);
    let mut client = connect(&socket);
    client.ping(0xfeed).unwrap();
    client.shutdown(false).unwrap();
    daemon.join().unwrap().unwrap();
    assert!(
        !socket.exists(),
        "socket file should be removed on shutdown"
    );
}

#[test]
fn budget_cut_between_last_halt_and_drain_reports_the_same_on_every_scheduler() {
    use april_machine::{drive_sequential, Alewife, Machine, SwitchSpin};

    // Find the gap: the last `halt` retires while the final flush's
    // write-back and acknowledgement are still in the network.
    let mut probe = Alewife::new(sim().machine_config(), sim().program().unwrap());
    probe.boot_all();
    assert_eq!(
        drive_sequential(&mut probe, &SwitchSpin::default(), 3_000_000),
        None
    );
    let last_halt = probe.halted_cycles().iter().flatten().max().copied();
    let last_halt = last_halt.expect("every node halts");
    let drained = probe.now();
    assert!(
        last_halt + 1 < drained,
        "workload leaves no halt-to-drain gap ({last_halt} vs {drained})"
    );

    // A budget inside the gap: every CPU has halted, the machine has
    // not quiesced. One `finished()` predicate decides, so the verdict
    // cannot depend on which scheduler ran the job.
    let outcome = |lockstep: bool| {
        let spec = JobSpec {
            sim: SimSpec { lockstep, ..sim() },
            max_cycles: last_halt + 1,
            ..JobSpec::default()
        };
        run_job(&spec, None).unwrap()
    };
    let reference = outcome(true);
    assert_eq!(reference.fault.as_deref(), Some("budget exhausted"));
    assert_eq!(reference.cycles, last_halt + 1);
    let event = outcome(false);
    assert_eq!(event.fault, reference.fault, "event: fault diverged");
    assert_eq!(event.cycles, reference.cycles, "event");
    assert_eq!(
        event.stats_json, reference.stats_json,
        "event: stats diverged"
    );
}

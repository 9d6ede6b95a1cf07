//! The april-serve command-line front end.
//!
//! ```text
//! april-serve daemon   --socket PATH [--threads N]
//! april-serve sweep    --socket PATH [--points N] [--warm-cycles C] [--cold] ...
//! april-serve ping     --socket PATH
//! april-serve shutdown --socket PATH [--cancel]
//! ```
//!
//! `daemon` runs in the foreground until a client sends shutdown.
//! `sweep` is the reference client: it registers one warm image (or
//! skips that with `--cold`), submits a fault-seed sweep of
//! `--points` jobs, and prints a per-job table plus setup-time
//! medians — the over-the-socket equivalent of the in-process
//! `sweep` harness. See README "Running april-serve".

use april_serve::{serve, Client, DaemonConfig, FaultSpec, JobResult, JobSpec, SimSpec, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    argv: Vec<String>,
}

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.argv.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.argv
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.argv.get(i + 1))
            .map(|s| s.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} wants a number, got {v:?}")),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: april-serve <daemon|sweep|ping|shutdown> --socket PATH [options]
  daemon    --socket PATH [--threads N]
  sweep     --socket PATH [--points N] [--warm-cycles C] [--cold] [--trace]
            [--radix R] [--dim D] [--outer O] [--inner I] [--mem-latency L]
            [--seed S] [--drop P] [--dup P] [--delay P] [--max-delay D]
            [--max-cycles M]
  ping      --socket PATH
  shutdown  --socket PATH [--cancel]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        return usage();
    };
    let args = Args {
        argv: argv[1..].to_vec(),
    };
    let Some(socket) = args.value("--socket").map(PathBuf::from) else {
        eprintln!("april-serve {cmd}: --socket PATH is required");
        return usage();
    };
    let run = match cmd.as_str() {
        "daemon" => cmd_daemon(&args, socket),
        "sweep" => cmd_sweep(&args, &socket),
        "ping" => cmd_ping(&socket),
        "shutdown" => cmd_shutdown(&args, &socket),
        _ => return usage(),
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("april-serve {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_daemon(args: &Args, socket: PathBuf) -> Result<(), String> {
    let threads = args.num("--threads", 4usize)?;
    let cfg = DaemonConfig { socket, threads };
    println!(
        "april-serve: listening on {} with {} worker threads",
        cfg.socket.display(),
        cfg.threads.max(1)
    );
    let report = serve(&cfg).map_err(|e| e.to_string())?;
    println!(
        "april-serve: shut down after {} connections, {} jobs completed, {} canceled",
        report.connections, report.completed, report.canceled
    );
    Ok(())
}

fn cmd_ping(socket: &Path) -> Result<(), String> {
    let mut client = Client::connect(socket, "april-serve-ping").map_err(|e| e.to_string())?;
    client.ping(0x1234).map_err(|e| e.to_string())?;
    println!(
        "pong from {} ({} worker threads)",
        socket.display(),
        client.pool_threads()
    );
    Ok(())
}

fn cmd_shutdown(args: &Args, socket: &Path) -> Result<(), String> {
    let cancel = args.flag("--cancel");
    let mut client = Client::connect(socket, "april-serve-shutdown").map_err(|e| e.to_string())?;
    let report = client.shutdown(cancel).map_err(|e| e.to_string())?;
    println!(
        "daemon exited: {} jobs completed, {} canceled",
        report.completed, report.canceled
    );
    Ok(())
}

fn cmd_sweep(args: &Args, socket: &Path) -> Result<(), String> {
    let points: u32 = args.num("--points", 8)?;
    let warm_cycles: u64 = args.num("--warm-cycles", 3000)?;
    let cold = args.flag("--cold");
    let want_trace = args.flag("--trace");
    let sim = SimSpec {
        radix: args.num("--radix", 4)?,
        dim: args.num("--dim", 2)?,
        mem_latency: args.num("--mem-latency", 10)?,
        workload: Workload::Contended {
            outer: args.num("--outer", 300)?,
            inner: args.num("--inner", 0)?,
        },
        ..SimSpec::default()
    };
    let seed: u64 = args.num("--seed", 0xA981_1990)?;
    let fault = FaultSpec {
        seed,
        drop: args.num("--drop", 0.0)?,
        dup: args.num("--dup", 0.0)?,
        delay: args.num("--delay", 0.02)?,
        max_delay: args.num("--max-delay", 16)?,
    };
    let max_cycles: u64 = args.num("--max-cycles", 50_000_000)?;

    let mut client = Client::connect(socket, "april-serve-sweep").map_err(|e| e.to_string())?;
    let warm = if cold {
        None
    } else {
        let info = client
            .register_warm(1, &sim, warm_cycles)
            .map_err(|e| e.to_string())?;
        println!(
            "warm image ready: cut at cycle {}, {} snapshot bytes, built in {:.1} ms",
            info.cycle,
            info.snap_bytes,
            info.build_ns as f64 / 1e6
        );
        Some(1u32)
    };

    for i in 0..points {
        let spec = JobSpec {
            sim,
            fault: Some(FaultSpec {
                seed: fault.seed.wrapping_add(i as u64),
                ..fault
            }),
            warm,
            warm_cycles,
            max_cycles,
            want_trace,
        };
        client.submit(i, &spec).map_err(|e| e.to_string())?;
    }
    let results = client.collect(points as usize).map_err(|e| e.to_string())?;

    println!(
        "{:>4} {:>5} {:>10} {:>10} {:>6} {:>6} {:>9} {:>9}  outcome",
        "job", "warm", "cycles", "instrs", "util", "delays", "setup ms", "run ms"
    );
    let mut setups = Vec::new();
    let mut failed = 0usize;
    for r in &results {
        match (&r.summary, &r.error, r.canceled) {
            (Some(s), _, _) => {
                setups.push(s.setup_ns);
                println!(
                    "{:>4} {:>5} {:>10} {:>10} {:>6.3} {:>6} {:>9.2} {:>9.2}  {}",
                    r.job_id,
                    s.warm_used,
                    s.cycles,
                    s.instrs,
                    s.utilization,
                    s.delays,
                    s.setup_ns as f64 / 1e6,
                    s.run_ns as f64 / 1e6,
                    if s.fault.is_empty() { "ok" } else { &s.fault }
                );
            }
            (None, Some(e), _) => {
                failed += 1;
                println!("{:>4} job error: {e}", r.job_id);
            }
            _ => {
                failed += 1;
                println!("{:>4} canceled", r.job_id);
            }
        }
    }
    if !setups.is_empty() {
        setups.sort_unstable();
        println!(
            "sweep done: {} jobs, median setup {:.2} ms ({})",
            results.len(),
            setups[setups.len() / 2] as f64 / 1e6,
            if cold { "cold boots" } else { "warm forks" }
        );
    }
    if failed > 0 {
        return Err(format!("{failed} of {} jobs did not run", results.len()));
    }
    check_outcomes(&results)
}

/// The sweep's sanity gate: every job ran, and jobs are mutually
/// consistent (same machine, different fault seeds ⇒ same warm mode).
fn check_outcomes(results: &[JobResult]) -> Result<(), String> {
    let modes: Vec<bool> = results
        .iter()
        .filter_map(|r| r.summary.as_ref().map(|s| s.warm_used))
        .collect();
    if modes.windows(2).any(|w| w[0] != w[1]) {
        return Err("jobs disagree about warm mode".into());
    }
    Ok(())
}

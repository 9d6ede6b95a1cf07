//! The repository benchmark (see `README.md` beside this package and
//! `BENCHMARK.json` at the repository root).
//!
//! `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//! this process and prints every metric by name with its unit; the last
//! line of standard output is the result object the driver reads.
//! `--all` and `--agree` run every workload, each in a fresh process.

mod kernels;
mod measure;
mod names;
mod output;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{ckpt, fib, loops, run_batch, serve, Opts, Report};

/// Where result files, traces and the daemon's socket go.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_workload(name: &str, o: &Opts) -> Option<Report> {
    let mut rep = match name {
        "stall_heavy_16node" => run_batch(&loops::stall_heavy(o), o),
        "compute_16node" => run_batch(&loops::compute(o), o),
        "fanin_1089node" => run_batch(&loops::fanin(o), o),
        "mult_fib_lazy_16node" => run_batch(&fib::fib(o), o),
        "ckpt2000_16node" => run_batch(&ckpt::ckpt(o), o),
        "serve_warm_sweep" => serve::run_serve(o, &out_dir()),
        _ => return None,
    };
    if o.trace {
        let budget = Duration::from_millis(if o.smoke { 5 } else { 60 });
        match name {
            "compute_16node" => kernels::core(budget, &mut rep.layers),
            "stall_heavy_16node" => kernels::mem_and_net(budget, &mut rep.layers),
            _ => {}
        }
    }
    for why in rep.layers.problems().to_vec() {
        rep.fail(format!("unmeasured layer value: {why}"));
    }
    Some(rep)
}

struct Args {
    workload: Option<String>,
    opts: Opts,
    mode: Mode,
    /// Seeds per set of `--agree`: the driver judges on ten.
    seeds: u64,
}

enum Mode {
    One,
    All,
    Agree,
    PrintBenchmarkJson,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        opts: Opts {
            seed: 1,
            seconds: f64::from(names::RUN_SECONDS),
            trace: false,
            smoke: false,
        },
        mode: Mode::One,
        seeds: 10,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                args.opts.seconds = s;
            }
            "--trace" => {
                args.opts.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--seeds" => {
                args.seeds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--seeds takes a number from 1 up")?;
            }
            "--smoke" => args.opts.smoke = true,
            "--all" => args.mode = Mode::All,
            "--agree" => args.mode = Mode::Agree,
            "--print-benchmark-json" => args.mode = Mode::PrintBenchmarkJson,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

const USAGE: &str =
    "usage: april-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       april-benchmark --all [--seed N] [--seconds S] [--smoke]
       april-benchmark --agree [--seeds K] [--seed N] [--seconds S] [--smoke]
       april-benchmark --print-benchmark-json";

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Both variables change what the simulator does; a number taken
    // with either set is not what a default user gets.
    for var in ["APRIL_DECODE", "BENCH_SMOKE"] {
        if std::env::var_os(var).is_some() {
            eprintln!("refusing to measure with {var} set");
            return ExitCode::from(2);
        }
    }
    match args.mode {
        Mode::PrintBenchmarkJson => {
            print!("{}", names::benchmark_json());
            ExitCode::SUCCESS
        }
        Mode::All => suite::run_all(&args.opts),
        Mode::Agree => suite::agree(&args.opts, args.seeds),
        Mode::One => {
            let Some(name) = args.workload else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            if let Err(e) = std::fs::create_dir_all(out_dir()) {
                eprintln!("cannot create {}: {e}", out_dir().display());
                return ExitCode::from(2);
            }
            let Some(rep) = run_workload(&name, &args.opts) else {
                let known: Vec<_> = names::WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("unknown workload {name}; one of {}", known.join(", "));
                return ExitCode::from(2);
            };
            output::emit(&name, &args.opts, &rep, &out_dir());
            ExitCode::SUCCESS
        }
    }
}

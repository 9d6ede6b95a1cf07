//! The harness against its contract: `BENCHMARK.json` is what the name
//! tables generate, and a smoke run of every workload emits exactly the
//! declared metric names, correct.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_april-benchmark");

fn declared() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `"name"` values between the keys `from` and `to` of the file.
fn names(json: &str, from: &str, to: Option<&str>) -> Vec<String> {
    let start = json.find(&format!("\"{from}\"")).expect("section key");
    let end = to.map_or(json.len(), |t| {
        json.find(&format!("\"{t}\"")).expect("section key")
    });
    json[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("closing quote").to_string())
        .collect()
}

fn run(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .env_remove("APRIL_DECODE")
        .env_remove("BENCH_SMOKE")
        .output()
        .expect("harness runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Metric names of a result line, in order.
fn emitted(line: &str) -> Vec<String> {
    line.split("\": {\"value\": ")
        .filter_map(|piece| piece.rsplit('"').next())
        .map(str::to_string)
        .collect::<Vec<_>>()
        .split_last()
        .map(|(_, names)| names.to_vec())
        .unwrap_or_default()
}

#[test]
fn benchmark_json_is_generated_from_the_tables() {
    assert_eq!(run(&["--print-benchmark-json"]), declared());
}

#[test]
fn declared_names_are_well_formed() {
    let json = declared();
    let all = [
        names(&json, "workloads", Some("end_to_end")),
        names(&json, "end_to_end", Some("per_layer")),
        names(&json, "per_layer", None),
    ]
    .concat();
    for (i, n) in all.iter().enumerate() {
        assert!(
            !n.is_empty()
                && n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad name {n:?}"
        );
        assert!(!all[..i].contains(n), "name {n:?} is used twice");
    }
    assert!(names(&json, "end_to_end", Some("per_layer")).contains(&"setup_s".to_string()));
}

#[test]
fn smoke_runs_emit_exactly_the_declared_metrics() {
    let json = declared();
    let workloads = names(&json, "workloads", Some("end_to_end"));
    let end_to_end = names(&json, "end_to_end", Some("per_layer"));
    let per_layer = names(&json, "per_layer", None);
    assert_eq!(workloads.len(), 6);
    for w in &workloads {
        for (trace, want) in [("0", &end_to_end), ("1", &per_layer)] {
            let out = run(&[
                "--workload",
                w,
                "--seed",
                "5",
                "--seconds",
                "0.2",
                "--trace",
                trace,
                "--smoke",
            ]);
            let last = out.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{w} trace {trace}: {last}"
            );
            assert_eq!(&emitted(last), want, "{w} trace {trace}");
            if trace == "1" {
                for name in exercised(w) {
                    let line = out.lines().find(|l| l.starts_with(&format!("{name} ")));
                    assert!(
                        line.is_some_and(|l| !l.contains("not exercised")),
                        "{w} must measure {name}: {line:?}"
                    );
                }
            }
        }
    }
}

/// Layer metrics only this workload's traced pass can give.
fn exercised(workload: &str) -> &'static [&'static str] {
    match workload {
        "stall_heavy_16node" => &[
            "machine.advance_s",
            "machine.driver_s",
            "mem.directory.rd_wr_inval_ns",
            "net.send_deliver_ns",
            "obs.trace_slowdown",
        ],
        "compute_16node" => &["machine.advance_s", "core.step_ns"],
        "fanin_1089node" => &["machine.advance_ns_per_node_visit", "machine.construct_s"],
        "mult_fib_lazy_16node" => &[
            "mult.compile_ms",
            "machine.advance_s",
            "runtime.self_s",
            "runtime.lazy_steals",
        ],
        "ckpt2000_16node" => &[
            "machine.snapshot.checkpoint_ms",
            "machine.recovery.overhead_share",
        ],
        "serve_warm_sweep" => &["serve.overhead_ms_p50", "serve.trace_bytes_per_job"],
        other => panic!("no expectations for workload {other}"),
    }
}

#[test]
fn two_smoke_sets_agree_on_every_count() {
    let out = run(&["--agree", "--smoke", "--seconds", "0.2", "--seeds", "2"]);
    assert!(out.contains("# all workloads correct"), "{out}");
}

#[test]
fn refuses_to_measure_a_non_default_simulator() {
    let out = Command::new(BIN)
        .args([
            "--workload",
            "compute_16node",
            "--smoke",
            "--seconds",
            "0.2",
        ])
        .env("APRIL_DECODE", "0")
        .output()
        .expect("harness runs");
    assert!(!out.status.success());
}

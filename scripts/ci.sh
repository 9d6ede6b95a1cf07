#!/usr/bin/env sh
# Full local CI: build, test, docs, examples, formatting, and lints for
# the whole workspace. Everything runs offline — the workspace has no
# external dependencies.
#
# Each `stage` is timed; a wall-time summary table prints at the end
# (and on failure, together with the name of the stage that failed).
set -eu

cd "$(dirname "$0")/.."

STAGE_LOG="$(mktemp)"
CURRENT_STAGE=""
stage_start=0

finish_stage() {
    if [ -n "$CURRENT_STAGE" ]; then
        printf '%s\t%s\n' "$CURRENT_STAGE" "$(($(date +%s) - stage_start))" >>"$STAGE_LOG"
        CURRENT_STAGE=""
    fi
}

on_exit() {
    status=$?
    if [ $status -ne 0 ] && [ -n "$CURRENT_STAGE" ]; then
        echo "CI FAILED in stage: $CURRENT_STAGE" >&2
    fi
    finish_stage
    if [ -s "$STAGE_LOG" ]; then
        echo
        echo "== per-stage wall time =="
        awk -F'\t' '{ total += $2; printf "  %-50s %5ss\n", $1, $2 }
                    END { printf "  %-50s %5ss\n", "total", total }' "$STAGE_LOG"
    fi
    rm -f "$STAGE_LOG"
    exit $status
}
trap on_exit EXIT

stage() {
    finish_stage
    CURRENT_STAGE="$1"
    stage_start=$(date +%s)
    echo "== $1 =="
}

stage "build (release)"
cargo build --release --workspace

stage "tests"
cargo test -q --workspace

stage "benchmark package tests (public-API guard)"
# benchmark/ is a package of its own that path-depends on crates/*
# through their public API only; an API break would otherwise surface
# when the benchmark driver fails to build. Its contract tests ride
# along.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

stage "benchmark smoke (counts gated, times printed)"
# Every workload at tiny sizes, two sets of two seeds: fails if a run
# is incorrect or a deterministic count differs between the sets. Host
# speed is never gated (scripts/bench_compare.sh, run by hand).
sh benchmark/agree.sh --smoke

stage "lockstep/event scheduler equivalence (3 fault seeds)"
# The lockstep/event bit-exactness suite is part of the workspace tests
# above; run it again in release so the fault-soak seeds and the
# 1089-node fan-in execute at full depth quickly. Lockstep never books
# a run, so the suite is also the per-instruction referee of the event
# scheduler's booked runs.
cargo test -q --release -p april-machine --test lockstep_vs_skip

stage "booked runs against step and lockstep (release)"
# The CPU referee's 2,000-seed sweep of compiled-code-shaped programs
# (branches, calls, tagged ops, every load and store flavor, seeded
# misses) through run-ahead and through Cpu::step, and the Mul-T stack
# checkpointed at eight cuts under both schedulers, byte for byte.
cargo test -q --release -p april-core --test decoded_prop
cargo test -q --release --test snapshot_cuts

stage "the paper's programs on the paper's machine (release)"
# Mul-T under Runtime<Alewife> on 2x2x2, 4x4 and 5x5 meshes whose
# direct-mapped caches alias every node's run-time layout: the five
# eager runs that livelocked before fills were held for their frames,
# and eager and lazy queens(8), each under lockstep and the skip, equal
# in value and cycles and equal to the interpreter's value.
cargo test -q --release --test window

stage "1089-node directory-kind agreement (release)"
# Adds the suite's release-only case: a 33x33 mesh halts at the same
# final cycle under all three kinds, the sparse ones in less storage.
cargo test -q --release -p april-machine --test dir_kinds

stage "8,000-node footprint (release)"
# The paper's Table 4 machine (3-D mesh of radix 20, LimitedPtr{8})
# constructs and boots within a 150 MiB peak resident set: caches,
# memory and directories cost what they hold. Its own test binary, so
# the process's peak is this machine's alone.
cargo test -q --release -p april-machine --test footprint

stage "open-loop determinism suite (release)"
# Same seed => byte-identical arrival trace and latency report across
# lockstep and event-driven, under a fault seed, and across a mid-run
# checkpoint/restore cut.
cargo test -q --release -p april-machine --test openloop

stage "recovery soak (bounded)"
# Link-kill -> quarantine -> rollback -> re-execute across several
# killed channels and seeds, plus the recovered-vs-fresh bit-identity
# checks, in release so the re-executions run at full depth quickly.
cargo test -q --release -p april-machine --test recovery

stage "april-serve daemon smoke (release)"
# Simulation as a service (DESIGN.md §16, PROTOCOL.md): start the
# daemon, run a 3-point warm-started mini-sweep through the standalone
# client binary, ping it, and ask for a drain shutdown. The daemon
# process must exit 0 on its own — a wedged worker pool or an orphaned
# thread would hang the `wait` and fail the stage.
serve_sock="$(mktemp -u)"
target/release/april-serve daemon --socket "$serve_sock" --threads 2 &
serve_pid=$!
serve_up=0
for _ in $(seq 1 100); do
    if target/release/april-serve ping --socket "$serve_sock" 2>/dev/null; then
        serve_up=1
        break
    fi
    sleep 0.1
done
[ "$serve_up" -eq 1 ] || { echo "april-serve daemon never came up" >&2; exit 1; }
target/release/april-serve sweep --socket "$serve_sock" --points 3 --warm-cycles 500 --outer 60
target/release/april-serve shutdown --socket "$serve_sock"
wait "$serve_pid"
[ ! -S "$serve_sock" ] || { echo "april-serve left its socket file behind" >&2; exit 1; }

stage "warm-start equivalence suite (release)"
# Warm fork == cold boot, byte-identical in stats and semantic trace,
# on lockstep and event-driven — the contract the daemon's snapshot
# warm starts rest on.
cargo test -q --release -p april-machine --test warm_start
cargo test -q --release -p april-serve --test serve

stage "snapshot + protocol codec (release)"
# The golden APRL, APRT and frame encodings are pinned by the tier-1
# runs of these suites; release adds their deep hostile-input cases:
# every prefix of each frame and of the run-time payload, and
# truncations and flips at every section boundary of the machine
# snapshot, each of which must end in a typed error. The network crate
# adds its hostile queue restores and the paper-mesh routing case.
cargo test -q --release -p april-net
cargo test -q --release -p april-machine --test snapshot_roundtrip
cargo test -q --release -p april-runtime --test snapshot_codec
cargo test -q --release -p april-serve --test proto_codec

stage "docs (markdown links + rustdoc, warnings are errors)"
sh scripts/check_docs.sh

stage "doc tests"
cargo test -q --doc --workspace

stage "examples smoke (release)"
# Build and run every example; any non-zero exit fails CI.
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    echo "-- example: $name"
    cargo run -q --release --example "$name"
done

stage "rustfmt"
cargo fmt --all -- --check

stage "clippy"
cargo clippy --workspace --all-targets -- -D warnings -D clippy::perf

echo "CI green."

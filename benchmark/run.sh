#!/usr/bin/env sh
# One command for the whole benchmark: every workload of BENCHMARK.json,
# each in a fresh process, first untraced (the end-to-end metrics) and
# then traced (the per-layer metrics, out/trace.<workload>.json).
# Prints every metric by name with its unit and checks every output;
# exits non-zero if any workload is incorrect.
#
#   benchmark/run.sh                     # the reference run: seed 1, 18 s per pass
#   benchmark/run.sh --seed 7            # other inputs
#   benchmark/run.sh --seconds 3         # shorter passes
#
# One workload, one pass (what the driver runs):
#   cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
#       --workload fanin_1089node --seed 1 --seconds 18 --trace 0
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --all "$@"

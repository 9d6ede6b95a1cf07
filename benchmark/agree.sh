#!/usr/bin/env sh
# Judges the benchmark the way the driver does: runs two sets of the
# same build, each every workload on ten seeds (untraced) plus one
# traced pass, and prints per workload and end-to-end metric the median
# and quartile spread of each set and how far the second median is from
# the first, in calibrated and in raw host time. Fails if a spread
# (set-up's excepted) or a median shift exceeds the metric's bound in
# BENCHMARK.json, if any run is incorrect, or if any deterministic count
# differs between the sets.
#
#   benchmark/agree.sh              # two sets of ten seeds (about 45 minutes)
#   benchmark/agree.sh --seeds 3    # a quicker look
#   benchmark/agree.sh --smoke      # tiny sizes, under 30 s; times are
#                                   # printed but only counts are gated
set -eu
cd "$(dirname "$0")/.."
case " $* " in
*" --smoke "*) set -- --seconds 0.2 --seeds 2 "$@" ;;
esac
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --agree "$@"

#!/usr/bin/env sh
# Parent-vs-change comparison with the repository benchmark: each
# revision runs BENCHMARK.json's command (and so builds its own
# benchmark/ package) in its own checkout; one traced pass per side at
# the same seed must agree on the simulated counts; then N untraced
# rounds alternate which side runs first.
#
#   scripts/bench_compare.sh <rev-a> <rev-b> [--workload W] [--rounds N] [--seconds S]
#
# <rev-a> is the parent. Defaults: every workload, 10 rounds, the
# run_seconds of BENCHMARK.json. Prints per workload and end-to-end
# metric both medians, the parent's quartile spread, by how much the
# change's median is worse (negative: better), the bound, pairs won
# and a verdict:
#   WORSE       worse by more than the bound
#   unresolved  the parent's own spread exceeds the bound
#   better      ten or more pairs, >= 9/10 won (ties count for
#               neither), medians further apart than the spread
# Exits non-zero if the counts differ, on any WORSE, or if a larger
# share of operations failed on <rev-b>. Host speed: not run by CI.
set -eu
cd "$(dirname "$0")/.."

usage() {
    echo "usage: $0 <rev-a> <rev-b> [--workload W] [--rounds N] [--seconds S]" >&2
    exit 2
}
[ $# -ge 2 ] || usage
rev_a=$1 rev_b=$2
shift 2
only="" rounds=10 seconds=""
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
    --workload) only=$2 ;;
    --rounds) rounds=$2 ;;
    --seconds) seconds=$2 ;;
    *) usage ;;
    esac
    shift 2
done

tmp=$(mktemp -d)
cleanup() {
    for s in a b; do
        git worktree remove --force "$tmp/$s" 2>/dev/null || true
    done
    rm -rf "$tmp"
    git worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git worktree add --quiet --detach "$tmp/a" "$rev_a"
git worktree add --quiet --detach "$tmp/b" "$rev_b"
bench="$tmp/b/BENCHMARK.json"
cmd=$(jq -r '.command | @sh' "$bench")
[ -n "$seconds" ] || seconds=$(jq -r '.run_seconds' "$bench")
workloads=${only:-$(jq -r '.workloads[].name' "$bench")}

# run <side> <workload> <seed> <trace>: the result object, one line.
run() {
    (cd "$tmp/$1" && eval "$cmd" --workload "$2" --seed "$3" --seconds "$seconds" --trace "$4") |
        tail -n 1
}

echo "traced pass; the first run of each side builds it" >&2
counts='[.metrics["sim.cycles", "core.instructions", "sim.stats_digest"].value]'
for w in $workloads; do
    ca=$(run a "$w" 1 1 | jq -c "$counts")
    cb=$(run b "$w" 1 1 | jq -c "$counts")
    echo "$w: [sim.cycles, core.instructions, sim.stats_digest] a $ca b $cb" >&2
    [ "$ca" = "$cb" ] || { echo "simulated behaviour differs on $w" >&2; exit 1; }
done

for i in $(seq 1 "$rounds"); do
    if [ $((i % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
    for w in $workloads; do
        for s in $order; do
            run "$s" "$w" "$i" 0 |
                jq -c --arg w "$w" --arg s "$s" \
                    '{w: $w, side: $s, attempted, failed, m: (.metrics | map_values(.value))}' \
                    >>"$tmp/runs.jsonl"
        done
    done
    echo "round $i/$rounds done" >&2
done

jq -rs --slurpfile bench "$bench" '
  def q(p): sort as $s | ((($s | length) - 1) * p) as $h | ($h | floor) as $i
    | $s[$i] + ($h - $i) * (($s[$i + 1] // $s[$i]) - $s[$i]);
  def share: (map(.failed) | add) / (map(.attempted) | add);
  group_by(.w)[]
  | .[0].w as $w | map(select(.side == "a")) as $a | map(select(.side == "b")) as $b
  | ($bench[0].end_to_end[] as $e
     | ($a | map(.m[$e.name])) as $av | ($b | map(.m[$e.name])) as $bv
     | (if $e.better == "higher" then 1 else -1 end) as $up
     | ($av | q(0.5)) as $am | ($bv | q(0.5)) as $bm
     | (($av | q(0.75)) - ($av | q(0.25))) as $iqr
     | ($up * ($am - $bm) / $am) as $worse
     | [range($av | length) | $up * ($bv[.] - $av[.])] as $d
     | ($d | map(select(. > 0)) | length) as $won
     | [$w, $e.name, $am, $bm, 100 * $iqr / $am, 100 * $worse, 100 * $e.bound,
        "\($won)/\($d | length)",
        (if $worse > $e.bound then "WORSE"
         elif $iqr / $am > $e.bound then "unresolved"
         elif ($d | length) >= 10 and $won >= 0.9 * ($d | length)
              and ($am - $bm | fabs) > $iqr then "better"
         else "same" end)]),
    (select(($b | share) > ($a | share))
     | [$w, "failed_share", ($a | share), ($b | share), 0, 0, 0, "-", "WORSE"])
  | @tsv' "$tmp/runs.jsonl" >"$tmp/report.tsv"

awk -F'\t' 'BEGIN { printf "%-22s %-17s %14s %14s %8s %9s %7s %6s  %s\n",
                    "workload", "metric", "median_a", "median_b", "spread%", "worse%", "bound%", "won", "verdict" }
            { printf "%-22s %-17s %14.6g %14.6g %8.1f %+9.1f %7.0f %6s  %s\n", $1, $2, $3, $4, $5, $6, $7, $8, $9 }' \
    "$tmp/report.tsv"
! grep -q 'WORSE$' "$tmp/report.tsv"

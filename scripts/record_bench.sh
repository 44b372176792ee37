#!/usr/bin/env bash
# record_bench.sh — run the micro benches REPS times and emit min/max
# items_per_second per benchmark as a JSON fragment, the noise-range
# protocol BENCH_micro.json records (ranges over >= 3 repetitions on this
# container). Replaces hand-running the bench and hand-editing ranges.
#
# Usage:
#   scripts/record_bench.sh                 # default filter, 5 reps
#   scripts/record_bench.sh 'BM_SvtRun.*'   # custom filter regex
#   scripts/record_bench.sh 'BM_A' 'BM_B'   # paired A/B: interleaved reps
#
# Paired mode (two positional args): each rep runs arm A then arm B
# back-to-back, so thermal / frequency / noisy-neighbor drift lands on
# both arms equally instead of biasing whichever ran last. Both arms'
# ranges are emitted in ONE JSON block; with BENCH_B set the arms run
# different binaries (arm-B keys get a "__B" suffix so same-named
# benchmarks from the two builds stay distinct).
#
# Environment:
#   BENCH     bench binary          (default build/bench_micro)
#   BENCH_B   arm-B binary          (default $BENCH; paired mode only)
#   REPS      repetitions           (default 5)
#   MIN_TIME  --benchmark_min_time  (default 0.25)
set -euo pipefail

BENCH="${BENCH:-build/bench_micro}"
BENCH_B="${BENCH_B:-$BENCH}"
REPS="${REPS:-5}"
MIN_TIME="${MIN_TIME:-0.25}"
FILTER="${1:-BM_SvtRunBatch/|BM_SvtRunBatchNearThreshold|BM_SvtRunBatchPerQueryNearThreshold|BM_SvtRunBatchResampleNearThreshold|BM_RngFillUint64|BM_LaplaceSampleBlock}"
FILTER_B="${2:-}"

for bin in "$BENCH" "$BENCH_B"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not found or not executable (build with benchmarks on)" >&2
    exit 1
  fi
done

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# run_arm <binary> <filter> <name-suffix>: one bench invocation, appending
# "name metric value" lines to $tmp — items/sec (unit-expanded) always,
# plus the diagnostic counters some benchmarks export: prune_rate
# (BM_SvtRunBatchNearThresholdPrefiltered: fraction of tier-2 span visits
# the quantized bound level discharged) and words_skipped_frac
# (BM_SvtRunBatchPerQueryNearThreshold*: fraction of per-query elements
# whose transform the span skip words discharged).
run_arm() {
  "$1" --benchmark_filter="$2" --benchmark_min_time="$MIN_TIME" \
    2>/dev/null |
    awk -v suffix="$3" '/items_per_second=/ {
      v = ""
      for (f = 1; f <= NF; ++f) if ($f ~ /items_per_second=/) v = $f
      sub(/.*items_per_second=/, "", v)
      mult = 1
      if (v ~ /G\/s$/)      mult = 1e9
      else if (v ~ /M\/s$/) mult = 1e6
      else if (v ~ /k\/s$/) mult = 1e3
      sub(/[GMk]?\/s$/, "", v)
      printf "%s%s items_per_second %.6e\n", $1, suffix, v * mult
      for (f = 1; f <= NF; ++f) if ($f ~ /^(prune_rate|words_skipped_frac)=/) {
        p = $f
        key = $f
        sub(/=.*/, "", key)
        sub(/^[a-z_]+=/, "", p)
        printf "%s%s %s %.6e\n", $1, suffix, key, p + 0
      }
    }' >>"$tmp"
}

suffix_b=""
if [ -n "$FILTER_B" ] && [ "$BENCH_B" != "$BENCH" ]; then
  suffix_b="__B"
fi

for i in $(seq "$REPS"); do
  echo "== rep $i/$REPS (A): $BENCH --benchmark_filter=$FILTER" >&2
  run_arm "$BENCH" "$FILTER" ""
  if [ -n "$FILTER_B" ]; then
    echo "== rep $i/$REPS (B): $BENCH_B --benchmark_filter=$FILTER_B" >&2
    run_arm "$BENCH_B" "$FILTER_B" "$suffix_b"
  fi
done

if ! [ -s "$tmp" ]; then
  echo "error: no items_per_second lines matched filter '$FILTER'" >&2
  exit 1
fi

proto="min-max items/sec over $REPS reps of --benchmark_min_time=$MIN_TIME (scripts/record_bench.sh)"
if [ -n "$FILTER_B" ]; then
  proto="min-max items/sec over $REPS interleaved A/B reps of --benchmark_min_time=$MIN_TIME (scripts/record_bench.sh paired mode)"
fi

awk -v proto="$proto" '
{
  n = $1 "_" $2; v = $3 + 0
  if (!(n in min) || v < min[n]) min[n] = v
  if (!(n in max) || v > max[n]) max[n] = v
  if (!(n in seen)) { order[++k] = n; seen[n] = 1 }
}
END {
  printf "{\n"
  printf "  \"noise_protocol\": \"%s\"", proto
  for (i = 1; i <= k; ++i) {
    n = order[i]
    printf ",\n  \"%s\": [%.4e, %.4e]", n, min[n], max[n]
  }
  printf "\n}\n"
}' "$tmp"

#!/usr/bin/env bash
# Link/run smoke check over every bench binary.
#
# Each paper-artifact bench runs end to end in its reduced mode (--quick
# where the bench supports it), and each google-benchmark binary runs with
# --benchmark_min_time=0.01s, so the whole sweep verifies that every bench
# still links and executes — not that its numbers are meaningful. Pairs
# with scripts/sanitize.sh: sanitize covers the test suite, this covers
# the bench targets CI never exercises otherwise.
#
# Usage: scripts/bench_smoke.sh [build-dir]   (default: build)
set -uo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
  cmake -B "$BUILD_DIR" -S . || exit 1
fi
cmake --build "$BUILD_DIR" -j || exit 1

failures=0

run() {
  local label="$1"
  shift
  local start=$SECONDS
  if "$@" > /dev/null 2>&1; then
    echo "PASS  ${label}  ($((SECONDS - start))s)"
  else
    echo "FAIL  ${label}  (exit $?)"
    failures=$((failures + 1))
  fi
}

# google-benchmark binaries. Newer releases take a duration suffix
# (0.01s); the baked-in one predates that and wants a plain double — try
# the suffixed form first and fall back. Each run also emits its JSON
# report to results/<bin>.json so scripts/bench_diff.py can compare the
# numbers against the committed results/<bin>.baseline.json (smoke
# min_time is noisy — rerun with a larger --benchmark_min_time before
# treating a diff as real).
MIN_TIME="${BENCH_MIN_TIME:-0.01}"
run_gbench() {
  local bin="$1"
  local json="results/$bin.json"
  if "$BUILD_DIR/bench/$bin" --benchmark_min_time="${MIN_TIME}s" \
       --benchmark_format=json > "$json" 2>/dev/null; then
    echo "PASS  $bin (min_time=${MIN_TIME}s, json: $json)"
  elif "$BUILD_DIR/bench/$bin" --benchmark_min_time="$MIN_TIME" \
       --benchmark_format=json > "$json" 2>/dev/null; then
    echo "PASS  $bin (min_time=$MIN_TIME, json: $json)"
  else
    echo "FAIL  $bin (exit $?)"
    rm -f "$json"
    failures=$((failures + 1))
  fi
}

run_gbench bench_pipeline_perf
run_gbench bench_inference_latency
run_gbench bench_mitigation
run_gbench bench_lifecycle
# The sharded scale sweep runs at its full 1M-UE default (~3s per shard
# count) so its JSON is directly comparable to the committed baseline;
# export XSEC_BENCH_UES to shrink it for quick local iterations (the
# benchmark names stay the same, so bench_diff would then over-report).
run_gbench bench_scale
# Transport backend comparison: inproc vs UDS channel throughput, the
# framed zero-copy receive path, the varint fast-path delta, and the
# 32-frame pump burst (BM_PumpBurst reports syscalls_per_frame per backend:
# the batched UDS path makes about two kernel entries per burst, not one
# per frame).
run_gbench bench_transport

# Paper-artifact benches: --quick shrinks datasets/epochs where training is
# involved; the rest are already smoke-sized.
run "bench_table1_telemetry"          "$BUILD_DIR/bench/bench_table1_telemetry"
run "bench_table2_detection --quick"  "$BUILD_DIR/bench/bench_table2_detection" --quick
run "bench_table3_llm --quick"        "$BUILD_DIR/bench/bench_table3_llm" --quick
run "bench_fig4_reconstruction --quick" "$BUILD_DIR/bench/bench_fig4_reconstruction" --quick
run "bench_fig5_prompt"               "$BUILD_DIR/bench/bench_fig5_prompt"
run "bench_ablation --quick"          "$BUILD_DIR/bench/bench_ablation" --quick
run "bench_classifier --quick"        "$BUILD_DIR/bench/bench_classifier" --quick
run "bench_dos_efficacy --quick"      "$BUILD_DIR/bench/bench_dos_efficacy" --quick
run "bench_chaos_recovery"            "$BUILD_DIR/bench/bench_chaos_recovery"

if [[ $failures -gt 0 ]]; then
  echo "bench smoke: $failures bench(es) failed"
  exit 1
fi
echo "bench smoke: all benches link and run"

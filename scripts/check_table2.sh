#!/usr/bin/env bash
# Table 2 regeneration check that never touches the committed file.
#
# Runs bench_table2_detection (full mode, not --quick) in a temporary
# working directory, so its results/table2.csv lands there, and compares
# that file byte for byte with the committed results/table2.csv. Too slow
# for the default ctest run (~47 s on a 4-vCPU host); run it after any
# change to feature encoding, training, scoring or thresholds.
#
# Usage: scripts/check_table2.sh [build-dir]   (default: build)
# Exit: 0 byte-identical, 1 the tables differ (the diff is printed),
#       2 the bench could not be built or run.
set -uo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
jobs=$(nproc 2>/dev/null || echo 1)
if (( jobs > 4 )); then jobs=4; fi
if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
  cmake -B "$BUILD_DIR" -S . || exit 2
fi
cmake --build "$BUILD_DIR" -j "$jobs" --target bench_table2_detection ||
  exit 2
bench="$(cd "$BUILD_DIR/bench" && pwd)/bench_table2_detection"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
if ! (cd "$work" && "$bench" > bench.log 2>&1); then
  echo "FAIL  bench_table2_detection exited non-zero:"
  cat "$work/bench.log"
  exit 2
fi

if cmp -s "$work/results/table2.csv" results/table2.csv; then
  echo "PASS  results/table2.csv regenerates byte-identically"
  exit 0
fi
echo "FAIL  regenerated Table 2 differs from results/table2.csv:"
diff results/table2.csv "$work/results/table2.csv"
exit 1

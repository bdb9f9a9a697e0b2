#!/usr/bin/env python3
"""Steady-state ingest benchmark of the 6G-XSec pipeline.

Builds perfbench/ingest_bench from the checkout's sources (CMake, into
.bench_build/perfbench), runs one workload and prints every metric by name
and unit. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the gated end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). A traced run also prints the ranked "where one record's time
goes" table. The process exits non-zero when the build fails or a
correctness check fails.

    python3 perfbench/run.py --workload benign --seed 1 --seconds 30 --trace 0

Stability mode repeats a workload over consecutive seeds and prints each
end-to-end metric's median, quartiles and min/max spread:

    python3 perfbench/run.py --workload lossy --seed 1 --seconds 30 --stability 10

See perfbench/README.md for the metric and workload reference.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "ingest_bench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170

WORKLOADS = ("benign", "attack", "lossy")

# End-to-end metrics the benchmark's result line carries (BENCHMARK.json
# "end_to_end"): non-zero on every workload and steady across seeds.
GATED = ("records_per_s", "round_p50_ms", "round_p99_ms", "setup_s",
         "peak_rss_mb")
# Printed for reading but not gated: detected_share exists on `attack` only,
# records_lost_share is the failed-operation share and 0 on benign/attack,
# incident_lag_ms is simulated time, exact per seed (it moves with behaviour,
# not speed) and spreads 5-12% across seeds, and episode_records_per_s (the
# plain median of per-episode rates) follows the shared host's slow phases.
REPORTED = ("incident_lag_ms", "detected_share", "records_lost_share",
            "episode_records_per_s")

# Layers of the per-record cost model and the traced metric giving each
# one's microseconds per record carried.
COST_LAYERS = (("ran", "ran.us_per_record"),
               ("mobiflow", "mobiflow.tap_us"),
               ("oran", "oran.us_per_record"),
               ("transport", "transport.us_per_record"),
               ("detect", "detect.us_per_record"),
               ("dl", "dl.us_per_record"),
               ("llm", "llm.us_per_record"))


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns False on failure."""
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    # A configured tree re-runs CMake by itself when a CMakeLists changes.
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ingest_bench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed:", " ".join(cmd))
            return False
    return True


def commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                               "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def run_once(workload, seed, seconds, trace):
    """Runs the binary once; returns its result object or None."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded", RUN_TIMEOUT_S, "s")
        return None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log("perfbench: ingest_bench exited with", proc.returncode)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: unparsable result line")
        return None


def fingerprint(detail):
    host = detail["host"]
    return ("host: nproc=%s cpu=%s build=%s commit=%s python=%s" %
            (host["nproc"], host["cpu"], host["build_type"], commit(),
             platform.python_version()))


def print_end_to_end(workload, detail):
    e2e = detail["end_to_end"]
    print("end-to-end metrics, workload %s (%s episodes, %s rounds):" %
          (workload, detail["episodes"], detail["round_samples"]))
    for name in GATED + REPORTED:
        if name in e2e:
            m = e2e[name]
            print("  %-20s %14.6g %s" % (name, m["value"], m["unit"]))


def print_cost_table(workload, layers):
    """The ranked per-record cost model of one traced run."""
    total = layers["trace.us_per_record"]["value"]
    rows = [(layers[metric]["value"], layer) for layer, metric in COST_LAYERS]
    rows.sort(reverse=True)
    print("where one record's time goes, workload %s (traced, %.3f us/record):"
          % (workload, total))
    print("  %-4s %-12s %12s %8s" % ("rank", "layer", "us/record", "share"))
    for rank, (us, layer) in enumerate(rows, 1):
        print("  %-4d %-12s %12.3f %7.1f%%" % (rank, layer, us,
                                               100.0 * us / total))
    un = layers["trace.unattributed_share"]["value"]
    print("  %-4s %-12s %12.3f %7.1f%%" % ("-", "unattributed", un * total,
                                           100.0 * un))
    print("  tracing overhead: %.1f%% of untraced records/s" %
          (100.0 * layers["trace.overhead_share"]["value"]))


def result_line(detail, trace):
    metrics = detail["per_layer"] if trace else {
        k: detail["end_to_end"][k] for k in GATED}
    return json.dumps({"correct": bool(detail["correct"]),
                       "attempted": int(detail["attempted"]),
                       "failed": int(detail["failed"]),
                       "metrics": metrics})


def stability(args):
    """Repeats the workload over consecutive seeds; prints spreads."""
    values = {}
    detail = None
    for i in range(args.stability):
        detail = run_once(args.workload, args.seed + i, args.seconds, False)
        if detail is None or not detail["correct"]:
            log("perfbench: run failed on seed", args.seed + i)
            return 1
        for name, m in detail["end_to_end"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (args.seed + i, json.dumps(
            {k: detail["end_to_end"][k]["value"] for k in GATED})))
    print(fingerprint(detail))
    print("stability over %d seeds, workload %s, %gs runs:" %
          (args.stability, args.workload, args.seconds))
    print("  %-20s %12s %12s %12s %9s %12s %12s" %
          ("metric", "median", "q1", "q3", "iqr/med", "min", "max"))
    for name in GATED + REPORTED:
        if name not in values:
            continue
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        print("  %-20s %12.6g %12.6g %12.6g %9.4f %12.6g %12.6g" %
              (name, med, q1, q3, spread, min(v), max(v)))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stability", type=int, default=0, metavar="N",
                        help="repeat over N consecutive seeds (untraced)")
    args = parser.parse_args()

    if not build():
        return 1
    if args.stability:
        return stability(args)

    detail = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    if detail is None:
        return 1
    print(fingerprint(detail))
    if args.trace:
        print_cost_table(args.workload, detail["per_layer"])
    else:
        print_end_to_end(args.workload, detail)
    print(result_line(detail, bool(args.trace)), flush=True)
    if not detail["correct"]:
        log("perfbench: correctness check failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

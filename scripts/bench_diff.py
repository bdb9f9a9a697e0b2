#!/usr/bin/env python3
"""Compare two google-benchmark JSON reports and flag regressions.

Typical use: scripts/bench_smoke.sh writes results/<bench>.json for each
google-benchmark binary; the repo commits a results/<bench>.baseline.json
captured on the reference machine. A change is flagged when a benchmark's
cpu_time grows more than --threshold (default 20%) over the baseline.
Reports with repetitions are compared on their median aggregate (else the
mean aggregate, else the plain row), and each row prints both sides' cv
aggregate beside the ratio, so a flag can be read against the noise:

    scripts/bench_diff.py results/bench_inference_latency.baseline.json \
                          results/bench_inference_latency.json

Exit status: 0 = no regression, 1 = at least one regression, 2 = usage /
input error. Benchmarks present in only one file are reported but never
fail the check (renames should not break CI). cpu_time is compared rather
than real_time because the smoke runs share the machine with the build.
Smoke-level --benchmark_min_time is noisy: treat a flag from
bench_smoke.sh as "rerun this benchmark properly", not as proof.
"""

import argparse
import json
import sys


# Row preference per benchmark: the median aggregate of a repetitions
# report, else its mean aggregate, else the first plain row.
RANK = {"median": 0, "mean": 1, None: 2}


def load_benchmarks(path):
    """Returns {run_name: (row, cv)}; cv is the row's cv aggregate or None."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    rows, cvs = {}, {}
    for b in doc.get("benchmarks", []):
        name = b.get("run_name", b.get("name"))
        kind = b.get("aggregate_name") if b.get("run_type") == "aggregate" else None
        if kind == "cv":
            cvs[name] = b
            continue
        if kind not in RANK:
            continue
        if name not in rows or RANK[kind] < RANK[rows[name][0]]:
            rows[name] = (kind, b)
    return {name: (b, cvs.get(name)) for name, (_, b) in rows.items()}


def fmt_cv(cv_row, metric):
    # google-benchmark stores the coefficient of variation as a plain
    # ratio in the time fields.
    if cv_row is None or cv_row.get(metric) is None:
        return "n/a"
    return f"{cv_row[metric]:.1%}"


def fmt_time(ns, unit):
    return f"{ns:.0f} {unit}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="baseline google-benchmark JSON report")
    ap.add_argument("current", help="current google-benchmark JSON report")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="relative cpu_time growth that counts as a regression "
        "(default 0.20 = +20%%)",
    )
    ap.add_argument(
        "--metric",
        default="cpu_time",
        choices=["cpu_time", "real_time"],
        help="which reported time to compare (default cpu_time)",
    )
    args = ap.parse_args()

    base = load_benchmarks(args.baseline)
    cur = load_benchmarks(args.current)

    regressions = []
    improvements = []
    for name in sorted(base.keys() & cur.keys()):
        (b, b_cv), (c, c_cv) = base[name], cur[name]
        bt, ct = b.get(args.metric), c.get(args.metric)
        if not bt or not ct:
            continue
        ratio = ct / bt
        line = (
            f"{name}: {fmt_time(bt, b.get('time_unit', 'ns'))} -> "
            f"{fmt_time(ct, c.get('time_unit', 'ns'))}  ({ratio - 1.0:+.1%}"
            f", cv {fmt_cv(b_cv, args.metric)} -> {fmt_cv(c_cv, args.metric)})"
        )
        print(line)
        if ratio > 1.0 + args.threshold:
            regressions.append(line)
        elif ratio < 1.0 - args.threshold:
            improvements.append(line)

    only_base = sorted(base.keys() - cur.keys())
    only_cur = sorted(cur.keys() - base.keys())

    if improvements:
        print("improved:")
        for line in improvements:
            print(f"  {line}")
    if only_base:
        print("missing from current (renamed/removed?):")
        for name in only_base:
            print(f"  {name}")
    if only_cur:
        print("new in current (no baseline):")
        for name in only_cur:
            print(f"  {name}")
    if regressions:
        print(f"REGRESSIONS (> {args.threshold:.0%} {args.metric} growth):")
        for line in regressions:
            print(f"  {line}")
        return 1
    print(
        f"bench_diff: {len(base.keys() & cur.keys())} shared benchmarks, "
        f"no {args.metric} regression beyond {args.threshold:.0%}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""A/B comparison of two bench_e2e builds on alternating, seeded run pairs.

Pair i runs both builds at seed (--seed + i), alternating which side runs
first. For every workload and end-to-end metric it prints each side's
median and quartiles, the share of pairs B won (ties count for neither),
and a verdict against the bounds in BENCHMARK.json:

  improved    B won at least 9 in 10 pairs and the medians differ by more
              than A's own quartile spread
  regressed   B's median is worse than A's by more than the bound
  unresolved  A's run-to-run spread is wider than the bound, and not every
              B run reads better than every A run
  unchanged   otherwise

It also compares the failed-request fraction of the two sides (a gain does
not count when B fails more requests than A) and whether both sides gave
the same answer digests at each seed.

    python3 bench/e2e/compare.py --a parent/.bench_build/e2e \\
        --b .bench_build/e2e --pairs 10 --seed 9001
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")


def run_side(build, workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--build", build, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s" % " ".join(cmd))
    line = json.loads(lines[-1])
    tag = "%s-%s" % (workload, "traced" if trace else "untraced")
    with open(os.path.join(build, "results", tag + ".json")) as f:
        line["digests"] = json.load(f)["digests"]
    return line


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a, b, better, bound):
    """Verdict and B's win share for one metric (lists of per-pair values)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    share = wins / len(a)
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    if share >= 0.9 and sign * (b_med - a_med) > a_q3 - a_q1:
        return "improved", share
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if (a_q3 - a_q1) / a_med > bound and not all_better:
        return "unresolved", share
    worse = -sign * (b_med - a_med) / a_med
    return ("regressed" if worse > bound else "unchanged"), share


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--a", required=True, help="build dir of the parent (A)")
    parser.add_argument("--b", required=True, help="build dir of the change (B)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=9001)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--traced", action="store_true",
                        help="also compare per-layer medians from traced runs")
    parser.add_argument("--out", default=None, help="write the raw pairs as JSON")
    args = parser.parse_args()
    if args.pairs < 10:
        print("note: fewer than 10 pairs cannot support a gain claim", file=sys.stderr)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w] or [
        w["name"] for w in spec["workloads"]]
    builds = {"A": os.path.abspath(args.a), "B": os.path.abspath(args.b)}
    traces = [0, 1] if args.traced else [0]

    raw = {}
    for workload in workloads:
        runs = {(side, t): [] for side in builds for t in traces}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ["A", "B"] if i % 2 == 0 else ["B", "A"]
            for t in traces:
                for side in order:
                    runs[(side, t)].append(run_side(builds[side], workload, seed, seconds, t))
        raw[workload] = {"%s/trace%d" % k: v for k, v in runs.items()}

        print("\n== %s (%d pairs, %gs runs, seeds %d..%d)" % (
            workload, args.pairs, seconds, args.seed, args.seed + args.pairs - 1))
        failed_frac = {}
        for side in builds:
            attempted = sum(r["attempted"] for r in runs[(side, 0)])
            failed = sum(r["failed"] for r in runs[(side, 0)])
            correct = all(r["correct"] for r in runs[(side, 0)])
            failed_frac[side] = failed / max(1, attempted)
            print("%s: failed_frac %d/%d = %.4f, all runs correct: %s" % (
                side, failed, attempted, failed_frac[side], correct))
        print("%-22s %-8s %28s %28s %7s %5s  %s" % (
            "metric", "unit", "A median [q1, q3]", "B median [q1, q3]",
            "change", "B won", "verdict"))
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in runs[("A", 0)]]
            b = [r["metrics"][m["name"]]["value"] for r in runs[("B", 0)]]
            v, share = verdict(a, b, m["better"], m["bound"])
            if v == "improved" and failed_frac["B"] > failed_frac["A"]:
                v = "unchanged (gain void: B fails more requests)"
            qa, qb = quartiles(a), quartiles(b)
            print("%-22s %-8s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %+6.1f%% %4.0f%%  %s" % (
                m["name"], m["unit"], qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
                100.0 * (qb[1] - qa[1]) / qa[1], 100.0 * share, v))
        same = 0
        compared = 0
        for ra, rb in zip(runs[("A", 0)], runs[("B", 0)]):
            for request, digest in ra["digests"].items():
                if request in rb["digests"]:
                    compared += 1
                    same += digest == rb["digests"][request]
        print("answers: %d of %d shared requests have identical digests" % (same, compared))
        if args.traced:
            print("%-26s %-8s %12s %12s" % ("per-layer", "unit", "A median", "B median"))
            for m in spec["per_layer"]:
                a = [r["metrics"][m["name"]]["value"] for r in runs[("A", 1)]]
                b = [r["metrics"][m["name"]]["value"] for r in runs[("B", 1)]]
                print("%-26s %-8s %12.4g %12.4g" % (
                    m["name"], m["unit"], statistics.median(a), statistics.median(b)))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

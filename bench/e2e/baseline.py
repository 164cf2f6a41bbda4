#!/usr/bin/env python3
"""Run sets of seeded end-to-end runs and summarize their spread.

Each set runs every workload once per seed (a different seed per run, as
the acceptance check does); the sets run one after the other, so the
second set also shows how far the host drifts in between. Per workload and
end-to-end metric it reports each set's median and quartile spread
(q3 - q1) / median, and how much worse the last set's median is than the
first's. A bound should be at least three times the worst spread seen (and
at least 5%); bounds cannot exceed 25%, so a metric whose worst spread
passes a third of that is flagged.

    python3 bench/e2e/baseline.py --build .bench_build/e2e --sets 2 --runs 10 \\
        --seed 1001 --out bench/e2e/baseline.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")


def run_once(build, workload, seed, seconds):
    """One untraced run.py run; returns its last-line JSON and wall time."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if build:
        cmd += ["--build", build]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    return json.loads(lines[-1]), wall


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build", default=None,
                        help="directory holding a built bench_e2e (default: run.py builds)")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--seed", type=int, default=1,
                        help="first seed; run i of set s uses seed + s*runs + i")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w] or [
        w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    state_dir = os.path.abspath(args.build) if args.build else os.path.join(
        ROOT, ".bench_build", "e2e")

    # values[workload][set][metric] -> one value per seed
    values = {w: [{name: [] for name in metrics} for _ in range(args.sets)]
              for w in workloads}
    seeds = [[args.seed + s * args.runs + i for i in range(args.runs)]
             for s in range(args.sets)]
    walls = []
    host = None
    for s in range(args.sets):
        for workload in workloads:
            for seed in seeds[s]:
                line, wall = run_once(args.build, workload, seed, seconds)
                walls.append(wall)
                if not line["correct"] or line["failed"]:
                    raise SystemExit("%s seed %d: incorrect or failed requests" % (workload, seed))
                if host is None:
                    with open(os.path.join(state_dir, "results",
                                           workload + "-untraced.json")) as f:
                        host = json.load(f)["provenance"]
                for name in metrics:
                    values[workload][s][name].append(line["metrics"][name]["value"])
                print("%s set %d seed %d: %.1fs %s" % (workload, s, seed, wall, " ".join(
                    "%s=%.6g" % (n, values[workload][s][n][-1]) for n in metrics)),
                    flush=True)

    result = {"host": host, "run_seconds": seconds, "sets": args.sets,
              "runs": args.runs, "worst_run_wall_s": max(walls),
              "median_run_wall_s": statistics.median(walls), "workloads": {}}
    for workload in workloads:
        summary = {}
        for name, m in metrics.items():
            sets = [spread(values[workload][s][name]) for s in range(args.sets)]
            worst = max(x[3] for x in sets)
            drift = (sets[-1][0] - sets[0][0]) / sets[0][0]
            if m["better"] == "higher":
                drift = -drift
            summary[name] = {
                "unit": m["unit"],
                "better": m["better"],
                "sets": [{"median": x[0], "q1": x[1], "q3": x[2], "spread": x[3],
                          "values": values[workload][s][name], "seeds": seeds[s]}
                         for s, x in enumerate(sets)],
                "worst_spread": worst,
                "median_drift_worse": drift,
                "suggested_bound": min(0.25, max(0.05, 3.0 * worst)),
                "spread_within_third_of_cap": 3.0 * worst <= 0.25,
            }
            print("%-13s %-16s median %-12.6g spread %s drift %+.3f" % (
                workload, name, sets[0][0], " ".join("%.4f" % x[3] for x in sets), drift))
        result["workloads"][workload] = summary
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
        print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

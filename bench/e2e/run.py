#!/usr/bin/env python3
"""End-to-end benchmark runner: builds bench_e2e, runs workloads, checks answers.

Each workload runs in its own process for a fixed measurement window. The
untraced run gives the end-to-end metrics; with --trace 1 (or --traced) a
separate traced run gives the per-layer metrics. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Examples (from the repository root):

    python3 bench/e2e/run.py --workload certify_20k --seed 7 --seconds 15 --trace 0
    python3 bench/e2e/run.py --seed 2004 --traced --out results.json
    python3 bench/e2e/run.py --build build/bench/e2e --tiny --seconds 1

Without --build the harness is built from source into .bench_build/e2e
(CMake, Release). Per-request answer digests are kept next to the build, and
a rerun at the same seed must reproduce every digest it shares.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["certify_20k", "views_100k", "sharded_500k", "serve_16c"]
RECORD_KEYS = {"name", "workload", "layer", "value", "median", "q1", "q3",
               "repetitions", "unit", "nproc", "seed", "traced"}
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build_harness(build_dir):
    """Configures and builds bench_e2e (both no-ops when current)."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "bench_e2e",
              "-j", str(jobs())]]
    with open(log_path, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    tail = f.read().splitlines()[-20:]
                log("\n".join(tail))
                log("run.py: build failed (%s); log: %s" % (" ".join(step), log_path))
                return None
    return os.path.join(build_dir, "bench_e2e")


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def validate(result):
    """Schema problems of one harness result file (empty when valid)."""
    problems = []
    for key in ("schema", "workload", "seed", "provenance", "correct",
                "attempted", "failed", "checks", "digests", "records"):
        if key not in result:
            problems.append("missing key %s" % key)
    for key in ("nproc", "cpu_model", "l2", "l3", "compiler", "flags",
                "build_type", "commit"):
        if key not in result.get("provenance", {}):
            problems.append("provenance lacks %s" % key)
    for record in result.get("records", []):
        missing = RECORD_KEYS - set(record)
        if missing:
            problems.append("record %s lacks %s" % (record.get("name"), sorted(missing)))
    if not isinstance(result.get("attempted"), int) or result.get("attempted", 0) < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def check_digests(state_dir, result):
    """Compares per-request digests with earlier runs at the same seed."""
    path = os.path.join(state_dir, "digests", "%s-%d%s.json" % (
        result["workload"], result["seed"], "-tiny" if result.get("tiny") else ""))
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    mismatched = [r for r, d in result["digests"].items()
                  if r in known and known[r] != d]
    known.update(result["digests"])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(known, f, indent=0, sort_keys=True)
    return mismatched


def run_workload(binary, state_dir, workload, seed, seconds, traced, tiny,
                 commit):
    """Runs one workload process; returns its result dict (or None)."""
    results = os.path.join(state_dir, "results")
    os.makedirs(results, exist_ok=True)
    tag = "%s-%s" % (workload, "traced" if traced else "untraced")
    out = os.path.join(results, tag + ".json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--out", out, "--commit", commit]
    if traced:
        cmd += ["--traced", "--spans", os.path.join(results, "spans-%s.csv" % workload)]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s timed out after %ds" % (tag, RUN_TIMEOUT_S))
        return None
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1) or not os.path.exists(out):
        log("run.py: %s exited %d without a result" % (tag, proc.returncode))
        return None
    with open(out) as f:
        result = json.load(f)
    problems = validate(result)
    mismatched = check_digests(state_dir, result)
    if mismatched:
        mismatched.sort(key=int)
        problems.append("answer digests differ from an earlier run at seed %d "
                        "for %d requests (%s ...)" % (
                            seed, len(mismatched), ", ".join(mismatched[:5])))
    for problem in problems:
        log("run.py: %s: %s" % (tag, problem))
    result["correct"] = bool(result["correct"]) and proc.returncode == 0 and not problems
    return result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def select(result, metrics):
    """The named metrics of one run, as the summary line carries them."""
    records = {r["name"]: r for r in result["records"]}
    out = {}
    for metric in metrics:
        record = records.get(metric["name"])
        if record is None or record["unit"] != metric["unit"]:
            raise KeyError("%s: no %s record in %s" % (
                result["workload"], metric["name"], metric["unit"]))
        out[metric["name"]] = {"value": record["value"], "unit": record["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        choices=WORKLOADS, help="workload to run (repeatable)")
    parser.add_argument("--workloads", default="",
                        help="comma-separated workloads (default: all four)")
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced run, end-to-end metrics; 1: traced "
                             "run, per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="also run the traced pass of every workload")
    parser.add_argument("--build", default=None,
                        help="directory holding an already built bench_e2e")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (about a second per workload)")
    parser.add_argument("--out", default=None, help="combined result JSON")
    args = parser.parse_args()

    if args.seed < 0:
        parser.error("--seed must be a whole number >= 0")
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if not 0 < seconds <= 3600:
        parser.error("--seconds must be in (0, 3600]")
    workloads = list(args.workload)
    workloads += [w for w in args.workloads.split(",") if w]
    for w in workloads:
        if w not in WORKLOADS:
            parser.error("unknown workload %s" % w)
    if not workloads:
        workloads = list(WORKLOADS)

    if args.build:
        state_dir = os.path.abspath(args.build)
        binary = os.path.join(state_dir, "bench_e2e")
        if not os.path.exists(binary):
            log("run.py: no bench_e2e in %s" % state_dir)
            return 2
    else:
        state_dir = os.path.join(ROOT, ".bench_build", "e2e")
        binary = build_harness(state_dir)
        if binary is None:
            return 2

    passes = [bool(args.trace)] if args.trace is not None else (
        [False, True] if args.traced else [False])
    commit = git_commit()
    runs = []
    for workload in workloads:
        for traced in passes:
            result = run_workload(binary, state_dir, workload, args.seed,
                                  seconds, traced, args.tiny, commit)
            if result is None:
                return 2
            runs.append(result)

    if args.out:
        combined = {
            "schema": "fgpdb-bench-e2e/1",
            "provenance": runs[0]["provenance"],
            "seconds": seconds,
            "runs": [{k: r[k] for k in ("workload", "seed", "traced", "tiny",
                                         "correct", "attempted", "failed",
                                         "checks", "digests")} for r in runs],
            "records": [rec for r in runs for rec in r["records"]],
        }
        with open(args.out, "w") as f:
            json.dump(combined, f, indent=1)
        log("run.py: wrote %s" % args.out)

    try:
        if len(runs) == 1:
            kind = "per_layer" if runs[0]["traced"] else "end_to_end"
            metrics = select(runs[0], spec[kind])
        else:
            metrics = {}
            for r in runs:
                kind = "per_layer" if r["traced"] else "end_to_end"
                for name, m in select(r, spec[kind]).items():
                    metrics["%s/%s" % (r["workload"], name)] = m
    except KeyError as e:
        log("run.py: %s" % e.args[0])
        return 2
    correct = all(r["correct"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

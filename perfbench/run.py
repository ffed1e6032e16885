#!/usr/bin/env python3
"""The catalog benchmark command.

Builds perfbench/ (which compiles the catalog from ../src) and runs one
workload, every workload, or one workload several times.

  python3 perfbench/run.py --workload discover --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 10
  python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --repeat 10
  python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --repeat 10 --vary-seed

Single run: the last stdout line is the result object
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). Workload parameters (rates, corpus sizes, cache budgets) come
from perfbench/workloads.json and nowhere else.
--workload all runs every workload untraced and traced and exits non-zero
if any correctness check failed. --repeat N runs the workload N times at
one seed (run-to-run noise) and prints each metric's median, quartiles and
spread (IQR / median); with --vary-seed the runs use seeds seed..seed+N-1
instead (seed-to-seed variation plus noise).

The build goes to $CARGO_TARGET_DIR (default .bench_build) and run records
to .bench_out, both under the repository root.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def child_env():
    env = dict(os.environ)
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def build():
    """Configures (once) and builds hxbench; returns its path."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(build_dir(), "build.log")
    env = child_env()
    steps = []
    if not any(os.path.exists(os.path.join(out, f)) for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, env=env).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("run.py: build failed (log: %s)\n" % log_path)
                sys.exit(1)
    return os.path.join(out, "hxbench")


def load_workloads():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)["workloads"]


def run_one(binary, workloads, name, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text, result object or None)."""
    params = workloads[name]["params"]
    argv = [binary, "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", os.path.join(ROOT, ".bench_out")]
    for key, value in sorted(params.items()):
        argv += ["--param", "%s=%s" % (key, value)]
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write("run.py: %s timed out after %d s\n" % (name, RUN_TIMEOUT_S))
        return 124, e.stdout or "", None
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode in (0, 1) and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, proc.stdout, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(binary, workloads, args):
    runs = []
    seeds = [args.seed + i if args.vary_seed else args.seed for i in range(args.repeat)]
    for i, seed in enumerate(seeds):
        code, out, result = run_one(binary, workloads, args.workload, seed, args.seconds,
                                    args.trace)
        if result is None or code != 0:
            sys.stdout.write(out)
            sys.stderr.write("run.py: run %d (seed %d) failed (exit %d)\n" % (i + 1, seed, code))
            return 1
        runs.append(result)
        print("run %d seed %d: %s" % (i + 1, seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())))
        sys.stdout.flush()
    print("%-36s %14s %14s %14s %8s  unit" % ("metric", "median", "q1", "q3", "spread"))
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / abs(med) if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
        print("%-36s %14.6g %14.6g %14.6g %8.4f  %s" % (name, med, q1, q3, spread, first["unit"]))
    print(json.dumps({"workload": args.workload, "seeds": seeds, "trace": args.trace,
                      "metrics": summary}))
    return 0


def run_all(binary, workloads, args):
    correct = True
    attempted = failed = 0
    metrics = {}
    for name in workloads:
        for trace in (0, 1):
            code, out, result = run_one(binary, workloads, name, args.seed, args.seconds, trace)
            sys.stdout.write("".join(l + "\n" for l in out.strip().splitlines()[:-1]))
            if result is None:
                sys.stderr.write("run.py: %s (trace %d) produced no result (exit %d)\n"
                                 % (name, trace, code))
                return 1
            correct = correct and result["correct"] and code == 0
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, value in result["metrics"].items():
                metrics["%s.%s" % (name, metric)] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--vary-seed", action="store_true")
    args = parser.parse_args()

    workloads = load_workloads()
    if args.workload != "all" and args.workload not in workloads:
        parser.error("unknown workload %r (have: %s)" % (args.workload, ", ".join(workloads)))
    if args.repeat > 0 and args.workload == "all":
        parser.error("--repeat takes one workload")
    binary = build()
    if args.repeat > 0:
        return repeat(binary, workloads, args)
    if args.workload == "all":
        return run_all(binary, workloads, args)
    code, out, result = run_one(binary, workloads, args.workload, args.seed, args.seconds,
                                args.trace)
    sys.stdout.write(out)
    if result is None:
        sys.stderr.write("run.py: %s produced no result (exit %d)\n" % (args.workload, code))
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the REDS system: build, run, check, report.

Run from the root of a checkout:

  python3 e2ebench/run.py --workload paper_batch --seed 1 --seconds 25 --trace 0
      One run. Builds the library and reds_e2e into .bench_build first
      (incremental), then prints one line per metric and, as the last line
      of stdout, the result JSON. Exits non-zero when a correctness check
      fails or nothing could be built.

  python3 e2ebench/run.py --steadiness 10 [--workloads a,b] [--seconds 25]
                          [--first-seed 1]
      Steadiness mode: k untraced runs per workload on seeds first-seed ..
      first-seed+k-1; prints per metric the median, quartiles, min/max and
      the quartile spread as a share of the median, and compares it with a
      third of the metric's bound in BENCHMARK.json.

  python3 e2ebench/run.py --selftest
      Builds and runs the benchmark's own tests.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170
WORKLOADS = ("paper_batch", "paper_slice", "serve_mixed")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets):
    """Configures once and builds `targets`; returns False on failure."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_once(workload, seed, seconds, trace):
    """Runs reds_e2e; returns (exit code, stdout text)."""
    cmd = [os.path.join(BUILD_DIR, "reds_e2e"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--out-dir", os.path.join(BUILD_DIR, "e2e-out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, proc.stdout


def parse_result(stdout):
    """The last stdout line as the result object, or None when malformed."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def cmd_single(args):
    if not build(["reds_e2e"]):
        log("run.py: build failed")
        return 1
    code, stdout = run_once(args.workload, args.seed, args.seconds, args.trace)
    result = parse_result(stdout)
    if result is None:
        sys.stdout.write(stdout)
        log("run.py: reds_e2e printed no result")
        return code or 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code if code else (0 if result["correct"] else 1)


def spread_table(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": (q3 - q1) / q2 if q2 else float("inf")}


def cmd_steadiness(args):
    if not build(["reds_e2e"]):
        log("run.py: build failed")
        return 1
    bounds = {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    summary = {}
    ok = True
    for workload in workloads:
        samples = {}
        for k in range(args.steadiness):
            seed = args.first_seed + k
            code, stdout = run_once(workload, seed, args.seconds, False)
            result = parse_result(stdout)
            if code or result is None or not result["correct"]:
                log(f"run.py: {workload} seed {seed} failed (exit {code})")
                sys.stdout.write(stdout)
                return 1
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            log(f"run.py: {workload} seed {seed} done")
        print(f"== {workload}: {args.steadiness} runs, seeds "
              f"{args.first_seed}..{args.first_seed + args.steadiness - 1}")
        print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'spread':>7} {'bound/3':>7}")
        summary[workload] = {}
        for name, values in samples.items():
            t = spread_table(values)
            summary[workload][name] = t
            third = bounds.get(name, 0.0) / 3.0
            verdict = ""
            if name in bounds:
                verdict = "ok" if t["spread"] < third else "WIDE"
                ok = ok and verdict == "ok"
            print(f"{name:<16} {t['median']:>12.4f} {t['q1']:>12.4f} "
                  f"{t['q3']:>12.4f} {t['min']:>12.4f} {t['max']:>12.4f} "
                  f"{t['spread']:>7.3f} {third:>7.3f} {verdict}")
    print(json.dumps(summary))
    return 0 if ok else 1


def cmd_selftest():
    if not build(["e2e_selftest"]):
        log("run.py: build failed")
        return 1
    return subprocess.run([os.path.join(BUILD_DIR, "e2e_selftest")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return cmd_selftest()
    if args.steadiness:
        return cmd_steadiness(args)
    if not args.workload:
        parser.error("--workload is required")
    return cmd_single(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the simspeed driver from source and runs one workload (or all of them).

    python3 simspeed/run.py --workload jacobi8 --seed 1 --seconds 20 --trace 0

Run it from the repository root. The driver binary is built with CMake into .bench_build/
(or $CARGO_TARGET_DIR when set). Its tables go to stdout as they are produced; the last line of
stdout is one JSON object with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list. The exit code is
0 only when every output and schedule check passed.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["jacobi8", "matmul8", "quad8", "fuzz_sweep"]
# A timed run splits --seconds over this many fresh driver processes and reports medians over
# them. A pass's host time depends on the process as well as on the moment: now and then a whole
# process runs every pass 1.5-2x slower than its neighbours do, and one such process must not
# decide a run.
PROCESSES = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns its path, or None on failure."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "simspeed")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "simspeed", "-j4"])
    for cmd in steps:
        # Build chatter goes to stderr so the last stdout line stays the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("simspeed: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "simspeed")


def metric_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def run_driver(cmd, env):
    """Runs one driver process, echoing its tables; returns (exit code, RESULT objects)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    results = []
    for line in proc.stdout:
        if line.startswith("RESULT "):
            results.append(json.loads(line[len("RESULT "):]))
        else:
            sys.stdout.write(line)
    code = proc.wait()
    sys.stdout.flush()
    return code, results


def combine(runs):
    """Merges each workload's results from several processes: every metric becomes the median
    over processes, and virtual-clock metrics must agree exactly."""
    merged = {}
    for results in runs:
        for res in results:
            merged.setdefault(res["workload"], []).append(res)
    out = []
    for name, group in merged.items():
        res = {"workload": name, "correct": all(r["correct"] for r in group),
               "attempted": sum(r["attempted"] for r in group),
               "failed": sum(r["failed"] for r in group), "metrics": {}}
        for key, m in group[0]["metrics"].items():
            values = [r["metrics"][key]["value"] for r in group if key in r["metrics"]]
            if m["clock"] == "virtual" and len(set(values)) != 1:
                log("simspeed: %s: %s differs between processes: %s" % (name, key, values))
                res["correct"] = False
            res["metrics"][key] = dict(m, value=statistics.median(values))
        out.append(res)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--check", action="store_true",
                    help="untimed: set-up and two checked passes per workload")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simspeed: the simulator sources (src/) are not in this directory")
        return 2
    binary = build()
    if binary is None:
        return 2
    processes = PROCESSES if not (args.check or args.trace) else 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / processes), "--trace", str(args.trace)]
    if args.check:
        cmd.append("--check")
    elif args.trace:
        cmd += ["--spans", os.path.join(os.path.dirname(binary),
                                        "spans_%s_seed%d.json" % (args.workload, args.seed))]
    # Transparent huge pages for malloc'd memory (the DSM replicas are tens of MiB): in
    # interleaved runs on a shared VM they cut matmul8's run-to-run spread by half.
    env = dict(os.environ)
    env["GLIBC_TUNABLES"] = ":".join(filter(None, [env.get("GLIBC_TUNABLES"),
                                                   "glibc.malloc.hugetlb=1"]))
    codes, runs = [], []
    for _ in range(processes):
        code, results = run_driver(cmd, env)
        codes.append(code)
        runs.append(results)
    results = combine(runs)

    correct = all(c == 0 for c in codes) and len(results) > 0
    metrics = {}
    for res in results:
        correct = correct and res["correct"]
        prefix = "" if args.workload != "all" else res["workload"] + "."
        # --check reports whatever the driver measured (the virtual metrics).
        specs = ([{"name": k, "unit": m["unit"]} for k, m in res["metrics"].items()]
                 if args.check else metric_specs(args.trace))
        for spec in specs:
            m = res["metrics"].get(spec["name"])
            if m is None or not math.isfinite(m["value"]) or m["unit"] != spec["unit"]:
                log("simspeed: %s: metric %s missing or malformed" % (res["workload"], spec["name"]))
                correct = False
                continue
            metrics[prefix + spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if not correct and failed == 0:
        # A driver died (a DFIL_CHECK abort) before it could report the failure.
        attempted += 1
        failed += 1
    if processes > 1:
        log("simspeed: medians over %d driver processes" % processes)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the simspeed benchmark: the untimed check on two seeds.

    python3 simspeed/selftest.py

Run it from the repository root. For each gated workload (BENCHMARK.json) and each of two seeds,
it runs set-up and two passes and requires every output check to pass. The app workloads inject
no faults, so their virtual results must also be identical across the two seeds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = [1, 2]


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    ok = True
    for name in workloads:
        virtual = []
        for seed in SEEDS:
            out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--check",
                                  "--workload", name, "--seed", str(seed)],
                                 capture_output=True, text=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            passed = out.returncode == 0 and res["correct"] and res["failed"] == 0
            virtual.append(res["metrics"])
            print("%-10s seed %d: %s (%d attempted)" % (name, seed, "ok" if passed else "FAILED",
                                                       res["attempted"]))
            ok = ok and passed
        if virtual[0] != virtual[1]:
            print("%-10s virtual results differ between seeds %s" % (name, SEEDS))
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

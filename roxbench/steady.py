#!/usr/bin/env python3
"""Steadiness check of the benchmark: repeats workloads over seeds.

    python3 roxbench/steady.py [--runs 10] [--first-seed 1]
                               [--workloads paper_joins,serve_mix]

Run from the repository root. For each workload it runs
`roxbench/run.py --trace 0` once per seed (first-seed, first-seed+1,
...) with the run length of BENCHMARK.json, then prints, for each
end-to-end metric, the median, the first and third quartiles
(statistics.quantiles(n=4)), the spread (q3 - q1) / median and the
metric's bound. A spread at or above a third of its bound is marked
WIDE (setup_s is reported but not held to it). It also checks that the
share of failed operations is the same in every run. All runs are kept
in <build root>/steady-<time>.json. Exit code 1 on a WIDE metric, an
uneven failure share or an incorrect run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    all_runs = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.time()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                print("%s seed %d: exit %d" % (workload, seed,
                                               proc.returncode))
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["wall_s"] = time.time() - start
            runs.append(result)
            ok &= result["correct"]
        all_runs[workload] = runs
        if len(runs) < 4:
            print("%s: too few runs" % workload)
            ok = False
            continue
        shares = {r["failed"] / r["attempted"] for r in runs}
        print("\n%s: %d runs, %.0f s each on average, failed share %s%s" % (
            workload, len(runs), statistics.mean(r["wall_s"] for r in runs),
            sorted(shares), "" if len(shares) == 1 else "  UNEVEN"))
        ok &= len(shares) == 1
        print("  %-20s %14s %14s %14s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            wide = spread >= bound / 3
            if name != "setup_s":
                ok &= not wide
            print("  %-20s %14.6g %14.6g %14.6g %7.1f%% %5.0f%% %s" % (
                name, med, q1, q3, 100 * spread, 100 * bound,
                "WIDE" if wide else ""))
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    root = root if os.path.isabs(root) else os.path.join(ROOT, root)
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, "steady-%d.json" % time.time())
    with open(path, "w") as f:
        json.dump(all_runs, f, indent=1)
    print("\nruns kept in %s" % os.path.relpath(path, ROOT))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

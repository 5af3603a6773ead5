#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 roxbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 roxbench/run.py --selftest

Run from the repository root. The first call configures and builds the
roxbench package (roxbench/CMakeLists.txt, Release) under the build
root — $CARGO_TARGET_DIR if set, else .bench_build — and later calls
rebuild only what changed. An untraced run splits --seconds over
PROCESSES benchmark processes and reports the median of their values
(their counts summed; latency and publish quantiles over the pooled
samples). The benchmark's stderr passes through; its
stdout is reduced to the result object, printed as the last line. Each
run also leaves a run record (host fingerprint, seed, counts, every
metric with its unit, notes, layer table) as one JSON document under
<build root>/records/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
PROCESSES = 5
# latency_p95_ms rests on at least this many latency samples per run.
MIN_P95_SAMPLES = 200


# Quantiles recomputed over the samples pooled from every process.
POOLED = {"latency_p50_ms": ("latency_ms", 0.50),
          "latency_p95_ms": ("latency_ms", 0.95),
          "publish_ms_p50": ("publish_ms", 0.50),
          "publish_ms_p95": ("publish_ms", 0.95)}


def quantile(values, q):
    """Linear-interpolated quantile, as the benchmark computes it."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def fail(message, code=1):
    print("roxbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        fail("engine sources (src/) not found next to roxbench/", 2)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "roxbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)
    return os.path.join(build_dir, "roxbench")


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "roxbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def host_fingerprint():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "git_sha": sha,
        "source_digest": source_digest(),
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and None in (args.workload, args.seed,
                                      args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required", 2)

    build_dir = os.path.join(build_root(), "roxbench")
    binary = build(build_dir)
    if args.selftest:
        sys.exit(subprocess.run([binary, "--selftest"],
                                timeout=RUN_TIMEOUT_S).returncode)

    # An untraced run is split over PROCESSES processes, each measuring
    # an equal share of --seconds, and reports the median of their
    # values: one process's memory placement shifts memory-bound timings
    # by several percent for its whole life, so a run of one process
    # would measure its placement as much as the code.
    processes = 1 if args.trace else PROCESSES
    share = max(1, args.seconds // processes)
    deadline = time.time() + RUN_TIMEOUT_S
    records = []
    pooled = {"latency_ms": [], "publish_ms": []}
    for _ in range(processes):
        cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%d" % share, "--trace=%d" % args.trace]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1, deadline - time.time()))
        except subprocess.TimeoutExpired:
            fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        if proc.returncode != 0:
            fail("benchmark exited with code %d" % proc.returncode)
        lines = proc.stdout.strip().splitlines()
        record = None
        for line in lines:
            if line.startswith("ROXBENCH_RECORD "):
                record = json.loads(line[len("ROXBENCH_RECORD "):])
            elif line.startswith("ROXBENCH_SAMPLES "):
                samples = json.loads(line[len("ROXBENCH_SAMPLES "):])
                for key in pooled:
                    pooled[key].extend(samples[key])
        if record is None:
            fail("benchmark printed no run record")
        result = json.loads(lines[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            fail("malformed result line: " + lines[-1])
        records.append(record)

    metrics = {}
    for name, first in records[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in records]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
        if name in POOLED and pooled[POOLED[name][0]]:
            metrics[name]["value"] = quantile(pooled[POOLED[name][0]],
                                              POOLED[name][1])
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "attempted": result["attempted"], "failed": result["failed"],
              "correct": result["correct"], "metrics": metrics,
              "processes": records}
    if not args.trace:
        samples = len(pooled["latency_ms"])
        record["latency_samples"] = samples
        if samples < MIN_P95_SAMPLES:
            print("roxbench: latency_p95_ms rests on %d latency samples, "
                  "fewer than %d" % (samples, MIN_P95_SAMPLES),
                  file=sys.stderr)
    record["host"] = host_fingerprint()
    record["unix_time"] = time.time()
    records_dir = os.path.join(build_root(), "records")
    os.makedirs(records_dir, exist_ok=True)
    path = os.path.join(records_dir, "%s-seed%d-trace%d-%d.json" % (
        args.workload, args.seed, args.trace, time.time_ns()))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print("roxbench: run record %s" % os.path.relpath(path, ROOT),
          file=sys.stderr)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

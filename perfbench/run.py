#!/usr/bin/env python3
"""Build and run the host-time benchmark.

    python3 perfbench/run.py --workload conntable_1m --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
benchmark and the library tree under ../src into .bench_build/perfbench; later
calls rebuild incrementally. The last line of standard output is the result
JSON printed by the benchmark binary. See perfbench/README.md.

Besides relaying the binary's result, this script checks that exact counts
repeat: the binary prints a fingerprint of simulated behaviour (flows,
inserts, moves, events, violations, ...), which is stored per binary,
workload, seed and --seconds. A later run with the same key, traced or not,
must print the same fingerprint, or the result is marked incorrect.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("conntable_1m", "pcc_scenario", "fleet_sync")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=840)


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, if the file exists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_fingerprint(args, fingerprint, result):
    """Marks the result incorrect if this key's fingerprint changed."""
    with open(BINARY, "rb") as f:
        binary_hash = hashlib.sha256(f.read()).hexdigest()[:16]
    key = f"{binary_hash}-{args.workload}-{args.seed}-{args.seconds:g}"
    store = os.path.join(BUILD, "fingerprints")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, key + ".json")
    if os.path.exists(path):
        with open(path) as f:
            previous = json.load(f)
        if previous != fingerprint:
            diff = sorted(k for k in set(previous) | set(fingerprint)
                          if previous.get(k) != fingerprint.get(k))
            print(f"note: CHECK FAILED: exact counts differ from an earlier run "
                  f"with the same seed: {', '.join(diff)}")
            result["correct"] = False
    else:
        with open(path, "w") as f:
            json.dump(fingerprint, f, sort_keys=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"benchmark exited with code {proc.returncode}")
        return 3

    result = json.loads(lines[-1])
    fingerprint = None
    for line in lines[:-1]:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
        print(line)
    if fingerprint is None:
        log("benchmark printed no fingerprint")
        return 3
    check_fingerprint(args, fingerprint, result)

    expected = expected_metrics(args.trace)
    if expected is not None and list(result["metrics"]) != expected:
        log(f"metrics {list(result['metrics'])} differ from BENCHMARK.json {expected}")
        return 4
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

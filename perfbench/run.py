#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload slice_hot --seed 1 --seconds 10 --trace 0

builds perfbench/ (and the library under src/) into $CARGO_TARGET_DIR or
.bench_build/, runs one workload, and prints every metric by name and unit;
the last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (and writes the spans as
Chrome trace JSON under the build directory).

Runs of one binary must repeat the deterministic counters exactly for a
workload and seed; they are kept in <build>/determinism.json and a
difference fails the run as nondeterminism.

Steadiness self-test (two sets of runs of every workload in
BENCHMARK.json, on seeds 1.. and 1001.., compared against its bounds;
names every metric/workload pair that fails):

    python3 perfbench/run.py --steadiness [--runs 10]
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("slice_hot", "range_cold", "refresh_online")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


class Lock:
    """Serializes builds and record-file updates of concurrent runs."""

    def __init__(self, directory):
        os.makedirs(directory, exist_ok=True)
        self.file = open(os.path.join(directory, "lock"), "w")

    def __enter__(self):
        fcntl.flock(self.file, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc):
        fcntl.flock(self.file, fcntl.LOCK_UN)
        self.file.close()


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/; run from a full checkout")
    cmake_dir = os.path.join(out, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    with Lock(out):
        for cmd in (["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", cmake_dir, "--target", "cubebench",
                     "-j", jobs]):
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "cubebench")


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_determinism(out, binary, workload, seed, counters):
    """Compares this run's deterministic counters with earlier runs of the
    same binary, workload and seed; returns the names that differ."""
    key = "%s/%s/%d" % (sha256(binary)[:16], workload, seed)
    path = os.path.join(out, "determinism.json")
    with Lock(out):
        records = {}
        if os.path.exists(path):
            with open(path) as f:
                records = json.load(f)
        seen = records.setdefault(key, {})
        differ = [name for name, value in counters.items()
                  if name in seen and seen[name] != value]
        for name, value in counters.items():
            seen.setdefault(name, value)
        with open(path + ".tmp", "w") as f:
            json.dump(records, f, indent=1, sort_keys=True)
        os.replace(path + ".tmp", path)
    return differ


def run_once(workload, seed, seconds, trace, quiet=False):
    """Builds if needed, runs one workload and returns the result dict."""
    out = build_dir()
    binary = build(out)
    run_dir = os.path.join(out, "run", "%s-%d" % (workload, os.getpid()))
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace, "--dir=" + run_dir]
    if trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        cmd.append("--trace-out=" + os.path.join(
            out, "traces", "%s-seed%d.json" % (workload, seed)))
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s seed %d timed out after %d s" % (workload, seed,
                                                  RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("%s seed %d exited with %d" % (workload, seed, done.returncode))
    report = json.loads(lines[-1])
    result = {key: report[key]
              for key in ("correct", "attempted", "failed", "metrics")}
    result["attempted"] = int(result["attempted"])
    result["failed"] = int(result["failed"])
    differ = check_determinism(out, binary, workload, seed,
                               report["deterministic"])
    if differ:
        print("NONDETERMINISM: %s seed %d: %s differ from an earlier run of "
              "this binary" % (workload, seed, ", ".join(differ)),
              file=sys.stderr)
        result["correct"] = False
    if not quiet:
        for line in lines[:-1]:
            print(line)
        for name, metric in result["metrics"].items():
            print("%-44s %16.6f %s" % (name, metric["value"], metric["unit"]))
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf"), median


def steadiness(args):
    """Two sets of runs; every end-to-end metric of every workload must keep
    its spread within the bound and its second median no worse than the
    first by more than the bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    values = {}  # (set, workload, metric) -> [values]
    for run_set in (0, 1):
        for i in range(args.runs):
            seed = 1 + run_set * 1000 + i
            for workload in workloads:
                result = run_once(workload, seed, seconds, 0, quiet=True)
                if not result["correct"] or result["failed"]:
                    fail("%s seed %d: incorrect result" % (workload, seed))
                for name, metric in result["metrics"].items():
                    values.setdefault((run_set, workload, name), []).append(
                        metric["value"])
                print("set %d run %d %s done" % (run_set, i, workload),
                      file=sys.stderr)
    failures = []
    print("%-15s %-24s %8s %8s %8s %8s %7s" % (
        "workload", "metric", "spread1", "spread2", "drift", "bound", "ok"))
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            s1, m1 = spread(values[(0, workload, name)])
            s2, m2 = spread(values[(1, workload, name)])
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else \
                (m1 - m2) / m1
            ok = worse <= bound and max(s1, s2) <= bound
            steady = max(s1, s2) <= bound / 3
            print("%-15s %-24s %8.4f %8.4f %8.4f %8.3f %7s" % (
                workload, name, s1, s2, worse, bound,
                "yes" if ok and steady else ("noisy" if ok else "NO")))
            if not ok:
                failures.append("%s/%s" % (workload, name))
    if failures:
        print("steadiness FAILED: " + ", ".join(failures))
        sys.exit(1)
    print("steadiness passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.steadiness:
        steadiness(args)
        return
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required")
    result = run_once(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

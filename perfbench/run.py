#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs it.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload lan-kv-wal --seed 1 \
        --seconds 40 --trace 0

prints the run's notes and, as its last stdout line, one JSON object with
the end-to-end metrics (--trace 0) or the per-layer ledger (--trace 1).

Every workload, untraced then traced, with a metric table, the ledger
check and the tracing overhead (exit status 1 if any run fails
validation):

    python3 perfbench/run.py

The self-tests of the benchmark's own arithmetic:

    python3 perfbench/run.py --selftest

Builds go to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the checkout root; build output goes to stderr.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["lan-kv-wal", "sim-ftskeen-2dest"]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "ctrl", "bench_plane.hpp")):
        sys.exit("perfbench: the wbam sources (src/) are not in this checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, target)


def run_one(binary, workload, seed, seconds, trace, capture):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch-dir", os.path.join(build_dir(), "run")]
    if trace:
        cmd += ["--spans-out", os.path.join(
            build_dir(), "spans", "%s-seed%d.tsv" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=seconds * 4 + 120)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, None
    return proc.returncode, proc.stdout


def run_all(binary, seed, seconds):
    results = {}
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            code, out = run_one(binary, w, seed, seconds, trace, True)
            lines = (out or "").strip().splitlines()
            for line in lines[:-1]:
                print(line)
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                res = None
            if code != 0 or res is None or not res["correct"]:
                print("FAILED: %s trace=%d (exit %d)" % (w, trace, code))
                ok = False
            results[(w, trace)] = res
    for trace, title in ((0, "end-to-end (untraced)"), (1, "per-layer (traced)")):
        print("\n%s, seed %d, %d s" % (title, seed, seconds))
        names = []
        for w in WORKLOADS:
            res = results.get((w, trace))
            for name in (res or {}).get("metrics", {}):
                if name not in names:
                    names.append(name)
        print("%-40s %-6s" % ("metric", "unit") +
              "".join("%20s" % w for w in WORKLOADS))
        for name in names:
            unit, cells = "", []
            for w in WORKLOADS:
                m = ((results.get((w, trace)) or {}).get("metrics") or {}).get(name)
                unit = m["unit"] if m else unit
                cells.append("%20.4f" % m["value"] if m else "%20s" % "-")
            print("%-40s %-6s" % (name, unit) + "".join(cells))
    print("\ntracing overhead (traced minus untraced):")
    for w in WORKLOADS:
        e2e, lay = results.get((w, 0)), results.get((w, 1))
        if not e2e or not lay:
            continue
        for base, traced in (("cpu_us_per_op", "trace.cpu_us_per_op"),
                             ("throughput_ops_s", "trace.throughput_ops_s"),
                             ("latency_p50_ms", "trace.latency_p50_ms")):
            b = e2e["metrics"][base]["value"]
            t = lay["metrics"][traced]["value"]
            print("  %-18s %-17s %+12.4f (%+.1f%%)" %
                  (w, base, t - b, 100.0 * (t - b) / b if b else 0.0))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    # SIGTERM raises SystemExit inside subprocess.run, which then kills and
    # waits for the running build or benchmark process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.selftest:
        return subprocess.run([build("perfbench_selftest")]).returncode
    binary = build("perfbench")
    if args.workload == "all":
        return run_all(binary, args.seed, args.seconds)
    code, _ = run_one(binary, args.workload, args.seed, args.seconds,
                      args.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())

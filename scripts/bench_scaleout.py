#!/usr/bin/env python3
"""Scale-out benchmark of the partitioned KV store: throughput and
latency percentiles vs. number of groups (= shards) at a fixed
replicas-per-group, white-box atomic multicast against the black-box
baselines, all driven through the distributed bench plane
(wbam_deploy.py -> wbamd + wbamctl run --workload=kv).

Each (protocol, group-count) cell is one full deployment: real OS
processes over TCP (local mode) or netem-shaped namespaces (netns mode),
zipfian KV ops whose destinations come from key placement — single-shard
gets/adds to one group, cross-shard transfers to exactly the two owning
groups. Every cell's run is validated by the coordinator (per-group
delivery digests AND application state hashes must agree) before its
point enters the report; a failed cell fails the sweep.

The merged BENCH_scaleout.json (schema: docs/BENCHMARKS.md):

  {"bench": "scaleout", "group_size": G, "workload": {...},
   "series": [{"protocol": "WbCast",
               "points": [{"groups": 1, "throughput_ops_s": ...,
                           "mean_ms": ..., "p50_ms": ..., "p99_ms": ...,
                           "ops": ..., "clients": ...}, ...]}, ...]}

Usage:
  scripts/bench_scaleout.py --build build --mode local \
      --groups 1,2,3 --protos wbcast,ftskeen --out BENCH_scaleout.json
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DEPLOY = os.path.join(HERE, "wbam_deploy.py")


def log(msg):
    print(f"[bench_scaleout] {msg}", flush=True)


def fail(msg):
    log(f"FAIL: {msg}")
    sys.exit(1)


def run_cell(args, proto, groups, outdir):
    """One deployment; returns the per-run fig JSON it produced."""
    cell_out = os.path.join(outdir, f"scaleout_{proto}_{groups}g.json")
    cmd = [sys.executable, DEPLOY, args.mode,
           f"--build={args.build}", f"--proto={proto}",
           f"--groups={groups}", f"--group-size={args.group_size}",
           f"--drivers={args.drivers}", f"--sessions={args.sessions}",
           f"--warmup-ms={args.warmup_ms}", f"--measure-ms={args.measure_ms}",
           f"--deadline-slack-ms={args.deadline_slack_ms}",
           "--workload=kv", f"--kv-keys={args.kv_keys}",
           f"--kv-theta={args.kv_theta}", f"--kv-read-pct={args.kv_read_pct}",
           f"--kv-cross-pct={args.kv_cross_pct}",
           f"--out={cell_out}",
           f"--workdir={os.path.join(outdir, f'run_{proto}_{groups}g')}"]
    if args.mode == "netns":
        cmd += [f"--cross={args.cross}", f"--regions={args.regions}"]
    log(f"cell {proto} x {groups} groups: {' '.join(cmd)}")
    status = subprocess.call(cmd)
    if status != 0:
        fail(f"deployment failed for {proto} with {groups} groups "
             f"(exit {status}) — see {outdir}")
    with open(cell_out) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default="build")
    parser.add_argument("--mode", default="local", choices=("local", "netns"))
    parser.add_argument("--groups", default="1,2,3",
                        help="comma-separated group counts (shards)")
    parser.add_argument("--protos", default="wbcast,ftskeen",
                        help="comma-separated protocols; wbcast plus at "
                             "least one black-box baseline")
    parser.add_argument("--group-size", type=int, default=3)
    parser.add_argument("--drivers", type=int, default=2)
    parser.add_argument("--sessions", type=int, default=4)
    parser.add_argument("--warmup-ms", type=int, default=500)
    parser.add_argument("--measure-ms", type=int, default=3000)
    parser.add_argument("--deadline-slack-ms", type=int, default=30000)
    parser.add_argument("--kv-keys", type=int, default=1000)
    parser.add_argument("--kv-theta", type=float, default=0.99)
    parser.add_argument("--kv-read-pct", type=int, default=50)
    parser.add_argument("--kv-cross-pct", type=int, default=10)
    parser.add_argument("--cross", default="20ms",
                        help="netns mode: cross-region one-way delay")
    parser.add_argument("--regions", type=int, default=0,
                        help="netns mode: region count (0 = one per group)")
    parser.add_argument("--out", default="BENCH_scaleout.json")
    parser.add_argument("--workdir", default=None)
    args = parser.parse_args()

    group_counts = [int(g) for g in args.groups.split(",") if g]
    protos = [p for p in args.protos.split(",") if p]
    if not group_counts or not protos:
        fail("need at least one group count and one protocol")

    outdir = args.workdir or tempfile.mkdtemp(prefix="wbam-scaleout-")
    os.makedirs(outdir, exist_ok=True)

    report = {
        "bench": "scaleout",
        "name": (f"KV scale-out, {args.group_size} replicas/group, "
                 f"zipf {args.kv_theta}, {args.kv_read_pct}% reads, "
                 f"{args.kv_cross_pct}% cross-shard transfers"),
        "runtime": "net-distributed",
        "group_size": args.group_size,
        "workload": {"kind": "kv", "keys": args.kv_keys,
                     "theta": args.kv_theta,
                     "read_pct": args.kv_read_pct,
                     "cross_pct": args.kv_cross_pct},
        "series": [],
    }
    for proto in protos:
        points = []
        for groups in group_counts:
            cell = run_cell(args, proto, groups, outdir)
            pt = dict(cell["series"][0]["points"][0])
            pt["groups"] = groups
            points.append({k: pt[k] for k in
                           ("groups", "throughput_ops_s", "mean_ms",
                            "p50_ms", "p99_ms", "ops", "clients")})
            # Every cell ran under full validation: the coordinator only
            # exits 0 when all replicas of every shard agreed on both the
            # delivery digest and the applied-state hash.
        report["series"].append(
            {"protocol": cell["series"][0]["protocol"], "points": points})

    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    log(f"wrote {args.out}")
    log("throughput (ops/s) vs groups:")
    header = "  groups  " + "  ".join(f"{s['protocol']:>10}"
                                      for s in report["series"])
    log(header)
    for i, groups in enumerate(group_counts):
        row = f"  {groups:>6}  " + "  ".join(
            f"{s['points'][i]['throughput_ops_s']:>10.0f}"
            for s in report["series"])
        log(row)


if __name__ == "__main__":
    main()

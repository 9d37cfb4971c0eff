#!/usr/bin/env python3
"""wbam_deploy.py — deployment driver for the distributed benchmark plane.

Launches a wbamd cluster plus the wbamctl coordinator in one of three
modes and reports the merged BENCH_fig7/fig8 JSON the coordinator writes
(schema: docs/BENCHMARKS.md; protocol: src/ctrl/messages.hpp):

  netns   Emulated WAN on ONE machine (requires root): one Linux network
          namespace per region, a full mesh of veth point-to-point links,
          and a `tc netem` qdisc on each veth END — so every DIRECTED
          region pair gets its own one-way delay (asymmetric links, the
          case where multicast designs actually differentiate). This is
          how CI reproduces the paper's Fig. 7/8 topology shapes without
          a testbed.

  local   Same process layout over plain loopback (no shaping, no root):
          the quick way to drive the whole control plane end-to-end.

  ssh     Real hosts: takes a topology file whose node addresses name the
          machines, launches wbamd there via ssh (binaries and the
          topology file must already be in place — see docs/DEPLOYMENT.md)
          and runs the coordinator locally.

  cleanup Deletes leftover wbam netns namespaces from aborted runs.

Examples:
  sudo scripts/wbam_deploy.py netns --build=build --groups=2 --group-size=3 \
      --drivers=2 --cross=20ms --sessions=4 --measure-ms=3000 \
      --expect-min-p50-ms=20 --out=BENCH_fig7.json
  scripts/wbam_deploy.py local --build=build --proto=ftskeen
  scripts/wbam_deploy.py ssh --build=/opt/wbam --topology=wan.topo

Everything here is stdlib-only python3.
"""

import argparse
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time


def log(msg):
    print(f"[wbam_deploy] {msg}", flush=True)


def fail(msg):
    print(f"[wbam_deploy] ERROR: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def run(cmd, check=True, quiet=False, **kwargs):
    if not quiet:
        log("$ " + " ".join(cmd))
    return subprocess.run(cmd, check=check, **kwargs)


def monotonic_epoch_ns():
    """Shared steady-clock epoch for every process on this machine
    (CLOCK_MONOTONIC is what libstdc++'s steady_clock reads on Linux)."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def parse_duration_ns(text):
    """Mirror of harness::parse_duration: 150 / 150ns / 40us / 0.1ms / 2s."""
    units = {"ns": 1, "us": 1_000, "ms": 1_000_000, "s": 1_000_000_000}
    for suffix, scale in sorted(units.items(), key=lambda kv: -len(kv[0])):
        if text.endswith(suffix):
            number = text[: -len(suffix)]
            break
    else:
        number, scale = text, 1
    try:
        value = float(number)
    except ValueError:
        fail(f"bad duration '{text}'")
    if value < 0:
        fail(f"bad duration '{text}'")
    return int(value * scale + 0.5)


def format_ms(ns):
    return f"{ns / 1e6:g}ms"


# --- topology -----------------------------------------------------------------


class Layout:
    """Process layout + region/address assignment (mirrors
    harness::TopologySpec::make_grouped: replicas regioned by group,
    drivers and the coordinator round-robin)."""

    def __init__(self, args, node_ip, base_port):
        self.groups = args.groups
        self.group_size = args.group_size
        self.drivers = args.drivers
        self.clients = args.drivers + 1  # last client pid = coordinator
        self.replicas = self.groups * self.group_size
        self.processes = self.replicas + self.clients
        wanted = getattr(args, "regions", 0)
        self.regions = min(wanted, self.groups) if wanted else self.groups
        if self.regions < 1:
            fail("--regions must be >= 1")
        self.region_of = []
        for p in range(self.replicas):
            self.region_of.append((p // self.group_size) % self.regions)
        for c in range(self.clients):
            self.region_of.append(c % self.regions)
        self.coordinator = self.replicas + self.clients - 1
        self.addr_of = [
            (node_ip(self.region_of[p]), base_port + p)
            for p in range(self.processes)
        ]

    def topology_text(self, local_ns, cross_ns):
        lines = [
            "wbam-topology v1",
            f"groups {self.groups}",
            f"group_size {self.group_size}",
            f"clients {self.clients}",
            "staggered_leaders 0",
            f"regions {self.regions}",
        ]
        for a in range(self.regions):
            for b in range(self.regions):
                owd = local_ns if a == b else cross_ns
                if owd:
                    lines.append(f"owd {a} {b} {owd}ns")
        for p in range(self.processes):
            host, port = self.addr_of[p]
            lines.append(f"node {p} region {self.region_of[p]} addr {host}:{port}")
        return "\n".join(lines) + "\n"


# --- netns plumbing -----------------------------------------------------------


class NetnsMesh:
    """One namespace per region, full mesh of veth /30 links, one netem
    qdisc per veth end (= per DIRECTED region pair), and a /32 node
    address per region routed over the right link."""

    def __init__(self, run_id, regions):
        if regions > 8:
            fail("netns mode supports at most 8 regions (veth name budget)")
        self.run_id = run_id
        self.regions = regions
        self.namespaces = [f"wbamns-{run_id}-{r}" for r in range(regions)]

    def ns_exec(self, region, cmd):
        return ["ip", "netns", "exec", self.namespaces[region]] + cmd

    def node_ip(self, region):
        return f"10.231.{region}.1"

    def veth(self, a, b):
        return f"wb{self.run_id}{a}{b}"  # <= 15 chars for run_id of 4

    def build(self, owd, loss_pct, require_shaping):
        for ns in self.namespaces:
            run(["ip", "netns", "add", ns], quiet=True)
        for r in range(self.regions):
            run(self.ns_exec(r, ["ip", "link", "set", "lo", "up"]), quiet=True)
            run(self.ns_exec(r, ["ip", "addr", "add", f"{self.node_ip(r)}/32",
                                 "dev", "lo"]), quiet=True)
        shaped = True
        link = 0
        for a in range(self.regions):
            for b in range(a + 1, self.regions):
                va, vb = self.veth(a, b), self.veth(b, a)
                subnet = f"10.232.{link}"
                link += 1
                run(["ip", "link", "add", va, "netns", self.namespaces[a],
                     "type", "veth", "peer", "name", vb, "netns",
                     self.namespaces[b]], quiet=True)
                for region, dev, addr, peer_ip, peer_node in (
                    (a, va, f"{subnet}.1/30", f"{subnet}.2", self.node_ip(b)),
                    (b, vb, f"{subnet}.2/30", f"{subnet}.1", self.node_ip(a)),
                ):
                    run(self.ns_exec(region, ["ip", "addr", "add", addr,
                                              "dev", dev]), quiet=True)
                    run(self.ns_exec(region, ["ip", "link", "set", dev, "up"]),
                        quiet=True)
                    run(self.ns_exec(region, ["ip", "route", "add",
                                              f"{peer_node}/32", "via",
                                              peer_ip, "dev", dev]),
                        quiet=True)
                # One netem per DIRECTED pair: the a->b delay shapes va's
                # egress, the b->a delay shapes vb's — asymmetry for free.
                for region, dev, delay_ns in ((a, va, owd(a, b)),
                                              (b, vb, owd(b, a))):
                    netem = ["tc", "qdisc", "add", "dev", dev, "root",
                             "netem", "delay", format_ms(delay_ns)]
                    if loss_pct:
                        netem += ["loss", f"{loss_pct}%"]
                    r = run(self.ns_exec(region, netem), check=False,
                            quiet=True, capture_output=True)
                    if r.returncode != 0:
                        shaped = False
        if not shaped:
            if require_shaping:
                self.destroy()
                fail("tc netem unavailable (sch_netem kernel module?) and "
                     "--require-shaping was given")
            log("WARNING: tc netem unavailable — links are UNSHAPED "
                "(orchestration still exercised; latencies are loopback)")
        return shaped

    def destroy(self):
        for ns in self.namespaces:
            run(["ip", "netns", "del", ns], check=False, quiet=True,
                capture_output=True)


# --- run orchestration --------------------------------------------------------


def wait_all(procs, names, timeout_s):
    deadline = time.monotonic() + timeout_s
    status = {}
    for proc, name in zip(procs, names):
        remaining = max(0.5, deadline - time.monotonic())
        try:
            status[name] = proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            status[name] = "timeout"
    return status


def check_json(path, args):
    import json
    with open(path) as f:
        report = json.load(f)
    point = report["series"][0]["points"][0]
    log(f"merged result: {point['clients']} sessions, "
        f"{point['throughput_ops_s']:.0f} ops/s, p50 {point['p50_ms']:.2f} ms, "
        f"p99 {point['p99_ms']:.2f} ms, {point['ops']} ops from "
        f"{report['distributed']['driver_processes']} driver processes")
    if report["distributed"]["driver_processes"] < 2:
        fail("expected >= 2 driver processes in the merged report")
    if args.expect_min_p50_ms is not None:
        if point["p50_ms"] < args.expect_min_p50_ms:
            fail(f"p50 {point['p50_ms']:.2f} ms < expected minimum "
                 f"{args.expect_min_p50_ms} ms — netem delay not visible "
                 f"in the merged percentiles")
        log(f"latency floor OK: p50 {point['p50_ms']:.2f} ms >= "
            f"{args.expect_min_p50_ms} ms (injected one-way delay)")


def launch_cluster(args, layout, topo_path, exec_in_region, outdir):
    """Starts every wbamd (replicas + drivers), then the coordinator;
    returns (coordinator status, wbamd statuses). With --crash-pid set, a
    helper thread SIGKILLs that replica mid-run and relaunches the exact
    same command after --restart-after-ms — the rejoining process replays
    its WAL and catches up, and the coordinator's delivery-sequence check
    then covers the full run including the outage."""
    epoch = monotonic_epoch_ns()
    wbamd = os.path.join(args.build, "wbamd")
    wbamctl = os.path.join(args.build, "wbamctl")
    run_ms = args.warmup_ms + args.measure_ms + args.deadline_slack_ms
    crash_pid = getattr(args, "crash_pid", None)
    wal_dir = getattr(args, "wal_dir", None)
    # Skeen assumes reliable processes and never replays: a WAL would only
    # hold its acks until each handler's records commit, and a restarted
    # node could not rejoin.
    if args.proto == "skeen" and (wal_dir or crash_pid is not None):
        fail("--wal-dir and --crash-pid cannot be combined with "
             "--proto=skeen: Skeen assumes reliable processes and never "
             "replays")
    if crash_pid is not None:
        if not 0 <= crash_pid < layout.replicas:
            fail("--crash-pid must name a replica pid")
        # A restarted node rebuilds its delivery sequence from its WAL,
        # but not its KV shard: the coordinator would fail the run.
        if args.workload == "kv":
            fail("--crash-pid cannot be combined with --workload=kv: a "
                 "restarted replica does not rebuild its KV shard")
        if wal_dir is None:
            # A kill -9'd replica can only rejoin with its pre-crash
            # digest if it was writing a WAL.
            wal_dir = os.path.join(outdir, "wal")
    if wal_dir:
        os.makedirs(wal_dir, exist_ok=True)
    metrics_dir = getattr(args, "metrics_dir", None)
    if metrics_dir:
        os.makedirs(metrics_dir, exist_ok=True)
    procs, names, cmds = [], [], []
    for p in range(layout.processes):
        if p == layout.coordinator:
            continue
        cmd = [wbamd, f"--pid={p}", f"--topology={topo_path}",
               f"--epoch-ns={epoch}", f"--run-ms={run_ms}"]
        if getattr(args, "verbose", False):
            cmd.append("-v")
        if metrics_dir:
            cmd += [f"--metrics-dump="
                    f"{os.path.join(metrics_dir, f'metrics_p{p}.jsonl')}",
                    f"--metrics-interval-ms={args.metrics_interval_ms}"]
        if p < layout.replicas and wal_dir:
            cmd += [f"--wal-dir={wal_dir}",
                    f"--wal-sync={getattr(args, 'wal_sync', 'group')}"]
        full = exec_in_region(layout.region_of[p], cmd)
        procs.append(subprocess.Popen(
            full, stdout=open(os.path.join(outdir, f"wbamd_{p}.log"), "w"),
            stderr=subprocess.STDOUT))
        names.append(f"wbamd_{p}")
        cmds.append(full)
    log(f"launched {len(procs)} wbamd processes "
        f"({layout.replicas} replicas + {layout.drivers} drivers)")

    ctl = [wbamctl, "run", f"--topology={topo_path}", f"--epoch-ns={epoch}",
           f"--proto={args.proto}", f"--dest-groups={args.dest_groups}",
           f"--sessions={args.sessions}", f"--payload={args.payload}",
           f"--warmup-ms={args.warmup_ms}", f"--measure-ms={args.measure_ms}",
           f"--deadline-ms={run_ms}", f"--fig={args.fig}",
           f"--out={args.out}"]
    if metrics_dir:
        ctl.append(f"--metrics-dump="
                   f"{os.path.join(metrics_dir, 'metrics_merged.json')}")
    if getattr(args, "workload", "bytes") == "kv":
        ctl += [f"--workload=kv", f"--kv-keys={args.kv_keys}",
                f"--kv-theta={args.kv_theta}",
                f"--kv-read-pct={args.kv_read_pct}",
                f"--kv-cross-pct={args.kv_cross_pct}"]
    injector = None
    try:
        coord = subprocess.Popen(exec_in_region(
            layout.region_of[layout.coordinator], ctl))
        if crash_pid is not None:
            idx = names.index(f"wbamd_{crash_pid}")

            def inject():
                time.sleep(args.crash_after_ms / 1000)
                # `ip netns exec` execs wbamd in-process, so the Popen pid
                # IS the daemon in both deployment modes: SIGKILL lands on
                # wbamd itself, no shutdown path runs.
                procs[idx].kill()
                procs[idx].wait()
                log(f"killed wbamd_{crash_pid} (SIGKILL) "
                    f"{args.crash_after_ms} ms into the run")
                time.sleep(args.restart_after_ms / 1000)
                procs[idx] = subprocess.Popen(
                    cmds[idx],
                    stdout=open(os.path.join(
                        outdir, f"wbamd_{crash_pid}_restarted.log"), "w"),
                    stderr=subprocess.STDOUT)
                log(f"restarted wbamd_{crash_pid} — replaying its WAL")

            injector = threading.Thread(target=inject, daemon=True)
            injector.start()
        coord_status = coord.wait(timeout=run_ms / 1000 + 60)
        if injector is not None:
            injector.join(timeout=30)
        statuses = wait_all(procs, names, timeout_s=run_ms / 1000 + 30)
        return coord_status, statuses
    except BaseException:
        for proc in procs:
            proc.kill()
        raise


def check_wal_recovery(outdir, crash_pid):
    """The restarted wbamd prints its WAL recovery stats at boot; a crash
    injected mid-run must leave durable state behind, so zero recovered
    records means the WAL wiring (or the crash timing) is broken."""
    path = os.path.join(outdir, f"wbamd_{crash_pid}_restarted.log")
    if not os.path.exists(path):
        fail(f"wbamd_{crash_pid} was never restarted (no {path})")
    with open(path) as f:
        text = f.read()
    m = re.search(r"(\d+) records recovered", text)
    if m is None:
        fail(f"restarted wbamd_{crash_pid} printed no WAL recovery line")
    if int(m.group(1)) == 0:
        fail(f"restarted wbamd_{crash_pid} recovered 0 WAL records — the "
             f"crash predated any durable state; raise --crash-after-ms")
    log(f"replica p{crash_pid} recovered {m.group(1)} WAL records on "
        f"restart and rejoined with a matching digest")


def finish_run(args, coord_status, statuses, outdir):
    bad = {n: s for n, s in statuses.items() if s != 0}
    if coord_status != 0:
        fail(f"coordinator exited {coord_status} (wbamd statuses: {bad})")
    if bad:
        fail(f"wbamd processes failed: {bad}")
    check_json(args.out, args)
    if getattr(args, "crash_pid", None) is not None:
        check_wal_recovery(outdir, args.crash_pid)
    log(f"PASS — merged report in {args.out}")


def cmd_netns(args):
    if os.geteuid() != 0:
        fail("netns mode needs root (sudo) for ip netns / tc")
    if not shutil.which("ip") or not shutil.which("tc"):
        fail("netns mode needs the iproute2 tools (ip, tc)")
    run_id = f"{random.randrange(16**4):04x}"
    local_ns = parse_duration_ns(args.local)
    cross_ns = parse_duration_ns(args.cross)
    outdir = args.workdir or f"/tmp/wbam-deploy-{run_id}"
    os.makedirs(outdir, exist_ok=True)

    # Every region is its own network namespace, so a fixed port range
    # cannot collide with anything outside the run.
    layout = Layout(args, node_ip=lambda r: f"10.231.{r}.1", base_port=7100)
    mesh = NetnsMesh(run_id, layout.regions)
    log(f"namespaces: {layout.regions} regions, cross-region one-way "
        f"{args.cross}, {layout.replicas} replicas + {layout.drivers} "
        f"drivers + coordinator")
    try:
        mesh.build(owd=lambda a, b: cross_ns, loss_pct=args.loss,
                   require_shaping=args.require_shaping)
        topo_path = os.path.join(outdir, "cluster.topo")
        with open(topo_path, "w") as f:
            # --local is recorded in the topology file so its sim twin
            # (`wbamctl sim --topology=cluster.topo`) models the declared
            # intra-region delay; the emulated cluster's intra-region
            # traffic itself rides the namespace's loopback (real
            # ~0.05 ms, the paper's LAN figure — netem shapes only the
            # cross-region veths).
            f.write(layout.topology_text(local_ns=local_ns, cross_ns=cross_ns))
        coord_status, statuses = launch_cluster(
            args, layout, topo_path, mesh.ns_exec, outdir)
        finish_run(args, coord_status, statuses, outdir)
    finally:
        if args.keep:
            log(f"--keep: namespaces and {outdir} left in place")
        else:
            mesh.destroy()


def cmd_local(args):
    run_id = f"{random.randrange(16**4):04x}"
    outdir = args.workdir or f"/tmp/wbam-deploy-{run_id}"
    os.makedirs(outdir, exist_ok=True)
    # Random sub-32768 base port; a collision surfaces as an early wbamd
    # death and we retry with a fresh range.
    for attempt in range(3):
        base_port = 20000 + random.randrange(12000)
        layout = Layout(args, node_ip=lambda r: "127.0.0.1",
                        base_port=base_port)
        topo_path = os.path.join(outdir, "cluster.topo")
        with open(topo_path, "w") as f:
            f.write(layout.topology_text(local_ns=0, cross_ns=0))
        try:
            coord_status, statuses = launch_cluster(
                args, layout, topo_path, lambda r, cmd: cmd, outdir)
        except subprocess.TimeoutExpired:
            fail("coordinator timed out")
        if coord_status != 0 and attempt + 1 < 3 and any(
                s != 0 for s in statuses.values()):
            log(f"retrying with a fresh port range (attempt {attempt + 2}) "
                f"— possible port collision on base {base_port}")
            continue
        finish_run(args, coord_status, statuses, outdir)
        return


def cmd_ssh(args):
    if not args.topology:
        fail("ssh mode needs --topology=FILE with real host addresses")
    # The topology file is authoritative: shape and addresses come from it.
    spec = {}
    hosts = []
    with open(args.topology) as f:
        for line in f:
            tok = line.split("#", 1)[0].split()
            if not tok:
                continue
            if tok[0] in ("groups", "group_size", "clients"):
                spec[tok[0]] = int(tok[1])
            elif tok[0] == "node":
                hosts.append(tok[5].rsplit(":", 1)[0])
    replicas = spec["groups"] * spec["group_size"]
    processes = replicas + spec["clients"]
    if len(hosts) != processes:
        fail(f"topology file names {len(hosts)} nodes for {processes} pids")
    coordinator = processes - 1
    # Distinct machines cannot share a steady-clock epoch: no --epoch-ns,
    # so START falls back to relative measurement windows.
    run_ms = args.warmup_ms + args.measure_ms + args.deadline_slack_ms
    procs, names = [], []
    remote_topo = args.remote_topology or args.topology
    wbamd = os.path.join(args.build, "wbamd")
    for p in range(processes):
        if p == coordinator:
            continue
        cmd = [wbamd, f"--pid={p}", f"--topology={remote_topo}",
               f"--run-ms={run_ms}"]
        if args.metrics_dir:
            # The directory is on the REMOTE host and must already exist
            # (same contract as the binaries and the topology file).
            cmd += [f"--metrics-dump="
                    f"{args.metrics_dir}/metrics_p{p}.jsonl",
                    f"--metrics-interval-ms={args.metrics_interval_ms}"]
        procs.append(subprocess.Popen(["ssh", "-o", "BatchMode=yes",
                                       hosts[p]] + cmd))
        names.append(f"ssh_{hosts[p]}_p{p}")
    log(f"launched {len(procs)} remote wbamd processes over ssh")
    ctl = [os.path.join(args.build, "wbamctl"), "run",
           f"--topology={args.topology}", f"--proto={args.proto}",
           f"--dest-groups={args.dest_groups}", f"--sessions={args.sessions}",
           f"--payload={args.payload}", f"--warmup-ms={args.warmup_ms}",
           f"--measure-ms={args.measure_ms}", f"--deadline-ms={run_ms}",
           f"--fig={args.fig}", f"--out={args.out}"]
    if args.metrics_dir:
        os.makedirs(args.metrics_dir, exist_ok=True)  # wbamctl runs locally
        ctl.append(f"--metrics-dump="
                   f"{args.metrics_dir}/metrics_merged.json")
    try:
        coord_status = subprocess.Popen(ctl).wait(timeout=run_ms / 1000 + 120)
    except BaseException:
        # Unreachable host, timeout, ^C: reap the ssh children instead of
        # orphaning them (the remote wbamd still stops at its own
        # --run-ms deadline).
        for proc in procs:
            proc.kill()
        raise
    statuses = wait_all(procs, names, timeout_s=run_ms / 1000 + 60)
    bad = {n: s for n, s in statuses.items() if s != 0}
    if coord_status != 0 or bad:
        fail(f"distributed run failed (coordinator {coord_status}, {bad})")
    check_json(args.out, args)
    log(f"PASS — merged report in {args.out}")


def cmd_cleanup(_args):
    out = subprocess.run(["ip", "netns", "list"], capture_output=True,
                         text=True, check=False).stdout
    for line in out.splitlines():
        name = line.split()[0] if line.split() else ""
        if name.startswith("wbamns-"):
            run(["ip", "netns", "del", name], check=False)
    log("cleanup done")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    modes = {}
    for mode in ("netns", "local", "ssh", "cleanup"):
        modes[mode] = sub.add_parser(mode)
    for mode in ("netns", "local", "ssh"):
        m = modes[mode]
        m.add_argument("--build", default="build",
                       help="directory with wbamd/wbamctl binaries")
        m.add_argument("--proto", default="wbcast")
        m.add_argument("--groups", type=int, default=2)
        m.add_argument("--group-size", type=int, default=3)
        m.add_argument("--drivers", type=int, default=2)
        m.add_argument("--sessions", type=int, default=4)
        m.add_argument("--dest-groups", type=int, default=2)
        m.add_argument("--payload", type=int, default=20)
        m.add_argument("--warmup-ms", type=int, default=500)
        m.add_argument("--measure-ms", type=int, default=3000)
        m.add_argument("--deadline-slack-ms", type=int, default=30000)
        m.add_argument("--workload", default="bytes",
                       choices=("bytes", "kv"),
                       help="bytes = opaque-payload microbenchmark; kv = "
                            "zipfian partitioned-store scale-out workload")
        m.add_argument("--kv-keys", type=int, default=1000)
        m.add_argument("--kv-theta", type=float, default=0.99)
        m.add_argument("--kv-read-pct", type=int, default=50)
        m.add_argument("--kv-cross-pct", type=int, default=10)
        m.add_argument("--fig", type=int, default=7)
        m.add_argument("--out", default="BENCH_fig7.json")
        m.add_argument("--expect-min-p50-ms", type=float, default=None,
                       help="fail unless the merged p50 is at least this "
                            "(CI: the injected one-way delay)")
        m.add_argument("--workdir", default=None)
        m.add_argument("--metrics-dir", default=None,
                       help="white-box telemetry: every wbamd writes "
                            "<dir>/metrics_p<pid>.jsonl (delta lines + final "
                            "snapshot) and wbamctl writes "
                            "<dir>/metrics_merged.json (ssh: the directory "
                            "must already exist on the remote hosts)")
        m.add_argument("--metrics-interval-ms", type=int, default=1000,
                       help="cadence of the per-process delta lines")
        m.add_argument("--topology", default=None)
        m.add_argument("--verbose", action="store_true",
                       help="run wbamd/wbamctl with -v (logs in the workdir)")
    for mode in ("netns", "local"):
        m = modes[mode]
        m.add_argument("--wal-dir", default=None,
                       help="directory for per-replica WALs (default: only "
                            "created when --crash-pid needs one)")
        m.add_argument("--wal-sync", default="group",
                       choices=("off", "group", "always"))
        m.add_argument("--crash-pid", type=int, default=None,
                       help="replica pid to kill -9 mid-run and restart "
                            "(crash-recovery smoke)")
        m.add_argument("--crash-after-ms", type=int, default=1500,
                       help="when to SIGKILL --crash-pid, from launch")
        m.add_argument("--restart-after-ms", type=int, default=1500,
                       help="downtime between the SIGKILL and the relaunch")
    modes["netns"].add_argument("--regions", type=int, default=0,
                                help="default: one region per group")
    modes["netns"].add_argument("--cross", default="20ms",
                                help="one-way cross-region delay")
    modes["netns"].add_argument("--local", default="0",
                                help="intra-region delay recorded in the "
                                     "topology file for the sim twin; the "
                                     "emulated traffic itself rides "
                                     "unshaped loopback")
    modes["netns"].add_argument("--loss", type=float, default=0.0)
    modes["netns"].add_argument("--require-shaping", action="store_true")
    modes["netns"].add_argument("--keep", action="store_true")
    modes["ssh"].add_argument("--remote-topology", default=None,
                              help="path of the topology file on the "
                                   "remote hosts (default: same as local)")
    args = parser.parse_args()

    if args.mode == "netns":
        cmd_netns(args)
    elif args.mode == "local":
        cmd_local(args)
    elif args.mode == "ssh":
        cmd_ssh(args)
    else:
        cmd_cleanup(args)


if __name__ == "__main__":
    signal.signal(signal.SIGINT, lambda *_: sys.exit(130))
    main()

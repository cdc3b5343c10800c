#!/usr/bin/env python3
"""Smoke-test the multi-daemon sweep fleet end to end.

Boots real `specsim_serve` daemons on ephemeral local TCP ports and
drives them through `specsim_bench --connect`, asserting the fleet
contract:

1. Byte identity: a sweep sharded across two daemons produces exactly
   the serial run's CSV — for the main scenario and an ablation.
2. Failover: SIGKILL of one daemon mid-sweep (after the first row has
   streamed) still completes, still byte-identical, and the driver
   reports at least one endpoint death.
3. Weak scaling (optional, --min-scaling): a cold 2-daemon fleet run
   must be at least N times faster than a cold 1-daemon run of the
   same sweep. The gate only applies when a calibration burn shows
   the box really runs two processes in parallel: advertised CPUs are
   not enough (shared or throttled vCPUs run two burners at ~1x), and
   where two daemons time-slice one core wall-time parity is the
   correct result. With --bench-out the measured times are written as
   a JSON block for the benchmark trajectory.

Exit status: 0 = pass, 1 = contract violation, 2 = usage error.
"""

import argparse
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

DEATHS_RE = __import__("re").compile(r"(\d+) endpoint deaths")
# Summed CPU over wall time two burners must reach for the scaling
# gate to apply (~2 on two free cores, ~1 when they share one).
MIN_PARALLELISM = 1.5


class Daemon:
    """One specsim_serve child on an ephemeral local TCP port."""

    def __init__(self, serve, tmp, name, workers, cache_dir=None):
        self.port_file = os.path.join(tmp, f"{name}.port")
        cmd = [serve, "--tcp", "127.0.0.1:0",
               "--port-file", self.port_file,
               "--workers", str(workers)]
        if cache_dir:
            cmd += ["--cache-dir", cache_dir]
        self.log_path = os.path.join(tmp, f"{name}.log")
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(cmd, stdout=self.log,
                                     stderr=self.log)
        self.endpoint = None

    def wait_ready(self, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                with open(self.port_file) as f:
                    port = int(f.read().strip())
                if port:
                    self.endpoint = f"127.0.0.1:{port}"
                    return self.endpoint
            except (OSError, ValueError):
                pass
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        print(f"error: daemon never became ready "
              f"(see {self.log_path})", file=sys.stderr)
        sys.exit(1)

    def kill9(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.kill9()
        self.log.close()


def run_bench(bench, scenario, out_path, connect=None, wait=True):
    cmd = [bench, scenario, "--csv", "--out", out_path]
    if connect:
        cmd += ["--connect", connect]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    if not wait:
        return proc, t0
    stdout, stderr = proc.communicate()
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        print(f"error: {' '.join(cmd)} exited {proc.returncode}",
              file=sys.stderr)
        sys.stderr.write(stderr)
        sys.exit(1)
    return stderr, elapsed


def read_file(path):
    with open(path, "rb") as f:
        return f.read()


def expect_identical(name, serial_csv, fleet_csv):
    if read_file(serial_csv) == read_file(fleet_csv):
        print(f"  OK {name}: fleet CSV is byte-identical to serial")
        return
    print(f"FAIL {name}: fleet CSV differs from serial run",
          file=sys.stderr)
    sys.exit(1)


def count_data_rows(path):
    try:
        with open(path) as f:
            return max(0, sum(1 for _ in f) - 1)  # minus header
    except OSError:
        return 0


def _burn(seconds):
    """Spin until this process has used @seconds of CPU time."""
    start = time.process_time()
    sink = 0
    while time.process_time() - start < seconds:
        for k in range(10000):
            sink += k
    return time.process_time() - start


def measured_parallelism(procs=2, burn_s=0.25):
    """Summed CPU time of @procs concurrent burners over wall time."""
    ctx = multiprocessing.get_context("fork")
    t0 = time.monotonic()
    with ctx.Pool(procs) as pool:
        cpu = pool.map(_burn, [burn_s] * procs)
    return sum(cpu) / (time.monotonic() - t0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench", help="path to the specsim_bench binary")
    ap.add_argument("serve", help="path to the specsim_serve binary")
    ap.add_argument("--scenario", default="fig11",
                    help="main (heavyweight) scenario")
    ap.add_argument("--ablation", default="ablation_rs",
                    help="second scenario for the identity check")
    ap.add_argument("--workers", type=int, default=1,
                    help="worker processes per daemon")
    ap.add_argument("--min-scaling", type=float, default=0.0,
                    help="required 1-daemon/2-daemon cold wall-time "
                         "ratio (0 = don't check timing)")
    ap.add_argument("--bench-out", metavar="PATH",
                    help="write measured fleet times as JSON")
    ap.add_argument("--artifacts", metavar="DIR",
                    help="keep CSVs and daemon logs under DIR")
    args = ap.parse_args()

    tmp = tempfile.mkdtemp(prefix="specsim_fleet_smoke_")
    daemons = []
    try:
        rc = run_phases(args, tmp, daemons)
    finally:
        for d in daemons:
            d.stop()
        if args.artifacts:
            os.makedirs(args.artifacts, exist_ok=True)
            for name in os.listdir(tmp):
                if name.endswith((".csv", ".log", ".json")):
                    shutil.copy(os.path.join(tmp, name),
                                args.artifacts)
        shutil.rmtree(tmp, ignore_errors=True)
    return rc


def run_phases(args, tmp, daemons):
    def start(name, cache=None):
        d = Daemon(args.serve, tmp, name, args.workers, cache)
        daemons.append(d)
        d.wait_ready()
        return d

    # --- Phase 1: serial baselines.
    serial = {}
    for sc in (args.scenario, args.ablation):
        serial[sc] = os.path.join(tmp, f"serial_{sc}.csv")
        _, t = run_bench(args.bench, sc, serial[sc])
        print(f"serial {sc}: {t:.2f}s")

    # --- Phase 2: two-daemon identity on both scenarios.
    a = start("ident_a", os.path.join(tmp, "cache_a"))
    b = start("ident_b", os.path.join(tmp, "cache_b"))
    fleet_ep = f"{a.endpoint},{b.endpoint}"
    for sc in (args.scenario, args.ablation):
        out = os.path.join(tmp, f"fleet_{sc}.csv")
        stderr, t = run_bench(args.bench, sc, out, connect=fleet_ep)
        print(f"fleet  {sc}: {t:.2f}s over {fleet_ep}")
        expect_identical(f"2-daemon {sc}", serial[sc], out)
    a.stop()
    b.stop()

    # --- Phase 3: SIGKILL failover mid-sweep (cold daemons so every
    # point actually executes).
    a = start("kill_a")
    b = start("kill_b")
    out = os.path.join(tmp, f"failover_{args.scenario}.csv")
    proc, t0 = run_bench(args.bench, args.scenario, out,
                         connect=f"{a.endpoint},{b.endpoint}",
                         wait=False)
    # Wait until the stream is provably mid-sweep, then kill B.
    deadline = time.monotonic() + 60
    while count_data_rows(out) < 1:
        if proc.poll() is not None or time.monotonic() > deadline:
            print("error: sweep finished or stalled before the kill "
                  "could be injected", file=sys.stderr)
            return 1
        time.sleep(0.01)
    b.kill9()
    print(f"  killed daemon B after "
          f"{time.monotonic() - t0:.2f}s / {count_data_rows(out)} "
          f"rows")
    stdout, stderr = proc.communicate(timeout=300)
    if proc.returncode != 0:
        print("FAIL failover: bench exited "
              f"{proc.returncode}\n{stderr}", file=sys.stderr)
        return 1
    m = DEATHS_RE.search(stderr)
    if not m or int(m.group(1)) < 1:
        print("FAIL failover: driver reported no endpoint death\n"
              + stderr, file=sys.stderr)
        return 1
    expect_identical("SIGKILL failover", serial[args.scenario], out)
    a.stop()

    # --- Phase 4: cold weak scaling, 1 vs 2 daemons.
    one = start("scale_one", os.path.join(tmp, "cache_s1"))
    out1 = os.path.join(tmp, "scale_one.csv")
    _, t1 = run_bench(args.bench, args.scenario, out1,
                      connect=one.endpoint)
    one.stop()

    sa = start("scale_two_a", os.path.join(tmp, "cache_s2a"))
    sb = start("scale_two_b", os.path.join(tmp, "cache_s2b"))
    out2 = os.path.join(tmp, "scale_two.csv")
    _, t2 = run_bench(args.bench, args.scenario, out2,
                      connect=f"{sa.endpoint},{sb.endpoint}")
    sa.stop()
    sb.stop()
    expect_identical("weak-scaling fleet", serial[args.scenario],
                     out2)

    scaling = t1 / t2 if t2 > 0 else float("inf")
    cores = os.cpu_count() or 1
    print(f"weak scaling ({args.scenario}, {args.workers} worker(s) "
          f"per daemon, {cores} CPU(s)): 1 daemon {t1:.2f}s, "
          f"2 daemons {t2:.2f}s -> {scaling:.2f}x")

    if args.bench_out:
        doc = {
            "schema": "specsim-fleet-bench-v1",
            "scenario": args.scenario,
            "workers_per_daemon": args.workers,
            "cores": cores,
            "one_daemon_s": round(t1, 4),
            "two_daemon_s": round(t2, 4),
            "scaling": round(scaling, 4),
        }
        with open(args.bench_out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        print(f"wrote {args.bench_out}")

    if args.min_scaling > 0:
        parallelism = measured_parallelism()
        if parallelism < MIN_PARALLELISM:
            print(f"SKIP scaling gate: two CPU burners ran "
                  f"{parallelism:.2f}x in parallel (need >= "
                  f"{MIN_PARALLELISM}x) on {cores} advertised CPU(s); "
                  "two daemons time-slice, parity expected")
        elif scaling < args.min_scaling:
            print(f"FAIL scaling: {scaling:.2f}x < required "
                  f"{args.min_scaling:.2f}x", file=sys.stderr)
            return 1

    print("fleet smoke: all phases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

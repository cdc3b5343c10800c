#!/usr/bin/env python3
"""Smoke-test the result cache and sharded sweeps end to end.

Runs one scenario through `specsim_bench --cache-dir` and asserts the
cache contract:

1. Byte identity: a warm rerun's CSV equals the cold CSV exactly —
   cached results must be indistinguishable from recomputed ones.
2. Hit accounting: the cold run misses and stores every point, the
   warm run hits every point (no misses, no corrupt entries), as
   reported by the driver's `[cache] ...` stderr line.
3. Shards: two concurrent `--shard 0/2` / `--shard 1/2` runs into one
   fresh cache store every point once, and the merge (the same command
   without --shard) hits every point and prints the serial CSV.
4. Recovery: a shard SIGKILLed after its first store, then rerun,
   serves its finished points as hits, the merge is still
   byte-identical to serial, and no tmp file the killed shard left
   behind survives in `<dir>/tmp/`.
5. Optional speedup floor (--min-speedup): the warm run must be at
   least N times faster than the cold run. Only meaningful for
   scenarios whose cold run is long enough to time reliably (fig11);
   pass 0 to skip for fast scenarios (table1).
6. Optional weak-scaling floor (--min-scaling): cold 2 shards plus
   merge must be at least N times faster than one cold process. The
   gate only applies when a calibration burn shows the box really runs
   two processes in parallel: advertised CPUs are not enough (shared
   or throttled vCPUs run two burners at ~1x), and where two shards
   time-slice one core wall-time parity is the correct result.

Exit status: 0 = pass, 1 = contract violation, 2 = usage error.
"""

import argparse
import glob
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import time

CACHE_LINE = re.compile(
    r"\[cache\] dir=\S+ hits=(\d+) misses=(\d+) stores=(\d+) "
    r"corrupt=(\d+)")
# Summed CPU over wall time two burners must reach for the scaling
# gate to apply (~2 on two free cores, ~1 when they share one).
MIN_PARALLELISM = 1.5


class Runner:
    """Launches specsim_bench for one scenario with fixed extra flags."""

    def __init__(self, bench, scenario, extra_args):
        self.base = [bench, scenario, *extra_args]

    def start(self, *args):
        return subprocess.Popen(self.base + list(args),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)

    def finish(self, proc):
        """Wait for @proc; return (stdout, cache stats or None)."""
        stdout, stderr = proc.communicate()
        if proc.returncode != 0:
            print(f"error: {' '.join(proc.args)} exited "
                  f"{proc.returncode}", file=sys.stderr)
            sys.stderr.write(stderr)
            sys.exit(1)
        m = CACHE_LINE.search(stderr)
        stats = dict(zip(("hits", "misses", "stores", "corrupt"),
                         map(int, m.groups()))) if m else None
        return stdout, stats

    def run(self, *args):
        """Run to completion; return (stdout, stats, seconds)."""
        t0 = time.monotonic()
        stdout, stats = self.finish(self.start(*args))
        return stdout, stats, time.monotonic() - t0

    def cached(self, cache_dir, *args):
        stdout, stats, t = self.run("--csv", "--cache-dir", cache_dir,
                                    *args)
        if stats is None:
            print("error: no '[cache] ...' accounting line on stderr",
                  file=sys.stderr)
            sys.exit(1)
        return stdout, stats, t

    def shards(self, cache_dir, count=2):
        """Run @count concurrent shards; return their stats."""
        procs = [self.start("--cache-dir", cache_dir, "--shard",
                            f"{k}/{count}") for k in range(count)]
        return [self.finish(p)[1] for p in procs]


def stored_objects(cache_dir):
    return len(glob.glob(os.path.join(cache_dir, "objects", "*",
                                      "*.json")))


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


def cache_phases(r, d, args, failures):
    cold_csv, cold, t_cold = r.cached(d)
    warm_csv, warm, t_warm = r.cached(d)
    points = cold["misses"]
    print(f"{args.scenario}: {points} points; "
          f"cold {t_cold * 1e3:.0f} ms "
          f"(hits={cold['hits']} misses={cold['misses']} "
          f"stores={cold['stores']}), "
          f"warm {t_warm * 1e3:.0f} ms "
          f"(hits={warm['hits']} misses={warm['misses']})")

    if warm_csv != cold_csv:
        failures.append("warm CSV differs from cold CSV "
                        "(cache hits must be byte-identical)")
    if cold["hits"] != 0 or cold["stores"] != points or points == 0:
        failures.append(f"cold-run accounting is off: {cold}")
    if warm["hits"] != points or warm["misses"] != 0:
        failures.append(
            f"warm run should hit all {points} points: {warm}")
    if cold["corrupt"] or warm["corrupt"]:
        failures.append("corrupt cache entries detected")
    if args.min_speedup > 0:
        speedup = t_cold / t_warm if t_warm > 0 else float("inf")
        print(f"warm speedup: {speedup:.1f}x "
              f"(required >= {args.min_speedup:.1f}x)")
        if speedup < args.min_speedup:
            failures.append(
                f"warm run only {speedup:.1f}x faster than cold "
                f"(need >= {args.min_speedup:.1f}x)")
    return points


def merge_check(r, d, serial_csv, points, what, failures):
    """The merge must replay every point and print the serial CSV."""
    merged, stats, _ = r.cached(d)
    if merged != serial_csv:
        failures.append(f"{what}: merged CSV differs from serial")
    if stats["hits"] != points or stats["misses"] != 0:
        failures.append(f"{what}: merge should hit all {points} "
                        f"points: {stats}")


def shard_phases(r, tmp, serial_csv, points, failures):
    d = os.path.join(tmp, "shards")
    stored = sum(s["stores"] for s in r.shards(d))
    if stored != points:
        failures.append(f"2 shards stored {stored} of {points} points")
    merge_check(r, d, serial_csv, points, "2 shards", failures)

    # SIGKILL shard 0 once it has stored a point, then rerun it.
    d = os.path.join(tmp, "killed")
    proc = r.start("--cache-dir", d, "--shard", "0/2")
    deadline = time.monotonic() + 60
    while stored_objects(d) < 1 and proc.poll() is None:
        if time.monotonic() > deadline:
            proc.kill()
            failures.append("shard 0/2 stored nothing within 60 s")
            return
        time.sleep(0.005)
    mid_run = proc.poll() is None
    proc.kill()
    proc.communicate()
    _, rerun, _ = r.run("--cache-dir", d, "--shard", "0/2")
    r.run("--cache-dir", d, "--shard", "1/2")
    print(f"recovery: shard 0/2 killed "
          f"{'mid-run' if mid_run else 'after it finished'}; rerun "
          f"hits={rerun['hits']} misses={rerun['misses']}")
    if rerun["hits"] == 0:
        failures.append("rerun of a killed shard served no hits")
    merge_check(r, d, serial_csv, points, "killed shard", failures)
    leftover = sorted(os.listdir(os.path.join(d, "tmp")))
    if leftover:
        failures.append(f"killed shard: {len(leftover)} tmp file(s) "
                        f"left in {d}/tmp: {leftover[:3]}")


def scaling_phase(r, tmp, args, failures):
    _, _, t1 = r.cached(os.path.join(tmp, "scale_one"))
    d = os.path.join(tmp, "scale_two")
    t0 = time.monotonic()
    r.shards(d)
    r.cached(d)
    t2 = time.monotonic() - t0
    scaling = t1 / t2 if t2 > 0 else float("inf")
    print(f"weak scaling ({args.scenario}, {os.cpu_count()} CPU(s)): "
          f"1 process {t1:.2f}s, 2 shards + merge {t2:.2f}s -> "
          f"{scaling:.2f}x")
    parallelism = measured_parallelism()
    if parallelism < MIN_PARALLELISM:
        print(f"SKIP scaling gate: two CPU burners ran "
              f"{parallelism:.2f}x in parallel (need >= "
              f"{MIN_PARALLELISM}x); two shards time-slice, parity "
              "expected")
    elif scaling < args.min_scaling:
        failures.append(f"2 shards only {scaling:.2f}x faster than one "
                        f"process (need >= {args.min_scaling:.2f}x)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench", help="path to the specsim_bench binary")
    ap.add_argument("scenario", help="scenario to sweep (e.g. fig11)")
    ap.add_argument("--min-speedup", type=float, default=0.0,
                    help="required cold/warm wall-time ratio "
                         "(0 = don't check timing)")
    ap.add_argument("--min-scaling", type=float, default=0.0,
                    help="required 1-process / 2-shard cold wall-time "
                         "ratio (0 = don't check timing)")
    ap.add_argument("--arg", action="append", default=[],
                    dest="extra_args", metavar="FLAG",
                    help="extra specsim_bench flag (repeatable)")
    args = ap.parse_args()

    r = Runner(args.bench, args.scenario, args.extra_args)
    failures = []
    with tempfile.TemporaryDirectory(prefix="specsim_cache_") as tmp:
        points = cache_phases(r, os.path.join(tmp, "cache"), args,
                              failures)
        serial_csv, _, _ = r.run("--csv")
        shard_phases(r, tmp, serial_csv, points, failures)
        if args.min_scaling > 0:
            scaling_phase(r, tmp, args, failures)

    if failures:
        print("\ncache smoke FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print("cache smoke passed")


if __name__ == "__main__":
    main()

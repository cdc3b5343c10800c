#!/usr/bin/env python3
"""End-to-end scenario benchmark for specsim.

Builds perfbench/ (a CMake package over the repository sources) into
.bench_build/perfbench/ and runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.

Two more modes, run from the repository root:

    python3 perfbench/run.py --report [--seconds S]
        every end-to-end metric by name and unit for each workload, then
        the per-layer table with the end-to-end metric each row should
        move; fails if layer self times cover < 90% of a traced pass.
    python3 perfbench/run.py --self-test [--seconds S]
        two traced runs of one seed per workload must give identical
        counts and digests, every span must nest inside its parent
        (checked by the benchmark), the trace must pass
        scripts/validate_trace.py, and the metric names and units must
        match BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "build" / "specsim_perfbench"
WORKLOADS = ["covert_channel", "defense_suite", "smt_contention",
             "sweep_cache"]
# The seed whose result digests are pinned in expected.json.
DEFAULT_SEED = 1
# Layer self time must cover this share of a traced pass.
MIN_COVERAGE = 0.90

# Which end-to-end metric each per-layer row should move, and where.
MOVES = {
    "experiment.points": "sample count of experiment.point_ms",
    "experiment.point_ms.p50": "wall_s on sweep_cache, smt_contention",
    "experiment.point_ms.p90": "wall_s on sweep_cache, smt_contention",
    "experiment.overhead_ms": "wall_s on sweep_cache, smt_contention",
    "attack.channel_s": "wall_s on covert_channel",
    "attack.trial_us": "wall_s on covert_channel",
    "attack.fixture_ms": "setup_s on covert_channel",
    "attack.smt_channel_s": "wall_s on smt_contention",
    "attack.matrix_point_us": "setup_s on sweep_cache",
    "attack.trials": "guard: must not move",
    "attack.discarded_frac": "guard: must not move",
    "pipeline.kinst_retired": "guard: denominator of pipeline.kips",
    "pipeline.kinst_dispatched": "guard: wrong-path work",
    "pipeline.mcycles": "guard: simulated time",
    "pipeline.dispatched_per_retired": "pipeline.kips on covert_channel",
    "pipeline.kips": "wall_s on covert_channel, smt_contention",
    "pipeline.ns_per_cycle.unsafe": "wall_s on defense_suite",
    "pipeline.ns_per_cycle.fence_spectre": "wall_s on defense_suite",
    "pipeline.ns_per_cycle.fence_futuristic": "wall_s on defense_suite",
    "pipeline.stall_cycles.rs_blocked": "guard: must not move",
    "pipeline.stall_cycles.port_contended": "guard: must not move",
    "pipeline.stall_cycles.mshr_contended": "guard: must not move",
    "memory.txns_per_kinst": "wall_s on covert_channel, defense_suite",
    "memory.llc_visible_accesses": "guard: must not move",
    "memory.l1_load_hit_frac": "guard: must not move",
    "smt.fetch_grants.t0": "guard: must not move",
    "smt.fetch_grants.t1": "guard: must not move",
    "smt.retired_per_cycle": "guard: must not move",
    "workload.generate_ms": "setup_s on defense_suite",
    "service.lookup_us.p50": "wall_s on sweep_cache",
    "service.lookup_us.p90": "wall_s on sweep_cache",
    "service.store_us.p50": "setup_s on sweep_cache",
    "service.store_us.p90": "setup_s on sweep_cache",
    "service.hit_frac": "wall_s on sweep_cache",
    "service.hits": "count beside service.lookup_us",
    "service.misses": "count beside service.lookup_us",
    "service.corrupt": "count beside service.lookup_us",
    "paper_agreement": "guard: 93/96 on sweep_cache",
    "fail_frac": "guard: 0",
    "host.cpu_per_wall": "diagnostic",
    "trace.overhead_frac": "diagnostic",
    "trace.coverage": "diagnostic: >= 0.90",
    "self_s.experiment": "wall_s (runner and harness self time)",
    "self_s.attack": "wall_s on covert_channel, smt_contention",
    "self_s.pipeline": "wall_s on defense_suite",
    "self_s.service": "wall_s on sweep_cache",
}


# Compilers and the benchmark keep their temporary files in the checkout.
ENV = dict(os.environ, TMPDIR=str(BUILD / "tmp"))


def build():
    """Configure once, then bring the build up to date (a no-op when
    nothing changed). A lock keeps concurrent runs from racing."""
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "build" / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B",
                          str(BUILD / "build"),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(BUILD / "build"),
                      "--target", "specsim_perfbench", "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, cwd=ROOT, env=ENV,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                sys.exit(f"error: build step failed: {' '.join(cmd)}")


def expected_digest(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(HERE / "expected.json") as f:
        return json.load(f)["digests"].get(workload)


def run_workload(workload, seed, seconds, trace, trace_out=None):
    """Run the benchmark binary; returns (stdout lines, result dict)."""
    work = BUILD / f"work-{os.getpid()}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(work)]
    digest = expected_digest(workload, seed)
    if digest:
        cmd += ["--expect-digest", digest]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    # Set-up (about 1 s) plus the measured phase plus one last pass;
    # generous for a slow host.
    timeout = 2 * seconds + 100
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"error: {workload} did not finish in {timeout} s")
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.exit(f"error: {workload} exited with {proc.returncode}")
    lines = out.splitlines()
    return lines, json.loads(lines[-1])


def fmt(v):
    return f"{v:.6g}"


def report(seconds):
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    ok = True
    per_layer = {}
    print("== end-to-end (untraced) ==")
    print(f"{'workload':16} {'metric':14} {'value':>12} unit")
    for w in WORKLOADS:
        _, res = run_workload(w, DEFAULT_SEED, seconds, False)
        ok &= res["correct"] and res["failed"] == 0
        for m in bench["end_to_end"]:
            v = res["metrics"][m["name"]]
            print(f"{w:16} {m['name']:14} {fmt(v['value']):>12} "
                  f"{v['unit']}")
        print(f"{w:16} {'correct':14} {str(res['correct']):>12} "
              f"({res['failed']}/{res['attempted']} points failed)")
        _, per_layer[w] = run_workload(w, DEFAULT_SEED, seconds, True)
        ok &= per_layer[w]["correct"]
    print("\n== per layer (traced) ==")
    print(f"{'metric':40} {'unit':8} " +
          " ".join(f"{w[:14]:>14}" for w in WORKLOADS) + "  moves")
    for m in bench["per_layer"]:
        name = m["name"]
        vals = [per_layer[w]["metrics"][name]["value"] for w in WORKLOADS]
        print(f"{name:40} {m['unit']:8} " +
              " ".join(f"{fmt(v):>14}" for v in vals) +
              f"  {MOVES.get(name, '')}")
    for w in WORKLOADS:
        cov = per_layer[w]["metrics"]["trace.coverage"]["value"]
        if cov < MIN_COVERAGE:
            print(f"FAIL: {w}: layer self time covers {cov:.1%} of a "
                  f"traced pass (< {MIN_COVERAGE:.0%})")
            ok = False
    print("report:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def self_test(seconds):
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    failures = []
    if set(MOVES) != {m["name"] for m in bench["per_layer"]}:
        failures.append("MOVES and BENCHMARK.json per_layer differ")
    for w in WORKLOADS:
        runs = []
        for i in range(2):
            trace = BUILD / f"selftest-{w}-{i}.json"
            lines, res = run_workload(w, DEFAULT_SEED, seconds, True,
                                      trace_out=trace)
            digest = [l for l in lines if l.startswith("workload ")]
            counts = {k: v["value"] for k, v in res["metrics"].items()
                      if v["unit"] in ("count", "kinst", "Mcycles",
                                       "cycles")}
            runs.append((digest[0].split()[-1], counts, res))
            if not res["correct"] or res["failed"]:
                failures.append(f"{w}: run {i} not correct: " +
                                "; ".join(l for l in lines
                                          if l.startswith("error")))
            check = subprocess.run(
                [sys.executable, str(ROOT / "scripts" / "validate_trace.py"),
                 str(trace)], capture_output=True, text=True)
            if check.returncode != 0:
                failures.append(f"{w}: trace invalid: {check.stderr}")
            trace.unlink(missing_ok=True)
        (d0, c0, r0), (d1, c1, _) = runs
        if d0 != d1:
            failures.append(f"{w}: digests differ: {d0} {d1}")
        for k in sorted(set(c0) | set(c1)):
            if c0.get(k) != c1.get(k):
                failures.append(f"{w}: count {k} differs: "
                                f"{c0.get(k)} vs {c1.get(k)}")
        _, e2e = run_workload(w, DEFAULT_SEED, seconds, False)
        got = {k: v["unit"] for k, v in
               list(r0["metrics"].items()) + list(e2e["metrics"].items())}
        if got != units:
            failures.append(f"{w}: metric names/units differ from "
                            f"BENCHMARK.json: {sorted(set(got) ^ set(units))}")
        print(f"{w}: digest {d0}, {len(c0)} exact counts compared")
    for f in failures:
        print("FAIL:", f)
    print("self-test:", "OK" if not failures else "FAILED")
    return 0 if not failures else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    build()
    if a.report:
        return report(a.seconds or 4)
    if a.self_test:
        return self_test(a.seconds or 2)
    if not a.workload:
        p.error("--workload is required")
    lines, _ = run_workload(a.workload, a.seed, a.seconds or 10,
                            bool(a.trace))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

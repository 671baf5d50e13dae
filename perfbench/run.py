"""laceground benchmark: end-to-end metrics of one workload, or a traced run.

    python3 perfbench/run.py --workload enum-3x3 --seed 1 --seconds 10 --trace 0

Workloads (see README.md in this directory):
  enum-3x3       `enumerate --rows 3 --cols 3 --jobs 1`, then the designer
                 pass over its 274 solutions
  enum-5x1-j2    `enumerate --rows 5 --cols 1 --jobs 2`, then the designer
                 pass over its 82 solutions
  verify-corpus  rounds of the designer pass over the stored corpus and the
                 negatives and images the seed derives from it

Every enumeration and every set-up runs in a fresh worker process, because
users pay table and candidate construction on each `enumerate` run. Every
reported time is scaled to a fixed machine speed by the reference chunk of
gauge.py, timed in the same worker process (see there). The last
line of output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1.
"""

import argparse
import contextlib
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("enum-3x3", "enum-5x1-j2", "verify-corpus")
SETUPS_PER_RUN = 5
RUN_LIMIT_S = 175          # every run ends within this, or fails
# every worker gets the same memory layout: no address-space randomisation and
# one string-hash seed. With both random, the same 2x4 enumeration, scaled by
# the gauge, spread 0.13 over nine fresh processes; with both fixed, 0.055.
ADDR_NO_RANDOMIZE = 0x0040000
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "verify_p50_ms": "ms", "canon_p50_ms": "ms", "render_p50_ms": "ms",
}
PER_LAYER_UNITS = {
    "paths.generate_s": "s", "paths.generated": "count",
    "geometry.cross_tests": "count",
    "embedding.tables_s": "s", "embedding.path_arcs_s": "s",
    "embedding.path_arcs_calls": "count", "embedding.write_s": "s",
    "embedding.parse_s": "s",
    "search.enumerate_s": "s", "search.self_s": "s", "search.nodes": "count",
    "search.nodes_per_s": "1/s", "search.leaves_checked": "count",
    "search.workers_cpu_s": "s", "search.cpu_per_wall": "ratio",
    "canonical.calls": "count", "canonical.s": "s", "canonical.yield": "ratio",
    "validator.winding_calls": "count", "validator.winding_s": "s",
    "validator.circuit_calls": "count", "validator.circuit_s": "s",
    "validator.report_s": "s",
    "braid.words": "count", "braid.s": "s",
    "render.s": "s", "render.svg_bytes": "bytes",
    "cli.calls": "count", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Run:
    """The worker processes of one run, their scratch space and the time left."""

    def __init__(self, args):
        self.args = args
        self.start = time.perf_counter()
        self.scratch = ROOT / ".perfbench-out" / f"run-{time.time_ns()}"
        self.setups = []
        self.workers = []

    def spawn(self, task, *extra):
        scratch = self.scratch / f"{len(self.setups) + len(self.workers)}-{task}"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--scratch", str(scratch), "--task", task,
               *extra]
        left = RUN_LIMIT_S - (time.perf_counter() - self.start)
        t0 = time.perf_counter()
        # a session of its own, so that a stuck worker goes down with its pool
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                start_new_session=True, env=WORKER_ENV,
                                preexec_fn=_fixed_layout)
        try:
            out, _ = proc.communicate(timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            sys.exit(f"run: {task} worker did not finish within the run limit")
        if proc.returncode != 0 or not out.strip():
            sys.exit(f"run: {task} worker failed with exit {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        result["scratch"] = scratch
        if task == "setup":
            self.setups.append((result["t_ready"] - t0) * result["scale"])
        else:
            self.workers.append(result)
        return result


def _fixed_layout():
    """Turn off address-space randomisation for the worker about to be
    started; where the system refuses, the worker runs randomised."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality(libc.personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE)


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run, wall):
    calls = [c for w in run.workers for c in w.get("calls", [])]
    by_kind = {}
    for kind, dt in calls:
        by_kind.setdefault(kind, []).append(dt)
    return {
        "wall_s": median(wall),
        "setup_s": median(run.setups),
        "peak_rss_mb": median([w["rss_mb"] for w in run.workers if "rss_mb" in w]),
        "verify_p50_ms": median(by_kind.get("verify", [])) * 1e3,
        "canon_p50_ms": median(by_kind.get("canon", [])) * 1e3,
        "render_p50_ms": median(by_kind.get("render", [])) * 1e3,
    }


def per_layer(traced, overhead, search_times):
    layers = {k: sum(t[k] for t in traced) / len(traced) for k in traced[0]}
    wall = sum(s[0] for s in search_times)
    layers["search.workers_cpu_s"] = median([s[2] for s in search_times])
    layers["search.cpu_per_wall"] = (
        sum(s[1] + s[2] for s in search_times) / wall if wall else 0.0)
    layers["trace.overhead_s"] = overhead
    return layers


def run_enumeration(run, trace):
    """Rounds of a fresh-process enumeration and a designer pass over what it
    wrote, until the run's seconds are used. Traced: a timed jobs-J run, an
    untraced jobs-1 baseline when J > 1, and a traced jobs-1 run, because
    forked pool workers cannot report spans."""
    measure_end = time.perf_counter() + run.args.seconds
    if not trace:
        walls = []
        while True:
            result = run.spawn("enumerate")
            walls.append(result["wall"] * result["scale"])
            print(f"enumerate: {result['wall']:.3f} s measured, scale {result['scale']:.4f} "
                  f"from {result['gauge_samples']} gauge samples", file=sys.stderr)
            if not result["failed"] and not result["problems"]:
                run.spawn("pass", "--solutions", str(result["scratch"] / "solutions"))
            if time.perf_counter() >= measure_end:
                return end_to_end(run, walls)
    parallel = run.args.workload == "enum-5x1-j2"
    base, traced, search_times = [], [], []
    while True:
        timed = run.spawn("enumerate", "--trace", "search")
        search_times.append(timed["search_time"])
        if parallel:
            base.append(run.spawn("enumerate", "--jobs", "1")["wall"])
        else:
            base.append(timed["wall"])
        traced.append(run.spawn("enumerate", "--jobs", "1", "--trace", "full"))
        if time.perf_counter() >= measure_end:
            break
    overhead = median([t["wall"] for t in traced]) - median(base)
    return per_layer([t["layers"] for t in traced], overhead, search_times)


def run_corpus(run, trace):
    deadline = time.perf_counter() + run.args.seconds
    worker = run.spawn("corpus", "--deadline", repr(deadline),
                       "--trace", "full" if trace else "off")
    walls = {True: [], False: []}
    for traced, wall in worker["rounds"]:
        walls[traced].append(wall)
    if not trace:
        return end_to_end(run, walls[False])
    overhead = median(walls[True]) - median(walls[False])
    return per_layer([worker["layers"]], overhead, [[0.0, 0.0, 0.0]])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "laceground").is_dir():
        sys.exit(f"run: no program to measure at {ROOT / 'src' / 'laceground'}")

    run = Run(args)
    try:
        for _ in range(SETUPS_PER_RUN):
            run.spawn("setup")
        if args.workload == "verify-corpus":
            metrics = run_corpus(run, args.trace)
        else:
            metrics = run_enumeration(run, args.trace)
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.scratch.parent.rmdir()

    problems = [p for w in run.workers for p in w["problems"]]
    for p in problems:
        print(f"wrong: {p}", file=sys.stderr)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name:28} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(w["attempted"] for w in run.workers),
        "failed": sum(w["failed"] for w in run.workers),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()

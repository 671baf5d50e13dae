"""One process of a benchmark run: set-up, timed operations and their checks.

run.py starts this script; it prints one JSON object as its last line. Each
task works in the directory --scratch, which run.py removes after the run.

    worker.py --workload W --seed N --scratch DIR --task setup
        set up and stop; run.py times process start to the end of set-up
    worker.py --workload enum-3x3 --seed N --scratch DIR --task enumerate
              [--jobs J] [--trace off|search|full]
        one `enumerate` call writing to DIR/solutions, and its checks
    worker.py --workload enum-3x3 --seed N --scratch DIR --task pass
              --solutions DIR2
        the designer pass over the solutions in DIR2
    worker.py --workload verify-corpus --seed N --scratch DIR --task corpus
              --deadline D [--trace off|full]
        rounds of the designer pass over the corpus until the
        time.perf_counter() value D; with --trace full, untraced and traced
        rounds alternate

The designer pass runs, for every file, `verify FILE --strict --braid
--report json`, `canon FILE` and `render FILE --repeats 4x4 --out SVG`, each
as an in-process call of `laceground.cli.main`, in a process of its own, as
a user would run them after an enumeration.

Every time a task reports is measured and then scaled by gauge.py's reference
chunk, timed in the same process: after every file of a designer pass, every
GAUGE_EVERY_S of CPU time within an untraced enumeration (its time less the
gauge's), and for GAUGE_SETUP_S after set-up. Traced enumerations are not
scaled.
"""

import argparse
import contextlib
import fcntl
import io
import json
import os
import random
import resource
import sys
import time
import traceback
from array import array
from pathlib import Path
from typing import NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS_GRIDS = ("3x3", "2x4", "5x1")
# workload -> (rows, cols, jobs, published class count)
ENUMERATIONS = {"enum-3x3": (3, 3, 1, 274), "enum-5x1-j2": (5, 1, 2, 82)}
DERIVED_PER_SEED = 96    # corpus files that get a negative and an image
REPEATS = (4, 4)
GAUGE_WINDOW = 16        # designer-pass files scaled by the same gauge samples
GAUGE_EVERY_S = 0.1      # CPU seconds of an untraced enumeration between samples
GAUGE_SETUP_S = 0.1      # gauge time after a set-up

sys.path.insert(0, str(HERE))
import gauge  # noqa: E402
import lace  # noqa: E402
import tracing  # noqa: E402


class Item(NamedTuple):
    """A file of the designer pass and the answers known from how it was built."""

    path: str
    ground: lace.Ground
    expect_pass: bool
    source: Optional[int] = None    # index of the item this is an image of


def call(cli, argv):
    """One in-process CLI call: (exit code or None if it raised, stdout, seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            rc = None
            err = traceback.format_exc()
        dt = time.perf_counter() - t0
    if rc is None:
        print(err, file=sys.stderr)
    return rc, out.getvalue(), dt


def write_image(g, rng, path):
    """Write g under a random non-trivial symmetry; return the image."""
    elem = rng.choice(lace.group(g)[1:])    # [0] is the identity
    img = lace.image(g, *elem)
    path.write_text(lace.format_ground(img))
    return img


class SvgPipe:
    """A pipe that `render --out` writes its drawing into, read back after
    each call.

    Drawings written to new files made render calls slower run after run, as
    the files of earlier runs were created and deleted: over four corpus runs
    the render p50 rose from 6.28 to 6.84 ms, against 5.86 to 6.07 ms in runs
    alternating with them that drew into a pipe. That cost belongs to the
    file system, not to the program. The path is the write end of the pipe,
    opened again by the program as any output file would be."""

    def __init__(self):
        self.rfd, self.wfd = os.pipe()
        os.set_blocking(self.rfd, False)
        # room for the largest drawing, so that a render never waits on a
        # reader; where the system refuses, the pipe keeps its 64 KiB
        with contextlib.suppress(OSError):
            fcntl.fcntl(self.wfd, fcntl.F_SETPIPE_SZ, 1 << 20)
        self.path = f"/dev/fd/{self.wfd}"

    def take(self):
        """Everything written into the pipe since the last take()."""
        blocks = []
        while True:
            try:
                blocks.append(os.read(self.rfd, 1 << 16))
            except BlockingIOError:
                return b"".join(blocks).decode("utf-8")

    def close(self):
        os.close(self.rfd)
        os.close(self.wfd)


def designer_pass(cli, items, svg, calls, speed):
    """Verify, canonicalise and render every item, drawing into the SvgPipe
    `svg`, and sample the gauge `speed` after each. Appends (kind, scaled
    seconds) to `calls`; returns (attempted, failed, problems)."""
    failed = 0
    problems = []
    ids = [None] * len(items)
    raw = []
    first = len(speed.samples)
    for k, item in enumerate(items):
        rc, out, dt = call(cli, ["verify", item.path, "--strict", "--braid",
                                 "--report", "json"])
        raw.append(("verify", dt))
        if rc not in (0, 1):
            failed += 1
        else:
            if rc != (0 if item.expect_pass else 1):
                problems.append(f"verify {item.path}: exit {rc}")
            problems += lace.check_verify(out, item.expect_pass, item.ground)

        rc, out, dt = call(cli, ["canon", item.path])
        raw.append(("canon", dt))
        if rc != 0:
            failed += 1
        else:
            ids[k] = lace.canon_identifier(out)
            if ids[k] is None:
                problems.append(f"canon {item.path}: no identifier in {out!r}")

        svg.take()    # what a failed call may have left
        rc, out, dt = call(cli, ["render", item.path, "--repeats",
                                 "x".join(map(str, REPEATS)), "--out", svg.path])
        raw.append(("render", dt))
        if rc != 0:
            failed += 1
        else:
            problems += lace.check_svg(svg.take(), item.ground, REPEATS)
        speed.sample()

    for w in range(0, len(items), GAUGE_WINDOW):
        scale = speed.scale(first + w, first + w + GAUGE_WINDOW)
        calls += [(kind, dt * scale) for kind, dt in raw[3 * w:3 * (w + GAUGE_WINDOW)]]

    for k, item in enumerate(items):
        src = item.source
        if src is not None and None not in (ids[k], ids[src]) and ids[k] != ids[src]:
            problems.append(f"canon: {item.path} and its source {items[src].path} differ")
    classes = [ids[k] for k, item in enumerate(items)
               if item.source is None and item.expect_pass and ids[k] is not None]
    if len(set(classes)) != len(classes):
        problems.append("canon: two inequivalent files share an identifier")
    return 3 * len(items), failed, problems


def corpus_items(seed, out_dir):
    """The stored corpus plus, under the seed, negatives (one arc removed)
    and images (a random symmetry) of DERIVED_PER_SEED of its files."""
    items = []
    for grid in CORPUS_GRIDS:
        for f in sorted((HERE / "corpus" / grid).glob("*.gnd")):
            items.append(Item(str(f), lace.parse(f.read_text()), True))
    rng = random.Random(seed)
    for n, src in enumerate(sorted(rng.sample(range(len(items)), DERIVED_PER_SEED))):
        g = items[src].ground
        neg = lace.without_arc(g, rng.randrange(len(g.arcs)))
        path = out_dir / f"negative-{n}.gnd"
        path.write_text(lace.format_ground(neg))
        items.append(Item(str(path), neg, False))
        path = out_dir / f"image-{n}.gnd"
        items.append(Item(str(path), write_image(g, rng, path), True, src))
    return items


def solution_items(paths):
    """The solutions an enumeration wrote, each known to be workable."""
    return [Item(str(p), lace.parse(p.read_text()), True) for p in paths]


class SearchTimer:
    """Wall and CPU time of each `enumerate_grounds` call, workers included
    (their CPU is counted once the pool has joined and reaped them)."""

    def __init__(self, cli):
        self.wall = self.parent_cpu = self.workers_cpu = 0.0
        fn = getattr(cli, "enumerate_grounds", None)
        if fn is None:
            return

        def timed(*args, **kwargs):
            w0, c0, k0 = time.perf_counter(), time.process_time(), _children_cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                self.wall += time.perf_counter() - w0
                self.parent_cpu += time.process_time() - c0
                self.workers_cpu += _children_cpu() - k0

        cli.enumerate_grounds = timed


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb():
    """Largest resident set of this process and of its reaped children."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def enumerate_task(cli, args, result):
    rows, cols, default_jobs, published = ENUMERATIONS[args.workload]
    out_dir = args.scratch / "solutions"
    tracer = tracing.Tracer() if args.trace == "full" else None
    timer = SearchTimer(cli) if args.trace == "search" else None
    speed = gauge.Gauge()
    if tracer:
        tracer.install()
    # traced runs keep the gauge out of their spans and CPU times
    with (speed.interleaved(GAUGE_EVERY_S) if args.trace == "off"
          else contextlib.nullcontext()):
        rc, out, dt = call(cli, ["enumerate", "--rows", str(rows), "--cols", str(cols),
                                 "--jobs", str(args.jobs or default_jobs),
                                 "--out", str(out_dir)])
    dt -= speed.spent
    if args.trace == "off" and not speed.samples:
        speed.sample()
    result["scale"] = speed.scale() if speed.samples else 1.0
    result["gauge_samples"] = len(speed.samples)
    if tracer:
        tracer.remove()
        result["layers"] = tracing.layer_metrics(tracer)
    if timer:
        result["search_time"] = [timer.wall, timer.parent_cpu, timer.workers_cpu]
    result.update(wall=dt, rss_mb=_peak_rss_mb(), attempted=1, failed=int(rc != 0))
    if rc != 0:
        return
    problems = result["problems"]
    if f"solutions={published} " not in out:
        problems.append(f"enumerate printed {out.strip()!r}")
    try:
        grounds = [lace.parse(p.read_text()) for p in sorted(out_dir.glob("*.gnd"))]
    except ValueError as exc:
        problems.append(f"a written solution does not parse: {exc}")
        return
    problems += lace.check_solution_set(grounds, published, args.workload)


def pass_task(cli, items, args, result):
    calls = []
    svg = SvgPipe()
    attempted, failed, problems = designer_pass(cli, items, svg, calls, gauge.Gauge())
    svg.close()
    result.update(attempted=attempted, failed=failed, problems=problems, calls=calls)


def corpus_task(cli, items, args, result):
    # call times are kept as 8-byte floats, so that the peak resident set
    # does not grow with the number of rounds a run fits in
    calls, rounds, layers = {}, [], []
    speed = gauge.Gauge()
    svg = SvgPipe()
    while True:
        traced = args.trace == "full" and len(rounds) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        round_calls = []
        attempted, failed, problems = designer_pass(cli, items, svg, round_calls, speed)
        if tracer:
            tracer.remove()
            layers.append(tracing.layer_metrics(tracer))
        rounds.append([traced, sum(dt for _, dt in round_calls)])
        for kind, dt in round_calls:
            calls.setdefault(kind, array("d")).append(dt)
        result["attempted"] += attempted
        result["failed"] += failed
        result["problems"] += problems
        if time.perf_counter() >= args.deadline and (args.trace != "full" or layers):
            break
    svg.close()
    result.update(rounds=rounds, rss_mb=_peak_rss_mb())
    if args.trace == "full":
        result["layers"] = {k: sum(d[k] for d in layers) / len(layers) for k in layers[0]}
    else:
        result["calls"] = [(kind, dt) for kind, times in calls.items() for dt in times]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(ENUMERATIONS) + ["verify-corpus"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--task", required=True,
                        choices=("setup", "enumerate", "pass", "corpus"))
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--trace", choices=("off", "search", "full"), default="off")
    parser.add_argument("--solutions", type=Path, default=None)
    parser.add_argument("--deadline", type=float, default=0.0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        from laceground import cli
    except ImportError as exc:
        sys.exit(f"worker: cannot import the program from {ROOT / 'src'}: {exc}")
    args.scratch.mkdir(parents=True)
    items = None
    if args.workload == "verify-corpus":
        items = corpus_items(args.seed, args.scratch)
    elif args.task == "pass":
        items = solution_items(sorted(args.solutions.glob("*.gnd")))
    result = {"t_ready": time.perf_counter(), "attempted": 0, "failed": 0,
              "problems": []}
    if args.task == "setup":
        speed = gauge.Gauge()
        speed.sample_for(GAUGE_SETUP_S)
        result["scale"] = speed.scale()
    elif args.task == "enumerate":
        enumerate_task(cli, args, result)
    elif args.task == "pass":
        pass_task(cli, items, args, result)
    elif args.task == "corpus":
        corpus_task(cli, items, args, result)
    result["problems"] = result["problems"][:20]
    print(json.dumps(result))


if __name__ == "__main__":
    main()

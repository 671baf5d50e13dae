"""How fast this process runs at the moment, from a fixed reference workload.

The benchmark runs on a shared machine whose speed changes from minute to
minute: in 24 fresh processes run one after the other over ten minutes, the
designer pass over the 3x3 solutions took from 7.3 to 14.4 ms a file. A run
cannot average out a change that lasts longer than the run, so every time
the benchmark reports is scaled by how long a fixed reference chunk took in
the same process, timed among the operations it scales:

    reported = measured * REFERENCE_S / median(reference chunk times)

The reported figure is what the operation would have taken at the speed at
which one chunk takes REFERENCE_S. The chunk is pure Python of the kind the
program runs (an argparse parser built and used; a ground file parsed,
written, serialised as JSON and drawn as an XML tree) and calls nothing of
the program, so a change to the program moves the measured time and leaves
the reference alone. In those 24 processes the time per file spread 0.37
(first to third quartile over the median); scaled by an argparse chunk timed
after every file it spread 0.024, by ground-file, orbit, JSON and XML work
0.11, and by an integer loop 0.16. The chunk here is the argparse chunk and
the second less its orbit part. Scaling helps the enumerations less: over
eight 3x3 enumerations with chunks timed among their steps, the spread fell
from 0.15 to 0.08, and no other chunk tried did better on every set.
"""

import argparse
import contextlib
import gc
import json
import signal
import statistics
import time
import xml.etree.ElementTree as ET
from array import array

import lace

# one chunk's time at the speed every reported figure is scaled to: about a
# median chunk on the 2-CPU machine of the README's figures
REFERENCE_S = 0.004

_GROUND = lace.parse("""ground v1
dims 3 3
arc 0 0 0 1
arc 0 0 1 1
arc 0 1 -1 1
arc 0 1 0 1
arc 0 2 0 1
arc 0 2 1 1
arc 1 0 -1 1
arc 1 0 1 0
arc 1 1 0 1
arc 1 1 1 1
arc 1 2 -1 1
arc 1 2 0 1
zeta 0 0 CTp
zeta 1 1 LR
""")
_TEXT = lace.format_ground(_GROUND)


def _chunk():
    parser = argparse.ArgumentParser(prog="reference")
    commands = parser.add_subparsers(dest="command")
    for name in ("verify", "canon", "render", "enumerate", "counts", "braid"):
        sub = commands.add_parser(name, help=f"{name} a ground")
        sub.add_argument("file")
        sub.add_argument("--rows", type=int, default=1)
        sub.add_argument("--strict", action="store_true")
        sub.add_argument("--out", default=None)
    parser.parse_args(["render", "a.gnd", "--rows", "3", "--strict"])
    for _ in range(2):
        g = lace.parse(_TEXT)
        lace.format_ground(g)
        json.loads(json.dumps({"arcs": [list(a) for a in g.arcs],
                               "zeta": [list(z) for z in g.zeta]}))
        svg = ET.Element("svg")
        for _ in range(6):
            for r, c, dx, dy in g.arcs:
                ET.SubElement(svg, "path", d=f"M {r} {c} l {dx} {dy}")
        ET.fromstring(ET.tostring(svg))


class Gauge:
    """Reference chunk times of this process, in the order they were taken."""

    def __init__(self):
        self.samples = array("d")
        self.spent = 0.0    # seconds spent in sample(), collection included

    def sample(self):
        # collections of the program's garbage stay out of the chunk, and
        # the program's collector settings do not change what it measures;
        # the chunk's own cyclic garbage is freed right after it
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _chunk()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        if enabled:
            gc.enable()
        gc.collect(0)
        self.spent += time.perf_counter() - t0

    def sample_for(self, seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.sample()

    @contextlib.contextmanager
    def interleaved(self, every_s):
        """Sample once every `every_s` seconds of this process's own CPU time
        while the block runs, from a timer signal, so that samples fall
        among the steps of one long call. The caller subtracts the growth of
        `spent` from the call's time. Forked children inherit no timer."""
        def on_timer(signum, frame):
            self.sample()

        previous = signal.signal(signal.SIGVTALRM, on_timer)
        signal.setitimer(signal.ITIMER_VIRTUAL, every_s, every_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, previous)

    def scale(self, start=0, stop=None):
        """REFERENCE_S over the median of samples[start:stop]."""
        return REFERENCE_S / statistics.median(self.samples[start:stop])

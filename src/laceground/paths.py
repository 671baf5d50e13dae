"""Generation and validation of lace paths.

A lace path of height n is a sequence of step vectors with net displacement
(0, n): it drops exactly n rows and returns to its starting column. Horizontal
steps may never be adjacent. Each path attaches to the grid in one of two
forms:

* ``rooted`` - the path starts at a row-0 vertex and its first step is
  non-horizontal (this anchors the path at that vertex);
* ``skipping`` - the path begins with the (0, 2) double step taken from row
  n-1, jumping over the row-0 line without placing a vertex on it. The
  remainder of the sequence is unconstrained at both ends (its first step
  may be horizontal because the double step precedes it).

A sequence beginning with (0, 2) is therefore counted twice, once per
attachment form; all other sequences appear only rooted. Heights 1..5 yield
3, 39, 498, 6667 and 91833 paths under this convention.
"""

import heapq
from operator import itemgetter
from typing import Iterator, NamedTuple

from .geometry import LACE_STEPS, LACE_STEP_SET

Step = tuple[int, int]

# The double step a skipping path begins with, taken from row n-1.
SKIP_STEP = (0, 2)

# Largest height the command line walks paths for: the count grows about
# 14-fold per row (1,289,040 paths at height 6), and enumerating the 6x1
# grid takes 8.4 s and 78 MB on one process (Python 3.11, 2-CPU machine).
MAX_PATH_HEIGHT = 6


class LacePath(NamedTuple):
    """A step sequence plus its attachment form."""

    steps: tuple[Step, ...]
    skipping: bool = False

    @property
    def height(self) -> int:
        return sum(dy for _, dy in self.steps)

    def anchor_row(self, rows: int) -> int:
        """Row of the path's start vertex on an ``rows``-row torus."""
        return rows - 1 if self.skipping else 0


def _no_adjacent_horizontals(steps) -> bool:
    return all(not (a[1] == 0 and b[1] == 0) for a, b in zip(steps, steps[1:]))


def is_valid_lace_path(steps, n: int, skipping: bool = False) -> bool:
    """Check every lace-path invariant for height n.

    Rooted form: first step non-horizontal. Skipping form: first step must be
    the (0, 2) double step and n must be at least 2.
    """
    steps = tuple(tuple(s) for s in steps)
    for s in steps:
        if s not in LACE_STEP_SET:
            raise ValueError(f"step {s} not in the lace step set")
    if not steps:
        return False
    if sum(dy for _, dy in steps) != n:
        return False
    if sum(dx for dx, _ in steps) != 0:
        return False
    if not _no_adjacent_horizontals(steps):
        return False
    if skipping:
        return n >= 2 and steps[0] == SKIP_STEP
    return steps[0][1] >= 1


def _sequences(n: int, first_free: bool, extend=None,
               state=None) -> Iterator[tuple[tuple[Step, ...], object]]:
    """DFS over step sequences with net displacement (0, n), in lex order.

    ``first_free`` lifts the non-horizontal constraint on the first step
    (used for the tail of skipping paths, where the double step precedes).
    Emission points are terminal: once dy == n and dx == 0 no continuation
    can return to a valid endpoint, so each sequence is yielded exactly once.

    Each sequence comes with a state grown along its steps: ``extend(state,
    step)``, called for every step the rules admit, returns the state of the
    longer prefix, or None to cut the branch there. Without ``extend`` the
    state stays as given.
    """
    if n == 0:
        yield (), state
        return

    stack: list[Step] = []
    # one frame per depth: the prefix's net (dx, dy), its state and the
    # steps not yet tried after it
    frames = [(0, 0, state, iter(LACE_STEPS))]
    while frames:
        sdx, sdy, state, untried = frames[-1]
        for step in untried:
            dx, dy = step
            ndy = sdy + dy
            if ndy > n:
                continue
            if dy == 0:
                if not stack and not first_free:
                    continue
                if stack and stack[-1][1] == 0:
                    continue
            ndx = sdx + dx
            # Each remaining row of descent can correct at most 1 column via a
            # diagonal plus 2 via one interleaved horizontal; one trailing
            # horizontal may follow the last descent.
            if abs(ndx) > 3 * (n - ndy) + 2:
                continue
            next_state = state
            if extend is not None:
                next_state = extend(state, step)
                if next_state is None:
                    continue
            stack.append(step)
            if ndy == n and ndx == 0:
                yield tuple(stack), next_state
                stack.pop()
                continue
            frames.append((ndx, ndy, next_state, iter(LACE_STEPS)))
            break
        else:
            frames.pop()
            if stack:
                stack.pop()


def _forms(n: int, extend=None, start=None) -> list[Iterator[tuple[LacePath, object]]]:
    """The lace paths of height n as one walk per attachment form, rooted
    then skipping, each in lexicographic order of steps, yielding (path,
    state) pairs.

    With ``extend`` (see ``_sequences``), ``start(row)`` gives the state at
    the row a path is anchored at, and the skipping form's double step is
    extended like any other step.
    """
    if n < 1:
        raise ValueError(f"height must be >= 1, got {n}")
    rooted = _sequences(n, False, extend, start and start(0))
    forms = [((LacePath(steps, False), state) for steps, state in rooted)]
    if n >= 2:
        entry = start and start(n - 1)
        if extend is not None:
            entry = extend(entry, SKIP_STEP)
        if extend is None or entry is not None:
            tails = _sequences(n - 2, True, extend, entry)
            forms.append((LacePath((SKIP_STEP,) + tail, True), state)
                         for tail, state in tails)
    return forms


def _lace_paths(n: int, extend=None, start=None) -> Iterator[tuple[LacePath, object]]:
    """Every lace path of height n with its state (see ``_forms``), in the
    order of ``generate_lace_paths``."""
    return heapq.merge(*_forms(n, extend, start), key=itemgetter(0))


def generate_lace_paths(n: int) -> list[LacePath]:
    """Every lace path of height n, lexicographic by steps, rooted first."""
    return [path for path, _ in _lace_paths(n)]


def count_lace_paths(n: int) -> int:
    """Number of lace paths of height n (both attachment forms), counted as
    they are walked, without building the list."""
    return sum(1 for walk in _forms(n) for _ in walk)


def format_path(path: LacePath) -> str:
    """One-line rendering: comma-separated steps, plus a skip marker."""
    body = ",".join(f"({dx},{dy})" for dx, dy in path.steps)
    return body + (" skip" if path.skipping else "")

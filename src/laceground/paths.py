"""Generation of lace paths.

A lace path of height n is a sequence of step vectors with net displacement
(0, n): it drops exactly n rows and returns to its starting column. Horizontal
steps may never be adjacent. Each path attaches to the grid in one of two
forms:

* ``rooted`` - the path starts at a row-0 vertex and its first step is
  non-horizontal (this anchors the path at that vertex);
* ``skipping`` - the path begins with the (0, 2) double step taken from row
  n-1, jumping over the row-0 line without placing a vertex on it. The
  step after the double step may be horizontal, as after any non-horizontal
  step.

So a skipping path's steps are exactly a rooted path's steps that begin
with (0, 2), and on an n-row torus it is that rooted twin moved n-1 rows
down: both forms drop n rows and return to dx 0, both are held to the same
bound on dx, and the double step is not horizontal, so the step after it
is free in both forms. Every such sequence is counted twice, once per
attachment form, and all other sequences appear only rooted.
``_lace_paths`` walks the rooted form only; ``generate_lace_paths`` and
``count_lace_paths`` add each skipping twin directly after the rooted path
it copies. Heights 1..6 yield 3, 39, 498, 6667, 91833 and 1289040 paths
under this convention, of which 0, 1, 13, 164, 2177 and 29881 are skipping."""

from typing import Iterator, NamedTuple

from .geometry import LACE_STEPS

Step = tuple[int, int]

# The double step a skipping path begins with, taken from row n-1.
SKIP_STEP = (0, 2)

# Largest height the command line walks paths for: the count grows about
# 14-fold per row (1,289,040 paths at height 6), and enumerating the 6x1
# grid takes 1.7 to 2.5 s at 44 MB peak RSS with --jobs 1 (Python 3.11,
# 2-CPU machine, five runs).
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


def _lace_paths(n: int, extend=lambda state, step: state, state=0,
                steps: tuple[Step, ...] = LACE_STEPS) -> Iterator[tuple[tuple[Step, ...], object]]:
    """The steps of every rooted lace path of height n, lexicographic, each
    with a state grown along them in one depth-first walk: ``state`` is the
    empty prefix's (by default its anchor row, 0), and ``extend(state,
    step)``, called for every step of ``steps`` the rules admit, returns
    the longer prefix's, or None to cut the branch there. A prefix is
    terminal once dy == n and dx == 0, since no continuation can return to
    a valid endpoint, so each sequence is yielded once.

    ``steps``, an ordered subsequence of ``LACE_STEPS``, are the steps the
    walk takes: it yields exactly the paths of the full walk whose steps all
    lie in ``steps``, in the same order. A prefix at (dx, dy) is cut when
    |dx| > (d + h) * (n - dy) + h, with d the largest |dx| of a step of
    ``steps`` with dy 1 and h that of a horizontal one (3 * (n - dy) + 2
    with every step): no path from it can return to dx 0. The n - dy rows
    left take at most n - dy descents, each moving at most d columns (a
    double step moves none), and since horizontal steps are never adjacent,
    descents and horizontal steps alternate: at most n - dy + 1 horizontal
    steps, each moving at most h columns.
    """
    if n < 1:
        raise ValueError(f"height must be >= 1, got {n}")
    # the widest move of a descent and of a horizontal step (0 without one)
    d = max((abs(dx) for dx, dy in steps if dy == 1), default=0)
    h = max((abs(dx) for dx, dy in steps if dy == 0), default=0)
    stack: list[Step] = []
    # one frame per depth: the prefix's net (dx, dy), its state and the
    # steps not yet tried
    frames = [(0, 0, state, iter(steps))]
    while frames:
        sdx, sdy, state, untried = frames[-1]
        for step in untried:
            dx, dy = step
            ndy = sdy + dy
            if ndy > n:
                continue
            # the first step is never horizontal, nor are two adjacent steps
            if dy == 0 and (not stack or stack[-1][1] == 0):
                continue
            ndx = sdx + dx
            # no path from here returns to dx 0 (see the docstring)
            if abs(ndx) > (d + h) * (n - ndy) + h:
                continue
            grown = extend(state, step)
            if grown is None:
                continue
            stack.append(step)
            if ndy == n and ndx == 0:
                yield tuple(stack), grown
                stack.pop()
                continue
            frames.append((ndx, ndy, grown, iter(steps)))
            break
        else:
            frames.pop()
            if stack:
                stack.pop()


def generate_lace_paths(n: int) -> list[LacePath]:
    """Every lace path of height n, lexicographic by steps, rooted first:
    each skipping path directly after its rooted twin."""
    out = []
    for steps, _ in _lace_paths(n):
        out.append(LacePath(steps))
        if steps[0] == SKIP_STEP:
            out.append(LacePath(steps, True))
    return out


def count_lace_paths(n: int) -> int:
    """Number of lace paths of height n (both attachment forms), counted as
    they are walked, without building the list."""
    return sum(1 + (steps[0] == SKIP_STEP) for steps, _ in _lace_paths(n))


def format_path(path: LacePath) -> str:
    """One-line rendering: comma-separated steps, plus a skip marker."""
    body = ",".join(f"({dx},{dy})" for dx, dy in path.steps)
    return body + (" skip" if path.skipping else "")

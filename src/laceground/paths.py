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
with (0, 2): every such sequence is counted twice, once per attachment
form, and all other sequences appear only rooted. ``_lace_paths`` walks
both forms in one depth-first walk on this fact. Heights 1..6 yield 3, 39,
498, 6667, 91833 and 1289040 paths under this convention, of which 0, 1,
13, 164, 2177 and 29881 are skipping."""

from typing import Iterator, NamedTuple

from .geometry import LACE_STEPS

Step = tuple[int, int]

# The double step a skipping path begins with, taken from row n-1.
SKIP_STEP = (0, 2)

# Largest height the command line walks paths for: the count grows about
# 14-fold per row (1,289,040 paths at height 6), and enumerating the 6x1
# grid takes 1.2 to 1.6 s at 43 MB peak RSS with --jobs 1 (Python 3.11,
# 2-CPU machine).
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


def _lace_paths(n: int, extend=lambda state, step: state,
                start=lambda row: row,
                steps: tuple[Step, ...] = LACE_STEPS) -> Iterator[tuple[LacePath, object]]:
    """Every lace path of height n with a state grown along its steps,
    lexicographic by steps, rooted first, in one depth-first walk.

    A skipping path's steps are exactly a rooted path's steps that begin
    with (0, 2): both forms drop n rows and return to dx 0, both are held to
    the same bound on dx below, and the double step is not horizontal, so
    the step after it is free in both forms. The walk therefore carries the
    two forms' states down one tree of step sequences and yields, at each
    terminal prefix, the rooted path and then its skipping twin: the order
    of the two forms merged. A prefix is terminal once dy == n and dx == 0,
    since no continuation can return to a valid endpoint, so each sequence
    is yielded once per form.

    ``start(row)`` gives the state at the row a form is anchored at: row 0
    for the rooted form, row n-1 for the skipping form, which is begun only
    by a first step (0, 2). ``extend(state, step)``, called for every step
    of ``steps`` the rules admit, returns the state of the longer prefix, or
    None to cut that form there; a branch is cut once both forms are cut. By
    default a path's state is its anchor row.

    ``steps``, an ordered subsequence of ``LACE_STEPS``, are the steps the
    walk takes: it yields exactly the paths of the full walk whose steps all
    lie in ``steps``, in the same order and forms. A prefix at (dx, dy) is
    cut when |dx| > (d + h) * (n - dy) + h, with d the largest |dx| of a
    step of ``steps`` with dy 1 and h that of a horizontal one (3 * (n - dy)
    + 2 with every step): no path from it can return to dx 0. The n - dy
    rows left take at most n - dy descents, each moving at most d columns
    (a double step moves none), and since horizontal steps are never
    adjacent, descents and horizontal steps alternate: at most n - dy + 1
    horizontal steps, each moving at most h columns.
    """
    if n < 1:
        raise ValueError(f"height must be >= 1, got {n}")
    # the widest move of a descent and of a horizontal step (0 without one)
    d = max((abs(dx) for dx, dy in steps if dy == 1), default=0)
    h = max((abs(dx) for dx, dy in steps if dy == 0), default=0)
    stack: list[Step] = []
    # one frame per depth: the prefix's net (dx, dy), the rooted and the
    # skipping form's state (None once cut) and the steps not yet tried
    frames = [(0, 0, start(0), None, iter(steps))]
    while frames:
        sdx, sdy, rooted, skipping, untried = frames[-1]
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
            next_rooted = None if rooted is None else extend(rooted, step)
            if skipping is not None:
                next_skipping = extend(skipping, step)
            elif not stack and step == SKIP_STEP:
                next_skipping = extend(start(n - 1), step)
            else:
                next_skipping = None
            if next_rooted is None and next_skipping is None:
                continue
            stack.append(step)
            if ndy == n and ndx == 0:
                walked = tuple(stack)
                if next_rooted is not None:
                    yield LacePath(walked, False), next_rooted
                if next_skipping is not None:
                    yield LacePath(walked, True), next_skipping
                stack.pop()
                continue
            frames.append((ndx, ndy, next_rooted, next_skipping, iter(steps)))
            break
        else:
            frames.pop()
            if stack:
                stack.pop()


def generate_lace_paths(n: int) -> list[LacePath]:
    """Every lace path of height n, lexicographic by steps, rooted first."""
    return [path for path, _ in _lace_paths(n)]


def count_lace_paths(n: int) -> int:
    """Number of lace paths of height n (both attachment forms), counted as
    they are walked, without building the list."""
    return sum(1 for _ in _lace_paths(n))


def format_path(path: LacePath) -> str:
    """One-line rendering: comma-separated steps, plus a skip marker."""
    body = ",".join(f"({dx},{dy})" for dx, dy in path.steps)
    return body + (" skip" if path.skipping else "")

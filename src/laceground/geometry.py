"""Integer lattice and torus primitives.

Positions live on an n x m grid with row 0 at the top; row indices grow
downward (the direction the lace is worked) and column indices grow to the
right. The grid is doubly periodic: opposite edges are identified, so every
coordinate pair names a point on a torus. All geometry here is exact integer
arithmetic; nothing in the validity tests touches floating point.
"""

from typing import NamedTuple

# Slot indices around a vertex, clockwise from North.
N, NE, E, SE, S, SW, W, NW = range(8)

# Unit direction of each slot as (dcol, drow).
SLOT_VECTORS = (
    (0, -1),   # N
    (1, -1),   # NE
    (1, 0),    # E
    (1, 1),    # SE
    (0, 1),    # S
    (-1, 1),   # SW
    (-1, 0),   # W
    (-1, -1),  # NW
)

# Admissible step vectors (dx, dy): dx is the column displacement, dy the row
# displacement (downward). Ordered tuple; the order defines the lexicographic
# order used for path listings.
LACE_STEPS = (
    (-2, 0),
    (-1, 0),
    (-1, 1),
    (0, 1),
    (0, 2),
    (1, 0),
    (1, 1),
    (2, 0),
)

LACE_STEP_SET = frozenset(LACE_STEPS)

# The symmetries of the grid besides translation, each as the signs it gives
# a vertex's (row, col) on the torus. One that flips the rows (v_reflect,
# rot180) also reverses every arc, so that steps keep pointing downward.
TRANSFORM_SIGNS = {"identity": (1, 1), "h_reflect": (1, -1),
                   "v_reflect": (-1, 1), "rot180": (-1, -1)}
TRANSFORMS = tuple(TRANSFORM_SIGNS)


class TorusDims(NamedTuple):
    """Period of the pattern: rows x cols, both at least 1."""

    rows: int
    cols: int

    def validate(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"dims must be >= 1x1, got {self.rows}x{self.cols}")


class Arc(NamedTuple):
    """A directed arc: wrapped origin plus its intrinsic step vector.

    The step is stored as drawn, not reconstructed from wrapped endpoints, so
    displacement sums along circuits are well defined.
    """

    row: int
    col: int
    dx: int
    dy: int

    @property
    def step(self) -> tuple[int, int]:
        return (self.dx, self.dy)

    def head(self, dims: TorusDims) -> tuple[int, int]:
        return wrap(self.row + self.dy, self.col + self.dx, dims)


def wrap(row: int, col: int, dims: TorusDims) -> tuple[int, int]:
    """Reduce a coordinate pair to its nonnegative representative on the torus."""
    return (row % dims.rows, col % dims.cols)


def direction_slot(step: tuple[int, int], at_head: bool = False) -> int:
    """Rotational slot an arc occupies at one of its endpoints.

    At the origin this is the departure direction of (dx, dy); at the head it
    is the arrival direction, i.e. the slot of (-dx, -dy).
    """
    dx, dy = step
    if (dx, dy) not in LACE_STEP_SET:
        raise ValueError(f"step {step} not in the lace step set")
    if at_head:
        dx, dy = -dx, -dy
    sx = (dx > 0) - (dx < 0)
    sy = (dy > 0) - (dy < 0)
    return SLOT_VECTORS.index((sx, sy))


# Length of each step shape, keyed by (|dx|, dy): the floor of the
# Euclidean distance between its endpoints.
_LENGTHS = {(1, 0): 1, (2, 0): 2, (0, 1): 1, (1, 1): 1, (0, 2): 2}


def step_length(step: tuple[int, int]) -> int:
    """Length of a step: floor of the Euclidean distance between endpoints."""
    dx, dy = step
    if (dx, dy) not in LACE_STEP_SET:
        raise ValueError(f"step {step} not in the lace step set")
    return _LENGTHS[abs(dx), dy]


# (origin slot, head slot, length) of every lace step
_STEP_ENDS = {
    s: (direction_slot(s), direction_slot(s, at_head=True), step_length(s))
    for s in LACE_STEPS
}


def arc_ends(arc: Arc, dims: TorusDims):
    """Where an arc touches the lattice: (vertex, slot, signed length) at its
    origin and then at its head.

    The length is negative at the origin and positive at the head, as a
    vertex label records outgoing and incoming arcs. The search's masks and
    the one slot table of a ground (``embedding.slot_table``) are read from
    these two records.
    """
    out_slot, in_slot, length = _STEP_ENDS[arc.dx, arc.dy]
    return (((arc.row, arc.col), out_slot, -length),
            (arc.head(dims), in_slot, length))


def _segments_conflict(ax0, ay0, ax1, ay1, bx0, by0, bx1, by1) -> bool:
    """True if two segments meet anywhere other than at shared endpoints.

    Covers proper crossings, T-junctions (an endpoint of one interior to the
    other), and collinear overlap longer than a point. Coordinates are
    Cartesian (x = col, y = row); everything is integer-exact.
    """
    d1 = _orient(ax0, ay0, ax1, ay1, bx0, by0)
    d2 = _orient(ax0, ay0, ax1, ay1, bx1, by1)
    d3 = _orient(bx0, by0, bx1, by1, ax0, ay0)
    d4 = _orient(bx0, by0, bx1, by1, ax1, ay1)

    if d1 == d2 == d3 == d4 == 0:
        # Collinear: conflict iff the 1-D overlap is longer than a point.
        if ax0 != ax1 or bx0 != bx1:
            lo = max(min(ax0, ax1), min(bx0, bx1))
            hi = min(max(ax0, ax1), max(bx0, bx1))
        else:
            lo = max(min(ay0, ay1), min(by0, by1))
            hi = min(max(ay0, ay1), max(by0, by1))
        return lo < hi

    if ((d1 > 0) != (d2 > 0)) and d1 != 0 and d2 != 0 and \
       ((d3 > 0) != (d4 > 0)) and d3 != 0 and d4 != 0:
        return True  # proper crossing

    # Endpoint of one strictly interior to the other.
    if d1 == 0 and _strictly_between(ax0, ay0, ax1, ay1, bx0, by0):
        return True
    if d2 == 0 and _strictly_between(ax0, ay0, ax1, ay1, bx1, by1):
        return True
    if d3 == 0 and _strictly_between(bx0, by0, bx1, by1, ax0, ay0):
        return True
    if d4 == 0 and _strictly_between(bx0, by0, bx1, by1, ax1, ay1):
        return True
    return False


def _orient(ox, oy, ax, ay, bx, by) -> int:
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _strictly_between(x0, y0, x1, y1, px, py) -> bool:
    # (px,py) is collinear with the segment; is it in its open interior?
    if (px, py) == (x0, y0) or (px, py) == (x1, y1):
        return False
    return min(x0, x1) <= px <= max(x0, x1) and min(y0, y1) <= py <= max(y0, y1)


def arcs_cross(a: Arc, b: Arc, dims: TorusDims) -> bool:
    """True if arcs a and b conflict geometrically on the torus.

    Each arc is a straight segment in the universal cover; b is tested in all
    translates by (k1*rows, k2*cols) for k1, k2 in -2..2, which suffices since
    the maximum step extent is 2. Meetings at shared lattice endpoints are
    fine (that is a vertex); anything else - a proper crossing, a T-junction,
    or collinear overlap - is a conflict. Identical arcs never conflict with
    themselves at zero offset, but may with their own translates.
    """
    ax0, ay0 = a.col, a.row
    ax1, ay1 = a.col + a.dx, a.row + a.dy
    for k1 in (-2, -1, 0, 1, 2):
        for k2 in (-2, -1, 0, 1, 2):
            if a == b and k1 == 0 and k2 == 0:
                continue
            bx0 = b.col + k2 * dims.cols
            by0 = b.row + k1 * dims.rows
            bx1 = bx0 + b.dx
            by1 = by0 + b.dy
            if _segments_conflict(ax0, ay0, ax1, ay1, bx0, by0, bx1, by1):
                return True
    return False

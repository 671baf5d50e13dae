"""Integer lattice and torus primitives.

Positions live on an n x m grid with row 0 at the top; row indices grow
downward (the direction the lace is worked) and column indices grow to the
right. The grid is doubly periodic: opposite edges are identified, so every
coordinate pair names a point on a torus. All geometry here is exact integer
arithmetic; nothing in the validity tests touches floating point. Whether two
arcs cross is read off the points of the lattice refined by halves that they
pass through, counted modulo the periods (``arcs_cross``).
"""

from typing import NamedTuple

# Unit direction of each slot as (dcol, drow), clockwise from North.
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


def _slot_of(dx: int, dy: int) -> int:
    """The slot whose unit direction has the signs of (dx, dy)."""
    return SLOT_VECTORS.index(((dx > 0) - (dx < 0), (dy > 0) - (dy < 0)))


# (origin slot, head slot, length) of every lace step: it leaves by the slot
# of its signs and arrives by the slot of their negation; its length, the
# floor of the Euclidean distance between its endpoints, is its longer side
# (1 for a diagonal unit step, whose length is sqrt(2)).
_STEP_ENDS = {(dx, dy): (_slot_of(dx, dy), _slot_of(-dx, -dy), max(abs(dx), dy))
              for dx, dy in LACE_STEPS}


def _step_ends(step: tuple[int, int]) -> tuple[int, int, int]:
    dx, dy = step
    if (dx, dy) not in _STEP_ENDS:
        raise ValueError(f"step {step} not in the lace step set")
    return _STEP_ENDS[dx, dy]


def direction_slot(step: tuple[int, int], at_head: bool = False) -> int:
    """Rotational slot an arc occupies at one of its endpoints.

    At the origin this is the departure direction of (dx, dy); at the head it
    is the arrival direction, i.e. the slot of (-dx, -dy).
    """
    return _step_ends(step)[1 if at_head else 0]


def step_length(step: tuple[int, int]) -> int:
    """Length of a step: floor of the Euclidean distance between endpoints."""
    return _step_ends(step)[2]


def arc_ends(arc: Arc, dims: TorusDims):
    """Where an arc touches the lattice: (vertex, slot, signed length) at its
    origin and then at its head.

    The length is negative at the origin and positive at the head, as a
    vertex label records outgoing and incoming arcs. The search's masks and
    the one slot table of a ground (``GroundEmbedding.slot_table``) are read
    from these two records.
    """
    out_slot, in_slot, length = _STEP_ENDS[arc.dx, arc.dy]
    return (((arc.row, arc.col), out_slot, -length),
            (arc.head(dims), in_slot, length))


def _half_points(a: Arc, dims: TorusDims) -> list[tuple[int, int]]:
    """The points of an arc whose coordinates are multiples of 1/2, from its
    origin to its head (3 for a unit step, 5 for a double step), each doubled
    to integers and reduced modulo the doubled periods as (row, col)."""
    n = max(abs(a.dx), a.dy)  # 1 for a unit step, 2 for a double step
    rows2, cols2 = 2 * dims.rows, 2 * dims.cols
    return [((2 * a.row + k * a.dy // n) % rows2, (2 * a.col + k * a.dx // n) % cols2)
            for k in range(2 * n + 1)]


def arcs_cross(a: Arc, b: Arc, dims: TorusDims) -> bool:
    """True if arcs a and b conflict geometrically on the torus.

    Two arcs conflict when they share a half-lattice point (one whose
    coordinates are multiples of 1/2) that is not an endpoint of both; an arc
    tested against itself pairs each of its points with the others, never
    with itself. This is the rule "a proper crossing, a T-junction or a
    collinear overlap longer than a point conflicts; a shared lattice endpoint
    is a vertex", because:

    * every lace step lies on a line x = k, y = k, y - x = k or y + x = k
      with k an integer, and two such lines that are not parallel meet at a
      half-lattice point, so two steps that cross or touch, other than end
      to end on one line, meet at a point ``_half_points`` lists for both;
    * two collinear lattice segments that overlap in more than a point share
      the midpoint of a unit piece of the overlap, which is not a lattice
      point and so an endpoint of neither; two that meet in one point meet
      end to end;
    * translation by whole periods maps half-lattice points to half-lattice
      points, so comparing them modulo the periods tests every translate of
      b at once, whatever origin either arc is written with.
    """
    pa, pb = _half_points(a, dims), _half_points(b, dims)
    if a.step == b.step and pa[0] == pb[0]:
        # only the two endpoints of an arc may coincide with each other
        return len(set(pa)) < len(pa) - (pa[0] == pa[-1])
    return not set(pa[1:-1]).isdisjoint(pb) or not set(pb[1:-1]).isdisjoint(pa)

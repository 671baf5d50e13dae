import itertools
from fractions import Fraction
from math import isqrt

import pytest

from laceground.geometry import (
    Arc,
    LACE_STEPS,
    TorusDims,
    arcs_cross,
    direction_slot,
    step_length,
    wrap,
)
from laceground.search import SearchConfig, enumerate_grounds


def test_wrap_examples():
    assert wrap(0, 0, TorusDims(1, 1)) == (0, 0)
    assert wrap(2, 0, TorusDims(2, 3)) == (0, 0)
    assert wrap(-1, -1, TorusDims(2, 3)) == (1, 2)


def test_wrap_idempotent():
    dims = TorusDims(3, 4)
    for r in range(-5, 8):
        for c in range(-5, 8):
            w = wrap(r, c, dims)
            assert wrap(*w, dims) == w


def test_direction_slot_examples():
    assert direction_slot((0, 1)) == 4          # due south departure
    assert direction_slot((0, 1), at_head=True) == 0   # arrival from the north
    assert direction_slot((-2, 0)) == 6         # westward departure


def test_direction_slot_families():
    for step in LACE_STEPS:
        o = direction_slot(step)
        h = direction_slot(step, at_head=True)
        if step[1] > 0:
            assert o in (3, 4, 5)
            assert h in (7, 0, 1)
        else:
            assert o in (2, 6)
            assert h in (2, 6)


def test_direction_slot_rejects_bad_step():
    with pytest.raises(ValueError):
        direction_slot((3, 0))


def test_step_length():
    assert step_length((1, 1)) == 1   # floor of sqrt(2)
    assert step_length((0, 2)) == 2
    assert step_length((-1, 0)) == 1
    assert step_length((-2, 0)) == 2


def test_step_ends_are_the_steps_own():
    """Each step arrives by the slot opposite the one it leaves by, and its
    length is the floor of the Euclidean distance between its endpoints."""
    for dx, dy in LACE_STEPS:
        assert direction_slot((dx, dy), at_head=True) == (direction_slot((dx, dy)) + 4) % 8
        assert step_length((dx, dy)) == isqrt(dx * dx + dy * dy)


@pytest.mark.parametrize("step", [(0, 3), (3, 0), (1, -1), (0, 0)])
def test_step_length_rejects_bad_step(step):
    with pytest.raises(ValueError, match="not in the lace step set"):
        step_length(step)


@pytest.mark.parametrize("dims", [TorusDims(0, 1), TorusDims(0, 2), TorusDims(1, 0),
                                  TorusDims(-1, 2)])
def test_dims_below_one_by_one_are_refused(dims):
    message = rf"dims must be >= 1x1, got {dims.rows}x{dims.cols}"
    with pytest.raises(ValueError, match=message):
        dims.validate()
    with pytest.raises(ValueError, match=message):
        enumerate_grounds(SearchConfig(dims))


def test_cross_examples():
    dims = TorusDims(2, 2)
    a = Arc(0, 0, 1, 1)
    b = Arc(0, 1, -1, 1)
    assert arcs_cross(a, b, dims)           # cell diagonals
    assert arcs_cross(b, a, dims)
    v1 = Arc(0, 0, 0, 1)
    v2 = Arc(0, 1, 0, 1)
    assert not arcs_cross(v1, v2, dims)     # parallel verticals

    # double-step pairs on 3x3: defer to the rational oracle for the expected
    # values; a horizontal double wrapping through a vertical double's interior
    # lattice point must conflict
    dims3 = TorusDims(3, 3)
    a = Arc(0, 0, 0, 2)                     # interior lattice point (1,0)
    through = Arc(1, 2, 2, 0)               # spans cols 2..4, through (1,0)
    clear = Arc(2, 1, 2, 0)                 # row 2 touches a only at its head vertex
    assert arcs_cross(a, through, dims3) and _oracle_cross(a, through, dims3)
    assert not arcs_cross(a, clear, dims3) and not _oracle_cross(a, clear, dims3)


def test_blocked_midpoint_via_t_junction():
    # an arc ending on the interior lattice point of a double step conflicts
    dims = TorusDims(3, 3)
    long = Arc(0, 0, 0, 2)         # interior point (1,0)
    toucher = Arc(1, 0, 1, 1)      # departs from (1,0)
    assert arcs_cross(long, toucher, dims)


def test_self_translate_conflicts():
    # a two-unit step on a one-unit period overlaps its own copies
    assert arcs_cross(Arc(0, 0, 2, 0), Arc(0, 0, 2, 0), TorusDims(3, 1))
    assert arcs_cross(Arc(0, 0, 0, 2), Arc(0, 0, 0, 2), TorusDims(1, 3))
    # but a double step fitting the period exactly only touches endpoints
    assert not arcs_cross(Arc(0, 0, 0, 2), Arc(0, 0, 0, 2), TorusDims(2, 3))


# --- independent exact-rational oracle ------------------------------------

def _seg_points(a: Arc):
    return (Fraction(a.col), Fraction(a.row),
            Fraction(a.col + a.dx), Fraction(a.row + a.dy))


def _oracle_segments_meet(p, q) -> bool:
    """Rational parametric intersection; true on any contact that is not a
    shared segment endpoint."""
    ax0, ay0, ax1, ay1 = p
    bx0, by0, bx1, by1 = q
    rx, ry = ax1 - ax0, ay1 - ay0
    sx, sy = bx1 - bx0, by1 - by0
    denom = rx * sy - ry * sx
    qpx, qpy = bx0 - ax0, by0 - ay0
    ends_a = {(ax0, ay0), (ax1, ay1)}
    ends_b = {(bx0, by0), (bx1, by1)}
    if denom != 0:
        t = Fraction(qpx * sy - qpy * sx, denom)
        u = Fraction(qpx * ry - qpy * rx, denom)
        if 0 <= t <= 1 and 0 <= u <= 1:
            point = (ax0 + t * rx, ay0 + t * ry)
            return not (point in ends_a and point in ends_b)
        return False
    if qpx * ry - qpy * rx != 0:
        return False  # parallel, not collinear
    # collinear: project on the dominant axis
    if rx != 0:
        lo = max(min(ax0, ax1), min(bx0, bx1))
        hi = min(max(ax0, ax1), max(bx0, bx1))
    else:
        lo = max(min(ay0, ay1), min(by0, by1))
        hi = min(max(ay0, ay1), max(by0, by1))
    if lo > hi:
        return False
    if lo == hi:
        # single contact point: fine only if it is an endpoint of both
        pt = (lo, ay0 + (lo - ax0) / rx * ry) if rx != 0 else (ax0, lo)
        return not (pt in ends_a and pt in ends_b)
    return True


def _oracle_cross(a: Arc, b: Arc, dims: TorusDims) -> bool:
    pa = _seg_points(a)
    for k1 in range(-2, 3):
        for k2 in range(-2, 3):
            if a == b and k1 == 0 and k2 == 0:
                continue
            shifted = Arc(b.row + k1 * dims.rows, b.col + k2 * dims.cols, b.dx, b.dy)
            if _oracle_segments_meet(pa, _seg_points(shifted)):
                return True
    return False


def _wrapped_arcs(dims: TorusDims):
    return [Arc(r, c, dx, dy)
            for r in range(dims.rows) for c in range(dims.cols) for (dx, dy) in LACE_STEPS]


@pytest.mark.parametrize("dims", [(4, 4), (1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)],
                         ids="{0[0]}x{0[1]}".format)
def test_cross_matches_rational_oracle_exhaustive(dims):
    """Every ordered pair of wrapped arcs, implementation vs the rational
    oracle; on the small periods double steps overlap their own copies and
    wrap onto their own endpoints."""
    dims = TorusDims(*dims)
    arcs = _wrapped_arcs(dims)
    for i, a in enumerate(arcs):
        for b in arcs[i:]:
            expect = _oracle_cross(a, b, dims)
            assert arcs_cross(a, b, dims) == expect, (a, b)
            assert arcs_cross(b, a, dims) == expect, (b, a)


@pytest.mark.parametrize("dims", [(r, c) for r in range(1, 4) for c in range(1, 4)],
                         ids="{0[0]}x{0[1]}".format)
def test_cross_ignores_how_origins_are_written(dims):
    """Moving either arc by whole periods, up to 3 each way along both sides,
    names the same arc on the torus and so never changes the answer."""
    dims = TorusDims(*dims)
    arcs = _wrapped_arcs(dims)
    shifts = [(kr * dims.rows, kc * dims.cols) for kr in range(-3, 4) for kc in range(-3, 4)]
    for a in arcs:
        moved_a = [a._replace(row=a.row + dr, col=a.col + dc) for dr, dc in shifts]
        for b in arcs:
            expect = arcs_cross(a, b, dims)
            for dr, dc in shifts:
                moved_b = b._replace(row=b.row + dr, col=b.col + dc)
                assert arcs_cross(a, moved_b, dims) == expect, (a, moved_b)
            for ma in moved_a:
                assert arcs_cross(ma, b, dims) == expect, (ma, b)


def test_cross_symmetric_small_dims():
    for rows, cols in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        dims = TorusDims(rows, cols)
        for a, b in itertools.combinations(_wrapped_arcs(dims), 2):
            assert arcs_cross(a, b, dims) == arcs_cross(b, a, dims)

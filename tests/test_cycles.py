"""The contractible directed cycle check: a verdict on the largest grounds
a file can hold, and a property of arc sets without a shared slot."""

import pytest
from hypothesis import given, settings, strategies as st

from laceground.embedding import MAX_PERIOD, GroundEmbedding, arc_tables
from laceground.geometry import TorusDims
from laceground.validator import FAIL, PASS, check_no_contractible_directed_cycles

LARGEST = TorusDims(MAX_PERIOD, MAX_PERIOD)


@pytest.mark.parametrize("east_only,status", [(False, FAIL), (True, PASS)],
                         ids=["every-horizontal-arc", "every-eastward-arc"])
def test_largest_grounds_get_a_verdict(east_only, status):
    """An 8x8 ground of every horizontal arc holds a cycle east then west,
    and one of every eastward arc holds none: each gets its verdict, with
    every cycle of every row examined in the second."""
    arcs = tuple(a for a in arc_tables(LARGEST).arcs
                 if a.dy == 0 and (a.dx > 0 or not east_only))
    e = GroundEmbedding(LARGEST, arcs)
    assert check_no_contractible_directed_cycles(e).status == status


def test_wider_grounds_are_refused():
    """A ground built in code may be wider than a file can declare; the
    cycle count grows about sevenfold per 4 columns, so it is refused."""
    dims = TorusDims(1, MAX_PERIOD + 1)
    e = GroundEmbedding(dims, tuple(a for a in arc_tables(dims).arcs
                                    if a.dy == 0 and a.dx > 0))
    with pytest.raises(ValueError, match="at most 8 columns, got 9"):
        check_no_contractible_directed_cycles(e)


def test_a_repeated_arc_is_walked_once():
    """Every eastward arc of a 1x8 ground listed five times: each copy
    would multiply the paths walked, yet the verdict is that of one copy."""
    dims = TorusDims(1, MAX_PERIOD)
    east = tuple(a for a in arc_tables(dims).arcs if a.dy == 0 and a.dx > 0)
    e = GroundEmbedding(dims, east * 5)
    assert check_no_contractible_directed_cycles(e).status == PASS


@st.composite
def horizontal_arcs_without_a_shared_slot(draw):
    """Horizontal arcs of a grid up to 4x8, each drawn arc kept only when
    it takes no slot an arc kept before it took."""
    dims = TorusDims(draw(st.integers(1, 4)), draw(st.integers(1, 8)))
    horizontal = [a for a in arc_tables(dims).arcs if a.dy == 0]
    arcs = ()
    for a in draw(st.lists(st.sampled_from(horizontal), max_size=16)):
        if not GroundEmbedding(dims, arcs + (a,)).slot_table.shared:
            arcs += (a,)
    return GroundEmbedding(dims, arcs)


@settings(max_examples=200, deadline=None)
@given(horizontal_arcs_without_a_shared_slot())
def test_no_shared_slot_no_contractible_cycle(e):
    """An eastward arc leaves by slot E and arrives by slot W, a westward
    arc the reverse, so a directed cycle can turn back only at a vertex
    where two of its arcs share a slot. Without one, every cycle keeps one
    direction and its displacement is not zero."""
    assert check_no_contractible_directed_cycles(e).status == PASS

"""The contractible directed cycle check: decided by the slot table, a
verdict on the largest and on wider grounds, and a search for the cycle
that agrees with it on arc sets without a shared slot."""

import pytest
from hypothesis import given, settings, strategies as st

from laceground.embedding import MAX_PERIOD, GroundEmbedding, arc_tables
from laceground.geometry import TorusDims
from laceground.validator import BLOCKED, PASS, check_no_contractible_directed_cycles
from oracle import contractible_cycle_reference
from test_slot_table import _grounds

LARGEST = TorusDims(MAX_PERIOD, MAX_PERIOD)


def _assert_slot_rule(e):
    """The check is BLOCKED exactly when a slot holds two arcs, and where
    none does, the search finds no cycle of zero displacement."""
    r = check_no_contractible_directed_cycles(e)
    if e.slot_table.shared:
        assert r.status == BLOCKED
    else:
        assert r.status == PASS
        assert contractible_cycle_reference(e) is None


@pytest.mark.parametrize("east_only", [False, True],
                         ids=["every-horizontal-arc", "every-eastward-arc"])
def test_largest_grounds_get_a_verdict(east_only):
    """An 8x8 ground of every horizontal arc holds a cycle east then west,
    and one of every eastward arc sends two arcs out of each vertex by slot
    E: both share a slot at vertex (0, 0), so neither is searched."""
    arcs = tuple(a for a in arc_tables(LARGEST).arcs
                 if a.dy == 0 and (a.dx > 0 or not east_only))
    e = GroundEmbedding(LARGEST, arcs)
    assert check_no_contractible_directed_cycles(e) == (
        BLOCKED, (0, 0), "requires an embedding without slot conflicts")
    assert (contractible_cycle_reference(e) is None) == east_only


def test_wider_grounds_get_a_verdict():
    """A ground built in code may be wider than a file can declare: a 1x9
    ground of eastward unit arcs shares no slot and passes."""
    dims = TorusDims(1, MAX_PERIOD + 1)
    e = GroundEmbedding(dims, tuple(a for a in arc_tables(dims).arcs
                                    if a.dy == 0 and a.dx == 1))
    assert len(e.arcs) == 9
    assert check_no_contractible_directed_cycles(e).status == PASS


def test_a_repeated_arc_is_walked_once():
    """Every eastward arc of a 1x8 ground listed five times: each copy
    shares both its slots, so the check is blocked, and the search walks
    one copy of each, so it stays as small as on one copy and finds no
    cycle."""
    dims = TorusDims(1, MAX_PERIOD)
    east = tuple(a for a in arc_tables(dims).arcs if a.dy == 0 and a.dx > 0)
    e = GroundEmbedding(dims, east * 5)
    assert check_no_contractible_directed_cycles(e).status == BLOCKED
    assert contractible_cycle_reference(e) is None


@st.composite
def arc_subsets(draw):
    """Arcs of a grid up to 8x8, some listed twice; one drawn in three
    keeps no arc whose slots an arc before it holds, so that grounds
    without a shared slot are drawn too."""
    dims = TorusDims(draw(st.integers(1, MAX_PERIOD)), draw(st.integers(1, MAX_PERIOD)))
    universe = arc_tables(dims).arcs
    drawn = draw(st.lists(st.sampled_from(universe), max_size=24))
    drawn += drawn[:draw(st.integers(0, 3))]
    if draw(st.integers(0, 2)) == 0:
        arcs = ()
        for a in drawn:
            if not GroundEmbedding(dims, arcs + (a,)).slot_table.shared:
                arcs += (a,)
        return GroundEmbedding(dims, arcs)
    return GroundEmbedding(dims, tuple(drawn))


@settings(max_examples=300, deadline=None)
@given(arc_subsets())
def test_no_shared_slot_no_contractible_cycle(e):
    """A step never points up, so a cycle of zero displacement runs along
    one row, east and west. Where it turns from east to west both arcs hold
    the W slot of the vertex, and where it turns back both hold the E slot.
    Without a shared slot no cycle turns, and none has zero displacement."""
    _assert_slot_rule(e)


def test_slot_rule_on_the_digest_grounds():
    for e in _grounds():
        _assert_slot_rule(e)

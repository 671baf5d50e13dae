"""The contractible directed cycle check: its cycle budget, and a property
of arc sets without a shared slot."""

import pytest
from hypothesis import given, settings, strategies as st

from laceground.embedding import GroundEmbedding, arc_tables, slot_table
from laceground.geometry import Arc, TorusDims
from laceground.validator import INCONCLUSIVE, PASS, check_no_contractible_directed_cycles

EAST_1 = GroundEmbedding(TorusDims(1, 1), (Arc(0, 0, 1, 0),))
EAST_1_AND_2 = GroundEmbedding(TorusDims(1, 1), (Arc(0, 0, 1, 0), Arc(0, 0, 2, 0)))


@pytest.mark.parametrize("e,max_cycles,status", [
    (EAST_1, 1, PASS),
    (EAST_1_AND_2, 2, PASS),
    (EAST_1_AND_2, 1, INCONCLUSIVE),
], ids=["one-cycle-budget-1", "two-cycles-budget-2", "two-cycles-budget-1"])
def test_inconclusive_only_when_a_cycle_goes_unexamined(e, max_cycles, status):
    assert check_no_contractible_directed_cycles(e, max_cycles=max_cycles).status == status


@st.composite
def horizontal_arcs_without_a_shared_slot(draw):
    """Horizontal arcs of a grid up to 4x8, each drawn arc kept only when
    it takes no slot an arc kept before it took."""
    dims = TorusDims(draw(st.integers(1, 4)), draw(st.integers(1, 8)))
    horizontal = [a for a in arc_tables(dims).arcs if a.dy == 0]
    arcs = ()
    for a in draw(st.lists(st.sampled_from(horizontal), max_size=16)):
        if not slot_table(GroundEmbedding(dims, arcs + (a,)))[2]:
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

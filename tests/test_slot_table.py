"""The per-ground slot table and golden digests of everything that reads it:
the report, the canonical forms, the label grid, the drawing and the
circuit partition, over solutions, their one-arc-removed
negatives and random arc subsets (crossings, shared slots and wrong degrees
included), and of the drawing at tilings that are not square."""

import dataclasses
import functools
import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from laceground.canonical import canonical_representative, label_grid
from laceground.embedding import GroundEmbedding, arc_tables, serialize
from laceground.geometry import Arc, TorusDims
from laceground.render import render_svg
from laceground.search import SearchConfig, enumerate_grounds
from laceground.validator import (
    check_connected,
    check_embedded,
    check_no_contractible_directed_cycles,
    check_thread_conservation,
    check_two_regular,
    full_report,
    partition_circuits,
    report_to_json,
    report_to_text,
)
from oracle import slot_table_reference

# sha256 of each part of the digest over every ground of ``_grounds`` in
# order (first 16 hex digits)
GOLDEN_DIGESTS = {
    "report": "5c8abe0d9797999b",
    "canonical": "0408b901eb4a9e1d",
    "labels": "a8310ddfa1f115e9",
    "render": "5f1d92366c993a4e",
    "partition": "c8b80a3e0b23e828",
}

# the same for the drawing without labels at tilings that are not square,
# at the benchmark's tiling and at the longest strips, so that swapped tile
# rows and columns and the ends of the position texts show
TILING_DIGESTS = {
    (1, 3): "343472036ac8f842",
    (1, 32): "05e0910c324a3415",
    (3, 1): "9baee7e008a0fc7e",
    (4, 4): "efb606c5baf730f0",
    (5, 7): "1e67d23ce29561f4",
    (32, 1): "c5bf1594a007a6d3",
}


@functools.cache
def _grounds():
    """The loose 2x2 and 2x3 solutions, each followed by its one-arc-removed
    negatives, then the 2x2 solutions with one step mirrored, then 2,000
    seeded random arc subsets of grids up to 3x4."""
    out = []
    solutions = {dims: [e for _, e in enumerate_grounds(SearchConfig(
        dims, strict_connectivity=False)).canonical_solutions]
        for dims in (TorusDims(2, 2), TorusDims(2, 3))}
    for e in solutions[TorusDims(2, 2)] + solutions[TorusDims(2, 3)]:
        out.append(e)
        out.extend(GroundEmbedding(e.dims, e.arcs[:i] + e.arcs[i + 1:])
                   for i in range(len(e.arcs)))
    # on two columns a mirrored step keeps its head: these stay 2-in/2-out,
    # some with a shared slot and some with a crossing
    for e in solutions[TorusDims(2, 2)]:
        for i, a in enumerate(e.arcs):
            mirrored = a._replace(dx=-a.dx)
            if mirrored not in e.arcs:
                out.append(GroundEmbedding(e.dims, e.arcs[:i] + (mirrored,) + e.arcs[i + 1:]))
    rng = random.Random(13)
    for _ in range(2000):
        dims = TorusDims(rng.randint(1, 3), rng.randint(1, 4))
        arcs = arc_tables(dims).arcs
        out.append(GroundEmbedding(dims, tuple(rng.sample(arcs, rng.randint(0, min(12, len(arcs)))))))
    return tuple(out)


def _or_error(f, *args):
    try:
        return f(*args)
    except ValueError as err:
        return f"ValueError: {err}"


def _digests():
    parts = {name: hashlib.sha256() for name in GOLDEN_DIGESTS}
    for e in _grounds():
        report = full_report(e)
        canon = _or_error(canonical_representative, e)
        if not isinstance(canon, str):
            canon = repr(canon[0]) + "\n" + serialize(canon[1])
        partition = _or_error(partition_circuits, e)
        if not isinstance(partition, str):
            partition = repr((partition.circuits, partition.windings))
        for name, text in (
                ("report", json.dumps(report_to_json(report), sort_keys=True)
                 + report_to_text(report)),
                ("canonical", canon),
                ("labels", repr(label_grid(e))),
                ("render", render_svg(e, (2, 2), labels=True)),
                ("partition", partition)):
            parts[name].update((text + "\n").encode())
    return {name: h.hexdigest()[:16] for name, h in parts.items()}


def test_golden_digests():
    assert _digests() == GOLDEN_DIGESTS


def test_report_matches_the_public_checks():
    """``full_report`` shares one winding walk and 2-regularity test among
    its checks; each part of the report still equals the public check run
    on its own."""
    traced = 0
    for e in _grounds():
        report = full_report(e)
        assert report.two_regular == check_two_regular(e)
        assert report.embedded == check_embedded(e)
        assert report.connected == check_connected(e)
        assert report.strict_connected == check_connected(e, strict=True)
        assert report.no_contractible_directed_cycle == check_no_contractible_directed_cycles(e)
        if report.partition is not None:
            traced += 1
            assert report.partition == partition_circuits(e)
            assert report.conserved == check_thread_conservation(e)
    assert 0 < traced < len(_grounds())


@pytest.mark.parametrize("repeats", sorted(TILING_DIGESTS), ids="{0[0]}x{0[1]}".format)
def test_tiled_drawings(repeats):
    digest = hashlib.sha256()
    for e in _grounds():
        digest.update(render_svg(e, repeats).encode())
    assert digest.hexdigest()[:16] == TILING_DIGESTS[repeats]


def test_slot_table_of_a_one_by_one_ground():
    """A 1x1 ground with two arcs in its east slot: the labels hold the
    later arc's length, and the clash is listed once, with the arc that
    found the slot taken."""
    dims = TorusDims(1, 1)
    t = arc_tables(dims)
    e = GroundEmbedding(dims, (Arc(0, 0, 1, 0), Arc(0, 0, 2, 0)))
    ids, labels, shared = e.slot_table
    two = t.arc_id[Arc(0, 0, 2, 0)]
    assert ids == (t.arc_id[Arc(0, 0, 1, 0)], two)
    assert labels == (0, 0, -2, 0, 0, 0, 2, 0)
    assert shared == ((2, two), (6, two))
    assert GroundEmbedding(dims, (Arc(0, 0, 1, 0),)).slot_table.shared == ()


def test_a_repeated_arc_takes_its_slots_twice():
    """A ground that lists an arc twice holds two arcs in each of its slots,
    and the canonical forms refuse it as they refuse any shared slot."""
    arc = Arc(0, 0, 1, 0)
    e = GroundEmbedding(TorusDims(1, 1), (arc, arc))
    assert [entry for entry, _ in e.slot_table.shared] == [2, 6]
    with pytest.raises(ValueError, match="share slot 2 of vertex"):
        canonical_representative(e)


@st.composite
def _arc_lists(draw):
    """Dims from 1x1 to 8x8 and a list of their arcs, some listed twice."""
    dims = TorusDims(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    arcs = draw(st.lists(st.sampled_from(arc_tables(dims).arcs), max_size=24))
    if arcs:
        arcs += draw(st.lists(st.sampled_from(arcs), max_size=4))
    return dims, draw(st.permutations(arcs))


@settings(max_examples=300, deadline=None)
@given(_arc_lists())
def test_slot_table_matches_the_reference(dims_arcs):
    """The table equals the reference read arc end by arc end, and building
    it changes neither equality, hash nor repr: it is no field of the
    ground."""
    dims, arcs = dims_arcs
    e = GroundEmbedding(dims, tuple(arcs))
    unbuilt = GroundEmbedding(dims, tuple(reversed(arcs)))
    shown, hashed = repr(e), hash(e)
    assert shown == f"GroundEmbedding(dims={dims!r}, arcs={e.arcs!r}, zeta=())"
    assert e.slot_table == slot_table_reference(e)
    assert repr(e) == repr(unbuilt) == shown
    assert e == unbuilt and hash(e) == hash(unbuilt) == hashed
    assert [f.name for f in dataclasses.fields(e)] == ["dims", "arcs", "zeta"]

import json
from itertools import combinations

import pytest

from laceground.embedding import GroundEmbedding, deserialize
from laceground.geometry import LACE_STEPS, Arc, TorusDims, direction_slot
from laceground.search import SearchConfig, enumerate_grounds
from laceground.validator import (
    BLOCKED,
    check_connected,
    check_no_contractible_directed_cycles,
    check_thread_conservation,
    check_two_regular,
    full_report,
    partition_circuits,
    report_to_json,
    report_to_text,
)
from oracle import circuit_cut_crossings, contractible_cycle_reference

TORCHON_1x1 = GroundEmbedding(TorusDims(1, 1), (Arc(0, 0, -1, 1), Arc(0, 0, 1, 0)))
EMPTY_2x2 = GroundEmbedding(TorusDims(2, 2))
# two vertical 2-cycles in separate columns, each vertex 2-in/2-out via a
# doubled pair of arcs is impossible; instead use the classic 2-component
# example: vertical loops built from direct arcs on 2x2 columns 0 and 1
TWO_LOOPS = GroundEmbedding(TorusDims(2, 2), (
    Arc(0, 0, 0, 1), Arc(1, 0, 0, 1), Arc(0, 1, 0, 1), Arc(1, 1, 0, 1)))


def test_two_regular():
    assert check_two_regular(TORCHON_1x1).ok
    assert not check_two_regular(EMPTY_2x2).ok
    r = check_two_regular(GroundEmbedding(TorusDims(2, 2), (Arc(0, 0, 0, 1),)))
    assert not r.ok and r.witness in ((0, 0), (1, 0))


def test_connected_modes():
    assert check_connected(TORCHON_1x1).ok
    assert check_connected(TORCHON_1x1, strict=True).ok
    r = check_connected(TWO_LOOPS)
    assert not r.ok and "components" in r.detail
    # single vertical loop: wraps the torus, so non-strict passes, but its
    # windings span only one direction, so the planar lift is disconnected
    loop = GroundEmbedding(TorusDims(1, 1), (Arc(0, 0, 0, 1),))
    assert check_connected(loop).ok
    assert not check_connected(loop, strict=True).ok


def test_rotationally_consecutive():
    assert full_report(TORCHON_1x1).rotationally_consecutive.ok
    blocked = full_report(EMPTY_2x2).rotationally_consecutive
    assert blocked.status == "blocked"


def test_lace_steps_never_alternate_round_a_vertex():
    """Two arcs in and two arcs out of a vertex, each by a lace step and
    each in a slot of its own, never alternate in, out, in, out round it:
    the rotational check and the circuit walk rely on this instead of
    testing it."""
    checked = 0
    for ins in combinations(LACE_STEPS, 2):
        for outs in combinations(LACE_STEPS, 2):
            in_slots = {direction_slot(s, at_head=True) for s in ins}
            out_slots = {direction_slot(s) for s in outs}
            if len(in_slots | out_slots) < 4:
                continue  # a shared slot, refused before the check
            signs = [slot in in_slots for slot in sorted(in_slots | out_slots)]
            switches = sum(signs[i] != signs[i - 1] for i in range(4))
            assert switches == 2, (ins, outs)
            checked += 1
    # in slots W, NW, N, NE and E are taken by 2, 1, 2, 1 and 2 steps, out
    # slots E, SE, S, SW and W by 2, 1, 2, 1 and 2
    assert checked == 353


def test_partition_torchon():
    part = partition_circuits(TORCHON_1x1)
    assert [len(c) for c in part.circuits] == [2]
    assert part.windings[0] == (0, 1)


def test_partition_covers_all_arcs():
    result = enumerate_grounds(SearchConfig(TorusDims(2, 2)))
    for _, emb in result.canonical_solutions:
        part = partition_circuits(emb)
        covered = [a for circuit in part.circuits for a in circuit]
        assert sorted(covered) == sorted(emb.arcs)
        assert len(covered) == len(set(covered))
        # all circuits wrap identically: no sideways drift, one descent
        assert all(w == (0, 1) for w in part.windings)


def test_partition_rejects_shared_slots():
    # both loops leave by the south slot and arrive by the north one, so the
    # walk could pair both arrivals with one exit and never close
    shared = GroundEmbedding(TorusDims(1, 1), (Arc(0, 0, 0, 1), Arc(0, 0, 0, 2)))
    with pytest.raises(ValueError, match="one slot"):
        partition_circuits(shared)


def test_no_contractible_examples():
    assert check_no_contractible_directed_cycles(TORCHON_1x1).ok
    flat = deserialize("ground v1\ndims 1 2\narc 0 0 1 0\narc 0 1 -1 0\n")
    # east then west along the row: each turn shares a slot, so the check
    # is blocked at the lowest such vertex rather than searched
    assert flat.slot_table.shared
    assert check_no_contractible_directed_cycles(flat) == (
        BLOCKED, (0, 0), "requires an embedding without slot conflicts")
    assert contractible_cycle_reference(flat) == list(flat.arcs)


def test_conservation():
    assert check_thread_conservation(TORCHON_1x1).ok
    # one diagonal self-loop drifts sideways each repeat
    drift = GroundEmbedding(TorusDims(1, 1), (Arc(0, 0, 1, 1),))
    r = check_thread_conservation(drift)
    assert not r.ok and "longitudinal winding 1" in r.detail


def test_cut_crossings_match_winding_at_every_cut():
    result = enumerate_grounds(SearchConfig(TorusDims(2, 3)))
    for _, emb in result.canonical_solutions[:10]:
        part = partition_circuits(emb)
        for circuit, w in zip(part.circuits, part.windings):
            for cut in range(emb.dims.cols):
                assert circuit_cut_crossings(circuit, cut, emb.dims.cols) == w.longitudinal


def test_full_report_pass_and_blocked():
    report = full_report(TORCHON_1x1)
    assert report.all_pass()
    assert report.all_pass(strict=True)

    empty = full_report(EMPTY_2x2)
    assert not empty.two_regular.ok
    assert empty.conserved.status == "blocked"
    assert not empty.all_pass()


def test_report_serialization():
    report = full_report(TORCHON_1x1)
    doc = report_to_json(report)
    assert doc["version"] == 1
    for key in ("two_regular", "connected", "strict_connected",
                "rotationally_consecutive", "no_contractible_directed_cycle",
                "conserved", "circuits"):
        assert key in doc
    json.dumps(doc)  # must be serializable
    text = report_to_text(report)
    assert "two_regular: pass" in text
    assert "winding (L=0, M=1)" in text


def test_enumerated_solutions_never_trip_safety_nets():
    for dims in (TorusDims(1, 3), TorusDims(2, 2)):
        result = enumerate_grounds(SearchConfig(dims))
        for _, emb in result.canonical_solutions:
            report = full_report(emb)
            assert report.all_pass(), report_to_text(report)

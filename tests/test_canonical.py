import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from laceground.canonical import (
    TRANSFORMS,
    canonical_id,
    canonical_representative,
    identifier,
    identifier_text,
    label_grid,
    solution_name,
    transform,
    translate,
)
from laceground.embedding import GroundEmbedding, new_embedding
from laceground.geometry import Arc, TorusDims
from laceground.search import SearchConfig, enumerate_grounds

TORCHON_1x1 = GroundEmbedding(TorusDims(1, 1), (Arc(0, 0, -1, 1), Arc(0, 0, 1, 0)))
MIRROR_1x1 = GroundEmbedding(TorusDims(1, 1), (Arc(0, 0, 1, 1), Arc(0, 0, -1, 0)))


def test_vertex_label_examples():
    assert label_grid(new_embedding(TorusDims(2, 2)))[1][1] == (0,) * 8
    assert label_grid(TORCHON_1x1)[0][0] == (0, 1, -1, 0, 0, -1, 1, 0)
    lone = GroundEmbedding(TorusDims(3, 1), (Arc(1, 0, 0, 2),))
    # head of the double step receives +2 at north
    assert label_grid(lone)[0][0][0] == 2


def test_transform_laws():
    for emb in (TORCHON_1x1, MIRROR_1x1):
        assert transform(emb, "identity") == emb
        for name in ("h_reflect", "v_reflect", "rot180"):
            assert transform(transform(emb, name), name) == emb
        assert transform(transform(emb, "h_reflect"), "v_reflect") == transform(emb, "rot180")


def test_v_reflect_of_torchon_is_mirror():
    assert transform(TORCHON_1x1, "v_reflect") == MIRROR_1x1


def test_unknown_transform_raises():
    for e in (new_embedding(TorusDims(3, 3)), TORCHON_1x1):
        with pytest.raises(ValueError, match="unknown transform 'bogus'"):
            transform(e, "bogus")


def test_translate_wraps():
    e = GroundEmbedding(TorusDims(2, 3), (Arc(0, 1, 1, 1),))
    t = translate(e, 3, 4)
    assert t.arcs == (Arc(1, 2, 1, 1),)


def test_one_by_one_orbit():
    # the two mirror embeddings share a canonical id and exactly one is canonical
    ids = {canonical_id(TORCHON_1x1), canonical_id(MIRROR_1x1)}
    assert len(ids) == 1
    (cid,) = ids
    assert (identifier(TORCHON_1x1) == cid) != (identifier(MIRROR_1x1) == cid)
    eid, rep = canonical_representative(TORCHON_1x1)
    assert identifier(rep) == eid == canonical_id(rep)


def test_empty_embedding_is_canonical():
    e = new_embedding(TorusDims(2, 2))
    assert identifier(e) == canonical_id(e)


def test_shared_slot_has_no_canonical_form():
    # a label holds one arc per slot: which of the two it showed would
    # depend on arc order, which a symmetry changes
    e = GroundEmbedding(TorusDims(1, 1), (Arc(0, 0, -2, 0), Arc(0, 0, -1, 0)))
    for moved in (e, transform(e, "h_reflect")):
        with pytest.raises(ValueError, match=r"share slot \d of vertex \(0, 0\)"):
            canonical_representative(moved)
        with pytest.raises(ValueError):
            canonical_id(moved)


def test_canonical_form_builds_no_crossing_table():
    """In a fresh interpreter, since other tests build the crossing tables
    of every grid up to 8x8 in this one."""
    code = textwrap.dedent("""
        from laceground.canonical import canonical_representative
        from laceground.embedding import GroundEmbedding, arc_tables
        from laceground.geometry import Arc, TorusDims
        from oracle import canonical_reference

        dims = TorusDims(3, 7)
        e = GroundEmbedding(dims, (Arc(0, 3, 0, 1), Arc(1, 3, 1, 1), Arc(2, 4, -1, 1)))
        assert canonical_representative(e) == canonical_reference(e)
        assert "conflict_mask" not in vars(arc_tables(dims))
        assert "self_ok" not in vars(arc_tables(dims))
    """)
    tests = Path(__file__).resolve().parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join((str(tests.parent / "src"), str(tests)))}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_canonical_invariance_over_solutions():
    rng = random.Random(7)
    result = enumerate_grounds(SearchConfig(TorusDims(2, 2)))
    for _, emb in result.canonical_solutions:
        cid = canonical_id(emb)
        assert identifier(emb) == cid  # stored representatives are canonical
        for name in TRANSFORMS:
            moved = translate(transform(emb, name),
                              rng.randrange(2), rng.randrange(2))
            assert canonical_id(moved) == cid


def test_identifier_text_and_name_stable():
    eid = identifier(TORCHON_1x1)
    text = identifier_text(eid)
    assert text == "1x1|0,1,-1,0,0,-1,1,0"
    assert len(solution_name(text)) == 16
    assert solution_name(text) == solution_name(text)

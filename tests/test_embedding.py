import hashlib

import pytest

from laceground import embedding
from laceground.embedding import (
    MAX_PERIOD,
    GroundEmbedding,
    GroundFileError,
    add_path,
    arc_tables,
    deserialize,
    new_embedding,
    serialize,
    tables_for,
)
from laceground.canonical import canonical_representative
from laceground.geometry import LACE_STEPS, Arc, TorusDims
from laceground.paths import LacePath
from laceground.render import render_svg
from laceground.validator import check_connected, check_embedded, check_two_regular, full_report
from oracle import crossing_tables_reference, deserialize_reference

NE_W_PATH = LacePath(((-1, 1), (1, 0)), False)


CROSSING_GRIDS = [(r, c) for r in range(1, 5) for c in range(1, 5)] + [(1, 8), (8, 1)]


@pytest.mark.parametrize("dims", CROSSING_GRIDS, ids="{0[0]}x{0[1]}".format)
def test_crossing_tables_match_pairwise_tests(dims):
    """The crossing tables moved by translation equal those tested pair by
    pair."""
    dims = TorusDims(*dims)
    t = tables_for(dims)
    assert (t.self_ok, t.conflict_mask) == crossing_tables_reference(dims)


def test_crossing_tables_are_pinned():
    """One sha256 of ``(rows, cols, self_ok, conflict_mask)`` over every grid
    from 1x1 to 8x8. The digest was computed with a general segment
    intersection test (orientation predicates over the translates of the
    second arc), a rule independent of the half-lattice one. The 64 builds
    take about 0.7 s in a fresh process on one core with Python 3.11."""
    digest = hashlib.sha256()
    for rows in range(1, 9):
        for cols in range(1, 9):
            t = tables_for(TorusDims(rows, cols))
            digest.update(repr((rows, cols, t.self_ok, t.conflict_mask)).encode())
    assert digest.hexdigest() == \
        "0e9b8d1836e589af9ef6cb6dd33fe63203053665769e0f5a4abd6e73503eea8d"


def test_crossing_tables_test_only_the_arcs_out_of_one_vertex(monkeypatch):
    """One build of the crossing tables calls ``arcs_cross`` once for each
    arc out of vertex (0, 0) and each arc, not once per pair of arcs."""
    dims = TorusDims(7, 8)
    calls = []

    def counting(a, b, d):
        calls.append((a, b))
        return cross(a, b, d)

    cross = embedding.arcs_cross
    monkeypatch.setattr(embedding, "arcs_cross", counting)
    t = tables_for.__wrapped__(dims)  # a build of its own, past the cache
    assert len(calls) == len(LACE_STEPS) * len(t.arcs)


def test_new_embedding():
    e = new_embedding(TorusDims(1, 1))
    assert e.arcs == ()
    assert not check_two_regular(e).ok
    e2 = new_embedding(TorusDims(3, 4))
    assert e2.non_isolated() == []


def test_add_path_one_by_one():
    e = new_embedding(TorusDims(1, 1))
    e2, rej = add_path(e, NE_W_PATH, 0)
    assert rej is None
    labels = e2.slot_table.labels
    # two incoming (NE, W), two outgoing (SW, E)
    assert labels[1] > 0 and labels[6] > 0
    assert labels[5] < 0 and labels[2] < 0
    assert check_two_regular(e2).ok and check_connected(e2).ok
    # the original is untouched
    assert e.arcs == ()


def test_add_path_degree_overflow():
    e = new_embedding(TorusDims(1, 1))
    e2, _ = add_path(e, NE_W_PATH, 0)
    e3, rej = add_path(e2, LacePath(((0, 1),), False), 0)
    assert e3 is None
    assert rej.kind in ("degree", "slot-conflict")
    assert rej.vertex == (0, 0)


def test_add_path_crossing_rejected():
    e = GroundEmbedding(TorusDims(2, 2), (Arc(0, 0, 1, 1),))
    e2, rej = add_path(e, LacePath(((-1, 1), (1, 1)), False), 1)
    assert e2 is None
    assert rej.kind == "crossing"


def test_add_path_rejects_an_input_with_a_fault():
    """The arcs of the input are taken first, so an input that already holds
    a crossing takes no path, and the rejection names that crossing."""
    e = GroundEmbedding(TorusDims(2, 2), (Arc(0, 0, -2, 0), Arc(0, 1, -1, 1)))
    e2, rej = add_path(e, LacePath(((0, 1), (0, 1)), False), 0)
    assert e2 is None
    assert rej == ("crossing", (0, 1), Arc(0, 1, -1, 1))


def test_add_path_rejects_bad_input_with_value_error():
    """A start column off the grid, a step outside the lace step set and a
    height other than the rows are caller errors, not rejections."""
    e = new_embedding(TorusDims(3, 3))
    with pytest.raises(ValueError, match="start_col"):
        add_path(e, LacePath(((0, 1), (0, 1), (0, 1))), 3)
    with pytest.raises(ValueError, match=r"step \(0, 3\) not in the lace step set"):
        add_path(e, LacePath(((0, 3),)), 0)
    with pytest.raises(ValueError, match="path height"):
        add_path(e, LacePath(((0, 1),)), 0)


def test_add_path_duplicate_arc():
    e = new_embedding(TorusDims(2, 1))
    path = LacePath(((0, 1), (0, 1)), False)
    e2, rej = add_path(e, path, 0)
    assert rej is None
    e3, rej = add_path(e2, path, 0)
    assert e3 is None
    assert rej.kind in ("duplicate-arc", "slot-conflict")


def test_arc_set_is_union_of_added_paths():
    from laceground.embedding import path_arcs
    from laceground.paths import generate_lace_paths

    dims = TorusDims(2, 2)
    e = new_embedding(dims)
    added = []
    for path in generate_lace_paths(2):
        for col in range(dims.cols):
            nxt, rej = add_path(e, path, col)
            if nxt is not None:
                e = nxt
                added.append((path, col))
    expected = set()
    for path, col in added:
        arcs = path_arcs(path, col, dims)
        assert expected.isdisjoint(arcs)  # each arc appears exactly once
        expected.update(arcs)
    assert set(e.arcs) == expected


def test_valid_vertex():
    e = new_embedding(TorusDims(2, 2))
    assert check_embedded(e).ok      # isolated vertices are vacuously fine
    # incoming (1,0) and outgoing (-1,0) both claim the west slot
    bad = GroundEmbedding(TorusDims(1, 3), (Arc(0, 2, 1, 0), Arc(0, 0, -1, 0)))
    r = check_embedded(bad)
    assert not r.ok
    assert "slot" in r.detail


def test_valid_embedding_disconnected():
    arcs = (Arc(0, 0, 0, 1), Arc(1, 0, 0, 1), Arc(0, 1, 0, 1), Arc(1, 1, 0, 1))
    # two vertical 2-cycles in separate columns; each vertex is 2-in/2-out?
    # no: each is 1-in/1-out, so degree fails first
    e = GroundEmbedding(TorusDims(2, 2), arcs)
    assert not check_two_regular(e).ok


def test_serialize_roundtrip():
    e = new_embedding(TorusDims(1, 1))
    e2, _ = add_path(e, NE_W_PATH, 0)
    text = serialize(e2)
    assert text.startswith("ground v1\ndims 1 1\n")
    assert deserialize(text) == e2

    empty = serialize(new_embedding(TorusDims(2, 3)))
    assert deserialize(empty) == new_embedding(TorusDims(2, 3))


def test_serialize_zeta_roundtrip():
    e = GroundEmbedding(TorusDims(1, 1), (Arc(0, 0, -1, 1), Arc(0, 0, 1, 0)),
                        (((0, 0), "CTpCT"),))
    assert deserialize(serialize(e)) == e


@pytest.mark.parametrize("text,fragment", [
    ("ground v2\n", "header"),
    ("ground v1\narc 0 0 0 1\n", "before dims"),
    ("ground v1\ndims 1 1\narc 0 0 3 0\n", "step"),
    ("ground v1\ndims 1 1\narc 1 0 0 1\n", "out of range"),
    ("ground v1\ndims 1 1\narc 0 0 0 1\narc 0 0 0 1\n", "duplicate"),
    ("ground v1\ndims 0 2\n", ">= 1x1"),
    ("ground v1\ndims 1 1\nzeta 0 0 CX\n", "zeta"),
    ("ground v1\ndims 1 1\nbogus 1\n", "unknown"),
])
def test_deserialize_rejects(text, fragment):
    with pytest.raises(GroundFileError) as err:
        deserialize(text)
    assert fragment in str(err.value)


def test_constructor_makes_arcs_only_of_what_is_not_one():
    """Plain 4-tuples become ``Arc``s, ``Arc``s are kept as they are, and a
    mix of both comes out sorted; either way the grounds are equal."""
    dims = TorusDims(2, 3)
    arcs = (Arc(1, 2, -1, 1), Arc(0, 1, 1, 0), Arc(0, 0, 0, 2))
    plain = GroundEmbedding(dims, tuple(tuple(a) for a in arcs))
    kept = GroundEmbedding(dims, arcs)
    mixed = GroundEmbedding(dims, (arcs[0], tuple(arcs[1]), arcs[2]))
    assert all(type(a) is Arc for e in (plain, kept, mixed) for a in e.arcs)
    assert kept.arcs == tuple(sorted(arcs))
    assert all(any(a is b for b in arcs) for a in kept.arcs)
    assert mixed.arcs[2] is arcs[0] and mixed.arcs[0] is arcs[2]
    assert plain == kept == mixed
    assert hash(plain) == hash(kept) == hash(mixed)


OFF_GRID = [
    (TorusDims(1, 1), Arc(0, 0, 3, 0), r"arc \(0, 0, 3, 0\) is not an arc of the 1x1 grid"),
    (TorusDims(1, 2), Arc(0, 5, 1, 0), r"arc \(0, 5, 1, 0\) is not an arc of the 1x2 grid"),
    (TorusDims(2, 3), (2, 0, 0, 1), r"arc \(2, 0, 0, 1\) is not an arc of the 2x3 grid"),
    (TorusDims(2, 3), Arc(0, 0, 0, -1), r"arc \(0, 0, 0, -1\) is not an arc of the 2x3 grid"),
]


@pytest.mark.parametrize("caller", [full_report, canonical_representative, render_svg],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("dims,arc,message", OFF_GRID, ids=["step", "col", "row", "upward"])
def test_a_ground_refuses_an_arc_off_its_grid(caller, dims, arc, message):
    """An arc off the grid or outside the step set is refused where the
    ground is made, before the report, the canonical form or the drawing
    reads it (a bare KeyError, a wrong drawing or an IndexError before)."""
    ok = Arc(0, 0, 1, 0)
    with pytest.raises(ValueError, match=message):
        caller(GroundEmbedding(dims, (ok, arc)))


def test_making_a_ground_builds_no_grid_tables():
    """The constructor's check reads the arcs alone, so a ground on any
    grid is made (and written) without the grid's arc universe."""
    before = arc_tables.cache_info().currsize
    e = GroundEmbedding(TorusDims(1000, 1000), (Arc(999, 999, -1, 1),))
    assert serialize(e).endswith("arc 999 999 -1 1\n")
    assert arc_tables.cache_info().currsize == before


def test_a_ground_refuses_a_zeta_vertex_off_its_grid():
    with pytest.raises(ValueError, match=r"zeta vertex \(2,0\) is off the 2x3 grid"):
        GroundEmbedding(TorusDims(2, 3), zeta=(((2, 0), "CT"),))
    with pytest.raises(ValueError, match=r"zeta vertex \(0,-1\) is off the 2x3 grid"):
        GroundEmbedding(TorusDims(2, 3), (Arc(0, 0, 1, 0),), (((0, -1), "CT"),))
    e = GroundEmbedding(TorusDims(2, 3), zeta=(((1, 2), "CT"),))
    assert e.zeta == (((1, 2), "CT"),)


@pytest.mark.parametrize("text,message", [
    ("ground v1\ndims 2 3\narc 2 0 0 1\n", "line 3: origin (2,0) out of range for 2x3"),
    ("ground v1\ndims 2 3\narc 0 3 0 1\n", "line 3: origin (0,3) out of range for 2x3"),
    ("ground v1\ndims 2 3\narc 0 0 -1 -1\n", "line 3: step (-1,-1) not in the lace step set"),
    ("ground v1\ndims 2 3\narc 0 1 1 0\narc 00 +1 1 0\n", "line 4: duplicate arc (0, 1, 1, 0)"),
    ("ground v1\ndims 2 3\nzeta 2 0 CT\n", "line 3: vertex (2,0) out of range"),
    ("ground v1\ndims 2 3\nzeta 0 -1 CT\n", "line 3: vertex (0,-1) out of range"),
])
def test_deserialize_error_text(text, message):
    with pytest.raises(GroundFileError) as err:
        deserialize(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text,line_no,message", [
    ("ground v1\ndims 1 1\ndims 1 1\n", 3, "duplicate dims line"),
    ("ground v1\ndims 1 1 1\n", 2, "dims takes exactly two integers"),
    ("ground v1\nzeta 0 0 CT\ndims 1 1\n", 2, "zeta before dims"),
    ("ground v1\ndims 1 1\nzeta 0 0\n", 3, "zeta takes row, col and an action string"),
    ("ground v1\ndims 1 2\nzeta 0 1 CT\n\nzeta 0 1 p\n", 5, "duplicate zeta for vertex (0,1)"),
    ("ground v1\ndims 1 1\narc 0 0 1\n", 3, "arc takes exactly four integers"),
    ("# no header\n\n", 1, "empty file; expected 'ground v1' header"),
    ("ground v1\n\n# no dims\n", 1, "missing dims line"),
], ids=["duplicate-dims", "dims-arity", "zeta-before-dims", "zeta-arity", "duplicate-zeta",
        "arc-arity", "empty", "missing-dims"])
def test_deserialize_refuses_each_misplaced_or_missing_line(text, line_no, message):
    """Each fault names its line, as the parser that runs the rules on
    every line names it."""
    for parse in (deserialize, deserialize_reference):
        with pytest.raises(GroundFileError) as err:
            parse(text)
        assert (str(err.value), err.value.line_no) == (f"line {line_no}: {message}", line_no)


@pytest.mark.parametrize("text,message", [
    ("ground v1\ndims +2 0_2\n", "line 2: dims values must be integers"),
    ("ground v1\ndims 1_0 1\n", "line 2: dims values must be integers"),
    ("ground v1\ndims \uff12 2\n", "line 2: dims values must be integers"),
    ("ground v1\ndims 1 1\narc \u0661 0 +1 0\n", "line 3: arc values must be integers"),
    ("ground v1\ndims 2 2\narc 0 0 \u0967 0\n", "line 3: arc values must be integers"),
    ("ground v1\ndims 1 1\n\narc 0 0 -1_0 1\n", "line 4: arc values must be integers"),
    ("# \u00e9\nground v1\ndims 1 1\nzeta \U0001d7ce 0 CT\n",
     "line 4: zeta coordinates must be integers"),
    ("ground v1\ndims 1 1\nzeta 0_0 0 CT\n", "line 3: zeta coordinates must be integers"),
], ids=["underscore-and-plus", "underscore", "fullwidth", "arabic-indic", "devanagari",
        "signed-underscore", "math-digit", "zeta-underscore"])
def test_deserialize_reads_only_ascii_integers(text, message):
    """int() also reads underscores and digits of other scripts; a ground
    file's integers are ASCII digits after an optional sign."""
    with pytest.raises(GroundFileError) as err:
        deserialize(text)
    assert str(err.value) == message


def test_comments_may_hold_any_text():
    """Underscores and other scripts' digits in comments leave the integers
    as they are, a plus sign included."""
    text = "# \u0661_1\nground v1\ndims 1 1  # \uff12\narc 0 0 -1 +1\narc 0 0 +1 0  # a_b\n"
    assert deserialize(text) == GroundEmbedding(
        TorusDims(1, 1), (Arc(0, 0, -1, 1), Arc(0, 0, 1, 0)))


def test_deserialize_reports_line_numbers():
    with pytest.raises(GroundFileError) as err:
        deserialize("ground v1\ndims 1 1\n# fine\narc 0 0 3 0\n")
    assert err.value.line_no == 4


# the characters str.splitlines breaks a line at besides "\n" and "\r"
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=ascii)
def test_a_comment_may_hold_any_line_separator(char):
    """Lines end only at LF, CRLF and CR: a comment holding another of the
    breaks of str.splitlines stays one comment, errors carry the line
    number an editor shows, and inside a line the character separates
    fields."""
    plain = "ground v1\ndims 1 1\n# see page two\narc 0 0 -1 1\narc 0 0 1 0\n"
    expected = GroundEmbedding(TorusDims(1, 1), (Arc(0, 0, -1, 1), Arc(0, 0, 1, 0)))
    assert deserialize(plain) == expected
    assert deserialize(plain.replace("page", f"page{char}")) == expected
    assert deserialize(plain.replace("0 1 0", f"0{char}1 0")) == expected
    with pytest.raises(GroundFileError) as err:
        deserialize(f"ground v1\ndims 1 1\n# see page{char}two\narc 0 0 3 0\n")
    assert str(err.value) == "line 4: step (3,0) not in the lace step set"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_lines_end_at_each_universal_newline(newline):
    lines = ["ground v1", "dims 1 1", "# a comment", "", "arc 0 0 -1 1", "arc 0 0 1 0"]
    text = newline.join(lines) + newline
    assert deserialize(text) == GroundEmbedding(
        TorusDims(1, 1), (Arc(0, 0, -1, 1), Arc(0, 0, 1, 0)))
    with pytest.raises(GroundFileError) as err:
        deserialize(text + "arc 0 0 1 0" + newline)
    assert str(err.value) == "line 7: duplicate arc (0, 0, 1, 0)"


def test_deserialize_reads_every_arc_of_the_largest_grid():
    """A file may list all 512 arcs of an 8x8 grid; an arc listed again
    after them, written another way, is refused at its own line."""
    dims = TorusDims(MAX_PERIOD, MAX_PERIOD)
    arcs = arc_tables(dims).arcs
    text = serialize(GroundEmbedding(dims, arcs))
    assert deserialize(text).arcs == tuple(arcs)
    lines = text.splitlines()
    with pytest.raises(GroundFileError, match=r"duplicate arc \(7, 0, 2, 0\)") as err:
        deserialize(text + "\n# again\narc  7 0 +2 00\n")
    assert err.value.line_no == len(lines) + 3


def test_deserialize_admits_property_violations():
    # a lone arc leaves a 1-in/1-out vertex; parse succeeds, checks flag it
    e = deserialize("ground v1\ndims 2 2\narc 0 0 0 1\n")
    assert len(e.arcs) == 1
    assert not check_two_regular(e).ok
    # slot conflicts are representable too
    e2 = deserialize("ground v1\ndims 1 3\narc 0 2 1 0\narc 0 0 -1 0\n")
    assert not check_embedded(e2).ok


def test_comments_and_blank_lines():
    text = "# header comment\nground v1\n\ndims 1 1  # trailing\narc 0 0 -1 1\n"
    e = deserialize(text)
    assert len(e.arcs) == 1

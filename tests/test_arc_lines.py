"""A ground file's arc lines in the writer's own spelling are read through
the per-grid table ``arc_tables(dims).lines``; every other spelling, and
every fault, by the per-field rules. Both give the grounds, error texts
and line numbers of the parser that runs the rules on every line
(``oracle.deserialize_reference``)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import laceground
from laceground.embedding import (
    GroundEmbedding,
    GroundFileError,
    arc_tables,
    deserialize,
    serialize,
)
from laceground.geometry import LACE_STEP_SET, TorusDims
from oracle import deserialize_reference

GRIDS = [(r, c) for r in range(1, 9) for c in range(1, 9)]


@pytest.mark.parametrize("dims", GRIDS, ids="{0[0]}x{0[1]}".format)
def test_the_table_holds_each_arc_as_the_writer_spells_it(dims):
    """Each line the table holds is what ``serialize`` writes for its arc,
    the per-field rules read it as an equal arc, and it maps to the very
    element of ``arc_tables(dims).arcs``: one line for every arc."""
    dims = TorusDims(*dims)
    t = arc_tables(dims)
    table, arcs = t.lines, t.arcs
    assert len(table) == len(arcs)
    for (line, arc), element in zip(table.items(), arcs):
        assert arc is element
        assert serialize(GroundEmbedding(dims, (arc,))).splitlines()[2] == line
        assert deserialize_reference(f"ground v1\ndims {dims.rows} {dims.cols}\n{line}\n").arcs \
            == (arc,)


def test_arcs_read_from_the_table_are_the_grids_own():
    dims = TorusDims(3, 4)
    arcs = arc_tables(dims).arcs[::3]
    parsed = deserialize(serialize(GroundEmbedding(dims, arcs)))
    assert parsed.arcs == tuple(arcs)
    assert all(any(a is b for b in arcs) for a in parsed.arcs)


def test_no_table_is_built_at_import():
    """Importing the program, the command line included, builds no grid's
    tables: a run that parses nothing pays nothing for them."""
    code = ("import laceground.cli\n"
            "from laceground.embedding import arc_tables\n"
            "print(arc_tables.cache_info().currsize)\n")
    src = str(Path(laceground.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0"]


# ---------------------------------------------------------------------------
# random grounds, respelled line by line, with and without one fault
# ---------------------------------------------------------------------------

NON_ASCII_DIGITS = ("١", "१", "２", "\U0001d7ce")
BAD_STEPS = sorted({(dx, dy) for dx in range(-3, 4) for dy in range(-1, 4)} - LACE_STEP_SET)


@st.composite
def _grounds(draw):
    """A ground on a grid from 1x1 to 8x8, with up to four zeta lines."""
    dims = TorusDims(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    arcs = draw(st.lists(st.sampled_from(arc_tables(dims).arcs), max_size=40, unique=True))
    vertices = st.tuples(st.integers(0, dims.rows - 1), st.integers(0, dims.cols - 1))
    zeta = draw(st.dictionaries(vertices, st.text("CTLRp", min_size=1, max_size=5),
                                max_size=4))
    return GroundEmbedding(dims, tuple(arcs), tuple(zeta.items()))


@st.composite
def _integer(draw, n: int) -> str:
    """One of the spellings the rules read as ``n``."""
    zeros = "0" * draw(st.integers(0, 2))
    if n < 0:
        return f"-{zeros}{-n}"
    return draw(st.sampled_from(("", "+"))) + zeros + str(n)


@st.composite
def _respelled(draw, line: str) -> str:
    """``line`` as written, or with other integers, blanks and a comment."""
    if not draw(st.booleans()):
        return line
    text, *fields = line.split()
    if text == "ground":
        text = line
        fields = []
    blank = st.sampled_from((" ", "  ", "\t", " \t "))
    for f in fields:
        text += draw(blank) + (draw(_integer(int(f))) if f.lstrip("-").isdigit() else f)
    outer = st.sampled_from(("", " ", "\t"))
    comment = draw(st.sampled_from(("", "#", "# a_1 ١", "  # arc 0 0 1 0")))
    return draw(outer) + text + draw(outer) + comment


@st.composite
def _file_lines(draw, e: GroundEmbedding) -> list[str]:
    """The lines of ``serialize(e)``, each respelled or not, those after
    dims shuffled, with comments and blank lines among them."""
    header, dims_line, *body = serialize(e).splitlines()
    lines = [draw(_respelled(header)), draw(_respelled(dims_line))]
    lines += draw(st.permutations([draw(_respelled(line)) for line in body]))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", "# x", "  "))))
    return lines


def _joined(draw, lines: list[str]) -> str:
    return "".join(line + draw(st.sampled_from(("\n", "\r\n"))) for line in lines)


def _index(lines: list[str], directive: str) -> int:
    """Where the line of ``directive`` (ground or dims) is."""
    return next(i for i, line in enumerate(lines)
                if line.split("#")[0].split()[:1] == [directive])


def _outcome(parse, text: str):
    """The ground, or the error's text and line number."""
    try:
        return parse(text)
    except GroundFileError as err:
        return str(err), err.line_no


@settings(max_examples=300, deadline=None)
@given(st.data(), _grounds())
def test_respelled_files_parse_as_the_reference_parses_them(data, e):
    text = _joined(data.draw, data.draw(_file_lines(e)))
    assert deserialize(text) == deserialize_reference(text) == e


@st.composite
def _faulty_files(draw):
    """A respelled file with one line made or added that the rules refuse."""
    e = draw(_grounds())
    lines = draw(_file_lines(e))
    rows, cols = e.dims
    after_dims = st.integers(_index(lines, "dims") + 1, len(lines))
    kinds = ["origin", "step", "before-dims", "non-ascii"] + ["duplicate"] * bool(e.arcs)
    kind = draw(st.sampled_from(kinds))
    if kind == "duplicate":
        a = draw(st.sampled_from(e.arcs))
        line = draw(_respelled(f"arc {a.row} {a.col} {a.dx} {a.dy}"))
        lines.insert(draw(after_dims), line)
    elif kind == "origin":
        r = draw(st.sampled_from((-1, rows, rows + 3)))
        c = draw(st.integers(0, cols - 1))
        if draw(st.booleans()):
            r, c = draw(st.integers(0, rows - 1)), draw(st.sampled_from((-1, cols)))
        dx, dy = draw(st.sampled_from(sorted(LACE_STEP_SET)))
        lines.insert(draw(after_dims), draw(_respelled(f"arc {r} {c} {dx} {dy}")))
    elif kind == "step":
        dx, dy = draw(st.sampled_from(BAD_STEPS))
        line = f"arc {draw(st.integers(0, rows - 1))} {draw(st.integers(0, cols - 1))} {dx} {dy}"
        lines.insert(draw(after_dims), draw(_respelled(line)))
    elif kind == "before-dims":
        a = draw(st.sampled_from(arc_tables(e.dims).arcs))
        line = draw(_respelled(f"arc {a.row} {a.col} {a.dx} {a.dy}"))
        lines.insert(draw(st.integers(_index(lines, "ground") + 1, _index(lines, "dims"))), line)
    else:
        a = draw(st.sampled_from(arc_tables(e.dims).arcs))
        fields = ["arc", *map(str, a)]
        k = draw(st.integers(1, 4))
        fields[k] = fields[k][:-1] + draw(st.sampled_from(NON_ASCII_DIGITS))
        lines.insert(draw(after_dims), " ".join(fields))
    return _joined(draw, lines)


@settings(max_examples=300, deadline=None)
@given(_faulty_files())
def test_faults_are_refused_as_the_reference_refuses_them(text):
    expected = _outcome(deserialize_reference, text)
    assert isinstance(expected, tuple)
    assert _outcome(deserialize, text) == expected

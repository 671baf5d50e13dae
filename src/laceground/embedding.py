"""The toroidal embedding, its conflict tables, its fault rule and the file
format.

A ``GroundEmbedding`` is an immutable value: dims, a sorted tuple of arcs,
and optional per-vertex action annotations.

The arc universe of a grid, the label entries of its arcs and its
symmetries (each transform of ``geometry.TRANSFORM_SIGNS`` followed by a
translation), as permutations of arc ids, are built once (``arc_tables``,
``arc_permutations``); whatever moves arcs around the torus reads the
latter. The geometric conflicts are bitmask tables added to the arc tables
on first use (``tables_for``): only the arcs out of vertex (0, 0) are
tested against every arc, 576 crossing tests at 3x3 (2,628 pair by pair),
and every other arc's row is one of theirs translated. The canonical forms
read only the arcs and label entries, so they never build the crossing
tables.

``GroundEmbedding.slot_table`` reads a ground against those entries once:
its arc ids, vertex labels and the slots a second arc takes. A ground
refuses, with ValueError, an arc that is not one of its grid's and a zeta
vertex off the grid.

``deserialize`` reads the lines in the writer's own spelling (``_arc_line``,
which ``serialize`` writes) through the grid's table of them
(``arc_tables(dims).lines``), each straight to the grid's own arc; it runs
the per-field rules on every other line, so any spelling gives the same
ground and the same errors.

The rules by which an arc cannot join a sequence of arcs (a repeat, a
conflict with its own periodic copies, a taken slot, a crossing, a third
arc at a vertex) live in one place, ``_join``, which adds arcs one by one
to the masks of the sequence so far (``_Arcs``). ``_first_fault`` runs it
over a whole sequence to name the first arc that fails, for ``verify`` and
``add_path``; the search runs it one arc at a time while it walks the paths
of column 0, and builds its candidates from the masks that walk holds.

``add_path`` runs ``_first_fault`` over the arcs of its input and then the
path's, and returns a new embedding or a ``Rejection``, never mutating its
argument.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import NamedTuple, Optional

from .geometry import (
    Arc,
    LACE_STEPS,
    LACE_STEP_SET,
    TRANSFORM_SIGNS,
    TorusDims,
    arc_ends,
    arcs_cross,
    wrap,
)
from .paths import LacePath

# Largest period a ground file may declare along either side: verifying a
# file builds the conflict tables of its dims, one bitset over every arc per
# arc, so their size grows as the square of the number of arcs (512 arcs
# and about 0.05 s at 8x8).
MAX_PERIOD = 8

# Largest ground file, in bytes, the command line reads: a file is read
# whole before it is parsed, so an endless one (/dev/zero) would take every
# byte of memory. Every arc of an 8x8 grid takes 6 KB; the rest is room for
# zeta lines, such as one of a million actions.
MAX_FILE_BYTES = 1 << 20


class Rejection(NamedTuple):
    """Why an arc could not join the arcs before it."""

    kind: str              # "duplicate-arc" | "slot-conflict" | "degree" | "crossing" | "self-conflict"
    vertex: tuple[int, int]
    arc: Arc

    def __str__(self) -> str:
        return f"{self.kind} at vertex {self.vertex} on arc {tuple(self.arc)}"


class SlotTable(NamedTuple):
    """A ground read against its grid's label entries (``GroundEmbedding.slot_table``)."""

    ids: tuple[int, ...]                  # arc ids of ``arc_tables(dims)``, in arc order
    labels: tuple[int, ...]               # flat signed labels, entry ``vertex * 8 + slot``
    shared: tuple[tuple[int, int], ...]   # (entry, arc id) where an arc finds the entry taken


def _arc_line(a: Arc) -> str:
    """The line of a ground file that writes arc ``a``."""
    return f"arc {a.row} {a.col} {a.dx} {a.dy}"


class MaskTables:
    """Per-dims arc universe, its file lines and label entries;
    ``tables_for`` adds the conflict bitmasks."""

    def __init__(self, dims: TorusDims):
        dims.validate()
        self.dims = dims
        rows, cols = dims
        self.n_vertices = rows * cols
        self.arcs: list[Arc] = [
            Arc(r, c, dx, dy)
            for r in range(rows)
            for c in range(cols)
            for (dx, dy) in LACE_STEPS
        ]
        self.arc_id = {a: i for i, a in enumerate(self.arcs)}
        # each arc keyed by the line ``serialize`` writes for it, which
        # ``deserialize``'s rules read as exactly that arc
        self.lines = {_arc_line(a): a for a in self.arcs}
        # per vertex: the id of the arc that leaves it by each step
        self.out_arc = [{} for _ in range(self.n_vertices)]
        for i, a in enumerate(self.arcs):
            self.out_arc[a.row * cols + a.col][a.step] = i

        self.origin_vid = []
        self.head_vid = []
        # per arc: (vertex * 8 + slot, signed length) at its origin and head,
        # the label entries it writes
        self.ends = []
        self.slot_mask = []
        for a in self.arcs:
            (o, o_slot, o_len), (h, h_slot, h_len) = arc_ends(a, dims)
            ov, hv = o[0] * cols + o[1], h[0] * cols + h[1]
            self.origin_vid.append(ov)
            self.head_vid.append(hv)
            self.ends.append(((ov * 8 + o_slot, o_len), (hv * 8 + h_slot, h_len)))
            self.slot_mask.append((1 << (ov * 8 + o_slot)) | (1 << (hv * 8 + h_slot)))


@lru_cache(maxsize=None)
def arc_tables(dims: TorusDims) -> MaskTables:
    """The arc universe and label entries of a grid, without the crossing
    tables."""
    return MaskTables(dims)


@lru_cache(maxsize=None)
def arc_permutations(dims: TorusDims) -> dict[tuple[str, int, int], tuple[int, ...]]:
    """Every symmetry of the grid as a permutation of arc ids (the ids of
    ``arc_tables(dims)``), keyed by (transform name, dr, dc): entry ``i`` is
    the id of arc ``i`` under transform ``name`` and then moved ``dr`` rows
    down and ``dc`` columns right. A transform whose signs (sr, sc) flip the
    rows reverses each arc, so the image starts at the image of the old
    head; either way its step is (sr * sc * dx, dy)."""
    t = arc_tables(dims)
    rows, cols = dims
    table = {}
    for name, (sr, sc) in TRANSFORM_SIGNS.items():
        # per arc: the origin of its image before the move, and its step
        images = []
        for a in t.arcs:
            r, c = a.head(dims) if sr < 0 else (a.row, a.col)
            images.append((sr * r, sc * c, (sr * sc * a.dx, a.dy)))
        for dr in range(rows):
            for dc in range(cols):
                table[name, dr, dc] = tuple(
                    t.out_arc[(r + dr) % rows * cols + (c + dc) % cols][step]
                    for r, c, step in images)
    return table


@lru_cache(maxsize=None)
def tables_for(dims: TorusDims) -> MaskTables:
    """``arc_tables(dims)`` with its crossing tables added: ``self_ok`` (per
    arc, it does not cross its own periodic copies) and ``conflict_mask``
    (per arc, the bitset of the arcs it crosses).

    Crossing is invariant under translation on the torus, so only the arcs
    out of vertex (0, 0) are tested against every arc (``len(LACE_STEPS)``
    rows of ``arcs_cross`` calls); every other arc is one of them moved by
    a translation, an ``("identity", dr, dc)`` entry of
    ``arc_permutations(dims)``, and so is its row. Given the arc tables and
    permutations, this takes about 3 ms at 3x3 and 20 ms at 8x8 (Python
    3.11, one core).
    """
    # plain attributes, not cached properties: a descriptor on the class
    # keeps CPython from specialising the attribute loads in ``_join``,
    # which made the 5x1 column walk about 6% slower
    t = arc_tables(dims)
    origin = [t.out_arc[0][step] for step in LACE_STEPS]
    crossed = [[j for j, b in enumerate(t.arcs) if arcs_cross(t.arcs[aid], b, dims)]
               for aid in origin]
    t.self_ok, t.conflict_mask = [True] * len(t.arcs), [0] * len(t.arcs)
    perms = arc_permutations(dims)
    for dr in range(dims.rows):
        for dc in range(dims.cols):
            perm = perms["identity", dr, dc]
            for aid, row in zip(origin, crossed):
                moved = perm[aid]
                t.self_ok[moved] = aid not in row
                t.conflict_mask[moved] = sum(1 << perm[j] for j in row if j != aid)
    return t


class _Arcs(NamedTuple):
    """The masks of a sequence of arcs: the arcs, their slots, the arcs they
    cross, and the vertices they have at least one, or two, arcs out of and
    into (bitsets that saturate at two)."""

    arcs: int = 0
    slots: int = 0
    crossed: int = 0
    out_any: int = 0
    out_two: int = 0
    in_any: int = 0
    in_two: int = 0


_NO_ARCS = _Arcs()
# makes an _Arcs from a tuple without the Python-level constructor a
# NamedTuple adds: the column walk makes one for every arc it joins
_as_arcs = partial(tuple.__new__, _Arcs)


def _join(p: _Arcs, arc_ids, t: MaskTables, degree: bool = True):
    """Join arcs one by one to a sequence of arcs that passed these tests
    and has masks ``p``. Returns the masks of the arcs joined and, at the
    first arc that cannot join, ``(arc id, kind of fault)``, else None.

    In order of test: it repeats one of them, it conflicts with its own
    periodic copies, it takes a slot already taken, it crosses one of them,
    or (with ``degree``) it would be a third arc out of or into a vertex.
    """
    arcs, slots, crossed, out_any, out_two, in_any, in_two = p
    fault = None
    for aid in arc_ids:
        bit = 1 << aid
        o, h = 1 << t.origin_vid[aid], 1 << t.head_vid[aid]
        if arcs & bit:
            fault = aid, "duplicate-arc"
        elif not t.self_ok[aid]:
            fault = aid, "self-conflict"
        elif slots & t.slot_mask[aid]:
            fault = aid, "slot-conflict"
        elif crossed & bit:
            fault = aid, "crossing"
        elif degree and (out_two & o or in_two & h):
            fault = aid, "degree"
        else:
            arcs |= bit
            slots |= t.slot_mask[aid]
            crossed |= t.conflict_mask[aid]
            out_two |= out_any & o
            out_any |= o
            in_two |= in_any & h
            in_any |= h
            continue
        break
    return _as_arcs((arcs, slots, crossed, out_any, out_two, in_any, in_two)), fault


def _first_fault(arc_ids, t: MaskTables, degree: bool = True) -> Optional[Rejection]:
    """The first arc of the sequence that cannot join the arcs before it
    (see ``_join``), at the vertex where it fails."""
    p, fault = _join(_NO_ARCS, arc_ids, t, degree)
    if fault is None:
        return None
    aid, kind = fault
    if kind == "slot-conflict":
        at_head = not p.slots >> t.ends[aid][0][0] & 1
    elif kind == "degree":
        at_head = not p.out_two >> t.origin_vid[aid] & 1
    else:
        at_head = False
    arc = t.arcs[aid]
    return Rejection(kind, arc.head(t.dims) if at_head else (arc.row, arc.col), arc)


@dataclass(frozen=True)
class GroundEmbedding:
    dims: TorusDims
    arcs: tuple[Arc, ...] = ()
    zeta: tuple[tuple[tuple[int, int], str], ...] = ()

    def __post_init__(self):
        """Refuse, with ValueError, an arc that is not one of the grid's
        (an origin off the grid or a step outside the step set) and a zeta
        vertex off the grid."""
        # most callers hand over ``arc_tables`` arcs, which need no new Arc
        arcs = [a if type(a) is Arc else Arc(*a) for a in self.arcs]
        rows, cols = self.dims
        for r, c, dx, dy in arcs:
            if not (0 <= r < rows and 0 <= c < cols and (dx, dy) in LACE_STEP_SET):
                raise ValueError(f"arc {(r, c, dx, dy)} is not an arc of the {rows}x{cols} grid")
        for (r, c), _ in self.zeta:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"zeta vertex ({r},{c}) is off the {rows}x{cols} grid")
        object.__setattr__(self, "arcs", tuple(sorted(arcs)))
        object.__setattr__(self, "zeta", tuple(sorted(self.zeta)))

    def non_isolated(self) -> list[tuple[int, int]]:
        seen = set()
        for a in self.arcs:
            seen.add((a.row, a.col))
            seen.add(a.head(self.dims))
        return sorted(seen)

    @cached_property
    def slot_table(self) -> SlotTable:
        """The arcs read against the grid once; a label holds the last arc's
        length. No field, so eq, hash and repr ignore it; shared, so immutable."""
        t = arc_tables(self.dims)
        ids = tuple(map(t.arc_id.__getitem__, self.arcs))
        labels = [0] * (8 * t.n_vertices)
        shared = []
        for aid in ids:
            for entry, length in t.ends[aid]:
                if labels[entry]:
                    shared.append((entry, aid))
                labels[entry] = length
        return SlotTable(ids, tuple(labels), tuple(shared))


def new_embedding(dims: TorusDims) -> GroundEmbedding:
    dims.validate()
    return GroundEmbedding(dims)


def path_arcs(path: LacePath, start_col: int, dims: TorusDims) -> list[Arc]:
    """Arcs a path lays down when attached at the given column."""
    r = path.anchor_row(dims.rows)
    c = start_col
    out = []
    for (dx, dy) in path.steps:
        out.append(Arc(r, c, dx, dy))
        r, c = wrap(r + dy, c + dx, dims)
    return out


def add_path(
    e: GroundEmbedding, path: LacePath, start_col: int
) -> tuple[Optional[GroundEmbedding], Optional[Rejection]]:
    """Add every arc of the path.

    Returns (new_embedding, None) when ``verify``'s fault rule
    (``_first_fault``) accepts the arcs of ``e`` followed by the path's, or
    else (None, rejection) naming the first arc that fails; the input
    embedding is untouched either way. So an ``e`` that already holds a
    fault takes no path. A start column off the grid, a step outside the
    lace step set or a height other than the rows raises ValueError.
    """
    dims = e.dims
    if not 0 <= start_col < dims.cols:
        raise ValueError(f"start_col {start_col} out of range for {dims}")
    for step in path.steps:
        if step not in LACE_STEP_SET:
            raise ValueError(f"step {step} not in the lace step set")
    if path.height != dims.rows:
        raise ValueError(f"path height {path.height} != rows {dims.rows}")
    t = tables_for(dims)
    arcs = e.arcs + tuple(path_arcs(path, start_col, dims))
    fault = _first_fault([t.arc_id[a] for a in arcs], t)
    if fault is None:
        return GroundEmbedding(dims, arcs, e.zeta), None
    return None, fault


# ---------------------------------------------------------------------------
# Ground file format (version 1)
# ---------------------------------------------------------------------------

ZETA_ALPHABET = frozenset("CTLRp")


class GroundFileError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _ascii_int(field: str) -> int:
    """int() of ASCII digits after an optional sign: ValueError for the
    underscores and non-ASCII digits int() also reads."""
    if not field.isascii() or "_" in field:
        raise ValueError(f"not an ASCII decimal integer: {field!r}")
    return int(field)


def serialize(e: GroundEmbedding) -> str:
    """Canonical text form: header, dims, arcs in row-major origin order,
    then zeta annotations."""
    lines = ["ground v1", f"dims {e.dims.rows} {e.dims.cols}"]
    lines += map(_arc_line, e.arcs)
    for (r, c), actions in e.zeta:
        lines.append(f"zeta {r} {c} {actions}")
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> GroundEmbedding:
    """Parse a ground file.

    Structural faults (bad syntax, an integer other than ASCII digits after
    an optional sign, steps outside the step set, out-of-range coordinates,
    duplicate arcs, a period above ``MAX_PERIOD``) raise GroundFileError
    with the offending line. Property violations - wrong degrees, slot
    conflicts, crossings, disconnection - are representable and admitted so
    the verifier can report on them.

    An arc line as ``serialize`` writes it, after dims, is looked up in
    ``arc_tables(dims).lines``: those lines are what the rules read as
    exactly their arc, so only the duplicate check is left to run.
    """
    dims: Optional[TorusDims] = None
    arcs: dict[Arc, None] = {}  # in file order
    zeta: dict[tuple[int, int], str] = {}
    seen_header = False
    # the lines the writer emits for the arcs of dims, once dims is read
    known: dict[str, Arc] = {}
    # lines end only at "\n", "\r\n" and "\r"; the other breaks of
    # str.splitlines (form feed, U+2028 and the like) are field whitespace
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for line_no, raw in enumerate(text.split("\n"), start=1):
        arc = known.get(raw)
        if arc is None:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if not seen_header:
                if line != "ground v1":
                    raise GroundFileError(line_no, f"expected 'ground v1' header, got {line!r}")
                seen_header = True
                continue
            fields = line.split()
            if fields[0] == "dims":
                if dims is not None:
                    raise GroundFileError(line_no, "duplicate dims line")
                if len(fields) != 3:
                    raise GroundFileError(line_no, "dims takes exactly two integers")
                try:
                    rows, cols = _ascii_int(fields[1]), _ascii_int(fields[2])
                except ValueError:
                    raise GroundFileError(line_no, "dims values must be integers") from None
                if rows < 1 or cols < 1:
                    raise GroundFileError(line_no, f"dims must be >= 1x1, got {rows}x{cols}")
                if rows > MAX_PERIOD or cols > MAX_PERIOD:
                    raise GroundFileError(
                        line_no, f"dims must be <= {MAX_PERIOD}x{MAX_PERIOD}, got {rows}x{cols}")
                dims = TorusDims(rows, cols)
                known = arc_tables(dims).lines
                continue
            if fields[0] == "zeta":
                if dims is None:
                    raise GroundFileError(line_no, "zeta before dims")
                if len(fields) != 4:
                    raise GroundFileError(line_no, "zeta takes row, col and an action string")
                try:
                    r, c = _ascii_int(fields[1]), _ascii_int(fields[2])
                except ValueError:
                    raise GroundFileError(line_no, "zeta coordinates must be integers") from None
                if not (0 <= r < rows and 0 <= c < cols):
                    raise GroundFileError(line_no, f"vertex ({r},{c}) out of range")
                actions = fields[3]
                bad = set(actions) - ZETA_ALPHABET
                if not actions or bad:
                    raise GroundFileError(
                        line_no, f"zeta actions must be non-empty over C,T,L,R,p; got {actions!r}")
                if (r, c) in zeta:
                    raise GroundFileError(line_no, f"duplicate zeta for vertex ({r},{c})")
                zeta[(r, c)] = actions
                continue
            if fields[0] != "arc":
                raise GroundFileError(line_no, f"unknown directive {fields[0]!r}")
            if dims is None:
                raise GroundFileError(line_no, "arc before dims")
            if len(fields) != 5:
                raise GroundFileError(line_no, "arc takes exactly four integers")
            try:
                r, c, dx, dy = map(_ascii_int, fields[1:])
            except ValueError:
                raise GroundFileError(line_no, "arc values must be integers") from None
            if not (0 <= r < rows and 0 <= c < cols):
                raise GroundFileError(line_no, f"origin ({r},{c}) out of range for {rows}x{cols}")
            if (dx, dy) not in LACE_STEP_SET:
                raise GroundFileError(line_no, f"step ({dx},{dy}) not in the lace step set")
            arc = Arc(r, c, dx, dy)
        if arc in arcs:
            raise GroundFileError(line_no, f"duplicate arc {tuple(arc)}")
        arcs[arc] = None
    if not seen_header:
        raise GroundFileError(1, "empty file; expected 'ground v1' header")
    if dims is None:
        raise GroundFileError(1, "missing dims line")
    return GroundEmbedding(dims, tuple(arcs), tuple(zeta.items()))

"""The toroidal embedding, the mask engine the search runs on, and the file
format.

A ``GroundEmbedding`` is an immutable value: dims, a sorted tuple of arcs,
and optional per-vertex action annotations.

All pairwise geometric conflicts for a given grid size are precomputed once
into bitmask tables (``tables_for``). On them the search's engine works with
two records: a ``_Candidate`` is a set of arcs added as one move, and a
``_State`` is the partial embedding it is added to. Both hold bitsets only:
arcs, slots, and the vertices with at least one and with two arcs in and
out (no degree passes 2), plus the row-0 label entries that the domination
test reads. ``_feasible`` tests a move with a few integer ANDs and
``_apply`` makes it. The search does not call ``_feasible`` per candidate:
it keeps, per column, an alive bitset of the candidates that pass it and
narrows the bitset as moves are made (see ``search``).

The rules by which an arc cannot join a sequence of arcs (a repeat, a
conflict with its own periodic copies, a taken slot, a crossing, a third
arc at a vertex) live in one place, ``_join``, which adds arcs one by one
to the masks of the sequence so far (``_Arcs``). ``_first_fault`` runs it
over a whole sequence to name the first arc that fails, for ``verify`` and
``add_path``; the search runs it one arc at a time while it walks the paths
of a column, so it builds the candidates from the fault-free paths only
and from the masks the walk already holds.

The value API is a thin layer over that engine: ``add_path`` builds the
candidate for a path, tests it against the state of its input and returns a
new embedding or a ``Rejection``, never mutating its argument.
"""

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple, Optional

from .geometry import (
    Arc,
    LACE_STEPS,
    LACE_STEP_SET,
    TorusDims,
    arc_ends,
    arcs_cross,
    wrap,
)
from .paths import LacePath

# Largest period a ground file may declare along either side: verifying a
# file builds the conflict tables of its dims, whose cost grows as the
# square of the number of arcs (a few seconds at 8x8).
MAX_PERIOD = 8


class SlotRecord(NamedTuple):
    """One arc's presence at a vertex: slot index, direction, the arc."""

    slot: int
    incoming: bool
    arc: Arc


class Rejection(NamedTuple):
    """Why an arc could not join the arcs before it."""

    kind: str              # "duplicate-arc" | "slot-conflict" | "degree" | "crossing" | "self-conflict"
    vertex: tuple[int, int]
    arc: Arc

    def __str__(self) -> str:
        return f"{self.kind} at vertex {self.vertex} on arc {tuple(self.arc)}"


class MaskTables:
    """Per-dims precomputed arc universe and conflict bitmasks."""

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
        # per vertex: the id of the arc that leaves it by each step
        self.out_arc = [{} for _ in range(self.n_vertices)]
        for i, a in enumerate(self.arcs):
            self.out_arc[a.row * cols + a.col][a.step] = i
        n_arcs = len(self.arcs)

        self.origin_vid = []
        self.head_vid = []
        # per arc: (vertex * 8 + slot, signed length) at its origin and head,
        # the label entries it writes
        self.ends = []
        self.slot_mask = []
        self.self_ok = []
        for a in self.arcs:
            (o, o_slot, o_len), (h, h_slot, h_len) = arc_ends(a, dims)
            ov, hv = o[0] * cols + o[1], h[0] * cols + h[1]
            self.origin_vid.append(ov)
            self.head_vid.append(hv)
            self.ends.append(((ov * 8 + o_slot, o_len), (hv * 8 + h_slot, h_len)))
            self.slot_mask.append((1 << (ov * 8 + o_slot)) | (1 << (hv * 8 + h_slot)))
            self.self_ok.append(not arcs_cross(a, a, dims))

        self.conflict_mask = [0] * n_arcs
        for i, a in enumerate(self.arcs):
            for j in range(i + 1, n_arcs):
                if arcs_cross(a, self.arcs[j], dims):
                    self.conflict_mask[i] |= 1 << j
                    self.conflict_mask[j] |= 1 << i


@lru_cache(maxsize=None)
def tables_for(dims: TorusDims) -> MaskTables:
    return MaskTables(dims)


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


class _Candidate:
    """A set of arcs added as one search move, with its combined masks.

    Its degrees are four vertex bitsets: the vertices it adds at least one,
    or two, arcs into, or out of. Of its label entries only row 0's are
    kept, since the domination test reads no others. ``masks``, when given,
    are the arcs' masks as ``_join`` joined them.
    """

    __slots__ = ("arc_ids", "arcs_mask", "slots_mask", "blocked_mask",
                 "in_any", "in_two", "out_any", "out_two", "label_updates")

    def __init__(self, arc_ids, t: MaskTables, masks: Optional[_Arcs] = None):
        if masks is None:
            arcs_mask = slots = conflict = 0
            in_any = in_two = out_any = out_two = 0
            for aid in arc_ids:
                arcs_mask |= 1 << aid
                slots |= t.slot_mask[aid]
                conflict |= t.conflict_mask[aid]
                o, h = 1 << t.origin_vid[aid], 1 << t.head_vid[aid]
                out_two |= out_any & o
                out_any |= o
                in_two |= in_any & h
                in_any |= h
            masks = _Arcs(arcs_mask, slots, conflict, out_any, out_two, in_any, in_two)
        self.arc_ids = tuple(arc_ids)
        self.arcs_mask = masks.arcs
        self.slots_mask = masks.slots
        # arcs that may not be present: the set itself plus everything it crosses
        self.blocked_mask = masks.arcs | masks.crossed
        self.in_any, self.in_two = masks.in_any, masks.in_two
        self.out_any, self.out_two = masks.out_any, masks.out_two
        row0 = t.dims.cols * 8
        self.label_updates = tuple(end for aid in arc_ids for end in t.ends[aid]
                                   if end[0] < row0)


class _State:
    """A partial embedding as the search holds it: masks of its arcs and
    slots, the degree bitsets (vertices with at least one and with two arcs
    in and out; the search never lets a degree pass 2) and the flat label
    grid of row 0 (entry col * 8 + slot)."""

    __slots__ = ("arcs_mask", "slots_mask", "labels",
                 "in_ge1", "in_ge2", "out_ge1", "out_ge2")

    def __init__(self, cols: int):
        self.arcs_mask = 0
        self.slots_mask = 0
        self.labels = [0] * (cols * 8)
        self.in_ge1 = self.in_ge2 = self.out_ge1 = self.out_ge2 = 0


def _feasible(state: _State, cand: _Candidate) -> bool:
    # pure mask arithmetic: no shared arcs or crossings, free slots, and the
    # degree caps hold (a vertex at 2 takes nothing, a vertex at 1 cannot
    # take a double contribution)
    return not (
        state.arcs_mask & cand.blocked_mask
        or state.slots_mask & cand.slots_mask
        or state.in_ge2 & cand.in_any
        or state.in_ge1 & cand.in_two
        or state.out_ge2 & cand.out_any
        or state.out_ge1 & cand.out_two
    )


def _apply(state: _State, cand: _Candidate) -> _State:
    """The state after the move; ``state`` is left as it was. The degree
    bitsets saturate at 2, which is exact for feasible moves."""
    s = _State.__new__(_State)
    s.arcs_mask = state.arcs_mask | cand.arcs_mask
    s.slots_mask = state.slots_mask | cand.slots_mask
    in1, out1 = state.in_ge1, state.out_ge1
    s.in_ge1 = in1 | cand.in_any
    s.in_ge2 = state.in_ge2 | (in1 & cand.in_any) | cand.in_two
    s.out_ge1 = out1 | cand.out_any
    s.out_ge2 = state.out_ge2 | (out1 & cand.out_any) | cand.out_two
    if cand.label_updates:
        labels = s.labels = state.labels[:]
        for index, value in cand.label_updates:
            labels[index] = value
    else:
        s.labels = state.labels  # never written after its state is made
    return s


@dataclass(frozen=True)
class GroundEmbedding:
    dims: TorusDims
    arcs: tuple[Arc, ...] = ()
    zeta: tuple[tuple[tuple[int, int], str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(sorted(Arc(*a) for a in self.arcs)))
        object.__setattr__(self, "zeta", tuple(sorted(self.zeta)))

    def slot_records(self) -> dict[tuple[int, int], list[SlotRecord]]:
        """Per-vertex slot occupancy in slot order, derived from the arc set."""
        table: dict[tuple[int, int], list[SlotRecord]] = {}
        for a in self.arcs:
            for incoming, (v, slot, _) in enumerate(arc_ends(a, self.dims)):
                table.setdefault(v, []).append(SlotRecord(slot, bool(incoming), a))
        for recs in table.values():
            recs.sort(key=lambda rec: rec.slot)
        return table

    def non_isolated(self) -> list[tuple[int, int]]:
        seen = set()
        for a in self.arcs:
            seen.add((a.row, a.col))
            seen.add(a.head(self.dims))
        return sorted(seen)


def new_embedding(dims: TorusDims) -> GroundEmbedding:
    dims.validate()
    return GroundEmbedding(dims)


def _state_of(e: GroundEmbedding) -> _State:
    """The search's state for an embedding: its arcs applied as one move."""
    t = tables_for(e.dims)
    return _apply(_State(e.dims.cols), _Candidate([t.arc_id[a] for a in e.arcs], t))


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
    """Add every arc of the path as one search move.

    Returns (new_embedding, None) on success or (None, rejection); the input
    embedding is untouched either way. The rejection names the first arc
    that fails, taking the arcs of ``e`` first and then the path's in order.
    """
    dims = e.dims
    if not 0 <= start_col < dims.cols:
        raise ValueError(f"start_col {start_col} out of range for {dims}")
    if path.height != dims.rows:
        raise ValueError(f"path height {path.height} != rows {dims.rows}")
    t = tables_for(dims)
    arcs = path_arcs(path, start_col, dims)
    ids = [t.arc_id[a] for a in arcs]
    if _first_fault(ids, t) is None and _feasible(_state_of(e), _Candidate(ids, t)):
        return GroundEmbedding(dims, e.arcs + tuple(arcs), e.zeta), None
    return None, _first_fault([t.arc_id[a] for a in e.arcs] + ids, t)


# ---------------------------------------------------------------------------
# Ground file format (version 1)
# ---------------------------------------------------------------------------

ZETA_ALPHABET = frozenset("CTLRp")


class GroundFileError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def serialize(e: GroundEmbedding) -> str:
    """Canonical text form: header, dims, arcs in row-major origin order,
    then zeta annotations."""
    lines = ["ground v1", f"dims {e.dims.rows} {e.dims.cols}"]
    for a in sorted(e.arcs):
        lines.append(f"arc {a.row} {a.col} {a.dx} {a.dy}")
    for (r, c), actions in sorted(e.zeta):
        lines.append(f"zeta {r} {c} {actions}")
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> GroundEmbedding:
    """Parse a ground file.

    Structural faults (bad syntax, steps outside the step set, out-of-range
    coordinates, duplicate arcs, a period above ``MAX_PERIOD``) raise
    GroundFileError with the offending line. Property violations - wrong degrees, slot conflicts, crossings,
    disconnection - are representable and admitted so the verifier can report
    on them.
    """
    dims: Optional[TorusDims] = None
    arcs: list[Arc] = []
    zeta: dict[tuple[int, int], str] = {}
    seen_header = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
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
                rows, cols = int(fields[1]), int(fields[2])
            except ValueError:
                raise GroundFileError(line_no, "dims values must be integers") from None
            if rows < 1 or cols < 1:
                raise GroundFileError(line_no, f"dims must be >= 1x1, got {rows}x{cols}")
            if rows > MAX_PERIOD or cols > MAX_PERIOD:
                raise GroundFileError(
                    line_no, f"dims must be <= {MAX_PERIOD}x{MAX_PERIOD}, got {rows}x{cols}")
            dims = TorusDims(rows, cols)
        elif fields[0] == "arc":
            if dims is None:
                raise GroundFileError(line_no, "arc before dims")
            if len(fields) != 5:
                raise GroundFileError(line_no, "arc takes exactly four integers")
            try:
                r, c, dx, dy = (int(f) for f in fields[1:])
            except ValueError:
                raise GroundFileError(line_no, "arc values must be integers") from None
            if not (0 <= r < dims.rows and 0 <= c < dims.cols):
                raise GroundFileError(line_no, f"origin ({r},{c}) out of range for {dims.rows}x{dims.cols}")
            if (dx, dy) not in LACE_STEP_SET:
                raise GroundFileError(line_no, f"step ({dx},{dy}) not in the lace step set")
            arc = Arc(r, c, dx, dy)
            if arc in arcs:
                raise GroundFileError(line_no, f"duplicate arc {tuple(arc)}")
            arcs.append(arc)
        elif fields[0] == "zeta":
            if dims is None:
                raise GroundFileError(line_no, "zeta before dims")
            if len(fields) != 4:
                raise GroundFileError(line_no, "zeta takes row, col and an action string")
            try:
                r, c = int(fields[1]), int(fields[2])
            except ValueError:
                raise GroundFileError(line_no, "zeta coordinates must be integers") from None
            if not (0 <= r < dims.rows and 0 <= c < dims.cols):
                raise GroundFileError(line_no, f"vertex ({r},{c}) out of range")
            actions = fields[3]
            bad = set(actions) - ZETA_ALPHABET
            if not actions or bad:
                raise GroundFileError(
                    line_no, f"zeta actions must be non-empty over C,T,L,R,p; got {actions!r}")
            if (r, c) in zeta:
                raise GroundFileError(line_no, f"duplicate zeta for vertex ({r},{c})")
            zeta[(r, c)] = actions
        else:
            raise GroundFileError(line_no, f"unknown directive {fields[0]!r}")
    if not seen_header:
        raise GroundFileError(1, "empty file; expected 'ground v1' header")
    if dims is None:
        raise GroundFileError(1, "missing dims line")
    return GroundEmbedding(dims, tuple(sorted(arcs)), tuple(sorted(zeta.items())))

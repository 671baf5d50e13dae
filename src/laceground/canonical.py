"""Vertex labels, identifiers, symmetry transforms and canonical forms.

Patterns are considered equivalent under translation, horizontal and vertical
reflection, and 180-degree rotation (the reflections through a horizontal
axis and the rotation reverse every arc so that steps keep pointing
downward). Each vertex gets an 8-entry label - one signed entry per compass
slot, positive for incoming, negative for outgoing, magnitude equal to the
step length - and an embedding's identifier strings the labels together in
row-major order. The canonical identifier is the minimum over the whole
symmetry orbit; exactly one member of each orbit attains it.
"""

import hashlib
from functools import lru_cache
from itertools import chain

from .embedding import GroundEmbedding, tables_for
from .geometry import Arc, TorusDims, arc_ends, wrap

TRANSFORMS = ("identity", "h_reflect", "v_reflect", "rot180")

Label = tuple[int, int, int, int, int, int, int, int]
EmbeddingId = tuple

# Per-transform slot permutation and sign applied to a vertex label:
# entry i of the transformed label reads from SOURCE_SLOT[t][i] of the
# original, multiplied by LABEL_SIGN[t].
_SOURCE_SLOT = {
    "identity": tuple(range(8)),
    "h_reflect": tuple((8 - i) % 8 for i in range(8)),
    "v_reflect": tuple((4 - i) % 8 for i in range(8)),
    "rot180": tuple((i + 4) % 8 for i in range(8)),
}
_LABEL_SIGN = {"identity": 1, "h_reflect": 1, "v_reflect": -1, "rot180": -1}

# Per-transform sign applied to a vertex's (row, col), modulo the periods.
_VERTEX_SIGN = {"identity": (1, 1), "h_reflect": (1, -1),
                "v_reflect": (-1, 1), "rot180": (-1, -1)}


def label_grid(e: GroundEmbedding) -> list[list[Label]]:
    rows, cols = e.dims
    grid = [[[0] * 8 for _ in range(cols)] for _ in range(rows)]
    for a in e.arcs:
        for (r, c), slot, value in arc_ends(a, e.dims):
            grid[r][c][slot] = value
    return [[tuple(lab) for lab in row] for row in grid]


def vertex_label(e: GroundEmbedding, v: tuple[int, int]) -> Label:
    return label_grid(e)[v[0]][v[1]]


def transformed_label(label: Label, name: str) -> Label:
    src = _SOURCE_SLOT[name]
    if _LABEL_SIGN[name] > 0:
        return tuple([label[s] for s in src])
    return tuple([-label[s] for s in src])


def identifier(e: GroundEmbedding) -> EmbeddingId:
    """Dims followed by row-major vertex labels; totally ordered as a tuple."""
    grid = label_grid(e)
    return (e.dims.rows, e.dims.cols) + tuple(
        lab for row in grid for lab in row)


def _transform_arc(a: Arc, name: str, dims: TorusDims) -> Arc:
    rows, cols = dims
    if name == "identity":
        return a
    if name == "h_reflect":
        return Arc(a.row, (-a.col) % cols, -a.dx, a.dy)
    if name == "v_reflect":
        r, c = wrap(-(a.row + a.dy), a.col + a.dx, dims)
        return Arc(r, c, -a.dx, a.dy)
    if name == "rot180":
        r, c = wrap(-(a.row + a.dy), -(a.col + a.dx), dims)
        return Arc(r, c, a.dx, a.dy)
    raise ValueError(f"unknown transform {name!r}")


def _transform_vertex(v: tuple[int, int], name: str, dims: TorusDims) -> tuple[int, int]:
    if name not in _VERTEX_SIGN:
        raise ValueError(f"unknown transform {name!r}")
    sr, sc = _VERTEX_SIGN[name]
    return wrap(sr * v[0], sc * v[1], dims)


def transform(e: GroundEmbedding, name: str) -> GroundEmbedding:
    """Apply a symmetry. Reflecting rows or rotating reverses every arc;
    the stored steps stay within the step set because rows are mirrored."""
    arcs = tuple(sorted(_transform_arc(a, name, e.dims) for a in e.arcs))
    zeta = tuple(sorted(
        (_transform_vertex(v, name, e.dims), actions) for v, actions in e.zeta))
    return GroundEmbedding(e.dims, arcs, zeta)


def _translate_arc(a: Arc, dr: int, dc: int, dims: TorusDims) -> Arc:
    return Arc(*wrap(a.row + dr, a.col + dc, dims), a.dx, a.dy)


def translate(e: GroundEmbedding, dr: int, dc: int) -> GroundEmbedding:
    arcs = tuple(sorted(_translate_arc(a, dr, dc, e.dims) for a in e.arcs))
    zeta = tuple(sorted(
        (wrap(v[0] + dr, v[1] + dc, e.dims), actions) for v, actions in e.zeta))
    return GroundEmbedding(e.dims, arcs, zeta)


@lru_cache(maxsize=None)
def arc_permutations(dims: TorusDims) -> dict[tuple[str, int, int], tuple[int, ...]]:
    """Every symmetry of the grid as a permutation of arc ids (the ids of
    ``tables_for(dims)``), keyed by (transform name, dr, dc): entry ``i`` is
    the id of arc ``i`` under ``translate(transform(e, name), dr, dc)``."""
    t = tables_for(dims)
    return {
        (name, dr, dc): tuple(
            t.arc_id[_translate_arc(_transform_arc(a, name, dims), dr, dc, dims)]
            for a in t.arcs)
        for name in TRANSFORMS
        for dr in range(dims.rows)
        for dc in range(dims.cols)
    }


def _orbit_identifiers(e: GroundEmbedding):
    """Yield (identifier, transform name, dr, dc) over the full orbit.

    The labels are computed once; a transform moves the label of each vertex
    to the vertex's image and rewrites it as ``transformed_label`` does.
    """
    rows, cols = e.dims
    grid = label_grid(e)
    for name in TRANSFORMS:
        moved = [[None] * cols for _ in range(rows)]
        for r in range(rows):
            for c in range(cols):
                tr, tc = _transform_vertex((r, c), name, e.dims)
                moved[tr][tc] = transformed_label(grid[r][c], name)
        for c0 in range(cols):
            shifted = [row[c0:] + row[:c0] for row in moved]
            for r0 in range(rows):
                # moving source vertex (r0, c0) to the origin = translating
                # by (-r0, -c0)
                eid = (rows, cols) + tuple(
                    chain.from_iterable(shifted[r0:] + shifted[:r0]))
                yield eid, name, (-r0) % rows, (-c0) % cols


def canonical_id(e: GroundEmbedding) -> EmbeddingId:
    """Least identifier over all four transforms and all translations."""
    return min(eid for eid, _, _, _ in _orbit_identifiers(e))


def canonical_representative(e: GroundEmbedding) -> tuple[EmbeddingId, GroundEmbedding]:
    """The canonical identifier together with the orbit member attaining it."""
    best = min(_orbit_identifiers(e))
    eid, name, dr, dc = best
    return eid, translate(transform(e, name), dr, dc)


def is_canonical(e: GroundEmbedding) -> bool:
    return identifier(e) == canonical_id(e)


def identifier_text(eid: EmbeddingId) -> str:
    """Stable one-line rendering used as the deduplication key."""
    rows, cols = eid[0], eid[1]
    labels = ";".join(",".join(str(x) for x in lab) for lab in eid[2:])
    return f"{rows}x{cols}|{labels}"


def solution_name(eid: EmbeddingId) -> str:
    """Content-derived file stem for a canonical solution."""
    digest = hashlib.sha256(identifier_text(eid).encode()).hexdigest()
    return digest[:16]


# ---------------------------------------------------------------------------
# Search pruning
# ---------------------------------------------------------------------------

def _dominated(labels, cols: int) -> bool:
    """True when a column shift, possibly mirrored, provably beats the label
    at the origin in every completion of a partial embedding whose row-0
    labels are ``labels`` (flat, entry col * 8 + slot).

    The witness is the row-0 vertex (0, c) under the identity (c != 0) or
    under h_reflect. Those two symmetries map any lace-path decomposition to
    another valid one, so the smaller-identifier member is itself reachable
    and the branch is redundant; row-reversing symmetries are deliberately
    not used as witnesses. Label entries are compared in order while both
    are decided: a filled slot, or any slot of a vertex whose label has four
    non-zero entries, can no longer change. Such a vertex is 2-in/2-out,
    since no slot holds two arcs and no degree passes 2; more than four
    occur only in arc sets with a fault, which have no completion.
    """
    origin = labels[:8]
    # entries of the origin decided before its first undecided one
    k0 = 8 if origin.count(0) <= 4 else origin.index(0)
    if not k0:
        return False  # no entry of the origin is decided
    for c in range(cols):
        label = labels[c * 8:c * 8 + 8]
        mirrored = label[:1] + label[:0:-1]  # h_reflect: entry i reads slot -i
        witness_done = label.count(0) <= 4
        # both symmetries keep label signs
        for w in ((label, mirrored) if c else (mirrored,)):
            k = k0 if witness_done or 0 not in w[:k0] else w.index(0)
            if w[:k] < origin[:k]:
                return True
    return False


def prune_predicate(e: GroundEmbedding) -> bool:
    """Sound branch-keeping test for partial embeddings: the search's own
    domination test on the row-0 labels of ``e``.

    Returns False only when no completion of ``e`` can contribute a new
    canonical class (see ``_dominated``); undecidable comparisons keep the
    branch.
    """
    return not _dominated(list(chain.from_iterable(label_grid(e)[0])), e.dims.cols)

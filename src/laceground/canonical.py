"""Vertex labels, identifiers, symmetry transforms and canonical forms.

Patterns are considered equivalent under translation, horizontal and vertical
reflection, and 180-degree rotation (the reflections through a horizontal
axis and the rotation reverse every arc so that steps keep pointing
downward). Each vertex gets an 8-entry label - one signed entry per compass
slot, positive for incoming, negative for outgoing, magnitude equal to the
step length - and an embedding's identifier strings the labels together in
row-major order. The canonical identifier is the minimum over the whole
symmetry orbit; exactly one member of each orbit attains it.

The symmetries act in one way only: as permutations of arc ids
(``embedding.arc_permutations``), the same ones the search uses to judge
one leaf per orbit; ``transform``, ``translate`` and the canonical
representative all move a ground by one of them (``_move``). The search's
walk applies none of them; it only starts at column 0, at the first
candidate of each pair that the column reflection swaps (see ``search``),
which the column translations and that reflection make exact.
An image's labels are the label entries of its permuted arcs
(``arc_tables(dims).ends``). On a symmetric ground several symmetries reach
the least identifier; ties go to the least (transform name, dr, dc), which
decides where the representative's zeta annotations land. A label holds one
arc per slot, so a ground in which two arcs share a slot has no well-defined
identifier: which arc a label shows would depend on arc order, which a
symmetry changes. The canonical forms refuse it with ValueError.

The orbit minimum is found without labelling every image (``_least_image``).
Each of the four transforms is labelled once, untranslated, the identity by
the ground's own ``GroundEmbedding.slot_table``. A translation
keeps every arc in its slots and only moves the vertices, so the image under
(name, dr, dc) has that labelling's vertex-label grid rotated: rows cycled
by r0 = -dr and each row by c0 = -dc, vertex (r0, c0) first. An identifier
is compared label by label from vertex (0, 0), so a rotation that starts at
a label larger than the least vertex label of the four labellings loses to
one that starts at a least label; only those are built and compared. Among
images with equal labels the least (name, dr, dc) still wins, as every
image that could tie is among them. This is the least-rotation idea of
Booth, "Lexicographically least circular substrings" (Inf. Proc. Letters
10, 1980), on a two-dimensional grid.
"""

import hashlib

from .embedding import GroundEmbedding, arc_permutations, arc_tables
from .geometry import TRANSFORM_SIGNS, TRANSFORMS, TorusDims, wrap  # TRANSFORMS re-exported

Label = tuple[int, int, int, int, int, int, int, int]
EmbeddingId = tuple


def _identifier_of(dims: TorusDims, labels) -> EmbeddingId:
    return (dims.rows, dims.cols) + tuple(labels)


def _vertex_labels(flat):
    """The 8-entry labels of flat labels (entry ``vertex * 8 + slot``), in
    vertex order."""
    return zip(*[iter(flat)] * 8)


def label_grid(e: GroundEmbedding) -> list[list[Label]]:
    """The label of vertex (r, c) at ``[r][c]``: its entries of the flat
    labels of ``e.slot_table``."""
    labels = identifier(e)[2:]
    cols = e.dims.cols
    return [list(labels[i:i + cols]) for i in range(0, len(labels), cols)]


def identifier(e: GroundEmbedding) -> EmbeddingId:
    """Dims followed by row-major vertex labels; totally ordered as a tuple."""
    return _identifier_of(e.dims, _vertex_labels(e.slot_table.labels))


def _move(e: GroundEmbedding, name: str, dr: int, dc: int) -> GroundEmbedding:
    """``e`` under transform ``name`` and then moved ``dr`` rows down and
    ``dc`` columns right: its arcs through ``arc_permutations`` and its zeta
    annotations with their vertices. Raises ValueError for an unknown
    transform."""
    if name not in TRANSFORM_SIGNS:
        raise ValueError(f"unknown transform {name!r}")
    sr, sc = TRANSFORM_SIGNS[name]
    dims = e.dims
    t = arc_tables(dims)
    perm = arc_permutations(dims)[name, dr % dims.rows, dc % dims.cols]
    arcs = tuple(t.arcs[perm[aid]] for aid in e.slot_table.ids)
    zeta = tuple((wrap(sr * r + dr, sc * c + dc, dims), actions)
                 for (r, c), actions in e.zeta)
    return GroundEmbedding(dims, arcs, zeta)


def transform(e: GroundEmbedding, name: str) -> GroundEmbedding:
    """Apply a symmetry. Reflecting rows or rotating reverses every arc;
    the stored steps stay within the step set because rows are mirrored."""
    return _move(e, name, 0, 0)


def translate(e: GroundEmbedding, dr: int, dc: int) -> GroundEmbedding:
    """Move the arcs and zeta ``dr`` rows down and ``dc`` columns right."""
    return _move(e, "identity", dr, dc)


def _least_image(e: GroundEmbedding):
    """The least (vertex labels, (name, dr, dc)) over the orbit of ``e``:
    the row-major labels of ``_move(e, name, dr, dc)``, compared as
    ``identifier`` compares them. Raises ValueError when two arcs of ``e``
    share a slot."""
    dims = e.dims
    rows, cols = dims
    t = arc_tables(dims)
    ends = t.ends
    ids, labels, shared = e.slot_table
    if shared:
        entry, aid = shared[0]
        first = next(i for i in ids if entry in (ends[i][0][0], ends[i][1][0]))
        raise ValueError(
            f"arcs {tuple(t.arcs[first])} and {tuple(t.arcs[aid])} share "
            f"slot {entry % 8} of vertex {divmod(entry // 8, cols)}")
    perms = arc_permutations(dims)
    labelled = [("identity", list(_vertex_labels(labels)))]
    for name in TRANSFORMS[1:]:
        perm = perms[name, 0, 0]
        flat = [0] * len(labels)
        for aid in ids:
            (o, o_len), (h, h_len) = ends[perm[aid]]
            flat[o] = o_len
            flat[h] = h_len
        labelled.append((name, list(_vertex_labels(flat))))
    least = min(min(labels) for _, labels in labelled)
    row_starts = list(range(0, t.n_vertices, cols))
    best = None
    for name, labels in labelled:
        v = -1
        for _ in range(labels.count(least)):
            v = labels.index(least, v + 1)
            r0, c0 = divmod(v, cols)
            image = []
            for i in row_starts[r0:] + row_starts[:r0]:
                image += labels[i + c0:i + cols]
                image += labels[i:i + c0]
            pick = image, (name, -r0 % rows, -c0 % cols)
            if best is None or pick < best:
                best = pick
    return best


def canonical_id(e: GroundEmbedding) -> EmbeddingId:
    """Least identifier over all four transforms and all translations."""
    return _identifier_of(e.dims, _least_image(e)[0])


def canonical_representative(e: GroundEmbedding) -> tuple[EmbeddingId, GroundEmbedding]:
    """The canonical identifier together with the orbit member attaining it."""
    labels, (name, dr, dc) = _least_image(e)
    return _identifier_of(e.dims, labels), _move(e, name, dr, dc)


def identifier_text(eid: EmbeddingId) -> str:
    """Stable one-line rendering used as the deduplication key."""
    rows, cols = eid[0], eid[1]
    labels = ";".join(",".join(str(x) for x in lab) for lab in eid[2:])
    return f"{rows}x{cols}|{labels}"


def solution_name(id_text: str) -> str:
    """Content-derived file stem for a canonical solution, from the
    ``identifier_text`` of its identifier."""
    return hashlib.sha256(id_text.encode()).hexdigest()[:16]


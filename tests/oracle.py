"""Independent brute-force enumeration of ground embeddings.

Searches over arc subsets directly - choosing each vertex's outgoing arc set
- with no lattice-path structure, pruning on the same slot, degree and
crossing constraints the incremental builder uses. Used to cross-check the
backtracker's completeness on tiny grids.

Filter levels:
  "embedding"  - exactly 2-in/2-out on used vertices plus connectivity
  "properties" - additionally the full fundamental-property report
  "reference"  - additionally strict connectivity: the cycle windings
                 generate all of Z x Z, so the planar lift is one piece
                 (the enumerator's default output contract)

``search_state`` reads the search's node state off an embedding, for tests
that replay the search's moves. The other functions are independent
references the program's own code is checked against: the lace-path
invariants (``is_valid_lace_path``), a circuit's longitudinal winding read at
a cut (``circuit_cut_crossings``), a ground's image under a symmetry worked
out arc by arc (``image``), the canonical form computed image by image
(``canonical_reference``), the crossing tables tested pair by pair
(``crossing_tables_reference``), the search's column-0 candidates with
each mirror image joined from scratch (``column_candidates_reference``), the
search's candidates with each column translate joined from scratch
(``translates_reference``), the
search's keep masks read candidate by candidate
(``keep_masks_reference``), the circuits traced slot by slot
(``circuits_reference``), a directed cycle of zero displacement found by
searching each row's simple cycles (``contractible_cycle_reference``), a
ground's slot table read arc end by arc end
(``slot_table_reference``), the drawing made one f-string per arc and
per dot (``render_reference``), a ground file parsed field by field on
every line (``deserialize_reference``) and the command line parsed whole by
the top-level parser, which hands a command's arguments on to that
command's parser (``main_reference``).
"""

from collections import Counter
from functools import reduce

from laceground.canonical import (
    TRANSFORMS,
    arc_permutations,
    canonical_representative,
    identifier,
    identifier_text,
    label_grid,
)
from laceground.cli import EXIT_OK, EXIT_USAGE, build_parser
from laceground.embedding import (
    _NO_ARCS,
    MAX_PERIOD,
    ZETA_ALPHABET,
    GroundEmbedding,
    GroundFileError,
    _join,
    arc_tables,
    tables_for,
)
from laceground.geometry import (
    LACE_STEP_SET,
    LACE_STEPS,
    Arc,
    TorusDims,
    arc_ends,
    arcs_cross,
)
from laceground.paths import _lace_paths
from laceground.render import CELL, DOT_R, MARGIN, MAX_REPEATS
from laceground.validator import _fundamental_windings, check_two_regular, full_report


def search_state(e: GroundEmbedding):
    """The three values the search holds at a node, read off the embedding:
    its arcs as a bitset of arc ids and the vertices with at least one and
    with two arcs in (as bitsets of vertex ids)."""
    t = tables_for(e.dims)
    indegree = Counter(t.head_vid[t.arc_id[a]] for a in e.arcs)
    return (sum(1 << t.arc_id[a] for a in e.arcs),
            sum(1 << v for v in indegree),
            sum(1 << v for v, n in indegree.items() if n >= 2))


def is_valid_lace_path(steps, n: int, skipping: bool = False) -> bool:
    """Check every lace-path invariant for height n.

    Rooted form: first step non-horizontal. Skipping form: first step must be
    the (0, 2) double step and n must be at least 2.
    """
    steps = tuple(tuple(s) for s in steps)
    for s in steps:
        if s not in LACE_STEP_SET:
            raise ValueError(f"step {s} not in the lace step set")
    if not steps:
        return False
    if sum(dy for _, dy in steps) != n:
        return False
    if sum(dx for dx, _ in steps) != 0:
        return False
    if any(a[1] == 0 and b[1] == 0 for a, b in zip(steps, steps[1:])):
        return False
    if skipping:
        return n >= 2 and steps[0] == (0, 2)
    return steps[0][1] >= 1


def circuit_cut_crossings(circuit: list[Arc], cut_col: int, cols: int) -> int:
    """Net signed crossings of a circuit over the meridional cut just left of
    ``cut_col`` (rightward positive). Equals the circuit's longitudinal
    winding regardless of which cut is chosen."""
    total = 0
    for a in circuit:
        if a.dx == 0:
            continue
        x0, x1 = a.col, a.col + a.dx
        lo, hi = min(x0, x1), max(x0, x1)
        # The cut sits half a cell left of cut_col, repeated every period:
        # an integer-endpoint segment crosses it once per line position
        # cut_col + j*cols with lo < cut_col + j*cols <= hi.
        count = (hi - cut_col) // cols - (lo - cut_col) // cols
        total += count if a.dx > 0 else -count
    return total


def image(e: GroundEmbedding, name: str, dr: int, dc: int) -> GroundEmbedding:
    """``e`` under transform ``name`` and then moved ``dr`` rows down and
    ``dc`` columns right, worked out arc by arc without any arc-id table.

    A reflection of the rows would turn every arc upward, so v_reflect and
    rot180 turn each arc around: it starts where its old head lands. Zeta
    annotations move with their vertices.
    """
    rows, cols = e.dims
    arcs = []
    for a in e.arcs:
        if name == "identity":
            r, c, dx = a.row, a.col, a.dx
        elif name == "h_reflect":
            r, c, dx = a.row, -a.col, -a.dx
        elif name == "v_reflect":
            r, c, dx = -(a.row + a.dy), a.col + a.dx, -a.dx
        elif name == "rot180":
            r, c, dx = -(a.row + a.dy), -(a.col + a.dx), a.dx
        else:
            raise ValueError(f"unknown transform {name!r}")
        arcs.append(Arc((r + dr) % rows, (c + dc) % cols, dx, a.dy))
    flip_rows = name in ("v_reflect", "rot180")
    flip_cols = name in ("h_reflect", "rot180")
    zeta = [((((-r if flip_rows else r) + dr) % rows,
              ((-c if flip_cols else c) + dc) % cols), actions)
            for (r, c), actions in e.zeta]
    return GroundEmbedding(e.dims, tuple(arcs), tuple(zeta))


def canonical_reference(e: GroundEmbedding):
    """(identifier, representative) of ``e``'s class, by brute force: the
    ``image(e, name, dr, dc)`` with the least ``(identifier(image), name,
    dr, dc)``, zeta annotations included."""
    rows, cols = e.dims
    key, least = min(
        (((identifier(moved), name, dr, dc), moved)
         for name in TRANSFORMS for dr in range(rows) for dc in range(cols)
         for moved in [image(e, name, dr, dc)]),
        key=lambda pair: pair[0])
    return key[0], least


def crossing_tables_reference(dims: TorusDims):
    """``(self_ok, conflict_mask)`` of ``tables_for(dims)``, by testing every
    arc against its own periodic copies and every pair of arcs."""
    arcs = arc_tables(dims).arcs
    self_ok = [not arcs_cross(a, a, dims) for a in arcs]
    masks = [0] * len(arcs)
    for i, a in enumerate(arcs):
        for j in range(i + 1, len(arcs)):
            if arcs_cross(a, arcs[j], dims):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return self_ok, masks


def column_candidates_reference(dims: TorusDims):
    """Column 0's candidates of the search engine, each as (arc ids, arcs
    mask, in_any, in_two), and the work-item starts, built as the walk of
    left-turning rooted paths that joins each mirror image from scratch:
    one whole-candidate ``_join`` per image, after its path is complete.
    Each rooted path that begins with the double step is followed by its
    skipping twin and that twin's image, the twin walked arc by arc from
    (n-1, 0) along the rooted path's steps."""
    t = tables_for(dims)
    cols = dims.cols

    # a walk's state: vertex, whether it stepped sideways, arc ids, masks
    def start(row):
        return row * cols, False, (), _NO_ARCS

    def extend(state, step):
        vid, turned, ids, masks = state
        dx = step[0]
        if dx > 0 and not turned:
            return None
        aid = t.out_arc[vid][step]
        masks, fault = _join(masks, (aid,), t)
        if fault is not None:
            return None
        return t.head_vid[aid], turned or dx != 0, ids + (aid,), masks

    admitted = tuple(s for s in LACE_STEPS if t.self_ok[t.out_arc[0][s]])
    mirror = arc_permutations(dims)["h_reflect", 0, 0]
    built, starts = [], []
    for steps, rooted in _lace_paths(dims.rows, extend, start(0), admitted):
        forms = [rooted]
        if steps[0] == (0, 2):
            # the twin's walk, kept if no step of it is cut
            twin = reduce(lambda state, step: state and extend(state, step), steps,
                          start(dims.rows - 1))
            forms += [twin] if twin is not None else []
        for _, turned, ids, masks in forms:
            starts.append(len(built) * cols)
            built.append((ids, masks))
            if turned:
                image = tuple(mirror[aid] for aid in ids)
                masks, fault = _join(_NO_ARCS, image, t)
                assert fault is None
                built.append((image, masks))
    return [(ids, m.arcs, m.in_any, m.in_two) for ids, m in built], starts


def translates_reference(dims: TorusDims):
    """Every candidate of the search engine, index-major, as (arc ids, arcs
    mask, in_any, in_two): each of column 0's candidates
    (``column_candidates_reference``) followed by its translates to columns
    1 to cols - 1, each joined from scratch, one whole-candidate ``_join``
    of its arc ids moved through ``("identity", 0, c)``."""
    t = tables_for(dims)
    column0, _ = column_candidates_reference(dims)
    shifts = [arc_permutations(dims)["identity", 0, c] for c in range(dims.cols)]
    built = []
    for ids, *_ in column0:
        for shift in shifts:
            moved = tuple(shift[aid] for aid in ids)
            masks, fault = _join(_NO_ARCS, moved, t)
            assert fault is None
            built.append((moved, masks.arcs, masks.in_any, masks.in_two))
    return built


def keep_masks_reference(eng):
    """``(arc_keep, full_keep)`` of a search engine, candidate by candidate:
    the arcs a candidate rules out (its arcs, those they cross, those that
    share a slot with them, and those into a vertex it adds two arcs into),
    and the vertices it adds an arc into."""
    t = eng.t
    sharers = [sum(1 << b for b, sb in enumerate(t.slot_mask) if sa & sb)
               for sa in t.slot_mask]
    into = [0] * t.n_vertices
    for aid in range(len(t.arcs)):
        into[t.head_vid[aid]] |= 1 << aid
    # one row per arc and per vertex, filled bytewise
    size = (len(eng.candidates) + 7) // 8
    arc_rows = [bytearray(size) for _ in t.arcs]
    full_rows = [bytearray(size) for _ in range(t.n_vertices)]
    for k, cand in enumerate(eng.candidates):
        byte, bit = k >> 3, 1 << (k & 7)
        arcs = cand.arcs_mask
        for aid in cand.arc_ids:
            arcs |= t.conflict_mask[aid] | sharers[aid]
        for v in _bits(cand.in_two):
            arcs |= into[v]
        for aid in _bits(arcs):
            arc_rows[aid][byte] |= bit
        for v in _bits(cand.in_any):
            full_rows[v][byte] |= bit
    return ([eng.all_alive ^ int.from_bytes(r, "little") for r in arc_rows],
            [eng.all_alive ^ int.from_bytes(r, "little") for r in full_rows])


def slot_table_reference(e: GroundEmbedding):
    """``e.slot_table`` worked out from ``arc_ends``: each arc's place in
    the grid's arc list, in arc order; each slot's label as the last arc to
    write it left it; and (entry, arc id) for each slot an arc finds
    written, in arc order."""
    universe = arc_tables(e.dims).arcs
    rows, cols = e.dims
    ids, labels, shared, written = [], [0] * (8 * rows * cols), [], set()
    for a in e.arcs:
        aid = universe.index(a)
        ids.append(aid)
        for (r, c), slot, length in arc_ends(a, e.dims):
            entry = (r * cols + c) * 8 + slot
            if entry in written:
                shared.append((entry, aid))
            written.add(entry)
            labels[entry] = length
    return tuple(ids), tuple(labels), tuple(shared)


def contractible_cycle_reference(e: GroundEmbedding):
    """The arcs of a directed cycle of ``e`` with total displacement (0, 0),
    or None, found by search. Steps never point upward, so such a cycle
    consists purely of horizontal arcs; the search enumerates the simple
    directed cycles within each row's horizontal subgraph and compares
    exact column displacements. A repeated arc is walked once, so a vertex
    has at most the 4 horizontal arcs out; with all of them present, a
    row's simple directed cycles number 4, 8, 28, 46, 84, 138, 228 and 374
    at 1 to 8 columns."""
    t = arc_tables(e.dims)
    heads, arcs = t.head_vid, t.arcs
    # per vertex id, in vertex order: the ids of its horizontal arcs out, in
    # arc order (the order of arc ids)
    by_tail: dict[int, list[int]] = {}
    for aid in dict.fromkeys(e.slot_table.ids):
        if not arcs[aid].dy:
            by_tail.setdefault(t.origin_vid[aid], []).append(aid)

    def dfs(start, v, disp, path, on_path):
        for aid in by_tail.get(v, ()):
            a, h = arcs[aid], heads[aid]
            if h == start:
                if disp + a.dx == 0:
                    return path + [a]
                continue
            if h in on_path or h < start:
                continue
            on_path.add(h)
            found = dfs(start, h, disp + a.dx, path + [a], on_path)
            on_path.discard(h)
            if found is not None:
                return found
        return None

    for start in by_tail:
        witness = dfs(start, start, 0, [], {start})
        if witness is not None:
            return witness
    return None


def circuits_reference(e: GroundEmbedding):
    """``(circuits, windings)`` of ``e`` by the adjacent-slot walk, or the
    ``ValueError`` of ``validator.partition_circuits``: from each unused
    arc, leave every vertex by the arc out in the taken slot next to the
    arrival slot round it, clockwise first, until the walk is back at its
    first arc. The labels and the first arc in each slot are gathered here,
    and every vertex is tested first, in vertex order: no slot holds two
    arcs, and there are as many arcs in as out, at most two."""
    t = arc_tables(e.dims)
    rows, cols = e.dims
    labels = [0] * (8 * t.n_vertices)
    owner = [None] * len(labels)
    clashes = set()
    for a in e.arcs:
        aid = t.arc_id[a]
        for entry, length in t.ends[aid]:
            if owner[entry] is None:
                owner[entry] = aid
            else:
                clashes.add(entry // 8)
            labels[entry] = length
    for vid in range(t.n_vertices):
        v = divmod(vid, cols)
        if vid in clashes:
            raise ValueError(f"cannot partition: vertex {v} has two arcs in one slot")
        ins = sum(x > 0 for x in labels[8 * vid:8 * vid + 8])
        outs = sum(x < 0 for x in labels[8 * vid:8 * vid + 8])
        if ins != outs or ins > 2:
            raise ValueError(
                f"cannot partition: vertex {v} has {ins} incoming, {outs} outgoing arcs")

    def paired_out(aid):
        entry = t.ends[aid][1][0]
        taken = [k for k in range(entry - entry % 8, entry - entry % 8 + 8) if labels[k]]
        i = taken.index(entry)
        for j in (i + 1, i - 1):
            if labels[taken[j % len(taken)]] < 0:
                return owner[taken[j % len(taken)]]
        raise AssertionError(f"no outgoing arc next to entry {entry}")

    circuits, windings, used = [], [], set()
    for start in (t.arc_id[a] for a in e.arcs):
        if start in used:
            continue
        ids = [start]
        while (nxt := paired_out(ids[-1])) != start:
            ids.append(nxt)
        used.update(ids)
        circuit = [t.arcs[aid] for aid in ids]
        circuits.append(circuit)
        windings.append((sum(a.dx for a in circuit) // cols,
                         sum(a.dy for a in circuit) // rows))
    return circuits, windings


def _axis_texts(starts, steps, bowed, period: int, tiles: int):
    """Per tile along one axis, per arc: the text of its start, end and
    bow control coordinate along that axis (the bow's is empty for an arc
    drawn straight). The bow moves 0.3 cells off a double step's line."""
    out = []
    for tile in range(tiles):
        texts = []
        for p0, d, bow in zip(starts, steps, bowed):
            p0 += tile * period
            p1 = p0 + d
            q = f"{MARGIN + ((p0 + p1) / 2 + (0.3 if d == 0 else 0.0)) * CELL}" if bow else ""
            texts.append((f"{MARGIN + p0 * CELL}", f"{MARGIN + p1 * CELL}", q))
        out.append(texts)
    return out


def render_reference(e: GroundEmbedding, repeats: tuple[int, int] = (1, 1),
                     labels: bool = False) -> str:
    """The drawing ``render.render_svg`` makes, one f-string per arc and per
    dot: the embedding tiled ``repeats`` = (down, across) times, each
    between 1 and ``MAX_REPEATS``."""
    rep_r, rep_c = repeats
    if not (1 <= rep_r <= MAX_REPEATS and 1 <= rep_c <= MAX_REPEATS):
        raise ValueError(
            f"repeats must be between 1x1 and {MAX_REPEATS}x{MAX_REPEATS}")
    rows, cols = e.dims
    width = MARGIN * 2 + cols * rep_c * CELL
    height = MARGIN * 2 + rows * rep_r * CELL

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="5" markerHeight="5" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#333"/></marker></defs>',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        # fundamental domain outline
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{cols * CELL}" height="{rows * CELL}" '
        'fill="none" stroke="#b0c4de" stroke-width="2" stroke-dasharray="6 4"/>',
    ]

    # arcs, one instance per tile
    arcs = e.arcs
    bowed = [abs(a.dx) == 2 or a.dy == 2 for a in arcs]
    xs_by_tile = _axis_texts([a.col for a in arcs], [a.dx for a in arcs], bowed, cols, rep_c)
    ys_by_tile = _axis_texts([a.row for a in arcs], [a.dy for a in arcs], bowed, rows, rep_r)
    for ys in ys_by_tile:
        for xs in xs_by_tile:
            for (sx, ex, qx), (sy, ey, qy) in zip(xs, ys):
                parts.append(
                    f'<path class="arc" d="M {sx} {sy} Q {qx} {qy} {ex} {ey}" fill="none" '
                    'stroke="#333" stroke-width="1.6" marker-end="url(#arrow)"/>' if qx else
                    f'<path class="arc" d="M {sx} {sy} L {ex} {ey}" fill="none" '
                    'stroke="#333" stroke-width="1.6" marker-end="url(#arrow)"/>')

    # lattice dots
    used_vertices = set(e.non_isolated())
    fills = [["#222" if (r, c) in used_vertices else "#bbb" for c in range(cols)] * rep_c
             for r in range(rows)]
    cxs = [f"{MARGIN + c * CELL}" for c in range(cols * rep_c)]
    for r in range(rows * rep_r):
        cy = MARGIN + r * CELL
        for cx, fill in zip(cxs, fills[r % rows]):
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="{DOT_R}" fill="{fill}"/>')

    if labels:
        grid = label_grid(e)
        for r, c in e.non_isolated():
            lab = ",".join(str(x) for x in grid[r][c])
            parts.append(
                f'<text x="{MARGIN + c * CELL + 5}" y="{MARGIN + r * CELL - 5}" font-size="8" '
                f'fill="#555" font-family="monospace">({lab})</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _bits(mask: int):
    return (i for i in range(mask.bit_length()) if mask >> i & 1)


def _out_options(t, vid):
    """All slot-consistent outgoing arc sets (size 0..2) for one vertex."""
    candidates = [aid for aid, a in enumerate(t.arcs)
                  if t.origin_vid[aid] == vid and t.self_ok[aid]]
    options = [()]
    options.extend((aid,) for aid in candidates)
    for i, a1 in enumerate(candidates):
        for a2 in candidates[i + 1:]:
            if t.slot_mask[a1] & t.slot_mask[a2]:
                continue
            if t.conflict_mask[a1] & (1 << a2):
                continue
            options.append((a1, a2))
    return options


def brute_force_solutions(dims: TorusDims, level: str = "reference",
                          raw: list | None = None) -> dict[str, GroundEmbedding]:
    """Canonical classes of all valid arc subsets, keyed by identifier text.

    When ``raw`` is a list, every accepted embedding (before canonical
    deduplication) is appended to it.
    """
    t = tables_for(dims)
    n_vertices = dims.rows * dims.cols
    per_vertex = [_out_options(t, vid) for vid in range(n_vertices)]
    found: dict[str, GroundEmbedding] = {}

    def feasible(aid, arcs_mask, slots_mask, indeg):
        if slots_mask & t.slot_mask[aid]:
            return False
        if arcs_mask & t.conflict_mask[aid]:
            return False
        if indeg[t.head_vid[aid]] + 1 > 2:
            return False
        return True

    def rec(vid, arcs_mask, slots_mask, indeg, chosen):
        if vid == n_vertices:
            if not chosen:
                return
            emb = GroundEmbedding(dims, tuple(t.arcs[aid] for aid in chosen))
            if not (check_two_regular(emb).ok
                    and len(_fundamental_windings(emb)[0]) == 1):
                return
            if level in ("properties", "reference") and \
                    not full_report(emb).all_pass(strict=level == "reference"):
                return
            if raw is not None:
                raw.append(emb)
            eid, rep = canonical_representative(emb)
            found.setdefault(identifier_text(eid), rep)
            return
        # a vertex that already received incoming arcs must end 2-in/2-out,
        # but later vertices can still feed it; only degree caps prune here
        for option in per_vertex[vid]:
            am, sm = arcs_mask, slots_mask
            applied = []
            for aid in option:
                if not feasible(aid, am, sm, indeg):
                    break
                am |= 1 << aid
                sm |= t.slot_mask[aid]
                indeg[t.head_vid[aid]] += 1
                applied.append(aid)
            if len(applied) == len(option):
                rec(vid + 1, am, sm, indeg, chosen + applied)
            for aid in applied:
                indeg[t.head_vid[aid]] -= 1

    rec(0, 0, 0, [0] * n_vertices, [])
    return found


def _ascii_int(field: str) -> int:
    """The parser's integer rule, copied so that the reference keeps it."""
    if not field.isascii() or "_" in field:
        raise ValueError(f"not an ASCII decimal integer: {field!r}")
    return int(field)


def deserialize_reference(text: str) -> GroundEmbedding:
    """A ground file parsed by the per-field rules on every line, with no
    table of the lines the writer emits: the same grounds and the same
    GroundFileError texts and line numbers as ``embedding.deserialize``."""
    dims = None
    arcs = []
    seen_arcs = set()
    zeta = {}
    seen_header = False
    for line_no, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
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
        elif fields[0] == "arc":
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
            if arc in seen_arcs:
                raise GroundFileError(line_no, f"duplicate arc {tuple(arc)}")
            seen_arcs.add(arc)
            arcs.append(arc)
        elif fields[0] == "zeta":
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
        else:
            raise GroundFileError(line_no, f"unknown directive {fields[0]!r}")
    if not seen_header:
        raise GroundFileError(1, "empty file; expected 'ground v1' header")
    if dims is None:
        raise GroundFileError(1, "missing dims line")
    return GroundEmbedding(dims, tuple(arcs), tuple(zeta.items()))


def main_reference(argv=None) -> int:
    """``cli.main`` as it was when every argv went through the top-level
    parser, which parses the command's arguments a second time with the
    command's own parser."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    return args.run(args)

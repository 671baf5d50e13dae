"""SVG diagrams of ground embeddings tiled over several periods.

Arcs are drawn as arrowed paths between lattice dots, with the fundamental
domain outlined. Double steps are drawn with a slight bow so the hopped-over
lattice position stays legible; validity always uses the straight segments,
the bow is purely cosmetic.

A drawn arc's x coordinates (start, end and bow) depend only on its tile
column and its y coordinates only on its tile row. So each lattice position
along an axis is formatted once per drawing, and each arc of the tiling is
one f-string of those texts. A drawn row of dots differs from the
fundamental row it repeats only in its y text, so each fundamental row is
cut once into the pieces around that text, and each drawn row is one join.
"""

from .canonical import label_grid
from .embedding import GroundEmbedding

CELL = 48
MARGIN = 36
DOT_R = 3.0
# Most periods a drawing repeats along either side: the drawing grows as the
# product of both, so an unbounded request could take any time and memory.
MAX_REPEATS = 32


def _axis_texts(starts, steps, bowed, period: int, tiles: int):
    """Per tile along one axis, per arc: the text of its start, end and
    bow control coordinate along that axis (the bow's is empty for an arc
    drawn straight). The bow moves 0.3 cells off a double step's line.

    The arcs reach the positions -2 to ``period * tiles + 1``; each one's
    text is formatted once, and read from the end of the list for -2 and
    -1. A double step's bow sits on the midpoint of its line: an integral
    float, printed as the midpoint's text plus ".0"."""
    at = [f"{MARGIN + p * CELL}" for p in (*range(period * tiles + 2), -2, -1)]
    off_line = {}
    out = []
    for shift in range(0, period * tiles, period):
        texts = []
        for p0, d, bow in zip(starts, steps, bowed):
            p0 += shift
            if not bow:
                q = ""
            elif d:
                q = at[p0 + d // 2] + ".0"
            elif (q := off_line.get(p0)) is None:
                q = off_line[p0] = f"{MARGIN + (p0 + 0.3) * CELL}"
            texts.append((at[p0], at[p0 + d], q))
        out.append(texts)
    return out


def render_svg(e: GroundEmbedding, repeats: tuple[int, int] = (1, 1),
               labels: bool = False) -> str:
    """Render the embedding tiled ``repeats`` = (down, across) times, each
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

    # lattice dots, each drawn row one join of its fundamental row's pieces
    # around the row's y text
    used_vertices = e.non_isolated()
    used = set(used_vertices)
    heads = [f'<circle cx="{MARGIN + c * CELL}" cy="' for c in range(cols * rep_c)]
    rows_pieces = []
    for r in range(rows):
        tails = [f'" r="{DOT_R}" fill="{"#222" if (r, c) in used else "#bbb"}"/>'
                 for c in range(cols)] * rep_c
        rows_pieces.append([heads[0], *[tail + "\n" + head for tail, head in zip(tails, heads[1:])],
                            tails[-1]])
    for r in range(rows * rep_r):
        parts.append(f"{MARGIN + r * CELL}".join(rows_pieces[r % rows]))

    if labels:
        grid = label_grid(e)
        for r, c in used_vertices:
            lab = ",".join(str(x) for x in grid[r][c])
            parts.append(
                f'<text x="{MARGIN + c * CELL + 5}" y="{MARGIN + r * CELL - 5}" font-size="8" '
                f'fill="#555" font-family="monospace">({lab})</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"

"""SVG diagrams of ground embeddings tiled over several periods.

Arcs are drawn as arrowed paths between lattice dots, with the fundamental
domain outlined. Double steps are drawn with a slight bow so the hopped-over
lattice position stays legible; validity always uses the straight segments,
the bow is purely cosmetic.
"""

from .canonical import label_grid
from .embedding import GroundEmbedding

CELL = 48
MARGIN = 36
DOT_R = 3.0
# Most periods a drawing repeats along either side: the drawing grows as the
# product of both, so an unbounded request could take any time and memory.
MAX_REPEATS = 32


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

    def px(row_f: float, col_f: float) -> tuple[float, float]:
        return (MARGIN + col_f * CELL, MARGIN + row_f * CELL)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="5" markerHeight="5" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#333"/></marker></defs>',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]

    # fundamental domain outline
    x0, y0 = px(0, 0)
    parts.append(
        f'<rect x="{x0}" y="{y0}" width="{cols * CELL}" height="{rows * CELL}" '
        'fill="none" stroke="#b0c4de" stroke-width="2" stroke-dasharray="6 4"/>')

    # arcs, one instance per tile
    for tr in range(rep_r):
        for tc in range(rep_c):
            for a in e.arcs:
                r0 = tr * rows + a.row
                c0 = tc * cols + a.col
                r1, c1 = r0 + a.dy, c0 + a.dx
                sx, sy = px(r0, c0)
                ex, ey = px(r1, c1)
                if abs(a.dx) == 2 or a.dy == 2:
                    # bow sideways at the midpoint (display only)
                    mr = (r0 + r1) / 2 + (0.3 if a.dy == 0 else 0.0)
                    mc = (c0 + c1) / 2 + (0.3 if a.dx == 0 else 0.0)
                    qx, qy = px(mr, mc)
                    d = f'M {sx} {sy} Q {qx} {qy} {ex} {ey}'
                else:
                    d = f'M {sx} {sy} L {ex} {ey}'
                parts.append(
                    f'<path class="arc" d="{d}" fill="none" stroke="#333" '
                    'stroke-width="1.6" marker-end="url(#arrow)"/>')

    # lattice dots
    used_vertices = set(e.non_isolated())
    for r in range(rows * rep_r):
        for c in range(cols * rep_c):
            x, y = px(r, c)
            used = (r % rows, c % cols) in used_vertices
            fill = "#222" if used else "#bbb"
            parts.append(f'<circle cx="{x}" cy="{y}" r="{DOT_R}" fill="{fill}"/>')

    if labels:
        grid = label_grid(e)
        for v in e.non_isolated():
            x, y = px(v[0], v[1])
            lab = ",".join(str(x) for x in grid[v[0]][v[1]])
            parts.append(
                f'<text x="{x + 5}" y="{y - 5}" font-size="8" '
                f'fill="#555" font-family="monospace">({lab})</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"

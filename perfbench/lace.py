"""The benchmark's own model of ground files, written apart from laceground.

Everything the benchmark builds or checks goes through this module: it reads
and writes the "ground v1" format, computes degrees from arc lists, applies
the symmetries (translations, the two reflections and the 180-degree
rotation) to arc lists, and checks the text, JSON and SVG that the program
prints. It imports nothing from the package under test, so an answer it
computes is never the program's answer read back.

An arc is a tuple (row, col, dx, dy): a wrapped origin and a step that points
down the pattern (dy > 0) or sideways (dy == 0).
"""

import itertools
import json
import re
import xml.etree.ElementTree as ET
from typing import NamedTuple

TRANSFORMS = ("identity", "h_reflect", "v_reflect", "rot180")
STEPS = frozenset([(-2, 0), (-1, 0), (-1, 1), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)])
ACTIONS = "CTLRp"
# generators each action adds to a braid word; a pin adds none
GENERATORS = {"C": 1, "T": 2, "L": 1, "R": 1, "p": 0}
REPORT_KEYS = ("two_regular", "connected", "strict_connected",
               "rotationally_consecutive", "no_contractible_directed_cycle",
               "conserved")
_SVG = "{http://www.w3.org/2000/svg}"
_BRAID_LINE = re.compile(r"braid \((\d+),(\d+)\) ([CTLRp]+): (.*)")


class Ground(NamedTuple):
    rows: int
    cols: int
    arcs: tuple       # sorted (row, col, dx, dy)
    zeta: tuple = ()  # sorted ((row, col), actions)


def make(rows, cols, arcs, zeta=()):
    return Ground(rows, cols, tuple(sorted(arcs)), tuple(sorted(zeta)))


def parse(text):
    """Read a ground file; raise ValueError on anything malformed."""
    dims = None
    arcs, zeta = [], []
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != ["ground", "v1"]:
        raise ValueError("missing 'ground v1' header")
    for fields in lines[1:]:
        head, values = fields[0], fields[1:]
        if head == "dims" and dims is None and len(values) == 2:
            dims = tuple(int(v) for v in values)
            if min(dims) < 1:
                raise ValueError(f"bad dims {dims}")
        elif head == "arc" and dims is not None and len(values) == 4:
            r, c, dx, dy = (int(v) for v in values)
            if not (0 <= r < dims[0] and 0 <= c < dims[1]) or (dx, dy) not in STEPS:
                raise ValueError(f"bad arc {fields}")
            arcs.append((r, c, dx, dy))
        elif head == "zeta" and dims is not None and len(values) == 3:
            r, c = int(values[0]), int(values[1])
            if not (0 <= r < dims[0] and 0 <= c < dims[1]) or set(values[2]) - set(ACTIONS):
                raise ValueError(f"bad zeta {fields}")
            zeta.append(((r, c), values[2]))
        else:
            raise ValueError(f"unexpected line {' '.join(fields)!r}")
    if dims is None:
        raise ValueError("missing dims")
    if len(set(arcs)) != len(arcs):
        raise ValueError("duplicate arc")
    return make(dims[0], dims[1], arcs, zeta)


def format_ground(g):
    lines = ["ground v1", f"dims {g.rows} {g.cols}"]
    lines += [f"arc {r} {c} {dx} {dy}" for r, c, dx, dy in g.arcs]
    lines += [f"zeta {r} {c} {actions}" for (r, c), actions in g.zeta]
    return "\n".join(lines) + "\n"


def head(g, arc):
    r, c, dx, dy = arc
    return ((r + dy) % g.rows, (c + dx) % g.cols)


def used_vertices(g):
    return {(a[0], a[1]) for a in g.arcs} | {head(g, a) for a in g.arcs}


def two_in_two_out(g):
    """True when the ground has arcs and every used vertex is 2-in/2-out."""
    ins, outs = {}, {}
    for a in g.arcs:
        outs[(a[0], a[1])] = outs.get((a[0], a[1]), 0) + 1
        h = head(g, a)
        ins[h] = ins.get(h, 0) + 1
    return bool(g.arcs) and all(
        ins.get(v, 0) == 2 and outs.get(v, 0) == 2 for v in used_vertices(g))


def image(g, name, dr, dc):
    """The ground under one symmetry followed by a translation by (dr, dc).

    A reflection of the rows would make every arc point up, so v_reflect and
    rot180 reverse each arc: its new origin is the image of its old head.
    Zeta annotations move with their vertices.
    """
    R, C = g.rows, g.cols
    arcs, verts = [], []
    for r, c, dx, dy in g.arcs:
        if name == "identity":
            arc = (r, c, dx, dy)
        elif name == "h_reflect":
            arc = (r, -c, -dx, dy)
        elif name == "v_reflect":
            arc = (-(r + dy), c + dx, -dx, dy)
        elif name == "rot180":
            arc = (-(r + dy), -(c + dx), dx, dy)
        else:
            raise ValueError(name)
        arcs.append(((arc[0] + dr) % R, (arc[1] + dc) % C, arc[2], arc[3]))
    sign_r = -1 if name in ("v_reflect", "rot180") else 1
    sign_c = -1 if name in ("h_reflect", "rot180") else 1
    for (r, c), actions in g.zeta:
        verts.append((((sign_r * r + dr) % R, (sign_c * c + dc) % C), actions))
    return make(R, C, arcs, verts)


def group(g):
    """Every (transform, dr, dc) of the symmetry group on g's torus."""
    return list(itertools.product(TRANSFORMS, range(g.rows), range(g.cols)))


def orbit_key(g):
    """Least sorted arc list over the whole orbit: equal keys mean equivalent."""
    return min(image(g, *elem).arcs for elem in group(g))


def without_arc(g, index):
    return make(g.rows, g.cols, g.arcs[:index] + g.arcs[index + 1:], g.zeta)


# ---------------------------------------------------------------------------
# Checks of the program's outputs. Each returns a list of problems; an empty
# list means the output is right.
# ---------------------------------------------------------------------------

def check_solution_set(grounds, expected_count, what):
    """Published count, 2-in/2-out on every used vertex, and pairwise
    inequivalence under the benchmark's own orbit code."""
    problems = []
    if len(grounds) != expected_count:
        problems.append(f"{what}: {len(grounds)} solutions, expected {expected_count}")
    for k, g in enumerate(grounds):
        if not two_in_two_out(g):
            problems.append(f"{what}: solution {k} is not 2-in/2-out")
    keys = [orbit_key(g) for g in grounds]
    if len(set(keys)) != len(keys):
        problems.append(f"{what}: {len(keys) - len(set(keys))} solutions repeat a class")
    return problems


def check_verify(out, expect_pass, g):
    """Output of `verify --strict --braid --report json` on ground g."""
    cut = out.find("\nbraid (")
    report_text, braid_text = (out, "") if cut < 0 else (out[:cut + 1], out[cut + 1:])
    try:
        report = json.loads(report_text)
    except ValueError:
        return ["verify: report is not JSON"]
    problems = []
    statuses = {key: report.get(key, {}).get("status") for key in REPORT_KEYS}
    if expect_pass and any(s != "pass" for s in statuses.values()):
        problems.append(f"verify: expected every property to pass, got {statuses}")
    if not expect_pass and statuses["two_regular"] != "fail":
        problems.append(f"verify: expected two_regular to fail, got {statuses['two_regular']}")
    return problems + check_braid(braid_text.splitlines(), g.zeta)


def check_braid(lines, zeta):
    """One braid line per annotated vertex, each word with the generator count
    its action string implies and alternating: positive generators sit on odd
    strand positions, negative ones on even positions."""
    if len(lines) != len(zeta):
        return [f"braid: {len(lines)} lines for {len(zeta)} annotated vertices"]
    problems = []
    for line, ((r, c), actions) in zip(lines, zeta):
        m = _BRAID_LINE.fullmatch(line)
        if not m or (int(m[1]), int(m[2]), m[3]) != (r, c, actions):
            problems.append(f"braid: unexpected line {line!r} for ({r},{c}) {actions}")
            continue
        gens = [t for t in m[4].split() if t not in ("[pin]", "(empty)")]
        if len(gens) != sum(GENERATORS[a] for a in actions):
            problems.append(f"braid: {line!r} has {len(gens)} generators")
        for token in gens:
            tm = re.fullmatch(r"s(\d+)(\^-1)?", token)
            if not tm or (int(tm[1]) % 2 == 1) == bool(tm[2]):
                problems.append(f"braid: {line!r} is not alternating at {token!r}")
    return problems


def canon_identifier(out):
    """The identifier `canon` prints on its first line, or None."""
    lines = out.splitlines()
    return lines[0] if lines and lines[0].count("|") == 1 else None


def check_svg(text, g, repeats):
    """One arc path per arc per tile and one dot per lattice point."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"render: SVG does not parse: {exc}"]
    tiles = repeats[0] * repeats[1]
    paths = sum(1 for e in root.iter(_SVG + "path") if e.get("class") == "arc")
    dots = sum(1 for _ in root.iter(_SVG + "circle"))
    problems = []
    if paths != len(g.arcs) * tiles:
        problems.append(f"render: {paths} arc paths, expected {len(g.arcs) * tiles}")
    if dots != g.rows * g.cols * tiles:
        problems.append(f"render: {dots} dots, expected {g.rows * g.cols * tiles}")
    return problems

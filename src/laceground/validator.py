"""Executable form of the five fundamental ground properties.

A workable ground embedding must be drawn on the torus without conflicts
(no crossings, no slot used twice), 2-in/2-out regular, connected with at
least one cycle that wraps the torus, free of contractible directed cycles,
rotationally consecutive at every vertex, and thread conserving: its arcs
partition into non-transverse directed circuits none of which drifts
sideways (longitudinal winding zero). Each check returns a concrete witness
on failure so problems in a user file can be located.

Rotational consecutiveness and freedom from contractible directed cycles
follow from the steps' directions once no slot holds two arcs, so neither
searches: each passes on such a ground and reads BLOCKED, at the lowest
vertex with a shared slot, on any other.
"""

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple, Optional

from .embedding import GroundEmbedding, _first_fault, arc_tables, tables_for
from .geometry import Arc

PASS, FAIL, BLOCKED = "pass", "fail", "blocked"


class WindingVector(NamedTuple):
    """Net wraps of a closed circuit: longitudinal (columns), meridional (rows)."""

    longitudinal: int
    meridional: int


class CheckResult(NamedTuple):
    status: str
    witness: Optional[object] = None
    detail: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == PASS


@dataclass
class CircuitPartition:
    circuits: list[list[Arc]]
    windings: list[WindingVector]


@dataclass
class PropertyReport:
    two_regular: CheckResult
    embedded: CheckResult
    connected: CheckResult
    strict_connected: CheckResult
    rotationally_consecutive: CheckResult
    no_contractible_directed_cycle: CheckResult
    conserved: CheckResult
    partition: Optional[CircuitPartition] = None

    # every check, in report order
    CHECKS = ("two_regular", "embedded", "connected", "strict_connected",
              "rotationally_consecutive", "no_contractible_directed_cycle",
              "conserved")

    def all_pass(self, strict: bool = False) -> bool:
        return all(getattr(self, n).ok for n in self.CHECKS
                   if strict or n != "strict_connected")


def check_two_regular(e: GroundEmbedding) -> CheckResult:
    """Every vertex with an arc has two arcs in and two out. The degrees are
    counted on the row-major vertex ids of ``arc_tables(e.dims)``, so the
    witness is the lowest failing vertex."""
    if not e.arcs:
        return CheckResult(FAIL, None, "no arcs")
    t = arc_tables(e.dims)
    ins = [0] * t.n_vertices
    outs = [0] * t.n_vertices
    for aid in e.slot_table.ids:
        outs[t.origin_vid[aid]] += 1
        ins[t.head_vid[aid]] += 1
    for vid, (n_in, n_out) in enumerate(zip(ins, outs)):
        if (n_in or n_out) and (n_in != 2 or n_out != 2):
            v = divmod(vid, e.dims.cols)
            return CheckResult(FAIL, v, f"vertex {v} is {n_in}-in/{n_out}-out")
    return CheckResult(PASS)


def check_embedded(e: GroundEmbedding) -> CheckResult:
    """The arcs are drawn on the torus without conflicts: none meets its own
    periodic copies, no two share a slot at a vertex, and no two cross.
    Read from the conflict masks the search uses."""
    t = tables_for(e.dims)
    fault = _first_fault(e.slot_table.ids, t, degree=False)
    if fault is None:
        return CheckResult(PASS)
    return CheckResult(FAIL, fault.vertex, str(fault))


def _fundamental_windings(
    e: GroundEmbedding,
) -> tuple[list[tuple[int, int]], list[WindingVector]]:
    """One walk over every undirected component: the root of each, and the
    winding vectors of the fundamental cycles of a spanning forest that
    wrap the torus, in arc order.

    Roots are taken in vertex order, so each is the smallest vertex of its
    component and the roots both count and name the components. Each vertex
    gets an integer potential (row, col displacement from its root through
    tree arcs); every arc closes a cycle whose exact displacement is a
    multiple of the periods, zero for a tree arc. The walk runs on the ids of
    ``arc_tables(e.dims)``, whose order is the arcs' order, and on vertex
    ids ``row * cols + col``, whose order is the vertices'.
    """
    rows, cols = e.dims
    t = arc_tables(e.dims)
    tails, heads, arcs = t.origin_vid, t.head_vid, t.arcs
    ids = e.slot_table.ids
    pot: dict[int, tuple[int, int]] = {}
    by_vertex: dict[int, list[tuple[int, bool]]] = {}
    for aid in ids:
        by_vertex.setdefault(tails[aid], []).append((aid, True))
        by_vertex.setdefault(heads[aid], []).append((aid, False))
    roots = []
    for root in sorted(by_vertex):
        if root in pot:
            continue
        roots.append(divmod(root, cols))
        pot[root] = (0, 0)
        frontier = [root]
        while frontier:
            u = frontier.pop()
            pr, pc = pot[u]
            for aid, forward in by_vertex[u]:
                a = arcs[aid]
                if forward:
                    w, dr, dc = heads[aid], a.dy, a.dx
                else:
                    w, dr, dc = tails[aid], -a.dy, -a.dx
                if w not in pot:
                    pot[w] = (pr + dr, pc + dc)
                    frontier.append(w)
    windings = []
    for aid in sorted(set(ids)):
        a = arcs[aid]
        o, h = pot[tails[aid]], pot[heads[aid]]
        drow = o[0] + a.dy - h[0]
        dcol = o[1] + a.dx - h[1]
        assert drow % rows == 0 and dcol % cols == 0
        if drow or dcol:
            windings.append(WindingVector(dcol // cols, drow // rows))
    return roots, windings


def check_connected(e: GroundEmbedding, strict: bool = False) -> CheckResult:
    """Non-strict: one component and at least one cycle wrapping the torus.
    Strict: additionally the cycle windings generate all of Z x Z, so the
    unrolled planar pattern hangs together as fabric."""
    return _connected(*_fundamental_windings(e), strict)


def _connected(roots: list[tuple[int, int]], windings: list[WindingVector],
               strict: bool) -> CheckResult:
    """``check_connected`` on the result of ``_fundamental_windings``."""
    if not roots:
        return CheckResult(FAIL, None, "no arcs")
    if len(roots) > 1:
        return CheckResult(FAIL, roots,
                           f"{len(roots)} components, e.g. {roots[0]} and {roots[1]}")
    if not windings:
        return CheckResult(FAIL, None, "connected but no non-contractible cycle")
    if not strict:
        return CheckResult(PASS)
    if _winding_lattice_full(windings):
        return CheckResult(PASS)
    return CheckResult(
        FAIL, windings,
        "cycle windings do not generate Z x Z; planar lift is disconnected")


def windings_span_plane(e: GroundEmbedding) -> bool:
    """Strict connectivity in one walk, without witnesses: one component
    whose cycle windings generate all of Z x Z."""
    roots, windings = _fundamental_windings(e)
    return len(roots) == 1 and _winding_lattice_full(windings)


def _winding_lattice_full(windings: list[WindingVector]) -> bool:
    """Subgroup of Z^2 generated by the vectors equals Z^2 iff the gcd of all
    2x2 minors is 1 (Smith normal form argument, exact integers)."""
    g = 0
    for i in range(len(windings)):
        for j in range(i + 1, len(windings)):
            det = windings[i][0] * windings[j][1] - windings[i][1] * windings[j][0]
            g = gcd(g, abs(det))
            if g == 1:
                return True
    return False


def _rotationally_consecutive(e: GroundEmbedding, two_regular: CheckResult) -> CheckResult:
    """The two arcs in, and the two arcs out, of each vertex sit next to
    each other round it.

    Once no slot holds two arcs this always holds. A lace step arrives by
    slot NW, N, NE, E or W and leaves by E, SE, S, SW or W, so the arcs in
    lie on the closed upper half of the compass, from W through N to E, and
    the arcs out on the closed lower half, from E through S to W. The halves
    meet only at their ends, so no slot of the lower half lies strictly
    between two slots of the upper half, and both arcs out lie on the same
    side of the two arcs in: they cannot alternate.
    """
    if not two_regular.ok:
        return CheckResult(BLOCKED, two_regular.witness, "requires 2-regularity")
    # two arcs in one slot have no order around the vertex: a label shows
    # the later in arc order, which a translation changes
    return _slot_verdict(e)


def _slot_verdict(e: GroundEmbedding) -> CheckResult:
    """The verdict of a property that holds once no slot holds two arcs:
    PASS on such a ground, else BLOCKED at the lowest vertex with a shared
    slot."""
    shared = e.slot_table.shared
    if shared:
        v = divmod(min(shared)[0] // 8, e.dims.cols)
        return CheckResult(BLOCKED, v, "requires an embedding without slot conflicts")
    return CheckResult(PASS)


def partition_circuits(e: GroundEmbedding) -> CircuitPartition:
    """Partition all arcs into non-transverse directed circuits.

    Each circuit leaves every vertex by the arc out rotationally adjacent to
    the arc in by which it arrived. An arc arrives by slot W, NW, N, NE or E
    and leaves by E, SE, S, SW or W (see ``_rotationally_consecutive``), so
    once no slot holds two arcs, the arcs round a 2-in/2-out vertex run
    clockwise from W: the westmost arc in, the eastmost arc in, the
    eastmost arc out, the westmost arc out. The eastmost arc in is next to
    the eastmost arc out and the westmost arc in to the westmost arc out,
    so sorting each side from W to E pairs them. Every vertex needs as many
    arcs in as out, at most two, each in a slot of its own, else
    ValueError names the first vertex that fails; diagnostic callers may
    hand in sub-regular embeddings (a single in/out pair is its own pair).
    """
    t = arc_tables(e.dims)
    cols = e.dims.cols
    ends = t.ends
    ids, _, shared = e.slot_table
    clashed = {entry >> 3 for entry, _ in shared}
    # per vertex: (place from W, arc id) of its arcs in and of its arcs out
    ins: dict[int, list[tuple[int, int]]] = {}
    outs: dict[int, list[tuple[int, int]]] = {}
    for aid in ids:
        (o, _), (h, _) = ends[aid]
        outs.setdefault(o >> 3, []).append(((6 - o) % 8, aid))
        ins.setdefault(h >> 3, []).append(((h - 6) % 8, aid))
    after = {}
    for vid in sorted(ins.keys() | outs.keys()):
        arcs_in, arcs_out = ins.get(vid, ()), outs.get(vid, ())
        if vid in clashed:
            # two arcs in one slot have no order round the vertex, so no
            # pairing of them is the rotational one
            raise ValueError(
                f"cannot partition: vertex {divmod(vid, cols)} has two arcs in one slot")
        if len(arcs_in) != len(arcs_out) or len(arcs_in) > 2:
            raise ValueError(
                f"cannot partition: vertex {divmod(vid, cols)} has {len(arcs_in)} "
                f"incoming, {len(arcs_out)} outgoing arcs")
        for (_, a), (_, b) in zip(sorted(arcs_in), sorted(arcs_out)):
            after[a] = b
    circuits: list[list[Arc]] = []
    windings: list[WindingVector] = []
    for start in ids:
        if start not in after:
            continue  # on a circuit traced already
        circuit = [start]
        while (nxt := after.pop(circuit[-1])) != start:
            circuit.append(nxt)
        arcs = [t.arcs[aid] for aid in circuit]
        sdx = sum(a.dx for a in arcs)
        sdy = sum(a.dy for a in arcs)
        assert sdx % cols == 0 and sdy % e.dims.rows == 0
        circuits.append(arcs)
        windings.append(WindingVector(sdx // cols, sdy // e.dims.rows))
    return CircuitPartition(circuits, windings)


def check_no_contractible_directed_cycles(e: GroundEmbedding) -> CheckResult:
    """No directed cycle may have total displacement (0, 0).

    Once no slot holds two arcs this always holds. No step points up, so a
    cycle with zero displacement has dy = 0 throughout and runs along one
    row. Its arcs go both east and west, else its dx would not sum to zero,
    so somewhere an east arc is followed by a west arc: the first arrives
    by the W slot of their shared vertex and the second leaves by it, so
    both hold that slot. The reverse turn shares the E slot. A ground with a
    shared slot already fails ``check_embedded``; there this check reads
    BLOCKED, as the rotational one does, rather than search for a cycle.
    """
    return _slot_verdict(e)


def check_thread_conservation(e: GroundEmbedding) -> CheckResult:
    """Every non-transverse circuit must have longitudinal winding zero: the
    same number of arcs cross any meridional cut in each direction."""
    return _conserved(partition_circuits(e))


def _conserved(partition: CircuitPartition) -> CheckResult:
    bad = [(i, w) for i, w in enumerate(partition.windings) if w.longitudinal != 0]
    if bad:
        i, w = bad[0]
        return CheckResult(
            FAIL, partition.circuits[i],
            f"circuit {i} has longitudinal winding {w.longitudinal}")
    return CheckResult(PASS, None,
                       "windings: " + ", ".join(str(tuple(w)) for w in partition.windings))


def full_report(e: GroundEmbedding) -> PropertyReport:
    """Every check, each piece of shared work done once: the 2-regularity
    test (which the rotational check reads), the winding walk (both
    connectivity checks) and the circuit partition (the conservation
    check). Each reads the ground through its one ``e.slot_table``. The
    circuits are traced by ``partition_circuits`` only on a conflict-free,
    2-regular, rotationally consecutive ground, where it cannot fail."""
    two_regular = check_two_regular(e)
    embedded = check_embedded(e)
    walk = _fundamental_windings(e)
    connected = _connected(*walk, strict=False)
    strict_connected = _connected(*walk, strict=True)
    rot = _rotationally_consecutive(e, two_regular)
    nocontract = check_no_contractible_directed_cycles(e)
    partition = None
    if not (two_regular.ok and rot.ok):
        conserved = CheckResult(BLOCKED, None,
                                "requires 2-regularity and rotational consecutiveness")
    elif not embedded.ok:
        conserved = CheckResult(BLOCKED, None, "requires an embedding without conflicts")
    else:
        partition = partition_circuits(e)
        conserved = _conserved(partition)
    return PropertyReport(two_regular, embedded, connected, strict_connected, rot,
                          nocontract, conserved, partition)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def report_to_json(report: PropertyReport) -> dict:
    """The report as a JSON document; ``json`` writes its tuples (witnesses,
    ``Arc``, ``WindingVector``) as arrays."""
    doc = {"version": 1}
    for name in report.CHECKS:
        r = getattr(report, name)
        doc[name] = {"status": r.status, "witness": r.witness, "detail": r.detail}
    circuits = []
    if report.partition is not None:
        for circuit, w in zip(report.partition.circuits, report.partition.windings):
            circuits.append({"arcs": circuit, "winding": w})
    doc["circuits"] = circuits
    return doc


def report_to_text(report: PropertyReport) -> str:
    lines = []
    for name in report.CHECKS:
        r = getattr(report, name)
        line = f"{name}: {r.status}"
        if r.detail and r.status != PASS:
            line += f" ({r.detail})"
        lines.append(line)
    if report.partition is not None:
        lines.append(f"circuits: {len(report.partition.circuits)}")
        for i, (circuit, w) in enumerate(
                zip(report.partition.circuits, report.partition.windings)):
            arcs = " ".join(str(tuple(a)) for a in circuit)
            lines.append(f"  circuit {i}: winding (L={w.longitudinal}, M={w.meridional}) {arcs}")
    return "\n".join(lines) + "\n"

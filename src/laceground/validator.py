"""Executable form of the five fundamental ground properties.

A workable ground embedding must be drawn on the torus without conflicts
(no crossings, no slot used twice), 2-in/2-out regular, connected with at
least one cycle that wraps the torus, free of contractible directed cycles,
rotationally consecutive at every vertex, and thread conserving: its arcs
partition into non-transverse directed circuits none of which drifts
sideways (longitudinal winding zero). Each check returns a concrete witness
on failure so problems in a user file can be located.
"""

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple, Optional

from .embedding import GroundEmbedding, _first_fault, tables_for
from .geometry import Arc, direction_slot

PASS, FAIL, BLOCKED, INCONCLUSIVE = "pass", "fail", "blocked", "inconclusive"


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

    GATING = ("two_regular", "embedded", "connected", "rotationally_consecutive",
              "no_contractible_directed_cycle", "conserved")
    # every check, in report order
    CHECKS = ("two_regular", "embedded", "connected", "strict_connected",
              "rotationally_consecutive", "no_contractible_directed_cycle",
              "conserved")

    def all_pass(self, strict: bool = False) -> bool:
        names = self.GATING + (("strict_connected",) if strict else ())
        return all(getattr(self, n).ok for n in names)


def check_two_regular(e: GroundEmbedding) -> CheckResult:
    if not e.arcs:
        return CheckResult(FAIL, None, "no arcs")
    degs: dict[tuple[int, int], list[int]] = {}
    for a in e.arcs:
        degs.setdefault((a.row, a.col), [0, 0])[1] += 1
        degs.setdefault(a.head(e.dims), [0, 0])[0] += 1
    for v, (ins, outs) in sorted(degs.items()):
        if ins != 2 or outs != 2:
            return CheckResult(FAIL, v, f"vertex {v} is {ins}-in/{outs}-out")
    return CheckResult(PASS)


def check_embedded(e: GroundEmbedding) -> CheckResult:
    """The arcs are drawn on the torus without conflicts: none meets its own
    periodic copies, no two share a slot at a vertex, and no two cross.
    Read from the conflict masks the search uses."""
    t = tables_for(e.dims)
    fault = _first_fault([t.arc_id[a] for a in e.arcs], t, degree=False)
    if fault is None:
        return CheckResult(PASS)
    return CheckResult(FAIL, fault.vertex, str(fault))


def _fundamental_windings(
    e: GroundEmbedding,
) -> tuple[list[tuple[int, int]], list[WindingVector]]:
    """One walk over every undirected component: the root of each, and the
    winding vectors of the fundamental cycles of a spanning forest.

    Roots are taken in vertex order, so each is the smallest vertex of its
    component and the roots both count and name the components. Each vertex
    gets an integer potential (row, col displacement from its root through
    tree arcs); every non-tree arc closes a cycle whose exact displacement
    is a multiple of the periods.
    """
    rows, cols = e.dims
    pot: dict[tuple[int, int], tuple[int, int]] = {}
    by_vertex: dict[tuple[int, int], list[tuple[Arc, bool]]] = {}
    for a in e.arcs:
        by_vertex.setdefault((a.row, a.col), []).append((a, True))
        by_vertex.setdefault(a.head(e.dims), []).append((a, False))
    roots = []
    windings = []
    tree: set[Arc] = set()
    for root in sorted(by_vertex):
        if root in pot:
            continue
        roots.append(root)
        pot[root] = (0, 0)
        frontier = [root]
        while frontier:
            u = frontier.pop()
            for a, forward in by_vertex[u]:
                w = a.head(e.dims) if forward else (a.row, a.col)
                dr, dc = (a.dy, a.dx) if forward else (-a.dy, -a.dx)
                if w not in pot:
                    pot[w] = (pot[u][0] + dr, pot[u][1] + dc)
                    tree.add(a)
                    frontier.append(w)
    for a in sorted(set(e.arcs) - tree):
        o, h = (a.row, a.col), a.head(e.dims)
        drow = pot[o][0] + a.dy - pot[h][0]
        dcol = pot[o][1] + a.dx - pot[h][1]
        assert drow % rows == 0 and dcol % cols == 0
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
    if not any(w != (0, 0) for w in windings):
        return CheckResult(FAIL, None, "connected but no non-contractible cycle")
    if not strict:
        return CheckResult(PASS)
    if _winding_lattice_full(windings):
        return CheckResult(PASS)
    return CheckResult(
        FAIL, [tuple(w) for w in windings if w != (0, 0)],
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
    vecs = [w for w in windings if w != (0, 0)]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            det = vecs[i][0] * vecs[j][1] - vecs[i][1] * vecs[j][0]
            g = gcd(g, abs(det))
            if g == 1:
                return True
    return False


def check_rotationally_consecutive(e: GroundEmbedding) -> CheckResult:
    """Every used vertex must read in,in,out,out around the compass (up to
    rotation); an alternating vertex is the witness. Requires 2-regularity
    and at most one arc per slot."""
    return _rotationally_consecutive(e, check_two_regular(e))


def _rotationally_consecutive(e: GroundEmbedding,
                              two_regular: CheckResult) -> CheckResult:
    if not two_regular.ok:
        return CheckResult(BLOCKED, two_regular.witness, "requires 2-regularity")
    table = e.slot_records()
    # two arcs in one slot have no order around the vertex: their records
    # would be read in arc order, which a translation changes
    for v, recs in sorted(table.items()):
        if len({rec.slot for rec in recs}) < len(recs):
            return CheckResult(BLOCKED, v, "requires an embedding without slot conflicts")
    for v, recs in sorted(table.items()):
        flags = [rec.incoming for rec in recs]
        changes = sum(flags[i] != flags[(i + 1) % len(flags)] for i in range(len(flags)))
        if changes != 2:
            return CheckResult(FAIL, v, f"vertex {v} has rotationally alternating arcs")
    return CheckResult(PASS)


def partition_circuits(e: GroundEmbedding) -> CircuitPartition:
    """Partition all arcs into non-transverse directed circuits.

    From each unused arc, repeatedly leave by the outgoing arc rotationally
    adjacent to the arrival slot, closing when the walk returns to the start
    arc. Every vertex needs as many incoming as outgoing arcs, each in a
    slot of its own, and vertices with two of each must be rotationally
    consecutive so the adjacent outgoing arc is unique; diagnostic callers
    may hand in sub-regular embeddings (single in/out pairs walk fine).
    """
    table = e.slot_records()
    for v, recs in sorted(table.items()):
        slots = [rec.slot for rec in recs]
        if len(set(slots)) < len(slots):
            # two arcs in one slot would pair two arrivals with one exit,
            # and the walk would never close
            raise ValueError(f"cannot partition: vertex {v} has two arcs in one slot")
        ins = sum(1 for rec in recs if rec.incoming)
        outs = len(recs) - ins
        if ins != outs or ins > 2:
            raise ValueError(
                f"cannot partition: vertex {v} has {ins} incoming, {outs} outgoing arcs")
        if ins == 2:
            flags = [rec.incoming for rec in recs]
            changes = sum(flags[i] != flags[(i + 1) % 4] for i in range(4))
            if changes != 2:
                raise ValueError(f"cannot partition: vertex {v} is rotationally alternating")

    def paired_out(v: tuple[int, int], arrival_slot: int) -> Arc:
        recs = table[v]
        slots = [rec.slot for rec in recs]
        i = slots.index(arrival_slot)
        for j in (i + 1, i - 1):
            slot, incoming, arc = recs[j % len(recs)]
            if not incoming:
                return arc
        raise AssertionError(f"no rotationally consecutive outgoing arc at {v}")

    circuits: list[list[Arc]] = []
    windings: list[WindingVector] = []
    used: set[Arc] = set()
    for start in sorted(e.arcs):
        if start in used:
            continue
        circuit = [start]
        used.add(start)
        cur = start
        while True:
            h = cur.head(e.dims)
            nxt = paired_out(h, direction_slot(cur.step, at_head=True))
            if nxt == start:
                break
            circuit.append(nxt)
            used.add(nxt)
            cur = nxt
        sdx = sum(a.dx for a in circuit)
        sdy = sum(a.dy for a in circuit)
        assert sdx % e.dims.cols == 0 and sdy % e.dims.rows == 0
        circuits.append(circuit)
        windings.append(WindingVector(sdx // e.dims.cols, sdy // e.dims.rows))
    return CircuitPartition(circuits, windings)


def check_no_contractible_directed_cycles(
    e: GroundEmbedding, max_cycles: int = 100_000
) -> CheckResult:
    """No directed cycle may have total displacement (0, 0).

    Steps never point upward, so a zero-displacement cycle consists purely of
    horizontal arcs; it suffices to enumerate simple directed cycles within
    each row's horizontal subgraph and compare exact column displacements.
    """
    by_tail: dict[tuple[int, int], list[Arc]] = {}
    for a in e.arcs:
        if a.dy == 0:
            by_tail.setdefault((a.row, a.col), []).append(a)
    for recs in by_tail.values():
        recs.sort()

    budget = [max_cycles]
    vertices = sorted(by_tail)
    order = {v: i for i, v in enumerate(vertices)}

    def dfs(start, v, disp, path, on_path):
        if budget[0] <= 0:
            return None
        for a in by_tail.get(v, ()):
            h = a.head(e.dims)
            if h == start:
                budget[0] -= 1
                if disp + a.dx == 0:
                    return path + [a]
                continue
            if h in on_path or order.get(h, -1) < order[start]:
                continue
            on_path.add(h)
            found = dfs(start, h, disp + a.dx, path + [a], on_path)
            on_path.discard(h)
            if found is not None:
                return found
        return None

    for start in vertices:
        witness = dfs(start, start, 0, [], {start})
        if witness is not None:
            return CheckResult(FAIL, witness,
                               "directed cycle with zero displacement: "
                               + ", ".join(str(tuple(a)) for a in witness))
        if budget[0] <= 0:
            return CheckResult(INCONCLUSIVE, None, "cycle budget exhausted")
    return CheckResult(PASS)


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


def full_report(e: GroundEmbedding, strict: bool = False,
                max_cycles: int = 100_000) -> PropertyReport:
    """Every check, each piece of shared work (the 2-regularity test, the
    winding walk, the circuit partition) done once. The circuits are traced
    only on a conflict-free, 2-regular, rotationally consecutive ground."""
    two_regular = check_two_regular(e)
    embedded = check_embedded(e)
    walk = _fundamental_windings(e)
    connected = _connected(*walk, strict=False)
    strict_connected = _connected(*walk, strict=True)
    rot = _rotationally_consecutive(e, two_regular)
    nocontract = check_no_contractible_directed_cycles(e, max_cycles=max_cycles)
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

def _result_json(r: CheckResult) -> dict:
    witness = r.witness
    if isinstance(witness, list) and witness and isinstance(witness[0], Arc):
        witness = [list(a) for a in witness]
    elif isinstance(witness, tuple):
        witness = list(witness)
    return {"status": r.status, "witness": witness, "detail": r.detail}


def report_to_json(report: PropertyReport) -> dict:
    doc = {"version": 1}
    for name in report.CHECKS:
        doc[name] = _result_json(getattr(report, name))
    circuits = []
    if report.partition is not None:
        for circuit, w in zip(report.partition.circuits, report.partition.windings):
            circuits.append({"arcs": [list(a) for a in circuit],
                             "winding": [w.longitudinal, w.meridional]})
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

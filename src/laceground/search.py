"""Backtracking enumeration of ground embeddings.

Column by column, the search adds zero, one or two lace paths (each rooted at
that column) with the mask engine of ``embedding``. Each node carries an
alive bitset: the candidates of every column that still fit its state,
exactly those ``_feasible`` accepts. A move narrows it with a few ANDs of
precomputed masks, one per arc the move adds and one per vertex it fills
(``_Engine.narrow``), so a node's children are read off its set bits
instead of testing every candidate of the column at every node. This is
the bitset form of the option lists of Knuth's Dancing Links.

Children take candidates in bit order: everything below a node lies above
its own bit. So a vertex with exactly one arc in needs an alive candidate
above that bit adding an arc into it, or no leaf below is 2-in/2-out; the
degree lookahead (``_Engine.child_limit``) cuts such a node before the
domination test, and stops a node's children at the last bit that can
still give each such vertex its second arc.

A column's candidates are the distinct arc sets its lace paths lay down,
built by one depth-first walk over arc ids from the column's row-0 vertex
(rooted paths) and from its row n-1 vertex by the double step (skipping
paths). The walk takes the lace-step rules from ``paths`` and cuts a branch
at the first arc that ``embedding._join`` rejects, so no path list is built
and no path with a fault is completed (``_Engine._column_candidates``).

A work item is a pure walk of its part of the tree: it returns the arc sets
of its regular leaves, those exactly 2-in/2-out on their used vertices.
The run takes the union of those sets and judges it in the calling process
(``_judge``), one arc set per symmetry orbit: the other members, found
through the arc-id permutations of ``canonical.arc_permutations``, are
skipped, since connectivity and the canonical form are the same on the
whole orbit (after McKay's orderly generation: reject each orbit once).
The set judged must be connected (by default strictly: the lift to the
plane is one piece), and survivors are reduced to canonical form and keyed
by canonical identifier, so duplicate classes collapse and results are
independent of scheduling.

The search tree is partitioned into independent work items by the position of
the first path placed (all earlier columns empty). Items share nothing and
their leaf sets merge commutatively, which makes multi-process runs
byte-identical to the single-process reference run.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .canonical import (
    _dominated,
    arc_permutations,
    canonical_representative,
    identifier_text,
)
from .embedding import (
    _NO_ARCS,
    GroundEmbedding,
    _apply,
    _Candidate,
    _State,
    _join,
    tables_for,
)
from .geometry import TorusDims
from .paths import _lace_paths
from .validator import check_connected, windings_span_plane

_BIG = 1 << 62


@dataclass(frozen=True)
class SearchConfig:
    """Search options. Defaults give the reference semantics: pruning on and
    strict connectivity (the cycle windings generate all of Z x Z, so the
    ground tiled over the plane hangs together as one piece of fabric).
    ``strict_connectivity=False`` selects the loose model, which asks only
    for one component on the torus with a cycle that wraps it; its lift may
    fall apart into separate strands. ``jobs`` is an upper bound on worker
    processes (see ``_pool_size``)."""

    dims: TorusDims
    jobs: int = 1
    pruning: bool = True
    strict_connectivity: bool = True
    node_budget: Optional[int] = None


@dataclass
class SearchResult:
    canonical_solutions: list[tuple[str, GroundEmbedding]]  # sorted by id text
    count: int
    nodes_visited: int
    wall_time: float
    complete: bool


class _Engine:
    """The candidate columns of a grid and the masks that keep their alive
    bitsets.

    An alive bitset holds, for every column at once, the candidates that
    still fit the search state: bit ``offsets[c] + i`` stands for
    ``columns[c][i]``. A move narrows it by ANDing it with precomputed masks
    (``narrow``), each the complement of the candidates that a state with
    some feature cannot take:

    - ``arc_keep[a]``, a state holding arc ``a``: the dead candidates
      contain or cross it (``blocked_mask``), share one of its slots, or add
      two arcs into its head;
    - ``full_keep[v]``, vertex ``v`` with two arcs in: the dead candidates
      add an arc into ``v``.

    Every candidate is a closed walk, with as many arcs out of a vertex as
    into it, so in a search state the out-degree bitsets equal the in-degree
    bitsets, and the masks read the in side only.
    """

    def __init__(self, dims: TorusDims):
        self.dims = dims
        self.t = tables_for(dims)
        self.columns = [self._column_candidates(c) for c in range(dims.cols)]
        self.offsets = []  # one per column, then the number of candidates
        self.column_masks = []  # a column's part of a bitset, bit i for cand i
        total = 0
        for cands in self.columns:
            self.offsets.append(total)
            self.column_masks.append((1 << len(cands)) - 1)
            total += len(cands)
        self.offsets.append(total)
        self.all_alive = (1 << total) - 1
        self.arc_keep, self.full_keep = self._keep_masks(total)
        # per vertex: the candidates that add an arc into it
        self.into = [self.all_alive ^ keep for keep in self.full_keep]

    def _column_candidates(self, col: int) -> list[_Candidate]:
        """One candidate per distinct arc set a lace path lays down at the
        column, in path order, skipping sets that conflict with themselves.

        The paths are walked arc by arc (``paths._lace_paths``), and a
        branch is cut at the first arc that cannot join those before it
        (``_join``): every fault is decided by a prefix of the path, so no
        path with a fault is ever completed.
        """
        t = self.t
        cols = self.dims.cols

        # a walk's state: the vertex it stands at, its arc ids and their masks
        def start(row):
            return row * cols + col, (), _NO_ARCS

        def extend(state, step):
            vid, ids, masks = state
            aid = t.out_arc[vid][step]
            masks, fault = _join(masks, (aid,), t)
            if fault is not None:
                return None
            return t.head_vid[aid], ids + (aid,), masks

        out = []
        seen: set[int] = set()
        for _, (_, ids, masks) in _lace_paths(self.dims.rows, extend, start):
            if masks.arcs not in seen:
                seen.add(masks.arcs)
                out.append(_Candidate(ids, t, masks))
        return out

    def _keep_masks(self, total: int) -> tuple[list[int], list[int]]:
        t = self.t
        # arcs sharing a slot with each arc, and arcs into each vertex
        sharers = [sum(1 << b for b, sb in enumerate(t.slot_mask) if sa & sb)
                   for sa in t.slot_mask]
        into = [0] * t.n_vertices
        for aid in range(len(t.arcs)):
            into[t.head_vid[aid]] |= 1 << aid
        # the dead candidates as bit matrices, one row per arc and per
        # vertex, filled bytewise
        size = (total + 7) // 8
        arc_rows = [bytearray(size) for _ in t.arcs]
        full_rows = [bytearray(size) for _ in range(t.n_vertices)]
        for col, cands in enumerate(self.columns):
            for i, cand in enumerate(cands):
                assert cand.in_any == cand.out_any and cand.in_two == cand.out_two
                k = self.offsets[col] + i
                byte, bit = k >> 3, 1 << (k & 7)
                arcs = cand.blocked_mask
                for aid in cand.arc_ids:
                    arcs |= sharers[aid]
                for v in _bits(cand.in_two):
                    arcs |= into[v]
                for aid in _bits(arcs):
                    arc_rows[aid][byte] |= bit
                for v in _bits(cand.in_any):
                    full_rows[v][byte] |= bit
        everything = self.all_alive
        return ([everything ^ int.from_bytes(r, "little") for r in arc_rows],
                [everything ^ int.from_bytes(r, "little") for r in full_rows])

    def narrow(self, alive: int, before: _State, after: _State, cand: _Candidate) -> int:
        """``alive`` for ``before`` narrowed to the candidates that still fit
        ``after``, the state that placing ``cand`` on ``before`` gives."""
        arc_keep = self.arc_keep
        for aid in cand.arc_ids:
            alive &= arc_keep[aid]
        full = after.in_ge2 ^ before.in_ge2  # the vertices just filled
        while full:
            low = full & -full
            alive &= self.full_keep[low.bit_length() - 1]
            full ^= low
        return alive

    def child_limit(self, alive: int, waiting: int, left: int) -> int:
        """One past the highest bit a child of a node may take, for a node
        whose ``waiting`` vertices have exactly one arc in and whose
        children take bits from ``left`` on: the last alive candidate that
        adds the second arc into each of them must still be reachable. A
        value of at most ``left`` means that one of them never gets it."""
        into = self.into
        limit = self.offsets[-1]
        while waiting:
            low = waiting & -waiting
            top = (alive & into[low.bit_length() - 1]).bit_length()
            if top < limit:
                if top <= left:
                    return top
                limit = top
            waiting ^= low
        return limit

    def alive_in(self, alive: int, col: int) -> int:
        """Column ``col``'s part of an alive bitset: bit i is candidate i."""
        return (alive >> self.offsets[col]) & self.column_masks[col]


def _bits(mask: int):
    """Positions of the set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_ENGINES: dict[TorusDims, _Engine] = {}


def _engine(dims: TorusDims) -> _Engine:
    if dims not in _ENGINES:
        _ENGINES[dims] = _Engine(dims)
    return _ENGINES[dims]


class _Budget(Exception):
    pass


class _ItemRunner:
    def __init__(self, eng: _Engine, pruning: bool, budget: Optional[int]):
        self.eng = eng
        self.pruning = pruning
        self.budget = budget if budget is not None else _BIG
        self.nodes = 0
        self.leaves: set[int] = set()  # arc sets of the regular leaves met
        self.complete = True

    def run(self, start_col: int, first_index: int):
        eng = self.eng
        try:
            self._place(_State(eng.dims.cols), eng.all_alive, start_col,
                        first_index, True)
        except _Budget:
            self.complete = False

    def _place(self, state: _State, alive: int, col: int, index: int, first: bool):
        """Add candidate ``index`` of column ``col``, then leave the column,
        or, after the column's first path, add a second one later in the
        column's order."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise _Budget()
        eng = self.eng
        cand = eng.columns[col][index]
        s = _apply(state, cand)
        alive = eng.narrow(alive, state, s, cand)
        # every child, and everything below it, takes candidates from the
        # bits above this node's: later in the column after a first path,
        # in later columns only after a second
        limit = eng.offsets[-1]
        waiting = s.in_ge1 ^ s.in_ge2
        if waiting:
            left = eng.offsets[col] + index + 1 if first else eng.offsets[col + 1]
            limit = eng.child_limit(alive, waiting, left)
            if limit <= left:
                return  # a vertex with one arc in can never get its second
        if self.pruning and _dominated(s, eng.dims.cols):
            return
        self._descend(s, alive, col + 1, limit)
        if first:
            self._scan(s, alive, col, index + 1, False, limit)

    def _descend(self, state: _State, alive: int, col: int, limit: int):
        """Complete the state over the columns from ``col`` on: all of them
        unused, then a first path in the last column, and so on back to
        ``col``. Only candidates below bit ``limit`` are tried."""
        # degrees never exceed 2 and out-degrees equal in-degrees (see
        # _Engine), so the used vertices are 2-in/2-out exactly when every
        # vertex with an arc in has two
        if state.in_ge2 == state.in_ge1:
            self.leaves.add(state.arcs_mask)
        for c in range(self.eng.dims.cols - 1, col - 1, -1):
            self._scan(state, alive, c, 0, True, limit)

    def _scan(self, state: _State, alive: int, col: int, start: int, first: bool,
              limit: int):
        # every set bit is a candidate that fits: nothing is left to test
        eng = self.eng
        below = limit - eng.offsets[col] - start  # candidates under the limit
        if below <= 0:
            return
        m = (eng.alive_in(alive, col) >> start) & ((1 << below) - 1)
        while m:
            low = m & -m
            self._place(state, alive, col, start + low.bit_length() - 1, first)
            m ^= low


def _judge(eng: _Engine, leaves: set[int], strict: bool) -> dict[str, GroundEmbedding]:
    """The connected classes among regular arc sets, one set judged per
    symmetry orbit: canonical representatives keyed by identifier text.
    Connectivity and the canonical form are the same on every member of an
    orbit, so the other members met among the leaves are skipped."""
    perms = tuple(arc_permutations(eng.dims).values())
    seen: set[int] = set()
    found: dict[str, GroundEmbedding] = {}
    for mask in sorted(leaves):
        if mask in seen:
            continue
        ids = list(_bits(mask))
        for perm in perms:
            seen.add(sum(1 << perm[aid] for aid in ids))
        e = GroundEmbedding(eng.dims, tuple(eng.t.arcs[aid] for aid in ids))
        if not (windings_span_plane(e) if strict else check_connected(e).ok):
            continue
        eid, rep = canonical_representative(e)
        found.setdefault(identifier_text(eid), rep)
    return found


def _work_items(eng: _Engine) -> list[tuple[int, int]]:
    """Partition of the tree by the first path placed: (column, cand index).
    Earlier columns are empty in that item; the all-empty embedding is not a
    solution, so the partition covers everything."""
    return [(c, i) for c in range(eng.dims.cols)
            for i in range(len(eng.columns[c]))]


def _run_item(args) -> tuple[set[int], int, bool]:
    dims, pruning, budget, col, idx = args
    runner = _ItemRunner(_engine(dims), pruning, budget)
    runner.run(col, idx)
    return runner.leaves, runner.nodes, runner.complete


def _pool_size(jobs: int, n_items: int) -> int:
    """Worker processes for a run. The pool starts all its workers at once,
    so more than the CPUs or the work items would only cost processes."""
    return max(1, min(jobs, os.cpu_count() or 1, n_items))


def enumerate_grounds(config: SearchConfig) -> SearchResult:
    """Run the full column-indexed search and return canonical solutions."""
    config.dims.validate()
    start = time.monotonic()
    eng = _engine(config.dims)
    items = _work_items(eng)
    budgets: list[Optional[int]] = [None] * len(items)
    if config.node_budget is not None and items:
        per = config.node_budget // len(items)
        extra = config.node_budget % len(items)
        budgets = [per + (1 if k < extra else 0) for k in range(len(items))]

    leaves: set[int] = set()
    nodes = 0
    complete = True
    job_args = [(config.dims, config.pruning, budgets[k], col, idx)
                for k, (col, idx) in enumerate(items)]
    workers = _pool_size(config.jobs, len(items))
    if workers == 1:
        results = map(_run_item, job_args)
        for item_leaves, n, comp in results:
            leaves |= item_leaves
            nodes += n
            complete = complete and comp
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(_run_item, job_args,
                               chunksize=max(1, len(job_args) // (workers * 8)))
            for item_leaves, n, comp in results:
                leaves |= item_leaves
                nodes += n
                complete = complete and comp

    found = _judge(eng, leaves, config.strict_connectivity)
    solutions = sorted(found.items())
    return SearchResult(
        canonical_solutions=solutions,
        count=len(solutions),
        nodes_visited=nodes,
        wall_time=time.monotonic() - start,
        complete=complete,
    )


@dataclass
class CountCell:
    count: int
    complete: bool


def count_table(max_rows: int, max_cols: int, jobs: int = 1,
                pruning: bool = True, strict: bool = True,
                node_budget: Optional[int] = None) -> list[list[CountCell]]:
    """Counts for every grid up to max_rows x max_cols. Sub-periodic patterns
    arise naturally on larger grids, so the table is accumulative."""
    table = []
    for n in range(1, max_rows + 1):
        row = []
        for m in range(1, max_cols + 1):
            result = enumerate_grounds(SearchConfig(
                TorusDims(n, m), jobs=jobs, pruning=pruning,
                strict_connectivity=strict, node_budget=node_budget))
            row.append(CountCell(result.count, result.complete))
        table.append(row)
    return table

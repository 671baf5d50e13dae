"""Backtracking enumeration of ground embeddings.

Column by column, the search adds zero, one or two lace paths (each rooted at
that column) with the mask engine of ``embedding``. Each node carries an
alive bitset: the candidates of every column that still fit its state,
exactly those ``_feasible`` accepts. A move narrows it with a few ANDs of
precomputed masks, one per arc the move adds and one per vertex it fills
(``_Engine.narrow``), so a node's children are read off its set bits
instead of testing every candidate of the column at every node. This is
the bitset form of the option lists of Knuth's Dancing Links.

Completed embeddings must be exactly 2-in/2-out on their used vertices and
connected (by default strictly: the lift to the plane is one piece). The
same arc set is reached along several branches of a work item and is
judged once. Survivors are reduced to canonical form and collected into a
dictionary keyed by canonical identifier, so duplicates met along different
branches collapse and results are independent of scheduling.

The search tree is partitioned into independent work items by the position of
the first path placed (all earlier columns empty). Items share nothing and
merge commutatively, which makes multi-process runs byte-identical to the
single-process reference run.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .canonical import _dominated, canonical_representative, identifier_text
from .embedding import (
    GroundEmbedding,
    _apply,
    _Candidate,
    _first_fault,
    _State,
    path_arcs,
    tables_for,
)
from .geometry import TorusDims
from .paths import generate_lace_paths
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
        self.offsets = []
        self.column_masks = []  # a column's part of a bitset, bit i for cand i
        total = 0
        for cands in self.columns:
            self.offsets.append(total)
            self.column_masks.append((1 << len(cands)) - 1)
            total += len(cands)
        self.all_alive = (1 << total) - 1
        self.arc_keep, self.full_keep = self._keep_masks(total)

    def _column_candidates(self, col: int) -> list[_Candidate]:
        """One candidate per distinct arc set a path lays down at the column,
        in path order, skipping sets that conflict with themselves."""
        t = self.t
        out = []
        seen: set[frozenset] = set()
        for path in generate_lace_paths(self.dims.rows):
            ids = [t.arc_id[a] for a in path_arcs(path, col, self.dims)]
            key = frozenset(ids)
            if key in seen or _first_fault(ids, t) is not None:
                continue
            seen.add(key)
            out.append(_Candidate(ids, t))
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
    def __init__(self, eng: _Engine, config: SearchConfig, budget: Optional[int]):
        self.eng = eng
        self.config = config
        self.pruning = config.pruning
        self.budget = budget if budget is not None else _BIG
        self.nodes = 0
        self.found: dict[str, GroundEmbedding] = {}
        self.judged: set[int] = set()  # arc sets of the regular leaves seen
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
        if self.pruning and _dominated(s, eng.dims.cols):
            return
        alive = eng.narrow(alive, state, s, cand)
        self._descend(s, alive, col + 1)
        if first:
            self._scan(s, alive, col, index + 1, False)

    def _descend(self, state: _State, alive: int, col: int):
        """Complete the state over the columns from ``col`` on: all of them
        unused, then a first path in the last column, and so on back to
        ``col``."""
        # degrees never exceed 2 and out-degrees equal in-degrees (see
        # _Engine), so the used vertices are 2-in/2-out exactly when every
        # vertex with an arc in has two
        if state.in_ge2 == state.in_ge1:
            self._accept(state)
        for c in range(self.eng.dims.cols - 1, col - 1, -1):
            self._scan(state, alive, c, 0, True)

    def _scan(self, state: _State, alive: int, col: int, start: int, first: bool):
        # every set bit is a candidate that fits: nothing is left to test
        m = self.eng.alive_in(alive, col) >> start
        while m:
            low = m & -m
            self._place(state, alive, col, start + low.bit_length() - 1, first)
            m ^= low

    def _accept(self, state: _State):
        # the same arc set is met along different branches of an item
        if state.arcs_mask in self.judged:
            return
        self.judged.add(state.arcs_mask)
        e = self._to_embedding(state)
        if self.config.strict_connectivity:
            if not windings_span_plane(e):
                return
        elif not check_connected(e).ok:
            return
        eid, rep = canonical_representative(e)
        self.found.setdefault(identifier_text(eid), rep)

    def _to_embedding(self, state: _State) -> GroundEmbedding:
        t = self.eng.t
        arcs = []
        mask = state.arcs_mask
        aid = 0
        while mask:
            if mask & 1:
                arcs.append(t.arcs[aid])
            mask >>= 1
            aid += 1
        return GroundEmbedding(self.eng.dims, tuple(arcs))


def _work_items(eng: _Engine) -> list[tuple[int, int]]:
    """Partition of the tree by the first path placed: (column, cand index).
    Earlier columns are empty in that item; the all-empty embedding is not a
    solution, so the partition covers everything."""
    return [(c, i) for c in range(eng.dims.cols)
            for i in range(len(eng.columns[c]))]


def _run_item(args) -> tuple[dict[str, GroundEmbedding], int, bool]:
    config, budget, col, idx = args
    runner = _ItemRunner(_engine(config.dims), config, budget)
    runner.run(col, idx)
    return runner.found, runner.nodes, runner.complete


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

    merged: dict[str, GroundEmbedding] = {}
    nodes = 0
    complete = True
    job_args = [(config, budgets[k], col, idx) for k, (col, idx) in enumerate(items)]
    workers = _pool_size(config.jobs, len(items))
    if workers == 1:
        results = map(_run_item, job_args)
        for found, n, comp in results:
            merged.update(found)
            nodes += n
            complete = complete and comp
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for found, n, comp in pool.map(_run_item, job_args,
                                           chunksize=max(1, len(job_args) // (workers * 8))):
                merged.update(found)
                nodes += n
                complete = complete and comp

    solutions = sorted(merged.items())
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

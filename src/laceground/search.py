"""Backtracking enumeration of ground embeddings.

Column by column, the search adds zero, one or two lace paths (each rooted at
that column), testing every move against the mask engine of ``embedding``.
Completed embeddings must be exactly 2-in/2-out on their used vertices and
connected (by default strictly: the lift to the plane is one piece);
survivors are reduced to canonical form and collected into a dictionary
keyed by canonical identifier, so duplicates met along different branches
collapse and results are independent of scheduling.

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
    def __init__(self, dims: TorusDims):
        self.dims = dims
        self.t = tables_for(dims)
        self.n_vertices = dims.rows * dims.cols
        self.columns = [self._column_candidates(c) for c in range(dims.cols)]

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
        self.budget = budget if budget is not None else _BIG
        self.nodes = 0
        self.found: dict[str, GroundEmbedding] = {}
        self.complete = True

    def run(self, start_col: int, first_index: int):
        try:
            self._place(_State(self.eng.n_vertices), start_col, first_index, True)
        except _Budget:
            self.complete = False

    def _place(self, state: _State, col: int, index: int, first: bool):
        """Add candidate ``index`` of column ``col``, then leave the column,
        or, after the column's first path, add a second one later in the
        column's order."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise _Budget()
        s = _apply(state, self.eng.columns[col][index])
        if self.config.pruning and _dominated(s, self.eng.dims.cols):
            return
        self._descend(s, col + 1)
        if first:
            self._scan(s, col, index + 1, False)

    def _descend(self, state: _State, col: int):
        if col == self.eng.dims.cols:
            self._accept(state)
            return
        self._descend(state, col + 1)  # column unused
        self._scan(state, col, 0, True)

    def _scan(self, state: _State, col: int, start: int, first: bool):
        # the hot loop: _feasible inlined, so a candidate costs no call
        # unless it fits
        cands = self.eng.columns[col]
        arcs, slots = state.arcs_mask, state.slots_mask
        in1, in2 = state.in_ge1, state.in_ge2
        out1, out2 = state.out_ge1, state.out_ge2
        for i in range(start, len(cands)):
            cand = cands[i]
            if (arcs & cand.blocked_mask or slots & cand.slots_mask
                    or in2 & cand.in_any or in1 & cand.in_two
                    or out2 & cand.out_any or out1 & cand.out_two):
                continue
            self._place(state, col, i, first)

    def _accept(self, state: _State):
        # degrees never exceed 2, so the used vertices are 2-in/2-out
        # exactly when every vertex with an arc has two of each
        used = state.in_ge1 | state.out_ge1
        if state.in_ge2 != used or state.out_ge2 != used:
            return
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

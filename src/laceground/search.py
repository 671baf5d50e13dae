"""Backtracking enumeration of ground embeddings.

The search adds lace paths one at a time. Its options form one flat list
of candidates, each the arcs of a path rooted at its column, laid out
index-major: column 0's candidate k sits at k * cols, directly followed by
its translates to columns 1 to cols - 1. A node is a set of
candidates, and its state is three plain values: the placed arcs as a
bitset, the vertices with at least one arc in and the vertices with two
arcs in (no degree passes 2). Out-degrees need no value of their own:
every candidate is a closed walk, so they equal the in-degrees. A node
also carries an alive bitset: the candidates its subtree may add that
still fit its state, exactly those whose arcs ``embedding._first_fault``
accepts after the state's. A move narrows it with a few ANDs of
precomputed masks, one per arc the move adds and one per vertex it fills
(``_Engine.narrow``), so a node's children are read off its set bits
instead of testing every candidate at every node. This is the bitset form
of the option lists of Knuth's Dancing Links.

A column takes at most two paths, and the masks alone keep that rule: once
two of a column's candidates are placed, none of the others fits (two
rooted paths fill the arcs into the column's row-0 vertex, a skipping
path's double step blocks that vertex, and two skipping paths share their
first arc).

A node branches on its most constrained vertex, as Dancing Links does on
the item with the fewest options. Every regular leaf below a node adds one
candidate into each vertex with one arc in, so the children are the alive
candidates into the waiting vertex with the fewest (``_Engine.fewest_into``),
and the node is cut when that vertex has none. A node with no waiting vertex
is a leaf, and its child ``j`` keeps the alive bits above ``j``, the lowest
candidate the child adds.

A node tests its children in its own loop (``_ItemRunner._branch``): each
child counts as a node, then its state, its narrowed bitset and its
waiting vertex are computed there, and only a live child costs a call. A
child is dead when a waiting vertex has no alive candidate into it: at 3x3
that is 39,157 of the 55,325 nodes.

Column 0's candidates are the arc sets of its fault-free lace paths, one
per path, built in one streaming depth-first walk over arc ids from vertex
(0, 0) (rooted paths) and, down a first double step, from vertex (n-1, 0)
as well (skipping paths). It takes the lace-step rules from ``paths`` and
cuts a branch at the first arc that ``embedding._join`` rejects, so no path
list is built and no path with a fault is completed. It takes only the
steps whose arcs do not conflict with their own periodic copies, and bounds
dx by those steps: on a one-column grid it drops the horizontal double steps
and on a one-row grid the double step, whose arcs ``_join`` rejects wherever
they stand (point (iii) of ``_Engine._column_candidates``). Each candidate
comes directly before its mirror image under the column reflection through
column 0, ``("h_reflect", 0, 0)`` in ``embedding.arc_permutations``, which
maps column 0's candidates onto themselves. The walk enters only the paths that
step only vertically or whose first sideways step goes left; a path whose
first sideways step goes right is the mirror image of one of those, so its
candidate is the walked one's arc ids mapped through that permutation, with
masks the walk grows beside the walked path's: from the first sideways step
on, each step joins the image of its arc to the image of the prefix, so the
images share the walk's prefixes as the walked paths do. Steps sort by dx
first, so of a path and its image the left-turning one comes first, and the
pairs come in the order of the whole walk. ``_Engine._column_candidates``
proves that distinct paths lay distinct arc sets, so no two candidates
coincide. Column 0's candidate k moved by ``("identity", 0, c)``, c columns
right, is candidate k * cols + c.

A work item is a pure walk of its part of the tree: it returns the arc sets
of its regular leaves, those exactly 2-in/2-out on their used vertices.
The run takes the union of those sets and judges it in the calling process
(``_judge``), one arc set per symmetry orbit: the other members, found
through the same arc-id permutations, are skipped, since connectivity and
the canonical form are the same on the whole orbit (after McKay's orderly
generation: reject each orbit once).
The set judged must be connected (by default strictly: the lift to the
plane is one piece), and survivors are reduced to canonical form and keyed
by canonical identifier, so duplicate classes collapse and results are
independent of scheduling.

The search tree is partitioned into independent work items by the first
candidate placed, its lowest. The calling process walks the items in
order; a run with more than one worker stops once the walk has cost what
starting a pool would (``_POOL_RENT`` nodes) and sends only the items left
to the pool. Items share nothing and their leaf sets and node counts merge
commutatively, which makes multi-process runs byte-identical to the
single-process reference run. The one symmetry rule of the walk breaks the
column shift and the column reflection at the root: items start only at
k * cols for the column-0 starts k (``_Engine.starts``), the first
candidate of each mirror pair and the candidates that are their own image.
An item's root keeps only the candidates above its start, so it takes, in
every column, only the translates of column-0 candidates k and later.
Faults are invariant under both moves, so a column shift or ``h_reflect``
(0, 0) maps a regular candidate set onto a regular candidate set: column
0's candidate k at column c goes to column c + d under a shift by d, and to
column -c as k's mirror image under the reflection. Of the orbit of a
regular set under these moves, take the member S whose lowest candidate
comes first in the index-major order:

- that candidate is in column 0, at some k = L, for otherwise shifting S
  so that its column becomes column 0 lowers it;
- so every candidate of S is a translate of column 0's candidate L or a
  later one, all of which the item at L * cols keeps;
- L is a start, for otherwise L is the second of its pair and the mirror
  image of S holds L - 1 in column 0, lower than S's lowest.

The item at L * cols walks every regular set whose lowest candidate is its
start, S among them, so every orbit is reached; the judge keeps one set per
orbit, so the classes are those of the whole tree.
"""

import os
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Optional

from .canonical import arc_permutations, canonical_representative, identifier_text
from .embedding import _NO_ARCS, GroundEmbedding, _Arcs, _join, tables_for
from .geometry import LACE_STEPS, TorusDims
from .paths import _lace_paths
from .validator import check_connected, windings_span_plane

_BIG = 1 << 62


@dataclass(frozen=True)
class SearchConfig:
    """Search options. Defaults give the reference semantics: strict
    connectivity (the cycle windings generate all of Z x Z, so the ground
    tiled over the plane hangs together as one piece of fabric).
    ``strict_connectivity=False`` selects the loose model, which asks only
    for one component on the torus with a cycle that wraps it; its lift may
    fall apart into separate strands. ``jobs`` is an upper bound on worker
    processes (see ``_pool_size``): the calling process walks the work items
    in order until it has visited ``_POOL_RENT`` nodes, and only the items
    left go to a pool, so a small run starts no process. ``node_budget``
    caps the nodes the whole run visits; a budgeted run walks its items in
    one process, in order, whatever ``jobs`` is, and is complete exactly
    when its tree has at most that many nodes."""

    dims: TorusDims
    jobs: int = 1
    strict_connectivity: bool = True
    node_budget: Optional[int] = None


@dataclass
class SearchResult:
    canonical_solutions: list[tuple[str, GroundEmbedding]]  # sorted by id text
    nodes_visited: int
    complete: bool

    @property
    def count(self) -> int:
        """The number of classes found."""
        return len(self.canonical_solutions)


class _Candidate:
    """A set of arcs added as one search move, made from the masks ``_join``
    gave them: its arcs and the vertices it adds at least one and two arcs
    into."""

    __slots__ = ("arc_ids", "arcs_mask", "in_any", "in_two")

    def __init__(self, arc_ids: tuple[int, ...], masks: _Arcs):
        # a closed walk: the keep masks and the search read the in side only
        assert masks.in_any == masks.out_any and masks.in_two == masks.out_two
        self.arc_ids = arc_ids
        self.arcs_mask = masks.arcs
        self.in_any, self.in_two = masks.in_any, masks.in_two


class _Engine:
    """The candidates of a grid and the masks that keep their alive bitsets.

    Bit ``k`` of an alive bitset stands for ``candidates[k]``. A move
    narrows the bitset by ANDing it with precomputed masks (``narrow``),
    each the complement of the candidates that a state with some feature
    cannot take:

    - ``arc_keep[a]``, a state holding arc ``a``: the dead candidates
      hold it, cross it or add two arcs into its head (one that shares a
      slot with it crosses it, see ``_keep_masks``);
    - ``full_keep[v]``, vertex ``v`` with two arcs in: the dead candidates
      add an arc into ``v``.

    Every candidate is a closed walk, with as many arcs out of a vertex as
    into it, so the masks read the in side only. Both are ORs of rows of
    the transposed candidates (``_keep_masks``).
    """

    def __init__(self, dims: TorusDims):
        self.dims = dims
        self.t = tables_for(dims)
        column0, self.starts = self._column_candidates()
        cols = dims.cols
        # index-major: column 0's candidate k at k * cols, then its translates
        self.candidates = [None] * (len(column0) * cols)
        self.candidates[::cols] = column0
        for c in range(1, cols):
            shift = arc_permutations(dims)["identity", 0, c]
            self.candidates[c::cols] = [self._moved(cand, shift) for cand in column0]
        del column0  # freed before the keep masks are built: a lower peak RSS
        self.all_alive = (1 << len(self.candidates)) - 1
        # per vertex: the candidates that add an arc into it
        self.arc_keep, self.into = self._keep_masks()
        self.full_keep = [self.all_alive ^ into for into in self.into]

    def _column_candidates(self) -> tuple[list[_Candidate], list[int]]:
        """Column 0's candidates, which ``__init__`` translates to the other
        columns, and the positions of those that start work items in the
        index-major layout: k * cols for column 0's candidate k.

        There is one candidate per lace path there that does not conflict
        with itself, in path order, each directly followed by its mirror
        image (the column reflection ``h_reflect`` maps column 0 onto
        itself) unless it is its own; the starts are the first of each pair
        and the candidates that are their own image.

        The paths are walked arc by arc in one walk of step sequences
        (``paths._lace_paths``), which carries two walk states down a
        sequence that begins with the double step: the rooted path's from
        (0, 0) and the skipping path's from (n-1, 0). A state is cut at the
        first arc that cannot join those before it (``_join``): every fault
        is decided by a prefix of the path, so no path with a fault is ever
        completed. It is also cut at a step with dx > 0 taken before any
        sideways step: the paths walked step only vertically or turn left
        first, and the others' candidates are the walked ones' mirror
        images, their arc ids mapped through
        ``arc_permutations(dims)["h_reflect", 0, 0]``. A state also carries
        the masks of its mirror image. Before the first sideways step they
        are the walked masks; from that step on, every step joins the
        image of its arc to them with ``_join``, which must find no fault,
        so every image arc is checked once more, against the image of the
        prefix the walk has already joined. Two facts leave nothing to look
        up:

        (i) Distinct fault-free paths lay distinct arc sets. An arc records
        its step, so it is enough that the arc set fixes the walk order.
        The set fixes the form, and the form the anchor: a skipping path
        holds the (0, 2) arc out of (n-1, 0), and a rooted path's unwrapped
        row climbs monotonically from 0 to n, so it never leaves row n-1 by
        a double step. The unwrapped rows lie in an interval of length n,
        so only the anchor's row is met at two unwrapped rows; horizontal
        steps are never adjacent, so each row takes at most one horizontal
        arc. A vertex is therefore met twice only at the anchor or across
        a horizontal self-loop (|dx| = cols), and in both cases the next
        arc is forced: the first arc must be non-horizontal or the double
        step, and the loop must come before the walk descends.

        (ii) A candidate is its own image exactly when it never steps
        sideways, when the walk carries no image masks for it. The
        reflection negates dx and fixes column 0, so it maps each arc of a
        path that has not yet stepped sideways to itself. A turned path's
        image is a different fault-free lace path, so by (i) it lays a
        different arc set, one the walk never enters; the reflection keeps
        lace steps and faults, so each of its prefixes joins without one.

        (iii) The walk takes only the steps whose arc out of vertex (0, 0)
        does not conflict with its own periodic copies: (+-2, 0) when cols
        = 1 and (0, 2) when rows = 1 meet their copies, and on every other
        grid no step is dropped. Self-conflict is invariant under
        translation (``tables_for`` sets it per step), so every arc of a
        dropped step is one ``_join`` rejects and no candidate holds one.
        ``_lace_paths`` then bounds dx by the steps left, so it also cuts
        the prefixes that only a dropped step could bring back to dx 0;
        the paths it yields are the others, in the same order.
        """
        t = self.t
        cols = self.dims.cols
        mirror = arc_permutations(self.dims)["h_reflect", 0, 0]

        # a walk's state: the vertex it stands at, its arc ids, their masks
        # and the masks of its mirror image, None until its first sideways
        # step (before it the path is its own image)
        def start(row):
            return row * cols, (), _NO_ARCS, None

        def extend(state, step):
            vid, ids, masks, image = state
            dx = step[0]
            if dx > 0 and image is None:
                return None  # a right-turning path: the image of a walked one
            aid = t.out_arc[vid][step]
            joined, fault = _join(masks, (aid,), t)
            if fault is not None:
                return None
            if dx or image is not None:
                # (ii): a symmetry keeps lace steps and faults, so the image
                # of an arc that joins the prefix joins the prefix's image
                image, fault = _join(masks if image is None else image,
                                     (mirror[aid],), t)
                assert fault is None
            return t.head_vid[aid], ids + (aid,), joined, image

        # (iii): the steps whose arcs do not conflict with their own copies
        admitted = tuple(s for s in LACE_STEPS if t.self_ok[t.out_arc[0][s]])
        out, starts = [], []
        for _, (_, ids, masks, image) in _lace_paths(self.dims.rows, extend, start,
                                                     admitted):
            starts.append(len(out) * cols)
            out.append(_Candidate(ids, masks))
            if image is not None:
                out.append(_Candidate(tuple(map(mirror.__getitem__, ids)), image))
        return out, starts

    def _moved(self, cand: _Candidate, perm: tuple[int, ...]) -> _Candidate:
        """``cand`` with its arc ids mapped through ``perm``, the entry of
        ``arc_permutations`` that moves it to another column: a symmetry
        keeps lace steps and faults, so the image joins without one."""
        ids = tuple(perm[aid] for aid in cand.arc_ids)
        masks, fault = _join(_NO_ARCS, ids, self.t)
        assert fault is None
        return _Candidate(ids, masks)

    def _keep_masks(self) -> tuple[list[int], list[int]]:
        """``arc_keep`` and ``into``, read off the transposed candidates:
        per arc, the candidates that hold it (its holder row), and per
        vertex, those that add one arc or two arcs into it. A vertex's rows
        are read off the holder rows of the arcs into it: their OR, and the
        candidates in two of them, exactly those whose ``in_two`` holds the
        vertex. A candidate is dead to arc ``a`` when it holds ``a``, holds
        an arc that crosses ``a`` (its bits in ``conflict_mask[a]``, which
        leaves ``a`` out) or adds two arcs into the head of ``a``.

        A shared slot needs no term of its own: two distinct arcs in one
        slot of a vertex both leave it along the slot's direction, so both
        pass the half-lattice point half a step out, which is not a lattice
        point and so an endpoint of neither, and ``geometry.arcs_cross``
        counts them as crossing. ``_join`` still tests slots first, so a
        shared slot is reported as one."""
        t = self.t
        # the transposed bit matrix, filled bytewise
        size = (len(self.candidates) + 7) // 8
        holder_rows = [bytearray(size) for _ in t.arcs]
        for k, cand in enumerate(self.candidates):
            byte, bit = k >> 3, 1 << (k & 7)
            for aid in cand.arc_ids:
                holder_rows[aid][byte] |= bit
        holders = [int.from_bytes(r, "little") for r in holder_rows]
        # per vertex, the holders of one arc into it and of a second one
        into = [0] * t.n_vertices
        two_into = [0] * t.n_vertices
        for aid, head in enumerate(t.head_vid):
            two_into[head] |= into[head] & holders[aid]
            into[head] |= holders[aid]
        everything = self.all_alive
        arc_keep = []
        for aid, head in enumerate(t.head_vid):
            dead = two_into[head] | holders[aid]
            for b in _bits(t.conflict_mask[aid]):
                dead |= holders[b]
            arc_keep.append(everything ^ dead)
        return arc_keep, into

    def narrow(self, alive: int, cand: _Candidate, filled: int) -> int:
        """``alive`` narrowed to the candidates that still fit once ``cand``
        is placed, a move that gives the ``filled`` vertices their second
        arc in."""
        arc_keep = self.arc_keep
        for aid in cand.arc_ids:
            alive &= arc_keep[aid]
        while filled:
            low = filled & -filled
            alive &= self.full_keep[low.bit_length() - 1]
            filled ^= low
        return alive

    def fewest_into(self, alive: int, waiting: int) -> int:
        """The alive candidates into the ``waiting`` vertex that has the
        fewest of them, ties to the lowest vertex id; zero if one of them
        has none, so never gets its second arc in."""
        into = self.into
        best, fewest = 0, _BIG
        while waiting:
            low = waiting & -waiting
            options = alive & into[low.bit_length() - 1]
            count = options.bit_count()
            if count < fewest:
                if not count:
                    return 0
                best, fewest = options, count
            waiting ^= low
        return best


def _bits(mask: int):
    """Positions of the set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def _engine(dims: TorusDims) -> _Engine:
    return _Engine(dims)


class _Budget(Exception):
    pass


class _ItemRunner:
    def __init__(self, eng: _Engine, budget: Optional[int]):
        self.eng = eng
        self.budget = budget if budget is not None else _BIG
        self.nodes = 0
        self.leaves: set[int] = set()  # arc sets of the regular leaves met
        self.complete = True

    def run(self, first: int):
        """Walk the subtree whose lowest candidate is ``first``: the one
        child ``first`` of the empty node."""
        try:
            self._branch(0, 0, 0, self.eng.all_alive, 0, 1 << first)
        except _Budget:
            self.complete = False

    def _branch(self, arcs: int, in_ge1: int, in_ge2: int, alive: int,
                waiting: int, children: int):
        """Visit the ``children`` of a live node whose state is ``arcs``,
        ``in_ge1`` and ``in_ge2``, with ``alive`` its narrowed candidates and
        ``waiting`` its vertices with one arc in.

        Each child counts as a node, then its state is computed here, and
        only a live child costs a call: one whose waiting vertices all still
        have an alive candidate into them."""
        eng = self.eng
        candidates, narrow, fewest_into = eng.candidates, eng.narrow, eng.fewest_into
        # every set bit is a candidate that fits: nothing is left to test
        while children:
            low = children & -children
            children ^= low
            if self.nodes == self.budget:
                raise _Budget()
            self.nodes += 1
            j = low.bit_length() - 1
            cand = candidates[j]
            filled = (in_ge1 & cand.in_any) | cand.in_two
            child_ge1 = in_ge1 | cand.in_any
            child_ge2 = in_ge2 | filled
            child_alive = narrow(alive if waiting else alive & -(2 << j), cand, filled)
            child_waiting = child_ge1 ^ child_ge2
            if child_waiting:
                grandchildren = fewest_into(child_alive, child_waiting)
                if not grandchildren:
                    continue  # a vertex with one arc in can never get its second
            else:
                grandchildren = child_alive
            child_arcs = arcs | cand.arcs_mask
            # degrees never exceed 2 and out-degrees equal in-degrees, so the
            # used vertices are 2-in/2-out exactly when every vertex with an
            # arc in has two
            if not child_waiting:
                self.leaves.add(child_arcs)
            if grandchildren:
                self._branch(child_arcs, child_ge1, child_ge2, child_alive,
                             child_waiting, grandchildren)


def _judge(eng: _Engine, leaves: set[int], strict: bool) -> dict[str, GroundEmbedding]:
    """The connected classes among regular arc sets, one set judged per
    symmetry orbit: canonical representatives keyed by identifier text.
    Connectivity and the canonical form are the same on every member of an
    orbit, so the other members met among the leaves are skipped."""
    # per symmetry, the bit of each arc's image; the symmetries share the
    # bit objects of one tuple
    bits = tuple(1 << aid for aid in range(len(eng.t.arcs)))
    image_bits = [tuple(map(bits.__getitem__, perm))
                  for perm in arc_permutations(eng.dims).values()]
    # the leaves no judged set's orbit holds: an orbit's images are struck
    # off here, not kept, since most of them are no leaf
    unjudged = set(leaves)
    found: dict[str, GroundEmbedding] = {}
    for mask in sorted(leaves):
        if mask not in unjudged:
            continue
        ids = list(_bits(mask))
        # a regular leaf has at least two arcs (a lone arc leaves its head
        # with one arc in), so itemgetter gives a tuple of bits, not one bit
        unjudged.difference_update(map(sum, map(itemgetter(*ids), image_bits)))
        e = GroundEmbedding(eng.dims, tuple(eng.t.arcs[aid] for aid in ids))
        if not (windings_span_plane(e) if strict else check_connected(e).ok):
            continue
        eid, rep = canonical_representative(e)
        found.setdefault(identifier_text(eid), rep)
    return found


def _run_item(args) -> tuple[set[int], int]:
    """One work item of a pool: the leaves and nodes of the subtree whose
    first candidate is ``first``. The all-empty embedding is not a solution,
    so the items started at every candidate would cover the tree."""
    dims, first = args
    runner = _ItemRunner(_engine(dims), None)
    runner.run(first)
    return runner.leaves, runner.nodes


def _pool_size(jobs: int, n_items: int) -> int:
    """Worker processes for the ``n_items`` work items left once the
    calling process has walked its share. The pool starts all its workers
    at once, so more than the CPUs this process may run on, or those items,
    would only cost processes."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, cpus, n_items))


# The nodes the walk visits in the time a two-worker pool takes to start and
# stop: 7.3 to 11.4 ms with no work, and 13 to 17 ms more than the walk it
# takes over when sent every item of 3x2 or 2x4, against 1.1 to 1.5 us a
# node for the walk at 3x3 and 2x5 (Python 3.11, 2 CPUs). A run walks its
# items in the calling process until it has visited this many nodes and
# sends only the items left to a pool, so a small run starts none and a
# large one pays at most about twice the cheaper of the two (the rent-or-buy
# rule of ski rental).
_POOL_RENT = 10_000


def enumerate_grounds(config: SearchConfig) -> SearchResult:
    """Run the full search and return canonical solutions. Raises
    ValueError for dims below 1x1 or a negative node budget."""
    config.dims.validate()
    if config.node_budget is not None and config.node_budget < 0:
        raise ValueError(f"node_budget must be >= 0, got {config.node_budget}")
    eng = _engine(config.dims)
    # items start only at the column-0 starts (see the module docstring):
    # every orbit of regular sets has a member whose lowest candidate is one
    starts = eng.starts
    # one counter caps a budgeted run: it walks every item here, in order,
    # and stops at its first _Budget
    rent = _POOL_RENT if config.node_budget is None and config.jobs > 1 else _BIG
    runner = _ItemRunner(eng, config.node_budget)
    done = workers = 0
    while done < len(starts) and runner.complete:
        if runner.nodes >= rent:
            workers = _pool_size(config.jobs, len(starts) - done)
            if workers > 1:
                break
        runner.run(starts[done])
        done += 1
    leaves, nodes, complete = runner.leaves, runner.nodes, runner.complete
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        items = [(config.dims, first) for first in starts[done:]]
        chunk = max(1, len(items) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for item_leaves, n in pool.map(_run_item, items, chunksize=chunk):
                leaves |= item_leaves
                nodes += n

    found = _judge(eng, leaves, config.strict_connectivity)
    return SearchResult(
        canonical_solutions=sorted(found.items()),
        nodes_visited=nodes,
        complete=complete,
    )


def count_table(max_rows: int, max_cols: int, jobs: int = 1, strict: bool = True,
                node_budget: Optional[int] = None) -> list[list[SearchResult]]:
    """Results for every grid up to max_rows x max_cols. Sub-periodic patterns
    arise naturally on larger grids, so the table is accumulative.
    ``node_budget`` caps each cell's run on its own."""
    table = []
    for n in range(1, max_rows + 1):
        row = []
        for m in range(1, max_cols + 1):
            row.append(enumerate_grounds(SearchConfig(
                TorusDims(n, m), jobs=jobs, strict_connectivity=strict,
                node_budget=node_budget)))
        table.append(row)
    return table

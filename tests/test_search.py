import copy
import hashlib
from functools import lru_cache
from types import SimpleNamespace

import pytest

from laceground import cli, embedding, search
from laceground.canonical import (
    arc_permutations,
    canonical_id,
    canonical_representative,
    identifier,
    identifier_text,
    solution_name,
)
from laceground.embedding import (
    MAX_PERIOD,
    GroundEmbedding,
    _first_fault,
    path_arcs,
    serialize,
    tables_for,
)
from laceground.geometry import TRANSFORMS, TorusDims
from laceground.paths import generate_lace_paths
from laceground.search import (
    SearchConfig,
    _bits,
    _check_symmetry,
    _engine,
    _ItemRunner,
    _judge,
    _pool_size,
    _run_item,
    _shift,
    count_table,
    enumerate_grounds,
)
from laceground.validator import check_connected, full_report, windings_span_plane
from oracle import (
    column_candidates_reference,
    image,
    keep_masks_reference,
    search_state,
    translates_reference,
)

# the loose model (connected on the torus only)
SMALL_COUNTS = {(1, 1): 1, (1, 2): 3, (1, 3): 5, (2, 1): 4, (3, 1): 6, (2, 2): 14}

# sha256 over "name\nfile" of every default-model solution in order (first 16
# hex digits), the number of solutions and the nodes visited; the paper does
# not publish 2x5
GOLDEN = {(2, 2): ("4ddb0d817512ba8e", 12, 90), (2, 3): ("f5837c02a18e0854", 31, 666),
          (3, 2): ("376e130448769230", 31, 2144), (1, 5): ("96d48af6994e947f", 4, 201),
          (2, 5): ("150c2f6bcce83a27", 542, 41962), (4, 1): ("b296256d01508d61", 27, 671),
          (5, 1): ("9482d02f0d298fc2", 82, 5512)}


@pytest.mark.parametrize("dims,expected", sorted(SMALL_COUNTS.items()))
def test_small_grid_counts(dims, expected):
    result = enumerate_grounds(SearchConfig(TorusDims(*dims), strict_connectivity=False))
    assert result.count == expected
    assert result.complete
    assert result.count == len(result.canonical_solutions)


def test_results_sorted_and_deterministic():
    a = enumerate_grounds(SearchConfig(TorusDims(2, 2)))
    b = enumerate_grounds(SearchConfig(TorusDims(2, 2)))
    keys = [k for k, _ in a.canonical_solutions]
    assert keys == sorted(keys)
    assert keys == [k for k, _ in b.canonical_solutions]
    assert [serialize(e) for _, e in a.canonical_solutions] == \
           [serialize(e) for _, e in b.canonical_solutions]


@pytest.mark.parametrize("jobs", [2, 3])
def test_parallel_matches_serial(jobs, pool_rents):
    serial = enumerate_grounds(SearchConfig(TorusDims(2, 2), jobs=1))
    for _ in pool_rents(TorusDims(2, 2)):
        parallel = enumerate_grounds(SearchConfig(TorusDims(2, 2), jobs=jobs))
        assert serial.canonical_solutions == parallel.canonical_solutions
        assert serial.nodes_visited == parallel.nodes_visited


def test_a_run_below_the_rent_starts_no_pool(monkeypatch):
    """5x1 walks 5,512 nodes, fewer than a pool's rent, so a run with two
    jobs walks them all in the calling process. So does a run that reaches
    the rent with one work item left: a pool of one worker saves nothing."""

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", NoPool)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
    result = enumerate_grounds(SearchConfig(TorusDims(5, 1), jobs=2))
    assert (result.count, result.nodes_visited, result.complete) == (82, 5_512, True)
    assert result.nodes_visited < search._POOL_RENT
    dims = TorusDims(2, 3)
    last_item = _run_item((dims, _engine(dims).starts[-1]))[1]
    monkeypatch.setattr(search, "_POOL_RENT", GOLDEN[2, 3][2] - last_item)
    assert _golden_key(enumerate_grounds(SearchConfig(dims, jobs=2))) == GOLDEN[2, 3]


def test_budget_flags_incomplete():
    full = enumerate_grounds(SearchConfig(TorusDims(2, 2)))
    capped = enumerate_grounds(SearchConfig(TorusDims(2, 2), node_budget=10))
    assert not capped.complete
    assert capped.count <= full.count
    # a budgeted run walks in one process, so --jobs changes nothing
    capped2 = enumerate_grounds(SearchConfig(TorusDims(2, 2), node_budget=10, jobs=2))
    assert [k for k, _ in capped.canonical_solutions] == \
           [k for k, _ in capped2.canonical_solutions]
    assert capped.nodes_visited == capped2.nodes_visited


def test_a_negative_budget_is_refused():
    """A budget below zero would never be met, so the run would walk the
    whole tree and call itself complete; a budget of zero visits nothing."""
    with pytest.raises(ValueError, match="node_budget must be >= 0, got -1"):
        enumerate_grounds(SearchConfig(TorusDims(2, 2), node_budget=-1))
    empty = enumerate_grounds(SearchConfig(TorusDims(2, 2), node_budget=0))
    assert (empty.nodes_visited, empty.complete, empty.count) == (0, False, 0)


def test_strict_connectivity_subset():
    base = enumerate_grounds(SearchConfig(TorusDims(2, 2), strict_connectivity=False))
    strict = enumerate_grounds(SearchConfig(TorusDims(2, 2), strict_connectivity=True))
    base_keys = {k for k, _ in base.canonical_solutions}
    strict_keys = {k for k, _ in strict.canonical_solutions}
    assert strict_keys <= base_keys


def test_solutions_pass_all_checks():
    for dims in [TorusDims(2, 2), TorusDims(3, 1)]:
        result = enumerate_grounds(SearchConfig(dims))
        for _, emb in result.canonical_solutions:
            assert full_report(emb).all_pass()


def test_count_table_layout():
    table = count_table(2, 2, strict=False)
    assert [[cell.count for cell in row] for row in table] == [[1, 3], [4, 14]]
    assert all(cell.complete for row in table for cell in row)


def test_reference_single_row_and_column_cells():
    """The published single-row and single-column families reproduce exactly."""
    published = {(1, 4): 4, (1, 5): 4, (4, 1): 27}
    for (rows, cols), expected in sorted(published.items()):
        assert enumerate_grounds(SearchConfig(TorusDims(rows, cols))).count == expected


# every golden grid on one process, and one of them on a pool of two
GOLDEN_RUNS = [(dims, 1) for dims in sorted(GOLDEN)] + [((2, 3), 2)]


@pytest.mark.parametrize(
    "dims,jobs", GOLDEN_RUNS,
    ids=[f"{r}x{c}" + ("" if jobs == 1 else f"-jobs{jobs}")
         for (r, c), jobs in GOLDEN_RUNS])
def test_golden_solutions(dims, jobs, pool_rents):
    """Names, files, counts and node counts of the default model, byte for
    byte; with more than one job, on a pool sent every work item and on one
    sent the items left after the calling process walked half the tree."""
    for _ in pool_rents(TorusDims(*dims)) if jobs > 1 else [None]:
        result = enumerate_grounds(SearchConfig(TorusDims(*dims), jobs=jobs))
        assert _golden_key(result) == GOLDEN[dims]


def _golden_key(result):
    digest = hashlib.sha256()
    for key, emb in result.canonical_solutions:
        # ``enumerate --out`` names each file from its key
        assert key == identifier_text(identifier(emb))
        digest.update((solution_name(key) + "\n" + serialize(emb)).encode())
    return digest.hexdigest()[:16], result.count, result.nodes_visited


@pytest.mark.parametrize("dims", sorted(GOLDEN), ids=[f"{r}x{c}" for r, c in sorted(GOLDEN)])
def test_budget_caps_the_whole_run(dims):
    """A budget of the tree's node count completes the run with the golden
    solutions; one node less stops it exactly at the budget."""
    nodes = GOLDEN[dims][2]
    exact = enumerate_grounds(SearchConfig(TorusDims(*dims), node_budget=nodes))
    assert exact.complete
    assert _golden_key(exact) == GOLDEN[dims]
    short = enumerate_grounds(SearchConfig(TorusDims(*dims), node_budget=nodes - 1))
    assert not short.complete
    assert short.nodes_visited == nodes - 1


def test_pool_size_is_bounded(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert _pool_size(100_000, 1_494) == 4
    assert _pool_size(2, 1_494) == 2
    assert _pool_size(8, 3) == 3
    assert _pool_size(1, 0) == 1
    # a process pinned to one of the machine's four CPUs
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})
    assert _pool_size(8, 100) == 1
    # a platform without an affinity call: the machine's count, maybe unknown
    monkeypatch.delattr("os.sched_getaffinity")
    assert _pool_size(8, 100) == 4
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert _pool_size(8, 100) == 1


def _leaves(dims):
    """The union of the regular leaf arc sets of the default run's work
    items, those that start at a column-0 start."""
    leaves = set()
    for first in _engine(dims).starts:
        leaves |= _run_item((dims, first))[0]
    return leaves


def _arcs_of(dims, mask):
    return tuple(tables_for(dims).arcs[aid] for aid in _bits(mask))


def test_each_orbit_judged_once_in_the_caller(monkeypatch, pool_rents):
    """Work items return arc sets and the run judges one member of each
    symmetry orbit among them, in the calling process, the same members
    whatever the number of jobs and however the items are split between
    the calling process and a pool."""
    dims = TorusDims(2, 3)
    orbits = {canonical_id(GroundEmbedding(dims, _arcs_of(dims, mask)))
              for mask in _leaves(dims)}
    judged = []
    original = search.windings_span_plane

    def record(e):
        judged.append(e.arcs)
        return original(e)

    monkeypatch.setattr(search, "windings_span_plane", record)
    runs = []

    def judged_run(jobs):
        judged.clear()
        enumerate_grounds(SearchConfig(dims, jobs=jobs))
        judged_orbits = [canonical_id(GroundEmbedding(dims, arcs)) for arcs in judged]
        assert len(set(judged_orbits)) == len(judged_orbits)
        assert set(judged_orbits) == orbits
        runs.append(set(judged))

    judged_run(1)
    for _ in pool_rents(dims):  # a real pool at jobs 2
        judged_run(2)
    assert runs[0] == runs[1] == runs[2]
    assert len(orbits) < len(_leaves(dims))  # some leaves were skipped


@pytest.mark.parametrize("dims, judged_sets, classes", [((3, 3), 289, 274), ((2, 5), 811, 542)],
                         ids=["3x3", "2x5"])
def test_judged_sets_are_the_least_of_their_orbits(dims, judged_sets, classes, monkeypatch):
    """Every arc set the run judges is the least mask of its symmetry orbit
    among the leaves, with the orbits worked out arc by arc by
    ``oracle.image`` rather than through the arc-id permutations."""
    dims = TorusDims(*dims)
    t = tables_for(dims)
    leaves = _leaves(dims)
    least, covered = set(), set()
    for mask in leaves:
        if mask in covered:
            continue
        e = GroundEmbedding(dims, _arcs_of(dims, mask))
        orbit = {sum(1 << t.arc_id[a] for a in image(e, name, dr, dc).arcs)
                 for name in TRANSFORMS for dr in range(dims.rows) for dc in range(dims.cols)}
        covered |= orbit
        least.add(min(orbit & leaves))
    judged = []
    original = search.windings_span_plane

    def record(e):
        judged.append(sum(1 << t.arc_id[a] for a in e.arcs))
        return original(e)

    monkeypatch.setattr(search, "windings_span_plane", record)
    assert enumerate_grounds(SearchConfig(dims)).count == classes
    assert len(judged) == len(set(judged)) == judged_sets
    assert set(judged) == least


def _judge_each_leaf(eng, leaves, strict):
    """The leaf judge without orbits: every regular arc set tested and
    canonicalised on its own."""
    found = {}
    for mask in leaves:
        e = GroundEmbedding(eng.dims, _arcs_of(eng.dims, mask))
        if windings_span_plane(e) if strict else check_connected(e).ok:
            eid, rep = canonical_representative(e)
            found.setdefault(identifier_text(eid), rep)
    return found


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "loose"])
@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (2, 4)], ids="{0[0]}x{0[1]}".format)
def test_orbit_judge_matches_per_leaf_judge(dims, strict):
    dims = TorusDims(*dims)
    eng = _engine(dims)
    leaves = _leaves(dims)
    got = _judge(eng, leaves, strict)
    expected = _judge_each_leaf(eng, leaves, strict)
    assert sorted(got) == sorted(expected)
    assert [serialize(got[k]) for k in sorted(got)] == \
           [serialize(expected[k]) for k in sorted(expected)]


def _walk_without_lookahead(dims):
    """The search tree as it is without the degree lookahead: from each
    column-0 start every node descends, each node's state read off its
    embedding. Returns its regular leaf arc sets and its node count."""
    eng = _engine(dims)
    t = tables_for(dims)
    leaves = set()
    nodes = 0

    def place(e, in_ge2, alive, k):
        nonlocal nodes
        nodes += 1
        cand = eng.candidates[k]
        e = GroundEmbedding(dims, e.arcs + tuple(t.arcs[aid] for aid in cand.arc_ids))
        arcs, after_ge1, after_ge2 = search_state(e)
        alive = eng.narrow(alive, cand, after_ge2 & ~in_ge2)
        if after_ge2 == after_ge1:
            leaves.add(arcs)
        for i in range(k + 1, len(eng.candidates)):
            if alive >> i & 1:
                place(e, after_ge2, alive, i)

    for k in eng.starts:
        place(GroundEmbedding(dims), 0, eng.all_alive, k)
    return leaves, nodes


# nodes of the tree without the lookahead, from the column-0 starts
TREE_WITHOUT_LOOKAHEAD = {(2, 2): 132, (2, 3): 1825, (3, 2): 3192, (1, 5): 672,
                          (4, 1): 671}


@pytest.mark.parametrize("dims", sorted(TREE_WITHOUT_LOOKAHEAD), ids="{0[0]}x{0[1]}".format)
def test_lookahead_keeps_every_regular_leaf(dims):
    """The lookahead cuts only branches without a regular leaf below."""
    leaves, nodes = _walk_without_lookahead(TorusDims(*dims))
    assert _leaves(TorusDims(*dims)) == leaves
    assert nodes == TREE_WITHOUT_LOOKAHEAD[dims]


@lru_cache(maxsize=None)
def _leaf_visits(dims):
    """The arc sets of the regular candidate sets of the whole tree, one
    entry per visit, walked on their own: every set of candidates that fit
    together, built in increasing index order with the alive bitset
    narrowed by ``eng.narrow``, with none of the search's root rule,
    branching rule or lookahead, so each set is met once."""
    eng = _engine(dims)
    visits = []

    def walk(arcs, in_ge1, in_ge2, alive):
        for j in _bits(alive):
            cand = eng.candidates[j]
            filled = (in_ge1 & cand.in_any) | cand.in_two
            child_ge1, child_ge2 = in_ge1 | cand.in_any, in_ge2 | filled
            if child_ge1 == child_ge2:
                visits.append(arcs | cand.arcs_mask)
            walk(arcs | cand.arcs_mask, child_ge1, child_ge2,
                 eng.narrow(alive & -(2 << j), cand, filled))

    walk(0, 0, 0, eng.all_alive)
    return tuple(visits)


# per grid: the regular candidate sets, their distinct arc sets (a ground may
# split into paths in several ways), the strict-connected arc sets and the
# strict classes; at 1x5 some regular sets hold smaller ones, so a leaf with
# children is on the way to other leaves
REGULAR_SETS = {(2, 2): (94, 66, 58, 12), (2, 3): (886, 484, 376, 31),
                (3, 2): (1278, 476, 460, 31), (1, 5): (242, 242, 32, 4)}


@pytest.mark.parametrize("dims", sorted(REGULAR_SETS), ids="{0[0]}x{0[1]}".format)
def test_walk_reaches_each_regular_candidate_set_once(dims):
    """The search's whole tree, every candidate starting a work item, visits
    every set of candidates whose union is regular, and none twice, as the
    reference walk does: a branching rule that skipped a completion or
    reached one through two children would change the visits."""
    dims = TorusDims(*dims)
    eng = _engine(dims)
    visits = []
    for first in range(len(eng.candidates)):
        runner = _ItemRunner(eng, None)
        runner.leaves = SimpleNamespace(add=visits.append)
        runner.run(first)
    assert sorted(visits) == sorted(_leaf_visits(dims))
    assert (len(visits), len(set(visits))) == REGULAR_SETS[dims][:2]


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "loose"])
@pytest.mark.parametrize("dims", [(1, 1), (1, 2), (1, 3), (1, 5), (2, 1), (2, 2), (2, 3),
                                  (2, 4), (3, 2), (3, 3), (2, 5)],
                         ids="{0[0]}x{0[1]}".format)
def test_column_0_run_matches_the_whole_tree(dims, strict):
    """A run, whose work items start only at the column-0 starts, gives the
    classes and files that judging every leaf of the whole tree gives."""
    dims = TorusDims(*dims)
    run = dict(enumerate_grounds(
        SearchConfig(dims, strict_connectivity=strict)).canonical_solutions)
    whole = _judge(_engine(dims), set(_leaf_visits(dims)), strict)
    assert sorted(run) == sorted(whole)
    assert [serialize(run[k]) for k in sorted(run)] == \
           [serialize(whole[k]) for k in sorted(whole)]


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (1, 5), (2, 4)],
                         ids="{0[0]}x{0[1]}".format)
def test_column_0_items_reach_a_translate_of_every_leaf(dims):
    """The root rule: the work items that start at a column-0 start reach
    only regular leaves of the whole walk, and for each of its regular
    leaves a column translate of the leaf or of its mirror image."""
    dims = TorusDims(*dims)
    rooted = _leaves(dims)
    every = set(_leaf_visits(dims))
    assert rooted <= every
    shifts = [arc_permutations(dims)[name, 0, dc]
              for name in ("identity", "h_reflect") for dc in range(dims.cols)]
    for mask in every:
        ids = list(_bits(mask))
        assert any(sum(1 << shift[aid] for aid in ids) in rooted for shift in shifts)


@pytest.mark.parametrize("dims", sorted(REGULAR_SETS), ids="{0[0]}x{0[1]}".format)
def test_regular_leaves_are_closed_under_every_symmetry(dims):
    """Every image of a regular leaf under the grid's 4 x rows x cols
    symmetries, row translations and reflections included, is a regular
    leaf, and the strict-connected leaves are exactly the orbits of the
    classes the search emits."""
    dims = TorusDims(*dims)
    leaves = set(_leaf_visits(dims))
    perms = arc_permutations(dims).values()

    def images(ids):
        return {sum(1 << perm[aid] for aid in ids) for perm in perms}

    for mask in leaves:
        assert images(list(_bits(mask))) <= leaves
    strict = [mask for mask in leaves
              if windings_span_plane(GroundEmbedding(dims, _arcs_of(dims, mask)))]
    arc_id = tables_for(dims).arc_id
    classes = enumerate_grounds(SearchConfig(dims)).canonical_solutions
    orbit_sizes = [len(images([arc_id[a] for a in e.arcs])) for _, e in classes]
    assert (len(strict), len(classes)) == REGULAR_SETS[dims][2:]
    assert sum(orbit_sizes) == len(strict)


def _columns_from_paths(dims):
    """The column candidates as arc id tuples, built the direct way: every
    lace path mapped to arcs at each column, the faulty ones dropped and the
    rest deduplicated by arc set, first kept; then, in that order, each
    candidate's mirror image through its column moved directly behind it."""
    t = tables_for(dims)
    paths = generate_lace_paths(dims.rows)
    columns = []
    for col in range(dims.cols):
        by_arcs = {}
        for path in paths:
            ids = tuple(t.arc_id[a] for a in path_arcs(path, col, dims))
            key = frozenset(ids)
            if key in by_arcs or _first_fault(ids, t) is not None:
                continue
            by_arcs[key] = ids
        # column -col after the reflection, moved back to column col
        mirror = arc_permutations(dims)["h_reflect", 0, 2 * col % dims.cols]
        out, placed = [], set()
        for key, ids in by_arcs.items():
            if key in placed:
                continue
            image = frozenset(mirror[aid] for aid in ids)
            out += [ids] if image == key else [ids, by_arcs[image]]
            placed |= {key, image}
        columns.append(out)
    return columns


COLUMN_GRIDS = [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (2, 4), (4, 1), (4, 2), (1, 8),
                (2, 5), (3, 4), (5, 1)]


@pytest.mark.parametrize("dims", COLUMN_GRIDS, ids="{0[0]}x{0[1]}".format)
def test_column_walk_matches_path_builder(dims):
    """The fault-pruned walk of column 0 and its translates give each
    column the same candidates, in the same order, as materialising every
    path at that column and pairing each with its mirror image; the
    candidates are laid out index-major, so column c's are every cols-th
    from c. The order decides which candidates start the work items and
    which later candidates a node keeps, so the node counts depend on it."""
    dims = TorusDims(*dims)
    candidates = _engine(dims).candidates
    for c, column in enumerate(_columns_from_paths(dims)):
        assert [cand.arc_ids for cand in candidates[c::dims.cols]] == column


@pytest.mark.parametrize("dims", COLUMN_GRIDS, ids="{0[0]}x{0[1]}".format)
def test_candidates_are_laid_out_index_major(dims):
    """Candidate k * cols + c is column 0's candidate k moved c columns
    right, and every work item starts in column 0, at a multiple of cols:
    so an item's root, which keeps the candidates above its start, keeps in
    every column the translates of column-0 candidates from the start on."""
    dims = TorusDims(*dims)
    eng = _engine(dims)
    cols = dims.cols
    shifts = [arc_permutations(dims)["identity", 0, c] for c in range(cols)]
    for k, cand in enumerate(eng.candidates[::cols]):
        for c, shift in enumerate(shifts):
            moved = eng.candidates[k * cols + c]
            assert moved.arc_ids == tuple(shift[aid] for aid in cand.arc_ids)
            assert moved.arcs_mask == sum(1 << shift[aid] for aid in cand.arc_ids)
    assert len(eng.candidates) % cols == 0
    assert eng.starts and all(first % cols == 0 for first in eng.starts)


@pytest.mark.parametrize("dims", COLUMN_GRIDS, ids="{0[0]}x{0[1]}".format)
def test_column_0_pairs_each_candidate_with_its_mirror(dims):
    """Column 0's candidates are closed under the column reflection, each
    one's image is itself or a neighbour, and the work items start at the
    first of each pair and at the candidates that are their own image, each
    at its index-major position k * cols."""
    dims = TorusDims(*dims)
    eng = _engine(dims)
    column0 = eng.candidates[::dims.cols]
    mirror = arc_permutations(dims)["h_reflect", 0, 0]
    index = {cand.arcs_mask: k for k, cand in enumerate(column0)}
    images = [index.get(sum(1 << mirror[aid] for aid in cand.arc_ids))
              for cand in column0]
    assert None not in images
    assert all(abs(image - k) <= 1 for k, image in enumerate(images))
    assert eng.starts == [k * dims.cols for k, image in enumerate(images)
                          if image in (k, k + 1)]


@pytest.mark.parametrize("dims", COLUMN_GRIDS, ids="{0[0]}x{0[1]}".format)
def test_column_0_candidates_are_distinct_and_self_images_never_turn(dims):
    """The two facts ``_Engine._column_candidates`` proves and builds on:
    column 0's candidates lay pairwise distinct arc sets, and a candidate is
    its own mirror image exactly when none of its arcs steps sideways."""
    dims = TorusDims(*dims)
    eng = _engine(dims)
    t = tables_for(dims)
    column0 = eng.candidates[::dims.cols]
    assert len({cand.arcs_mask for cand in column0}) == len(column0)
    mirror = arc_permutations(dims)["h_reflect", 0, 0]
    self_images = 0
    for cand in column0:
        own_image = sum(1 << mirror[aid] for aid in cand.arc_ids) == cand.arcs_mask
        assert own_image == all(t.arcs[aid].dx == 0 for aid in cand.arc_ids)
        self_images += own_image
    if dims == TorusDims(5, 1):
        assert self_images == 11


def test_column_0_walk_takes_only_left_turning_paths(monkeypatch):
    """Column 0's walk never adds a step with dx > 0 to a prefix without a
    sideways step, so every prefix it enters steps only vertically or turns
    left first. The right-turning half grows beside it without a join: at
    5x1 every ``_join`` call of the build is one of the walk's 12,295 steps
    along the six steps the one-column grid admits, all from (0, 0)
    (12,786 when the walk also carried each skipping path from (4, 0),
    31,398 along all eight steps and 62,770 when it walked every path).
    The mirror images and the skipping twins take no join, since the
    reflection and the row move are checked once on the tables (12,760
    one-arc joins when each image grew by joining, and 5,501
    whole-candidate joins of 43,580 arcs when each was joined from
    scratch)."""
    dims = TorusDims(5, 1)
    t = tables_for(dims)
    sideways = sum(1 << aid for aid, arc in enumerate(t.arcs) if arc.dx)
    steps = 0
    join = search._join

    def counting_join(p, arc_ids, tables, *rest):
        nonlocal steps
        steps += 1
        (aid,) = arc_ids
        assert t.arcs[aid].dx <= 0 or p.arcs & sideways
        return join(p, arc_ids, tables, *rest)

    monkeypatch.setattr(search, "_join", counting_join)
    eng = search._Engine(dims)  # not the cached engine: the build must run
    assert steps == 12295
    assert len(eng.candidates) == 11013  # 5,501 pairs and 11 self-images


@pytest.mark.parametrize("dims", COLUMN_GRIDS + [(6, 1)], ids="{0[0]}x{0[1]}".format)
def test_column_0_images_match_those_joined_from_scratch(dims):
    """Column 0's candidates, whose mirror images' masks the walk grows
    beside the walked paths', equal in order, arc ids and masks those of
    the build that joins each image from scratch once its path is
    complete, and the work items start at the same candidates."""
    dims = TorusDims(*dims)
    eng = _engine(dims)
    expected, starts = column_candidates_reference(dims)
    assert [(cand.arc_ids, cand.arcs_mask, cand.in_any, cand.in_two)
            for cand in eng.candidates[::dims.cols]] == expected
    assert eng.starts == starts


@pytest.mark.parametrize("dims", COLUMN_GRIDS + [(4, 3)], ids="{0[0]}x{0[1]}".format)
def test_translates_match_those_joined_from_scratch(dims):
    """The column translates, whose masks are column 0's rotated within
    each row's block of bits, equal in order, arc ids and masks those
    joined from scratch."""
    dims = TorusDims(*dims)
    assert [(cand.arc_ids, cand.arcs_mask, cand.in_any, cand.in_two)
            for cand in _engine(dims).candidates] == translates_reference(dims)


def _generators(dims):
    """The column reflection through column 0, with no movers, the unit
    column shift (the identity on one column) and the row move that takes
    row 0 to the last row (the identity on one row), each with its bitset
    movers."""
    perms = arc_permutations(dims)
    last = dims.rows - 1
    return [(perms["h_reflect", 0, 0], ()),
            (perms["identity", 0, 1 % dims.cols], _shift(dims, 0, 1)),
            (perms["identity", last, 0], _shift(dims, last, 0))]


def test_symmetry_check_passes_on_every_grid():
    """On every grid from 1x1 to 8x8 the generators carry the tables
    ``_join`` reads onto themselves, and the shift's and the row move's
    movers move each bit as their permutations do."""
    for rows in range(1, MAX_PERIOD + 1):
        for cols in range(1, MAX_PERIOD + 1):
            dims = TorusDims(rows, cols)
            for perm, movers in _generators(dims):
                _check_symmetry(tables_for(dims), perm, *movers)


def _broken(part):
    """A copy of the 3x3 tables and the generators' movers with one fault
    in ``part``, on arcs every generator moves: arc ``a`` leaves vertex
    (1, 1) by (-1, 1) and ``b`` leaves it by (0, 1)."""
    dims = TorusDims(3, 3)
    t = copy.copy(tables_for(dims))
    a, b = (t.out_arc[4][step] for step in ((-1, 1), (0, 1)))
    generators = _generators(dims)
    if part == "conflict_mask":
        t.conflict_mask = list(t.conflict_mask)
        low = t.conflict_mask[a] & -t.conflict_mask[a]
        t.conflict_mask[a] ^= low
    elif part == "self_ok":
        t.self_ok = list(t.self_ok)
        t.self_ok[a] = not t.self_ok[a]
    elif part == "label entry":
        # a and b trade their origin entries, each keeping its length
        t.ends, t.slot_mask = list(t.ends), list(t.slot_mask)
        ((ea, la), head_a), ((eb, lb), head_b) = t.ends[a], t.ends[b]
        t.ends[a], t.ends[b] = ((eb, la), head_a), ((ea, lb), head_b)
        for aid in a, b:
            t.slot_mask[aid] = sum(1 << entry for entry, _ in t.ends[aid])
    elif part == "row mover":
        # moves row 0 one row too far: to row 0 on three rows
        perm, _ = generators[2]
        return t, [(perm, _shift(dims, 3, 0))]
    else:
        perm, (move_arcs, move_vertices) = generators[1]
        if part == "arc mover":
            movers = (lambda mask: move_arcs(mask) ^ (mask >> a & 1) << 7), move_vertices
        else:
            movers = move_arcs, _shift(dims, 0, 2)[1]
        return t, [(perm, movers)]
    return t, generators


@pytest.mark.parametrize("part", ["conflict_mask", "self_ok", "label entry",
                                  "arc mover", "vertex mover", "row mover"])
def test_symmetry_check_rejects_broken_tables(part):
    """The check raises on tables with one ``conflict_mask`` bit dropped,
    one ``self_ok`` flipped or two arcs' label entries swapped, under each
    generator, on a shift mover off on one bit or by one place, and on a
    row mover off by one row."""
    t, generators = _broken(part)
    for perm, movers in generators:
        with pytest.raises(AssertionError):
            _check_symmetry(t, perm, *movers)


def test_engine_checks_the_reflection_and_the_unit_shift(monkeypatch):
    """An engine's build checks the three moves its images, skipping twins
    and translates are made by, the row move and the shift with the movers
    that move their masks, and refuses tables one of them does not keep."""
    dims = TorusDims(3, 3)
    checked = []
    check = search._check_symmetry

    def recording(t, perm, *movers):
        checked.append((perm, [m(1 << 5) for m in movers]))
        check(t, perm, *movers)

    monkeypatch.setattr(search, "_check_symmetry", recording)
    search._Engine(dims)
    (mirror, _), shift, row_move = _generators(dims)
    assert checked == [(perm, [m(1 << 5) for m in movers])
                       for perm, movers in ((mirror, ()), row_move, shift)]
    broken, _ = _broken("conflict_mask")
    monkeypatch.setattr(search, "tables_for", lambda dims: broken)
    with pytest.raises(AssertionError):
        search._Engine(dims)


# sha256 over each engine's candidates (arc ids, arcs_mask, in_any,
# in_two), starts, arc_keep, into and full_keep (first 16 hex digits), as
# built when each mirror image was joined from scratch and each vertex row
# read candidate by candidate
ENGINE_DIGESTS = {(5, 1): "b949c3a38ce52c78", (6, 1): "a55869c4583b688a",
                  (3, 3): "7a8eaa3ae86ccf96", (2, 4): "ec4411ee5b57e1d9",
                  (4, 2): "5a1a1a8a74daad70", (1, 8): "893dd21261fac653",
                  (2, 5): "e51113fda6b9f62b", (4, 3): "05dff48d8628631e"}


def _engine_digest(eng) -> str:
    """``ENGINE_DIGESTS``' hash of an engine. Each int goes in as its
    little-endian bytes after their length, and each sequence after its
    length: ``repr`` of a 4x3 mask exceeds the int-to-text digit limit."""
    h = hashlib.sha256()

    def ints(values):
        values = list(values)
        h.update(len(values).to_bytes(8, "little"))
        for x in values:
            b = x.to_bytes((x.bit_length() + 7) // 8, "little")
            h.update(len(b).to_bytes(8, "little") + b)

    for cand in eng.candidates:
        ints(cand.arc_ids)
        ints((cand.arcs_mask, cand.in_any, cand.in_two))
    for table in (eng.starts, eng.arc_keep, eng.into, eng.full_keep):
        ints(table)
    return h.hexdigest()[:16]


@pytest.mark.parametrize("dims", sorted(ENGINE_DIGESTS), ids="{0[0]}x{0[1]}".format)
def test_engines_match_their_golden_digests(dims):
    """Every engine is built byte for byte as before: its candidates,
    starts and keep masks hash to the pinned digest."""
    assert _engine_digest(_engine(TorusDims(*dims))) == ENGINE_DIGESTS[dims]


@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (1, 5), (5, 1)], ids="{0[0]}x{0[1]}".format)
def test_keep_masks_match_candidate_by_candidate(dims):
    """The keep masks read off the transposed candidates equal those
    gathered candidate by candidate."""
    eng = _engine(TorusDims(*dims))
    assert (eng.arc_keep, eng.full_keep) == keep_masks_reference(eng)


def test_arcs_that_share_a_slot_cross():
    """The keep masks leave shared slots to the crossing masks: on every
    grid from 1x1 to 8x8, two distinct arcs in one label entry (``ends``)
    are in each other's ``conflict_mask``."""
    for rows in range(1, MAX_PERIOD + 1):
        for cols in range(1, MAX_PERIOD + 1):
            t = tables_for(TorusDims(rows, cols))
            in_entry = {}
            for aid, ends in enumerate(t.ends):
                for entry, _ in ends:
                    in_entry[entry] = in_entry.get(entry, 0) | 1 << aid
            for aid, ends in enumerate(t.ends):
                for entry, _ in ends:
                    sharers = in_entry[entry] & ~(1 << aid)
                    assert sharers & ~t.conflict_mask[aid] == 0, (rows, cols, aid, entry)


def test_traced_layers_are_looked_up_by_name():
    """``perfbench/tracing.py`` times the layers by wrapping these names
    where their callers look them up; a refactor that imports them another
    way would leave its per-layer metrics at zero."""
    for module, names in ((search, ("tables_for", "windings_span_plane",
                                    "canonical_representative")),
                          (embedding, ("arcs_cross",)),
                          (cli, ("enumerate_grounds", "full_report", "render_svg",
                                 "canonical_representative", "serialize",
                                 "deserialize", "to_braid_word", "main"))):
        for name in names:
            assert callable(getattr(module, name, None)), (module.__name__, name)

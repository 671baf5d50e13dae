import hashlib

import pytest

from laceground import search
from laceground.canonical import (
    _dominated,
    canonical_id,
    canonical_representative,
    identifier,
    identifier_text,
    solution_name,
)
from laceground.embedding import (
    GroundEmbedding,
    _apply,
    _first_fault,
    _State,
    path_arcs,
    serialize,
    tables_for,
)
from laceground.geometry import TorusDims
from laceground.paths import generate_lace_paths
from laceground.search import (
    SearchConfig,
    _bits,
    _engine,
    _judge,
    _pool_size,
    _run_item,
    _work_items,
    count_table,
    enumerate_grounds,
)
from laceground.validator import check_connected, full_report, windings_span_plane

# the loose model (connected on the torus only)
SMALL_COUNTS = {(1, 1): 1, (1, 2): 3, (1, 3): 5, (2, 1): 4, (3, 1): 6, (2, 2): 14}

# sha256 over "name\nfile" of every default-model solution in order (first 16
# hex digits), and the nodes visited
GOLDEN = {(2, 2): ("4ddb0d817512ba8e", 392), (2, 3): ("f5837c02a18e0854", 4704),
          (3, 2): ("376e130448769230", 10634), (1, 5): ("96d48af6994e947f", 503)}


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
def test_parallel_matches_serial(jobs):
    serial = enumerate_grounds(SearchConfig(TorusDims(2, 2), jobs=1))
    parallel = enumerate_grounds(SearchConfig(TorusDims(2, 2), jobs=jobs))
    assert serial.canonical_solutions == parallel.canonical_solutions
    assert serial.nodes_visited == parallel.nodes_visited


def test_budget_flags_incomplete():
    full = enumerate_grounds(SearchConfig(TorusDims(2, 2)))
    capped = enumerate_grounds(SearchConfig(TorusDims(2, 2), node_budget=10))
    assert not capped.complete
    assert capped.count <= full.count
    # and the budget split is scheduling-independent
    capped2 = enumerate_grounds(SearchConfig(TorusDims(2, 2), node_budget=10, jobs=2))
    assert [k for k, _ in capped.canonical_solutions] == \
           [k for k, _ in capped2.canonical_solutions]


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
def test_golden_solutions(dims, jobs):
    """Names, files and node counts of the default model, byte for byte."""
    result = enumerate_grounds(SearchConfig(TorusDims(*dims), jobs=jobs))
    digest = hashlib.sha256()
    for _, emb in result.canonical_solutions:
        digest.update((solution_name(identifier(emb)) + "\n" + serialize(emb)).encode())
    assert (digest.hexdigest()[:16], result.nodes_visited) == GOLDEN[dims]


def test_pool_size_is_bounded(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert _pool_size(100_000, 1_494) == 4
    assert _pool_size(2, 1_494) == 2
    assert _pool_size(8, 3) == 3
    assert _pool_size(1, 0) == 1
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert _pool_size(8, 100) == 1


def _leaves(dims):
    """The union of the work items' regular leaf arc sets."""
    leaves = set()
    for col, idx in _work_items(_engine(dims)):
        leaves |= _run_item((dims, True, None, col, idx))[0]
    return leaves


def _arcs_of(dims, mask):
    return tuple(tables_for(dims).arcs[aid] for aid in _bits(mask))


def test_each_orbit_judged_once_in_the_caller(monkeypatch):
    """Work items return arc sets and the run judges one member of each
    symmetry orbit among them, in the calling process, the same members
    whatever the number of jobs."""
    dims = TorusDims(2, 3)
    orbits = {canonical_id(GroundEmbedding(dims, _arcs_of(dims, mask)))
              for mask in _leaves(dims)}
    judged = []
    original = search.windings_span_plane

    def record(e):
        judged.append(e.arcs)
        return original(e)

    monkeypatch.setattr(search, "windings_span_plane", record)
    monkeypatch.setattr("os.cpu_count", lambda: 2)  # a real pool at jobs 2
    runs = []
    for jobs in (1, 2):
        judged.clear()
        enumerate_grounds(SearchConfig(dims, jobs=jobs))
        judged_orbits = [canonical_id(GroundEmbedding(dims, arcs)) for arcs in judged]
        assert len(set(judged_orbits)) == len(judged_orbits)
        assert set(judged_orbits) == orbits
        runs.append(set(judged))
    assert runs[0] == runs[1]
    assert len(orbits) < len(_leaves(dims))  # some leaves were skipped


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
    """The search tree as it is without the degree lookahead: every
    undominated node descends. Returns its regular leaf arc sets and its
    node count."""
    eng = _engine(dims)
    leaves = set()
    nodes = 0

    def place(state, alive, col, index, first):
        nonlocal nodes
        nodes += 1
        cand = eng.columns[col][index]
        s = _apply(state, cand)
        if _dominated(s, dims.cols):
            return
        alive = eng.narrow(alive, state, s, cand)
        if s.in_ge2 == s.in_ge1:
            leaves.add(s.arcs_mask)
        for c in range(dims.cols - 1, col, -1):
            scan(s, alive, c, 0, True)
        if first:
            scan(s, alive, col, index + 1, False)

    def scan(state, alive, col, start, first):
        for i in range(start, len(eng.columns[col])):
            if eng.alive_in(alive, col) >> i & 1:
                place(state, alive, col, i, first)

    for col, idx in _work_items(eng):
        place(_State(dims.cols), eng.all_alive, col, idx, True)
    return leaves, nodes


# nodes of the tree without the lookahead, as the search visited them before
# it had one
TREE_WITHOUT_LOOKAHEAD = {(2, 2): 439, (2, 3): 7710, (3, 2): 11753, (1, 5): 1930,
                          (4, 1): 1335}


@pytest.mark.parametrize("dims", sorted(TREE_WITHOUT_LOOKAHEAD), ids="{0[0]}x{0[1]}".format)
def test_lookahead_keeps_every_regular_leaf(dims):
    """The lookahead cuts only branches without a regular leaf below."""
    leaves, nodes = _walk_without_lookahead(TorusDims(*dims))
    assert _leaves(TorusDims(*dims)) == leaves
    assert nodes == TREE_WITHOUT_LOOKAHEAD[dims]


def _columns_from_paths(dims):
    """The column candidates as arc id tuples, built the direct way: every
    lace path mapped to arcs at each column, the faulty ones dropped and the
    rest deduplicated by arc set, first kept."""
    t = tables_for(dims)
    paths = generate_lace_paths(dims.rows)
    columns = []
    for col in range(dims.cols):
        out, seen = [], set()
        for path in paths:
            ids = tuple(t.arc_id[a] for a in path_arcs(path, col, dims))
            key = frozenset(ids)
            if key in seen or _first_fault(ids, t) is not None:
                continue
            seen.add(key)
            out.append(ids)
        columns.append(out)
    return columns


@pytest.mark.parametrize("dims", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (2, 4),
                                  (4, 1), (4, 2), (1, 8)], ids="{0[0]}x{0[1]}".format)
def test_column_walk_matches_path_builder(dims):
    """The fault-pruned walk gives the same candidates, in the same order, as
    materialising every path; the order decides which second paths a
    dominated node skips, so the node counts depend on it."""
    dims = TorusDims(*dims)
    got = [[c.arc_ids for c in column] for column in _engine(dims).columns]
    assert got == _columns_from_paths(dims)

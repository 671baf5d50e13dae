import hashlib

import pytest

from laceground.canonical import identifier, solution_name
from laceground.embedding import serialize
from laceground.geometry import TorusDims
from laceground.search import SearchConfig, _pool_size, count_table, enumerate_grounds
from laceground.validator import full_report

# the loose model (connected on the torus only)
SMALL_COUNTS = {(1, 1): 1, (1, 2): 3, (1, 3): 5, (2, 1): 4, (3, 1): 6, (2, 2): 14}

# sha256 over "name\nfile" of every default-model solution in order (first 16
# hex digits), and the nodes visited
GOLDEN = {(2, 2): ("4ddb0d817512ba8e", 439), (2, 3): ("f5837c02a18e0854", 7710),
          (3, 2): ("376e130448769230", 11753), (1, 5): ("96d48af6994e947f", 1930)}


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

import sys
from concurrent import futures
from pathlib import Path

import pytest

# allow running the suite from a fresh checkout without installing
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def pooled(monkeypatch):
    """The number of work items sent to each process pool the test starts,
    with this process free to run on two CPUs."""
    sent = []

    class Recorded(futures.ProcessPoolExecutor):
        def map(self, fn, items, chunksize=1):
            sent.append(len(items))
            return super().map(fn, items, chunksize=chunksize)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", Recorded)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return sent


@pytest.fixture
def pool_rents(monkeypatch, pooled):
    """``pool_rents(dims)`` sets ``search._POOL_RENT`` twice for the runs on
    ``dims`` with more than one job that the loop body makes: at 0, so that
    every work item goes to a pool, and at half the tree's nodes, so that
    the calling process walks the first items and the pool the rest. After
    each pass it checks that those runs sent their pools those items."""
    from laceground import search

    def rents(dims):
        n_items = len(search._engine(dims).starts)
        nodes = search.enumerate_grounds(search.SearchConfig(dims)).nodes_visited
        for rent in (0, nodes // 2):
            monkeypatch.setattr(search, "_POOL_RENT", rent)
            pooled.clear()
            yield rent
            assert pooled
            assert all(k == n_items if rent == 0 else 1 < k < n_items for k in pooled)

    return rents

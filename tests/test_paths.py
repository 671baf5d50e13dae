import itertools

import pytest

from laceground.geometry import LACE_STEPS
from laceground.paths import (
    LacePath,
    count_lace_paths,
    format_path,
    generate_lace_paths,
    is_valid_lace_path,
)

PUBLISHED_COUNTS = {1: 3, 2: 39, 3: 498, 4: 6667, 5: 91833}


@pytest.mark.parametrize("n,expected", sorted(PUBLISHED_COUNTS.items()))
def test_published_counts(n, expected):
    assert count_lace_paths(n) == expected


def test_counting_builds_no_path_list(monkeypatch, capsys):
    """Counting walks the paths without listing them, in the library and
    in ``paths`` without ``--list``."""
    from laceground import cli, paths

    def refuse(n):
        raise AssertionError(f"listed the paths of height {n}")

    monkeypatch.setattr(paths, "generate_lace_paths", refuse)
    monkeypatch.setattr(cli, "generate_lace_paths", refuse)
    assert {n: count_lace_paths(n) for n in PUBLISHED_COUNTS} == PUBLISHED_COUNTS
    assert cli.main(["paths", "--height", "4"]) == 0
    assert capsys.readouterr().out == "6667\n"


def test_height_one_contents():
    paths = generate_lace_paths(1)
    assert LacePath(((0, 1),), False) in paths
    assert all(not p.skipping for p in paths)


def test_invalid_height():
    with pytest.raises(ValueError):
        generate_lace_paths(0)


def test_validation_examples():
    assert is_valid_lace_path([(0, 1)], 1)
    assert not is_valid_lace_path([(2, 0), (-2, 0), (0, 1)], 1)
    assert not is_valid_lace_path([(1, 1)], 1)   # net column displacement
    with pytest.raises(ValueError):
        is_valid_lace_path([(3, 0)], 1)


def test_generated_invariants():
    for n in (1, 2, 3):
        seen = set()
        for path in generate_lace_paths(n):
            assert path not in seen
            seen.add(path)
            steps = path.steps
            assert sum(dy for _, dy in steps) == n
            assert sum(dx for dx, _ in steps) == 0
            assert all(s in LACE_STEPS for s in steps)
            # no adjacent horizontals, including the wrap-around pair
            assert all(not (a[1] == 0 and b[1] == 0)
                       for a, b in zip(steps, steps[1:]))
            assert steps[0][1] >= 1
            assert not (steps[-1][1] == 0 and steps[0][1] == 0)
            assert len(steps) <= 2 * n
            if path.skipping:
                assert steps[0] == (0, 2)
            assert is_valid_lace_path(steps, n, skipping=path.skipping)


def test_deterministic_order():
    for n in (1, 2, 3):
        a = generate_lace_paths(n)
        b = generate_lace_paths(n)
        assert a == b
        assert a == sorted(a, key=lambda p: (p.steps, p.skipping))


def _brute_force_count(n):
    """Enumerate all step sequences up to the length bound and filter by the
    validity predicate, counting each attachment form separately."""
    total = 0
    for length in range(1, 2 * n + 1):
        for steps in itertools.product(LACE_STEPS, repeat=length):
            if sum(dy for _, dy in steps) != n:
                continue
            if is_valid_lace_path(steps, n):
                total += 1
            if n >= 2 and is_valid_lace_path(steps, n, skipping=True):
                total += 1
    return total


@pytest.mark.parametrize("n", [1, 2, 3])
def test_against_brute_force(n):
    assert count_lace_paths(n) == _brute_force_count(n)


def test_format_path():
    assert format_path(LacePath(((0, 1),), False)) == "(0,1)"
    assert format_path(LacePath(((0, 2), (1, 0)), True)) == "(0,2),(1,0) skip"

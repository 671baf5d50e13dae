import itertools

import pytest

from laceground.geometry import LACE_STEPS
from laceground.paths import (
    SKIP_STEP,
    LacePath,
    _lace_paths,
    count_lace_paths,
    format_path,
    generate_lace_paths,
)
from oracle import is_valid_lace_path

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


def _brute_force_paths(n):
    """Every (steps, skipping) pair that the validity predicate accepts, from
    all step sequences up to the length bound, each attachment form on its
    own, lexicographic by steps, rooted first."""
    found = []
    for length in range(1, 2 * n + 1):
        for steps in itertools.product(LACE_STEPS, repeat=length):
            if sum(dy for _, dy in steps) != n:
                continue
            for skipping in (False, True):
                if is_valid_lace_path(steps, n, skipping=skipping):
                    found.append((steps, skipping))
    return sorted(found)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_against_brute_force(n):
    """The walk gives the oracle's paths, in the oracle's order."""
    expected = _brute_force_paths(n)
    assert [(p.steps, p.skipping) for p in generate_lace_paths(n)] == expected
    assert count_lace_paths(n) == len(expected)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_skipping_paths_follow_their_rooted_twins(n):
    """A skipping path's steps are a rooted path's that begin with the
    double step: each comes directly after that rooted twin, and every
    rooted path that begins with it has one."""
    paths = generate_lace_paths(n)
    for k, path in enumerate(paths):
        if path.skipping:
            assert path.steps[0] == SKIP_STEP
            assert paths[k - 1] == LacePath(path.steps, False)
        elif path.steps[0] == SKIP_STEP:
            assert paths[k + 1] == LacePath(path.steps, True)


def test_format_path():
    assert format_path(LacePath(((0, 1),), False)) == "(0,1)"
    assert format_path(LacePath(((0, 2), (1, 0)), True)) == "(0,2),(1,0) skip"


def _rooted_within(steps, paths):
    return [p.steps for p in paths if not p.skipping and set(p.steps) <= set(steps)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_step_subset_walks_the_paths_within_it(n):
    """For every subset of the steps, the walk along it yields exactly the
    steps of the rooted paths whose steps all lie in it, in the same order:
    its bound on dx, derived from the steps it takes, cuts no path that
    could return to dx 0."""
    paths = generate_lace_paths(n)
    for size in range(len(LACE_STEPS) + 1):
        for steps in itertools.combinations(LACE_STEPS, size):
            walked = [p for p, _ in _lace_paths(n, steps=steps)]
            assert walked == _rooted_within(steps, paths), steps


@pytest.mark.parametrize("dropped,count", [(((-2, 0), (2, 0)), 10582), ((SKIP_STEP,), 81223)],
                         ids=["one-column", "one-row"])
def test_the_steps_a_grid_admits_at_height_five(dropped, count):
    """The step sets the column walk takes on a one-column grid (no
    horizontal double step) and a one-row grid (no double step)."""
    steps = tuple(s for s in LACE_STEPS if s not in dropped)
    walked = [p for p, _ in _lace_paths(5, steps=steps)]
    assert len(walked) == count
    assert walked == _rooted_within(steps, generate_lace_paths(5))

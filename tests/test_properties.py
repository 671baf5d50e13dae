"""Property-based tests of the value API and the search engine over random
partial embeddings."""

from hypothesis import example, given, settings, strategies as st

from laceground.canonical import (
    _SOURCE_SLOT,
    TRANSFORMS,
    _dominated,
    arc_permutations,
    canonical_representative,
    identifier,
    label_grid,
    transform,
    translate,
)
from laceground.embedding import (
    ZETA_ALPHABET,
    GroundEmbedding,
    _apply,
    _Candidate,
    _feasible,
    _State,
    _state_of,
    add_path,
    deserialize,
    new_embedding,
    path_arcs,
    serialize,
    tables_for,
)
from laceground.geometry import Arc, TorusDims
from laceground.paths import generate_lace_paths
from laceground.search import SearchConfig, _engine, enumerate_grounds
from laceground.validator import full_report

dims_2d = st.builds(TorusDims, st.integers(1, 3), st.integers(1, 3))


@st.composite
def partial_embeddings(draw):
    """An embedding built by adding random paths, skipping rejected ones."""
    dims = draw(dims_2d)
    paths = generate_lace_paths(dims.rows)
    e = new_embedding(dims)
    for _ in range(draw(st.integers(0, 4))):
        nxt, _ = add_path(e, draw(st.sampled_from(paths)),
                          draw(st.integers(0, dims.cols - 1)))
        e = nxt or e
    return e


@settings(max_examples=60, deadline=None)
@given(partial_embeddings())
def test_canonical_form_is_orbit_invariant(e):
    eid, rep = canonical_representative(e)
    assert identifier(rep) == eid
    for name in TRANSFORMS:
        moved = transform(e, name)
        for dr in range(e.dims.rows):
            for dc in range(e.dims.cols):
                assert canonical_representative(translate(moved, dr, dc))[0] == eid


@settings(max_examples=60, deadline=None)
@given(partial_embeddings(), st.data())
def test_add_path_never_mutates_its_input(e, data):
    before = (serialize(e), hash(e))
    copy = GroundEmbedding(e.dims, e.arcs, e.zeta)
    path = data.draw(st.sampled_from(generate_lace_paths(e.dims.rows)))
    nxt, rejection = add_path(e, path, data.draw(st.integers(0, e.dims.cols - 1)))
    assert (nxt is None) != (rejection is None)
    assert e == copy
    assert (serialize(e), hash(e)) == before
    if nxt is not None:
        assert set(e.arcs) < set(nxt.arcs)


@settings(max_examples=60, deadline=None)
@given(dims_2d, st.data())
def test_alive_bitsets_are_the_feasible_candidates(dims, data):
    """The search's alive bitset, narrowed move by move, holds exactly the
    candidates ``_feasible`` accepts, in every column and after every move."""
    eng = _engine(dims)
    t = tables_for(dims)
    paths = generate_lace_paths(dims.rows)
    e = new_embedding(dims)
    state, alive = _State(dims.cols), eng.all_alive
    for _ in range(data.draw(st.integers(0, 5))):
        path = data.draw(st.sampled_from(paths))
        col = data.draw(st.integers(0, dims.cols - 1))
        nxt, _ = add_path(e, path, col)
        if nxt is None:
            continue
        e = nxt
        cand = _Candidate([t.arc_id[a] for a in path_arcs(path, col, dims)], t)
        after = _apply(state, cand)
        state, alive = after, eng.narrow(alive, state, after, cand)
        for c, cands in enumerate(eng.columns):
            expected = sum(1 << i for i, x in enumerate(cands) if _feasible(state, x))
            assert eng.alive_in(alive, c) == expected
    # the moves made one by one give the state of the embedding as a whole
    whole = _state_of(e)
    assert [getattr(state, k) for k in _State.__slots__] == \
           [getattr(whole, k) for k in _State.__slots__]


def _dominated_by_labels(e: GroundEmbedding) -> bool:
    """``_dominated`` as its docstring states it, read off the label grid:
    a row-0 witness under the identity (column >= 1) or h_reflect whose
    label is smaller than the origin's in the entries decided at both."""
    grid = label_grid(e)
    degree = {}
    for a in e.arcs:
        degree.setdefault((a.row, a.col), [0, 0])[1] += 1
        degree.setdefault(a.head(e.dims), [0, 0])[0] += 1

    def decided(c, slot):
        return grid[0][c][slot] != 0 or degree.get((0, c)) == [2, 2]

    for name in ("identity", "h_reflect"):
        src = _SOURCE_SLOT[name]
        for c in range(e.dims.cols):
            if name == "identity" and c == 0:
                continue
            for i in range(8):
                if not (decided(c, src[i]) and decided(0, i)):
                    break
                if grid[0][c][src[i]] != grid[0][0][i]:
                    if grid[0][c][src[i]] < grid[0][0][i]:
                        return True
                    break
    return False


@settings(max_examples=200, deadline=None)
@given(partial_embeddings())
def test_domination_reads_the_decided_label_entries(e):
    assert _dominated(_state_of(e), e.dims.cols) == _dominated_by_labels(e)


zeta_strings = st.text(alphabet=sorted(ZETA_ALPHABET), min_size=1, max_size=6)


@st.composite
def annotated_embeddings(draw):
    """A partial embedding with action strings on some of its vertices."""
    e = draw(partial_embeddings())
    vertices = [(r, c) for r in range(e.dims.rows) for c in range(e.dims.cols)]
    zeta = draw(st.dictionaries(st.sampled_from(vertices), zeta_strings))
    return GroundEmbedding(e.dims, e.arcs, tuple(zeta.items()))


@settings(max_examples=60, deadline=None)
@given(annotated_embeddings())
def test_serialize_round_trip(e):
    text = serialize(e)
    assert deserialize(text) == e
    assert serialize(deserialize(text)) == text


# 2x2 grounds of the loose model: they pass every gating check, and some
# fail strict connectivity
SOLUTIONS_2x2 = [emb for _, emb in enumerate_grounds(
    SearchConfig(TorusDims(2, 2), strict_connectivity=False)).canonical_solutions]


@st.composite
def arc_subsets(draw):
    """Any set of arcs of a grid: crossings, shared slots and wrong degrees."""
    dims = draw(dims_2d)
    arcs = draw(st.sets(st.sampled_from(tables_for(dims).arcs), max_size=10))
    return GroundEmbedding(dims, tuple(arcs))


@settings(max_examples=60, deadline=None)
@given(arc_subsets())
def test_arc_permutations_are_the_symmetries(e):
    """Arc-id permutation (name, dr, dc) moves a ground's arcs where
    ``translate(transform(e, name), dr, dc)`` puts them."""
    t = tables_for(e.dims)
    perms = arc_permutations(e.dims)
    assert len(perms) == len(TRANSFORMS) * e.dims.rows * e.dims.cols
    for (name, dr, dc), perm in perms.items():
        assert sorted(perm) == list(range(len(t.arcs)))
        moved = {t.arcs[perm[t.arc_id[a]]] for a in e.arcs}
        assert moved == set(translate(transform(e, name), dr, dc).arcs)


def _verdicts(e: GroundEmbedding):
    """What the report says about the ground wherever it sits: each status,
    and the circuits' windings up to the sign a reflection gives them."""
    report = full_report(e, strict=True)
    windings = []
    if report.partition is not None:
        windings = sorted((abs(w.longitudinal), w.meridional)
                          for w in report.partition.windings)
    return [getattr(report, name).status for name in report.CHECKS], windings


@settings(max_examples=60, deadline=None)
@given(st.one_of(partial_embeddings(), arc_subsets(), st.sampled_from(SOLUTIONS_2x2)))
# two arcs out of (0, 0) by its west slot: read in arc order, that vertex
# passed the rotational check here and failed it one column over
@example(GroundEmbedding(TorusDims(1, 2), (
    Arc(0, 0, -2, 0), Arc(0, 0, -1, 0), Arc(0, 1, -2, 0), Arc(0, 1, 1, 0))))
def test_full_report_is_symmetry_invariant(e):
    verdicts = _verdicts(e)
    for name in TRANSFORMS:
        moved = transform(e, name)
        for dr in range(e.dims.rows):
            for dc in range(e.dims.cols):
                assert _verdicts(translate(moved, dr, dc)) == verdicts

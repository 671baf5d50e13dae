"""Property-based tests of the value API over random partial embeddings."""

from hypothesis import given, settings, strategies as st

from laceground.canonical import (
    TRANSFORMS,
    canonical_representative,
    identifier,
    transform,
    translate,
)
from laceground.embedding import GroundEmbedding, add_path, new_embedding, serialize
from laceground.geometry import TorusDims
from laceground.paths import generate_lace_paths


@st.composite
def partial_embeddings(draw):
    """An embedding built by adding random paths, skipping rejected ones."""
    dims = TorusDims(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
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

"""Property-based tests of the value API and the search engine over random
partial embeddings."""

from hypothesis import example, given, settings, strategies as st

from laceground.canonical import (
    TRANSFORMS,
    arc_permutations,
    canonical_representative,
    identifier,
    transform,
    translate,
)
from laceground.embedding import (
    ZETA_ALPHABET,
    GroundEmbedding,
    _first_fault,
    add_path,
    deserialize,
    new_embedding,
    path_arcs,
    serialize,
    arc_tables,
    tables_for,
)
from laceground.geometry import LACE_STEPS, Arc, TorusDims
from laceground.paths import generate_lace_paths
from laceground.render import MAX_REPEATS, render_svg
from laceground.search import SearchConfig, _engine, enumerate_grounds
from laceground.validator import full_report, partition_circuits
from oracle import (
    canonical_reference,
    circuits_reference,
    image,
    render_reference,
    search_state,
)

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
    candidates whose arcs ``_first_fault`` accepts after the state's, and
    none of a column that already holds two paths."""
    eng = _engine(dims)
    t = tables_for(dims)
    by_mask = {x.arcs_mask: x for x in eng.candidates}
    paths = generate_lace_paths(dims.rows)
    e = new_embedding(dims)
    alive = eng.all_alive
    placed = [0] * dims.cols  # paths per column
    # a candidate's first arc leaves its column's row-0 or row n-1 vertex
    column_bits = [0] * dims.cols
    for k, x in enumerate(eng.candidates):
        column_bits[t.arcs[x.arc_ids[0]].col] |= 1 << k
    for _ in range(data.draw(st.integers(0, 5))):
        path = data.draw(st.sampled_from(paths))
        col = data.draw(st.integers(0, dims.cols - 1))
        nxt, _ = add_path(e, path, col)
        if nxt is None:
            continue
        cand = by_mask[sum(1 << t.arc_id[a] for a in path_arcs(path, col, dims))]
        filled = search_state(nxt)[2] & ~search_state(e)[2]
        e = nxt
        placed[col] += 1
        alive = eng.narrow(alive, cand, filled)
        ids = [t.arc_id[a] for a in e.arcs]
        assert alive == sum(1 << k for k, x in enumerate(eng.candidates)
                            if _first_fault(ids + list(x.arc_ids), t) is None)
        for c in range(dims.cols):
            if placed[c] >= 2:
                assert not alive & column_bits[c]


zeta_strings = st.text(alphabet=sorted(ZETA_ALPHABET), min_size=1, max_size=6)


@st.composite
def annotated_embeddings(draw):
    """A partial embedding with action strings on some of its vertices."""
    e = draw(partial_embeddings())
    vertices = [(r, c) for r in range(e.dims.rows) for c in range(e.dims.cols)]
    zeta = draw(st.dictionaries(st.sampled_from(vertices), zeta_strings))
    return GroundEmbedding(e.dims, e.arcs, tuple(zeta.items()))


# grids past 3x3, where rows and columns of the label grid differ in length
wide_dims = st.sampled_from([TorusDims(2, 4), TorusDims(4, 2), TorusDims(5, 1),
                             TorusDims(1, 8), TorusDims(4, 4)])


@st.composite
def slot_free_embeddings(draw, dims):
    """Random arcs of a grid, each kept when its slots are still free, so
    crossings and wrong degrees stay but no two arcs share a slot, with
    action strings on some vertices."""
    d = draw(dims)
    t = arc_tables(d)
    taken, arcs = 0, []
    for aid in draw(st.lists(st.integers(0, len(t.arcs) - 1), max_size=2 * t.n_vertices)):
        if not taken & t.slot_mask[aid]:
            taken |= t.slot_mask[aid]
            arcs.append(t.arcs[aid])
    vertices = [(r, c) for r in range(d.rows) for c in range(d.cols)]
    zeta = draw(st.dictionaries(st.sampled_from(vertices), zeta_strings, max_size=3))
    return GroundEmbedding(d, tuple(arcs), tuple(zeta.items()))


def _everywhere(dims, *steps):
    """The arcs of ``steps`` out of every vertex of the grid."""
    return tuple(Arc(r, c, dx, dy) for r in range(dims.rows) for c in range(dims.cols)
                 for dx, dy in steps)


@settings(max_examples=120, deadline=None)
@given(annotated_embeddings() | slot_free_embeddings(wide_dims))
# every image ties: the least (transform name, dr, dc), h_reflect with no
# translation, moves the zeta to (0, 2)
@example(GroundEmbedding(TorusDims(2, 3), zeta=(((0, 1), "CT"),)))
# the same label at every vertex, under every transform: all 32 images
# tie, and the key alone (h_reflect before identity) places the zeta
@example(GroundEmbedding(TorusDims(2, 4), _everywhere(TorusDims(2, 4), (-1, 1), (1, 1)),
                         (((1, 1), "CT"),)))
# all 36 images of the empty ground tie
@example(GroundEmbedding(TorusDims(3, 3)))
# loops down columns 0 and 2: the least label is an empty vertex of column
# 1 or 3, and only the key (dc = 1 before dc = 3) decides where the zeta
# lands
@example(GroundEmbedding(TorusDims(2, 4), _everywhere(TorusDims(2, 4), (0, 1))[::2],
                         (((0, 0), "CT"),)))
def test_canonical_representative_is_the_least_image(e):
    """Identifier, arcs and zeta of the representative are those of the
    brute-force least image."""
    assert canonical_representative(e) == canonical_reference(e)


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
def arc_subsets(draw, dims=dims_2d, max_size=10):
    """Any set of arcs of a grid: crossings, shared slots and wrong degrees."""
    dims = draw(dims)
    arcs = draw(st.sets(st.sampled_from(tables_for(dims).arcs), max_size=max_size))
    return GroundEmbedding(dims, tuple(arcs))


@settings(max_examples=60, deadline=None)
@given(st.one_of(arc_subsets(), annotated_embeddings()))
def test_arc_permutations_are_the_symmetries(e):
    """Arc-id permutation (name, dr, dc) moves a ground's arcs where the
    table-free ``oracle.image(e, name, dr, dc)`` puts them, and
    ``translate(transform(e, name), dr, dc)`` is that image, zeta
    annotations included."""
    t = tables_for(e.dims)
    perms = arc_permutations(e.dims)
    assert len(perms) == len(TRANSFORMS) * e.dims.rows * e.dims.cols
    for (name, dr, dc), perm in perms.items():
        expected = image(e, name, dr, dc)
        assert {t.arcs[perm[t.arc_id[a]]] for a in e.arcs} == set(expected.arcs)
        assert translate(transform(e, name), dr, dc) == expected


@settings(max_examples=60, deadline=None)
@given(st.builds(TorusDims, st.integers(1, 4), st.integers(1, 4)), st.data())
def test_arc_permutations_form_a_group(dims, data):
    """Every entry is a bijection on arc ids, ("identity", 0, 0) is the
    identity, and any entry followed by any other is an entry."""
    perms = arc_permutations(dims)
    ids = list(range(len(arc_tables(dims).arcs)))
    assert perms["identity", 0, 0] == tuple(ids)
    for perm in perms.values():
        assert sorted(perm) == ids
    first, second = (perms[data.draw(st.sampled_from(sorted(perms)))] for _ in range(2))
    assert tuple(second[i] for i in first) in set(perms.values())


@settings(max_examples=60, deadline=None)
@given(st.builds(TorusDims, st.integers(1, 4), st.integers(1, 4)), st.data())
def test_translations_move_arcs_on_the_torus(dims, data):
    """Translation ("identity", dr, dc) of ``arc_permutations`` moves each
    arc's origin dr rows down and dc columns right and keeps its step;
    (0, 0) is the identity, two moves compose mod the periods, and
    ``translate`` moves a ground's arcs the same way."""
    rows, cols = dims
    t = arc_tables(dims)
    shifts = {(dr, dc): perm for (name, dr, dc), perm in arc_permutations(dims).items()
              if name == "identity"}
    assert shifts[0, 0] == tuple(range(len(t.arcs)))
    a, c = (data.draw(st.integers(0, rows - 1)) for _ in range(2))
    b, d = (data.draw(st.integers(0, cols - 1)) for _ in range(2))
    first, second = shifts[a, b], shifts[c, d]
    for arc, moved in zip(t.arcs, first):
        assert t.arcs[moved] == Arc((arc.row + a) % rows, (arc.col + b) % cols,
                                    arc.dx, arc.dy)
    assert tuple(second[i] for i in first) == shifts[(a + c) % rows, (b + d) % cols]
    ids = data.draw(st.sets(st.integers(0, len(t.arcs) - 1), max_size=12))
    e = GroundEmbedding(dims, tuple(t.arcs[i] for i in ids))
    assert translate(e, a, b).arcs == GroundEmbedding(
        dims, tuple(t.arcs[first[i]] for i in ids)).arcs


def _verdicts(e: GroundEmbedding):
    """What the report says about the ground wherever it sits: each status,
    and the circuits' windings up to the sign a reflection gives them."""
    report = full_report(e)
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


@st.composite
def tilings(draw):
    """(down, across), each from 1 to ``MAX_REPEATS``, of at most 64 tiles,
    so that 1x32 and 32x1 are reached and one drawing stays small."""
    down = draw(st.integers(1, MAX_REPEATS))
    across = draw(st.integers(1, min(MAX_REPEATS, 64 // down)))
    return (down, across) if draw(st.booleans()) else (across, down)


@settings(max_examples=100, deadline=None)
@given(st.one_of(arc_subsets(st.builds(TorusDims, st.integers(1, 8), st.integers(1, 8)), 40),
                 st.sampled_from(SOLUTIONS_2x2)),
       tilings(), st.booleans())
@example(GroundEmbedding(TorusDims(3, 2)), (1, 32), False)
@example(GroundEmbedding(TorusDims(1, 1)), (32, 1), True)
@example(GroundEmbedding(TorusDims(8, 8), (Arc(7, 0, -2, 0), Arc(7, 7, 2, 0), Arc(7, 7, 0, 2))),
         (32, 2), True)
def test_drawing_matches_the_reference(e, repeats, labels):
    """The drawing built from per-axis position texts and one join per row
    of dots is the one drawn arc by arc and dot by dot, byte for byte: at
    either end of the tiling's positions, around double steps that bow off
    the lattice and with shared slots, labels on and off."""
    assert render_svg(e, repeats, labels) == render_reference(e, repeats, labels)


# grids up to 8x8, and one-row and one-column grids, where vertical and
# horizontal arcs are self-loops
grids = st.one_of(st.builds(TorusDims, st.integers(1, 8), st.integers(1, 8)),
                  st.integers(1, 8).flatmap(
                      lambda n: st.sampled_from([TorusDims(1, n), TorusDims(n, 1)])))


@st.composite
def balanced_grounds(draw, dims=grids):
    """Directed cycles of a grid, each the loop that a walk of random steps
    closes first, kept when its slots are still free and no vertex of it
    has two arcs in yet: every vertex has as many arcs in as out, at most
    two, each in a slot of its own, and crossings stay."""
    d = draw(dims)
    t = arc_tables(d)
    taken, once, twice, arcs = 0, 0, 0, []
    for _ in range(draw(st.integers(0, 6))):
        vid = draw(st.integers(0, t.n_vertices - 1))
        walk, seen = [], {vid: 0}
        while True:
            aid = t.out_arc[vid][draw(st.sampled_from(LACE_STEPS))]
            walk.append(aid)
            vid = t.head_vid[aid]
            if vid in seen:
                break
            seen[vid] = len(walk)
        loop = walk[seen[vid]:]
        through = sum(1 << t.head_vid[aid] for aid in loop)
        slots = taken
        for aid in loop:
            if slots & t.slot_mask[aid]:
                break
            slots |= t.slot_mask[aid]
        else:
            if not through & twice:
                taken, twice, once = slots, twice | through & once, once | through
                arcs += [t.arcs[aid] for aid in loop]
    return GroundEmbedding(d, tuple(arcs))


def _circuits_or_error(e: GroundEmbedding):
    try:
        partition = partition_circuits(e)
    except ValueError as err:
        return str(err)
    return partition.circuits, partition.windings


def _reference_or_error(e: GroundEmbedding):
    try:
        return circuits_reference(e)
    except ValueError as err:
        return str(err)


@settings(max_examples=200, deadline=None)
@given(st.one_of(balanced_grounds(), arc_subsets(grids, 40), st.sampled_from(SOLUTIONS_2x2)))
# a repeated arc shares both its slots with itself
@example(GroundEmbedding(TorusDims(1, 1), (Arc(0, 0, 1, 0), Arc(0, 0, 1, 0))))
@example(GroundEmbedding(SOLUTIONS_2x2[0].dims,
                         SOLUTIONS_2x2[0].arcs + SOLUTIONS_2x2[0].arcs[-1:]))
# horizontal and vertical self-loops, each its own circuit
@example(GroundEmbedding(TorusDims(1, 1), (Arc(0, 0, 1, 0), Arc(0, 0, 0, 1))))
@example(GroundEmbedding(TorusDims(4, 1), _everywhere(TorusDims(4, 1), (-1, 0), (0, 1))))
@example(GroundEmbedding(TorusDims(1, 6), _everywhere(TorusDims(1, 6), (0, 2), (2, 0))))
# a shared slot at (0, 1) after a wrong degree at (0, 0), and a shared
# slot before the wrong degree it makes at the same vertex
@example(GroundEmbedding(TorusDims(1, 2), (Arc(0, 0, 1, 0), Arc(0, 1, 0, 1), Arc(0, 1, 0, 2))))
@example(GroundEmbedding(TorusDims(1, 1), (Arc(0, 0, 0, 1), Arc(0, 0, 0, 2), Arc(0, 0, 1, 0))))
def test_circuits_match_the_slot_by_slot_walk(e):
    """Pairing each vertex's arcs in and out from W to E traces the
    circuits, windings and faults of the walk that finds each next arc in
    the slot next to the arrival."""
    assert _circuits_or_error(e) == _reference_or_error(e)

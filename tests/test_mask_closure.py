"""The readers that count, list or test faces or sweep links run on the
bitmask closure of a complex (``SimplicialComplex._mask_closure``); these
tests compare each of them with its brute-force reference in
``tests/oracle.py``, on the dmax=7 catalog and on random complexes with
relabelled, impure facets and gaps in the vertex labels."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from scx import (
    FaceNotPresentError,
    SimplicialComplex,
    TooLargeError,
    betti,
    cycle,
    from_facets,
    is_homology_ball,
    is_normal_pseudomanifold,
    join,
    simplex_boundary,
    standard_catalog,
)
from scx import complexes
from scx.complexes import _closure_masks, _components
from scx.facevectors import _link_f_vectors
from scx.homology import _ball_analysis


@pytest.fixture(scope="module")
def catalog():
    return [entry.complex for entry in standard_catalog(dmax=7)]


def outcome(result):
    return result.ok, result.witness, result.reason


def assert_readers_match(cx):
    facets = [sorted(f) for f in cx.facets]
    faces = oracle.closure(facets)
    counts = oracle.face_counts(facets)
    assert tuple(cx.n_faces(k) for k in range(-2, cx.dim + 2)) == (0, *counts, 0)
    # every face is in the complex, and no face plus a vertex, or plus a
    # label the complex lacks, that the closure does not have
    absent = max(cx.vertices, default=-1) + 2
    beyond = {f | {w} for f in faces for w in cx.vertices | {absent}} - faces
    assert all(f in cx for f in faces)
    assert not any(f in cx for f in beyond)
    edges = {tuple(sorted(f)) for f in faces if len(f) == 2}
    assert cx.edges() == tuple(sorted(edges))
    assert cx.adjacency() == {
        v: {u for e in edges if v in e for u in e if u != v} for v in cx.vertices
    }
    assert _link_f_vectors(cx) == {
        v: oracle.face_counts(link) for v, link in oracle.vertex_links(facets).items()
    }
    missing = oracle.missing_faces(facets)
    for k in range(max(len(cx.vertices), cx.dim + 3)):
        assert cx.missing_faces(k) == missing.get(k, []), k
    assert outcome(is_normal_pseudomanifold(cx)) == outcome(
        oracle.is_normal_pseudomanifold_by_links(cx)
    )


def test_mask_readers_match_the_oracle_on_the_catalog(catalog):
    assert len(catalog) > 60
    for cx in catalog:
        assert_readers_match(cx)


# facets of mixed sizes on at most 10 labels up to 40, so the labels have
# gaps and the brute-force missing faces stay within 2^10 vertex sets
sparse_facets = st.sets(st.integers(min_value=0, max_value=40), min_size=1, max_size=10).flatmap(
    lambda labels: st.lists(
        st.lists(st.sampled_from(sorted(labels)), min_size=1, max_size=5, unique=True),
        min_size=1,
        max_size=8,
    )
)


@settings(max_examples=100, deadline=None)
@given(sparse_facets)
def test_mask_readers_match_the_oracle_on_sparse_impure_complexes(facets):
    assert_readers_match(from_facets(facets))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mask_readers_match_the_oracle_on_relabelled_catalog_entries(catalog, data):
    cx = data.draw(st.sampled_from(catalog))
    verts = sorted(cx.vertices)
    labels = data.draw(st.permutations(range(3 * len(verts))))
    rename = dict(zip(verts, labels))
    assert_readers_match(from_facets([[rename[v] for v in f] for f in cx.facets]))


@settings(max_examples=100, deadline=None)
@given(sparse_facets, st.data())
def test_membership_matches_the_powerset_closure(facets, data):
    # every vertex set of the labels, each face and each non-face, with and
    # without a label the complex lacks, answered with no closure built
    cx = from_facets(facets)
    faces = oracle.closure(facets)
    labels = sorted(cx.vertices)
    absent = data.draw(st.integers(0, 50).filter(lambda v: v not in cx.vertices), label="absent")
    subsets = [frozenset(c) for k in range(len(labels) + 1) for c in combinations(labels, k)]
    assert [s in cx for s in subsets] == [s in faces for s in subsets]
    assert not any(s | {absent} in cx for s in subsets)
    assert frozenset() in cx and () in cx
    assert cx._closure is None


def test_closure_masks_are_every_submask_grouped_by_size():
    by_size, members = _closure_masks([0b1011, 0b0110])
    assert by_size == [[0], [1, 2, 4, 8], [3, 6, 9, 10], [11]]
    assert members == {0, 1, 2, 3, 4, 6, 8, 9, 10, 11}
    assert _closure_masks([0]) == ([[0]], {0})


def test_empty_complex_has_only_the_empty_face():
    cx = from_facets([])
    assert [cx.n_faces(k) for k in (-1, 0)] == [1, 0]
    assert () in cx and (0,) not in cx
    assert cx.edges() == () and cx.adjacency() == {}
    assert cx.missing_faces(0) == [] and _link_f_vectors(cx) == {}


def glued(*spheres):
    """The union of simplex boundaries, each given by its vertex labels;
    spheres that share a face pinch it, whose link then falls apart."""
    return from_facets([f for vs in spheres for f in combinations(vs, len(vs) - 1)])


# three 3-spheres in a chain, the middle one meeting the others in the
# edges {0, 3} and {1, 2}; every vertex link stays connected
PINCHED_EDGES = glued((0, 3, 10, 11, 12), (0, 1, 2, 3, 13), (1, 2, 14, 15, 16))
# three 4-spheres, the middle one meeting the others in the triangles
# {0, 1, 4} and {0, 2, 3}; every vertex and edge link stays connected
PINCHED_TRIANGLES = glued((0, 1, 4, 5, 6, 7), (0, 1, 2, 3, 4, 8), (0, 2, 3, 9, 10, 11))


@pytest.mark.parametrize(
    "cx, witness, first",
    [(PINCHED_EDGES, (0, 3), (1, 2)), (PINCHED_TRIANGLES, (0, 1, 4), (0, 2, 3))],
    ids=["edges", "triangles"],
)
def test_link_witness_is_the_least_failing_face_not_the_first_mask(cx, witness, first):
    res = is_normal_pseudomanifold(cx)
    assert outcome(res) == (False, witness, "face link is not connected")
    assert outcome(res) == outcome(oracle.is_normal_pseudomanifold_by_links(cx))
    # the sweep meets the failing faces in mask order, where the larger comes first
    (bit, masks), (by_size, _) = cx._masks, cx._mask_closure()
    labels = list(bit)
    failing = [
        tuple(labels[i] for i in range(fm.bit_length()) if fm >> i & 1)
        for fm in by_size[len(witness)]
        if len(_components([m ^ fm for m in masks if m & fm == fm])) > 1
    ]
    assert failing == [first, witness]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_link_witness_matches_the_oracle_on_relabelled_plants(data):
    cx = data.draw(st.sampled_from([PINCHED_EDGES, PINCHED_TRIANGLES]))
    verts = sorted(cx.vertices)
    rename = dict(zip(verts, data.draw(st.permutations(range(2 * len(verts))))))
    moved = from_facets([[rename[v] for v in f] for f in cx.facets])
    assert outcome(is_normal_pseudomanifold(moved)) == outcome(
        oracle.is_normal_pseudomanifold_by_links(moved)
    )


def test_adjacency_needs_no_closure():
    # past the closure bound the facets still give the 1-skeleton
    cx = from_facets([range(20)])
    assert cx.adjacency() == {v: set(range(20)) - {v} for v in range(20)}
    assert cx._closure is None  # the bitmask closure, the only one a complex keeps


def test_link_and_star_need_no_closure():
    # a face is present exactly when some facet contains it, so past the
    # closure bound membership, links and stars still answer, and absence
    # is still told
    cx = from_facets([range(20)])
    assert range(20) in cx and [] in cx and [3, 7] in cx
    assert [0, 20] not in cx and [21] not in cx
    assert cx.link([0]) == from_facets([range(1, 20)])
    assert cx.star([0]) == cx
    with pytest.raises(FaceNotPresentError, match=r"face \(0, 20\) is not in the complex"):
        cx.star([0, 20])
    with pytest.raises(FaceNotPresentError, match=r"face \(21,\) is not in the complex"):
        cx.link([21])
    assert cx._closure is None


def test_membership_and_counts_share_one_closure(monkeypatch):
    cx = simplex_boundary(5).link([5])  # the boundary of a 4-simplex, built from masks
    labelled = []
    monkeypatch.setattr(complexes, "_labelled", lambda *args: labelled.append(args))
    assert cx.n_faces(1) == 10 and (0, 1) in cx and (0, 1, 2, 3, 4) not in cx
    assert labelled == [] and cx._facets is None  # no face was turned into a frozenset
    assert cx._mask_closure() is cx._mask_closure()


# a 2-complex whose lowest failing faces are the edges {0, 5} and {1, 2},
# each in three triangles: (0, 5) is the least in vertex-tuple order, while
# the mask of {1, 2} is the lesser
BALL_PLANT = from_facets(
    [(0, 1, 3), (0, 1, 5), (0, 2, 5), (0, 3, 5), (1, 2, 3), (1, 2, 4), (1, 2, 5)]
)


def assert_ball_matches_the_sweep(cx):
    for field in ("rational", 2):
        verdict, boundary, interior = _ball_analysis(cx, field)
        expected, expected_boundary, expected_interior = oracle.ball_analysis_by_sweep(
            cx, field, True
        )
        assert outcome(verdict) == outcome(expected), field
        assert (boundary, interior) == (expected_boundary, expected_interior)


def test_ball_witness_is_the_least_failing_face_not_the_first_mask():
    res = is_homology_ball(BALL_PLANT)
    assert outcome(res) == (False, (0, 5), "link is neither ball- nor sphere-like")
    assert_ball_matches_the_sweep(BALL_PLANT)
    # every vertex link is a path or a cycle, ball- or sphere-like; an edge
    # link fails when it has more than two vertices, and in mask order the
    # failing edges come the other way round
    bit, by_size = BALL_PLANT._masks[0], BALL_PLANT._mask_closure()[0]
    labels = list(bit)
    assert all(betti(BALL_PLANT.link([v])).entries[1:] in ((0, 0), (0, 1)) for v in labels)
    edges = [tuple(labels[i] for i in range(m.bit_length()) if m >> i & 1) for m in by_size[2]]
    assert [e for e in edges if len(BALL_PLANT.link(e).vertices) > 2] == [(1, 2), (0, 5)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ball_witness_matches_the_oracle_on_relabelled_plants(data):
    verts = sorted(BALL_PLANT.vertices)
    labels = data.draw(st.permutations(range(2 * len(verts))))[: len(verts)]
    if data.draw(st.booleans(), label="order-preserving"):
        labels = sorted(labels)
    rename = dict(zip(verts, labels))
    assert_ball_matches_the_sweep(from_facets([[rename[v] for v in f] for f in BALL_PLANT.facets]))


def test_every_reader_shares_one_enumeration(monkeypatch):
    calls = []

    def counting(masks):
        calls.append(masks)
        return _closure_masks(masks)

    monkeypatch.setattr(complexes, "_closure_masks", counting)
    cx = join(cycle(5), simplex_boundary(2))  # fresh: its closure is not built yet
    assert len(cx.faces()) == sum(len(cx.faces_of_dim(k)) for k in range(-1, cx.dim + 1))
    assert len(calls) == 1  # the frozensets label the masks
    assert cx.n_faces(1) == 5 + 5 * 3 + 3
    assert (0, 5) in cx and (0, 1, 2) not in cx
    assert cx.edges()[0] == (0, 1) and cx.missing_faces(1)
    assert len(calls) == 1


def test_faces_of_dim_are_the_oracle_groups_on_labels_with_gaps():
    # the edge {0, 100} comes before {5, 7} by vertex tuple, after it by mask
    facets = [(0, 5, 7), (5, 7, 100), (0, 100)]
    cx = from_facets(facets)
    expected = oracle.closure_by_dim(facets)
    assert {k: cx.faces_of_dim(k) for k in expected} == {k: tuple(g) for k, g in expected.items()}
    assert cx.faces_of_dim(1).index(frozenset({0, 100})) < cx.faces_of_dim(1).index(
        frozenset({5, 7})
    )
    assert cx.faces() == oracle.closure(facets)
    assert cx.faces_of_dim(-2) == cx.faces_of_dim(cx.dim + 1) == ()


def test_faces_past_the_closure_bound_raise():
    cx = SimplicialComplex([range(18)])
    with pytest.raises(TooLargeError, match="closure bound"):
        cx.faces()
    assert cx._closure is None  # nothing was kept, so the next call raises again
    with pytest.raises(TooLargeError, match="closure bound"):
        cx.faces_of_dim(0)

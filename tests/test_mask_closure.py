"""The readers that count faces, test membership or sweep links run on the
bitmask closure of a complex (``SimplicialComplex._mask_closure``); these
tests compare each of them with its brute-force reference in
``tests/oracle.py``, on the dmax=7 catalog and on random complexes with
relabelled, impure facets and gaps in the vertex labels."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from scx import from_facets, is_normal_pseudomanifold, simplex_boundary, standard_catalog
from scx.complexes import _closure_masks
from scx.facevectors import _link_f_vectors
from scx.homology import _is_connected


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
    bit, masks, by_size, _ = cx._mask_closure()
    labels = list(bit)
    failing = [
        tuple(labels[i] for i in range(fm.bit_length()) if fm >> i & 1)
        for fm in by_size[len(witness)]
        if not _is_connected([m ^ fm for m in masks if m & fm == fm])
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
    assert cx._masks is None and cx._faces is None


def test_membership_and_counts_share_one_closure():
    cx = from_facets(simplex_boundary(4).facets)
    assert cx.n_faces(1) == 10 and (0, 1) in cx and (0, 1, 2, 3, 4) not in cx
    assert cx._faces is None  # no frozenset closure was built
    assert cx._mask_closure() is cx._mask_closure()

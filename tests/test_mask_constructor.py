"""Every derived complex is built from its parent's facet masks by
``SimplicialComplex._of_masks``; these tests compare each such operation
with a reference written on labels in ``tests/oracle.py``, which goes
through the labelled constructor, on the dmax=7 catalog, its vertex links
and its face stars.  Each result must equal its reference, hash alike, and
hold the masks that the labelled constructor gives its facets.  By default
every catalog entry, every fifth link and every fiftieth star is compared;
``-m slow`` compares them all.  The moves that replace a few facet masks
(``complexes._replaced``) are compared the same way: central
retriangulations on the balls and face stars of the complexes that Lemma
3.3 retriangulates at dmax=7 (every 25th star by default), and connected
sums of those complexes; the Swartz and inverse stellar moves are compared
in ``tests/test_retriangulate.py``."""

import random

import pytest

import oracle
from scx import (
    SimplicialComplex,
    ball_boundary,
    central_retriangulation,
    connected_sum,
    cycle,
    join,
    simplex_boundary,
    skeleton_completion,
    stack_over_facet,
    standard_catalog,
    verify,
)
from scx.homology import _ball_analysis


def test_hash_reads_the_masks_and_labels_no_facet():
    # == compares the masks, and hash hashes what == compares
    cx = join(cycle(4), simplex_boundary(2)).link([0])
    assert cx._facets is None
    hash(cx)
    assert cx._facets is None
    assert hash(cx) == hash(SimplicialComplex(cx.facets))


@pytest.fixture(scope="module")
def inputs():
    """The dmax=7 catalog, its vertex links and its face stars."""
    catalog = [entry.complex for entry in standard_catalog(dmax=7)]
    links = [cx.link([v]) for cx in catalog for v in sorted(cx.vertices)]
    stars = [
        cx.star(f) for cx in catalog for k in range(cx.dim + 1) for f in cx.faces_of_dim(k)
    ]
    return catalog, links, stars


#: (link stride, star stride) of the inputs compared
STRIDES = [
    pytest.param((5, 50), id="sample"),
    pytest.param((1, 1), marks=pytest.mark.slow, id="all"),
]


def sample(inputs, strides):
    catalog, links, stars = inputs
    return catalog + links[:: strides[0]] + stars[:: strides[1]]


def assert_built_alike(result, reference):
    assert result.facets == reference.facets
    assert result == reference and hash(result) == hash(reference)
    assert (result.vertices, result.dim) == (reference.vertices, reference.dim)
    assert result._masks == SimplicialComplex(result.facets)._masks


def assert_operations_match(cx, rng):
    vs = sorted(cx.vertices)
    face = sorted(min(cx.facets, key=sorted))[: rng.randint(0, cx.dim + 1)]
    for f in ([], [vs[0]], face):
        assert_built_alike(cx.link(f), oracle.link_by_labels(cx, f))
        assert_built_alike(cx.star(f), oracle.star_by_labels(cx, f))
    verts = rng.sample(vs, rng.randint(0, len(vs))) + [vs[-1] + 1]
    assert_built_alike(cx.restriction(verts), oracle.restriction_by_labels(cx, verts))
    v = rng.choice(vs)
    assert_built_alike(cx.antistar(v), oracle.restriction_by_labels(cx, set(vs) - {v}))
    for i in {-1, 0, 1, cx.dim - 1}:
        assert_built_alike(cx.skeleton(i), oracle.skeleton_by_labels(cx, i))
    facet = rng.choice(sorted(cx.facets, key=sorted))
    assert_built_alike(stack_over_facet(cx, facet), oracle.stack_by_labels(cx, facet))


@pytest.mark.parametrize("strides", STRIDES)
def test_mask_built_operations_match_the_label_built_references(inputs, strides):
    assert sum(map(len, inputs)) == 20_048
    rng = random.Random(0)
    for cx in sample(inputs, strides):
        assert_operations_match(cx, rng)


def test_joins_match_the_label_built_reference(inputs):
    catalog, links, _ = inputs
    factors = [SimplicialComplex([()]), SimplicialComplex([(3,)]), simplex_boundary(1), cycle(4)]
    for cx in catalog + links[::7]:
        for other in factors:
            assert_built_alike(join(cx, other), oracle.join_by_labels(cx, other))
            assert_built_alike(join(other, cx), oracle.join_by_labels(other, cx))


@pytest.mark.parametrize("strides", STRIDES)
def test_skeleton_completions_match_the_search(inputs, strides):
    for cx in sample(inputs, strides):
        for i in (1, 2):
            expected = oracle.skeleton_completion_by_search(cx, i)
            assert_built_alike(skeleton_completion(cx, i), expected)


@pytest.mark.parametrize("strides", STRIDES)
def test_ball_boundaries_match_the_sweep_on_labels(inputs, strides):
    # the stars are balls; the catalog's spheres and links are not, and the
    # sweep of a failing ball builds its boundary for the witness
    for cx in sample(inputs, strides):
        verdict, boundary, interior = _ball_analysis(cx, "rational")
        expected, expected_boundary, expected_interior = oracle.ball_analysis_by_sweep(cx)
        assert (verdict, interior) == (expected, expected_interior)
        assert_built_alike(boundary, expected_boundary)
        assert_built_alike(ball_boundary(cx, check=False), expected_boundary)


@pytest.fixture(scope="module")
def crtr_entries():
    """The complexes that Lemma 3.3 retriangulates at dmax=7."""
    return [e.complex for e in verify._crtr_entries(verify.catalog_for(verify.Scale(dmax=7)))]


def assert_moves_alike(got, expected):
    """Equal outputs and records, and the output built alike."""
    assert got == expected
    assert_built_alike(got[0], expected[0])


def test_central_retriangulations_match_the_label_built_reference_on_catalog_balls(
    crtr_entries,
):
    compared = 0
    for cx in crtr_entries:
        for _, ball in verify._central_balls(cx):
            for check in (True, False):
                got = central_retriangulation(cx, ball, check=check)
                assert_moves_alike(got, oracle.central_by_labels(cx, ball, check=check))
                compared += 1
    assert compared == 2 * 169


@pytest.mark.parametrize(
    "stride", [pytest.param(25, id="sample"), pytest.param(1, marks=pytest.mark.slow, id="all")]
)
def test_central_retriangulations_match_the_label_built_reference_on_face_stars(
    crtr_entries, stride
):
    stars = [
        (cx, cx.star(f))
        for cx in crtr_entries
        for k in range(cx.dim + 1)
        for f in cx.faces_of_dim(k)
    ]
    assert len(stars) == 10_946
    for cx, star in stars[::stride]:
        assert_moves_alike(central_retriangulation(cx, star), oracle.central_by_labels(cx, star))


def test_connected_sums_match_the_label_built_reference(crtr_entries):
    # the least facet of the first summand glued to the greatest of the
    # second, matched in sorted order and rotated by one
    compared = 0
    for cx1 in crtr_entries:
        f1 = min(cx1.facets, key=sorted)
        for cx2 in (cx for cx in crtr_entries if cx.dim == cx1.dim):
            f2 = sorted(max(cx2.facets, key=sorted))
            for matching in (None, dict(zip(sorted(f1), f2[1:] + f2[:1]))):
                got = connected_sum(cx1, f1, cx2, f2, matching)
                assert_built_alike(got, oracle.connected_sum_by_labels(cx1, f1, cx2, f2, matching))
                compared += 1
    assert compared == 2 * (16**2 + 3 * 11**2)

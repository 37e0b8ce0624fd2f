"""The face-link sweeps read links as facet bitmasks; these tests compare
them with the link-by-link predicates of ``tests/oracle.py``, which build
every link as a complex, and their keys with the keys ``betti`` gives those
link complexes.  The manifold test, which judges vertex links by a memoised
verdict, is also compared with the sweep over every face link that it
replaced."""

import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from conftest import clear_memos
from scx import (
    betti,
    cross_polytope_boundary,
    cycle,
    from_facets,
    homology,
    is_homology_manifold,
    is_normal_pseudomanifold,
    join,
    simplex_boundary,
    standard_catalog,
)
from scx.complexes import _bits, _labelled
from scx.homology import _link, _order_type
from test_ball_memo import run_all_balls  # noqa: F401 (a fixture)
from test_homology import RP2_FACETS, near_manifolds, random_complexes as drawn_complexes
from test_retriangulate import NON_BALL_HOSTS, _non_balls

# one failure of each kind, and the projective plane, which passes both sweeps
HAND_BUILT = {
    "non-pure": from_facets([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (3, 4)]),
    "disconnected": from_facets(
        list(combinations(range(4), 3)) + list(combinations(range(4, 8), 3))
    ),
    "ridge in 3 facets": from_facets([(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (1, 2, 4)]),
    "pinched vertex": from_facets(
        list(combinations(range(4), 3)) + list(combinations((0, 4, 5, 6), 3))
    ),
    "pinched edge": from_facets(
        list(combinations(range(5), 4)) + list(combinations((0, 1, 5, 6, 7), 4))
    ),
    "projective plane": from_facets(RP2_FACETS),
    "cone over a cycle": from_facets([(0, v, v % 5 + 1) for v in range(1, 6)]),
}

# (normal pseudomanifold, homology manifold) outcomes, as the oracles give them
NOT_MANIFOLD = "vertex link is not a homology sphere"
EXPECTED = {
    "non-pure": ((False, (3, 4), "complex is not pure"), (False, (3,), NOT_MANIFOLD)),
    "disconnected": ((False, (), "complex is not connected"), (True, None, "")),
    "ridge in 3 facets": ((False, (0, 1), "ridge lies in 3 facets"), (False, (0,), NOT_MANIFOLD)),
    "pinched vertex": ((False, (0,), "face link is not connected"), (False, (0,), NOT_MANIFOLD)),
    "pinched edge": ((False, (0, 1), "face link is not connected"), (False, (0,), NOT_MANIFOLD)),
    "projective plane": ((True, None, ""), (True, None, "")),
    "cone over a cycle": ((False, (1, 2), "ridge lies in 1 facets"), (False, (1,), NOT_MANIFOLD)),
}


def test_the_impure_witness_depends_only_on_the_complex():
    # the least of the smallest facets; the smallest facet that the facet set
    # happened to yield first differed between these two equal complexes
    a = from_facets([(1, 5), (1, 7), (3, 5, 6), (9, 10)])
    c = a.restriction(range(11))
    assert a == c
    for cx in (a, c):
        expected = (False, (1, 5), "complex is not pure")
        assert outcome(is_normal_pseudomanifold(cx)) == expected
        assert outcome(oracle.is_normal_pseudomanifold_by_links(cx)) == expected


@pytest.fixture(scope="module")
def catalog():
    return [entry.complex for entry in standard_catalog()]


def outcome(result):
    return result.ok, result.witness, result.reason


def assert_manifold_verdicts_agree(complexes):
    for cx in complexes:
        for field in ("rational", 2, 3):
            assert outcome(is_homology_manifold(cx, field)) == outcome(
                oracle.is_homology_manifold_by_faces(cx, field)
            ), (sorted(map(sorted, cx.facets)), field)


def assert_sweeps_agree(complexes, fields=("rational",)):
    for cx in complexes:
        assert outcome(is_normal_pseudomanifold(cx)) == outcome(
            oracle.is_normal_pseudomanifold_by_links(cx)
        )
        for field in fields:
            assert outcome(is_homology_manifold(cx, field)) == outcome(
                oracle.is_homology_manifold_by_links(cx, field)
            )
    assert_manifold_verdicts_agree(complexes)


def test_sweeps_agree_with_the_oracle_on_the_catalog(catalog):
    assert_sweeps_agree(catalog)


def test_sweeps_agree_with_the_oracle_on_the_census(census):
    assert len(census) == 39
    assert_sweeps_agree(census)
    assert all(is_normal_pseudomanifold(cx) and is_homology_manifold(cx) for cx in census)


def test_sweeps_agree_with_the_oracle_on_non_balls():
    non_balls = [ball for cx in NON_BALL_HOSTS for ball in _non_balls(cx)]
    assert len(non_balls) == 20
    assert_sweeps_agree(non_balls, fields=("rational", 2))


def test_sweeps_agree_with_the_oracle_on_hand_built_failures():
    assert_sweeps_agree(HAND_BUILT.values(), fields=("rational", 2, 3))
    for name, (pseudomanifold, manifold) in EXPECTED.items():
        cx = HAND_BUILT[name]
        assert outcome(is_normal_pseudomanifold(cx)) == pseudomanifold, name
        assert outcome(is_homology_manifold(cx)) == manifold, name


def perturbations(cx, rng):
    """The complex without one facet, with an edge to a new vertex, and
    suspended after losing a facet (a failure one level below the vertex
    links of the suspension points)."""
    facets = sorted(map(sorted, cx.facets))
    dropped = facets[:]
    del dropped[rng.randrange(len(facets))]
    new = max(cx.vertices) + 1
    return [
        from_facets(dropped),
        from_facets(facets + [[rng.choice(facets[0]), new]]),
        join(from_facets(dropped), simplex_boundary(1)),
    ]


SMALL_SPHERES = [
    simplex_boundary(2),
    simplex_boundary(4),
    cross_polytope_boundary(3),
    join(cycle(4), simplex_boundary(1)),
    join(cycle(5), cycle(3)),
]


def random_complexes(count, seed):
    """Seeded near-manifolds: a small sphere on random labels below 10, with
    one or two facets dropped and a facet of up to two of its labels and
    the new vertex 12 added, each with chance 1/2 (the added facet leaves
    the complex not pure), and every third one suspended."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        sphere = rng.choice(SMALL_SPHERES)
        relabel = dict(zip(sorted(sphere.vertices), rng.sample(range(10), len(sphere.vertices))))
        facets = [[relabel[v] for v in f] for f in sorted(map(sorted, sphere.facets))]
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 2)):
                del facets[rng.randrange(len(facets))]
        if rng.random() < 0.5:
            facets.append(rng.sample(sorted(relabel.values()), rng.randint(0, 2)) + [12])
        cx = from_facets(facets)
        out.append(join(cx, from_facets([[10], [11]])) if i % 3 == 2 else cx)
    return out


def test_vertex_link_verdicts_match_the_face_sweep_on_random_complexes(catalog):
    rng = random.Random(0)
    assert_manifold_verdicts_agree([p for cx in catalog for p in perturbations(cx, rng)])
    complexes = random_complexes(300, seed=2)
    results = [is_homology_manifold(cx) for cx in complexes]
    assert 50 < sum(r.ok for r in results) < 250
    # witnesses other than the smallest vertex are met too
    assert sum(not r.ok and r.witness != (min(cx.vertices),) for r, cx in zip(results, complexes)) > 20
    assert_manifold_verdicts_agree(complexes)


def shuffled(cx, rng):
    """``cx`` with its vertices renamed by a seeded permutation of them."""
    verts = sorted(cx.vertices)
    rename = dict(zip(verts, rng.sample(verts, len(verts))))
    return from_facets([[rename[v] for v in f] for f in cx.facets])


def test_vertex_link_verdicts_match_the_face_sweep_on_shuffled_complexes(catalog):
    # the shuffles are judged after their originals, so their vertex links
    # meet verdicts computed on other labellings of the same links
    rng = random.Random(1)
    complexes = [cx for base in catalog for cx in [base, *perturbations(base, rng)]]
    clear_memos()
    assert_manifold_verdicts_agree(complexes + [shuffled(cx, rng) for cx in complexes])


def test_sweep_keys_are_the_betti_keys_of_the_link_complexes(catalog, monkeypatch):
    asked = []
    monkeypatch.setattr(homology, "_betti", lambda key, field: asked.append(key))
    compared = 0
    for cx in catalog:
        faces = [f for k in range(-1, cx.dim + 1) for f in cx.faces_of_dim(k)]
        asked.clear()
        for face in faces:
            betti(cx.link(face))
        swept = [_order_type(link) for _, link in oracle.face_links(cx, faces)]
        assert swept == asked
        # and each order type is the facets as bitmasks over the link's
        # sorted vertices
        for face, key in zip(faces, swept):
            lk = cx.link(face)
            index = {v: i for i, v in enumerate(sorted(lk.vertices))}
            assert key == tuple(sorted(sum(1 << index[v] for v in f) for f in lk.facets))
        compared += len(faces)
    assert compared == sum(len(cx.faces()) for cx in catalog) > 9000


def test_link_masks_are_the_link_facets(cycle_join):
    verts = sorted(cycle_join.vertices)
    for face, link in oracle.face_links(cycle_join, cycle_join.faces()):
        facets = {frozenset(verts[i] for i in range(len(verts)) if m >> i & 1) for m in link}
        assert facets == cycle_join.link(face).facets


def labelled_link(cx, face) -> list:
    """The facets of the link of ``face`` that ``_link`` reads, labelled and
    sorted as vertex tuples, repeats kept."""
    bit, masks = cx._masks
    labels = list(bit)
    return sorted(sorted(_labelled(labels, m)) for m in _link(masks, sum(map(bit.get, face))))


@given(st.one_of(near_manifolds(), drawn_complexes))
@settings(max_examples=150, deadline=None)
def test_vertex_link_masks_are_the_oracle_links(cx):
    links = oracle.vertex_links(cx.facets)
    assert {v: labelled_link(cx, [v]) for v in cx.vertices} == {
        v: sorted(map(sorted, link)) for v, link in links.items()
    }


def test_face_link_masks_on_the_run_all_balls(run_all_balls):
    balls, _ = run_all_balls
    compared = 0
    for ball in balls:
        for face in oracle.closure(ball.facets):
            expected = sorted(sorted(f - face) for f in ball.facets if face <= f)
            assert labelled_link(ball, face) == expected, (ball, face)
            compared += 1
    assert compared > 9000  # 9,048 faces of 109 balls


def test_order_type_closes_gaps_and_sorts():
    assert _order_type([0b1010000, 0b0000101]) == (0b0011, 0b1100)
    assert _order_type([0b110, 0b011]) == (0b011, 0b110)
    assert _order_type([0]) == (0,)


def test_ridge_witness_is_the_least_failing_ridge():
    # the witness and reason of the sweep over every ridge in sorted order,
    # whichever failing ridge the count meets first: each plant is judged
    # with its facet masks sorted, reversed and in seeded shuffles
    octahedron = sorted(map(sorted, cross_polytope_boundary(3).facets))
    planted = {
        "ridges in 1 facet": (from_facets([[0, 1, 2], [0, 2, 3]]), (0, 1), 1),
        "a ridge in 3 facets": (
            from_facets(list(combinations(range(4), 3)) + [[0, 1, 4]]),
            (0, 1),
            3,
        ),
        # vertex 3 in three edges is met first, vertex 2 in one edge is less
        "the less of two later": (from_facets([[0, 1], [1, 3], [0, 3], [3, 2]]), (2,), 1),
        # the ridges {2, 6} and {0, 6} in one facet are met before {0, 2} in three
        "the least of three last": (from_facets(octahedron + [[0, 2, 6]]), (0, 2), 3),
        # 2^18 faces, past the closure bound: the ridges are counted without it
        "a simplex": (from_facets([range(18)]), tuple(range(17)), 1),
    }
    rng = random.Random(0)
    met_later = set()
    for name, (cx, witness, count) in planted.items():
        assert outcome(is_normal_pseudomanifold(cx)) == outcome(
            oracle.is_normal_pseudomanifold_by_links(cx)
        ), name
        bit, masks = cx._masks
        shuffles = [rng.sample(masks, len(masks)) for _ in range(8)]
        for order in [sorted(masks), sorted(masks, reverse=True), *shuffles]:
            cx._masks = bit, tuple(order)
            res = is_normal_pseudomanifold(cx)
            assert outcome(res) == (False, witness, f"ridge lies in {count} facets"), name
            # the count meets ridges in the order of the facet masks, each
            # facet's lowest vertex dropped first
            counts = Counter(m ^ b for m in order for b in _bits(m))
            first = next(r for r, c in counts.items() if c != 2)
            if tuple(sorted(_labelled(list(bit), first))) != witness:
                met_later.add(name)
    # two plants were chosen so that some order meets a larger failing ridge first
    assert {"the less of two later", "the least of three last"} <= met_later
    assert planted["a simplex"][0]._closure is None

import os
import random
import subprocess
import sys
import threading
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from scx import (
    InternalCheckError,
    MalformedInputError,
    PreconditionError,
    SimplicialComplex,
    TooLargeError,
    ball_boundary,
    betti,
    boundary_matrix,
    chain_complex,
    connected_sum,
    cross_polytope_boundary,
    cycle,
    from_facets,
    g2,
    interior_faces,
    is_homology_ball,
    is_homology_manifold,
    is_homology_sphere,
    is_normal_pseudomanifold,
    is_r_stacked_ball,
    join,
    run_all,
    simplex_boundary,
    skeleton_completion,
    stacked_sphere,
    standard_catalog,
    suspension,
)
import scx
from scx import exact, homology, verify
from scx.homology import _assert_composes_to_zero, _boundary_columns, _face_masks

import oracle
from oracle import rank_sparse
from conftest import clear_memos, shelling_off
from test_retriangulate import NON_BALL_HOSTS, _non_balls


def test_betti_of_spheres(bd3, oct3):
    assert betti(bd3).entries == (0, 0, 0, 1)
    assert betti(oct3).entries == (0, 0, 0, 0, 1)


def test_betti_of_cone():
    solid = from_facets([[0, 1, 2, 3]])
    assert betti(solid).is_trivial()


def test_sphere_profiles_read_past_their_ends_as_zero():
    # b_i is 0 outside -1..dim, so no profile is that of a sphere of a
    # dimension it does not have: an acyclic profile is no (-2)-sphere
    solid = betti(from_facets([[0, 1, 2, 3]]))
    assert [solid.b(i) for i in range(-3, 5)] == [0] * 8
    assert not any(solid.is_sphere(m) for m in range(-3, 5))
    circle = betti(cycle(5))
    assert [circle.b(i) for i in range(-2, 4)] == [0, 0, 0, 1, 0, 0]
    assert [m for m in range(-3, 5) if circle.is_sphere(m)] == [1]
    assert [m for m in range(-3, 3) if betti(from_facets([])).is_sphere(m)] == [-1]


@pytest.mark.parametrize("reader", ["b", "is_sphere"])
@pytest.mark.parametrize("degree", ["a", 1.0, 100.5, -7.5])
def test_betti_readers_refuse_a_degree_that_is_not_an_integer(reader, degree):
    profile = betti(cycle(5))
    with pytest.raises(MalformedInputError, match=f"Betti degree must be an integer, got {degree!r}"):
        getattr(profile, reader)(degree)
    assert (profile.b(True), profile.is_sphere(True)) == (1, True)


def test_betti_of_circle_and_two_points():
    assert betti(cycle(5)).entries == (0, 0, 1)
    assert betti(simplex_boundary(1)).entries == (0, 1)
    assert betti(from_facets([])).entries == (1,)


def test_betti_matches_gf2_oracle(oct3, cycle_join):
    for cx in (oct3, cycle_join, stacked_sphere(4, 7)):
        assert betti(cx).entries == oracle.betti_gf2(cx.facets)


def test_betti_fields_agree(oct3, cycle_join):
    from scx import barnette_sphere

    for cx in (oct3, cycle_join, barnette_sphere().complex):
        rational = betti(cx).entries
        for p in (2, 3, 5):
            assert betti(cx, p).entries == rational


def test_chain_complex_composes_to_zero(bd4, oct3, cycle_join):
    for cx in (bd4, oct3, cycle_join):
        mats = chain_complex(cx)
        assert len(mats) == cx.dim + 1


def test_chain_complex_builds_each_boundary_once(bd4, oct3, cycle_join, monkeypatch):
    built, original = [], homology._boundary_columns
    monkeypatch.setattr(
        homology, "_boundary_columns", lambda faces, k: built.append(k) or original(faces, k)
    )
    for cx in (bd4, oct3, cycle_join):
        built.clear()
        mats = chain_complex(cx)
        assert built == list(range(cx.dim + 1))
        assert mats == [boundary_matrix(cx, k) for k in range(cx.dim + 1)]


def test_failed_composition_certificate_raises(bd3):
    faces = _face_masks(bd3, range(4))
    low, high = _boundary_columns(faces, 1), _boundary_columns(faces, 2)
    high[0][min(high[0])] *= -1
    with pytest.raises(InternalCheckError):
        _assert_composes_to_zero(low, high)


def test_betti_certifies_each_miss(bd3, flipped_d1):
    for field in ("rational", 2):
        with pytest.raises(InternalCheckError):
            betti(bd3, field)
    assert homology._betti.cache_info().currsize == 0


def test_betti_certificate_survives_optimize_flag():
    # `python -O` strips assert statements; the d.d = 0 check must still run
    code = (
        "import sys\n"
        "from scx import InternalCheckError, betti, homology, simplex_boundary\n"
        "if not sys.flags.optimize:\n"
        "    raise SystemExit(2)\n"
        "original = homology._boundary_columns\n"
        "def flipped(faces, k):\n"
        "    columns = original(faces, k)\n"
        "    if k == 1:\n"
        "        columns[0][min(columns[0])] *= -1\n"
        "    return columns\n"
        "homology._boundary_columns = flipped\n"
        "try:\n"
        "    betti(simplex_boundary(3))\n"
        "except InternalCheckError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(scx.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=120)
    assert result.returncode == 0


def test_boundary_columns_follow_the_sign_convention(bd4, oct3, cycle_join):
    for cx in (bd4, oct3, cycle_join):
        for k in range(cx.dim + 1):
            rows = cx.faces_of_dim(k - 1)
            columns = _boundary_columns(_face_masks(cx, (k, k + 1)), k)
            for face, column in zip(cx.faces_of_dim(k), columns, strict=True):
                fs = sorted(face)  # dropping the j-th smallest vertex gives (-1)^j
                drop = {rows.index(frozenset(fs[:j] + fs[j + 1 :])): (-1) ** j for j in range(len(fs))}
                assert column == drop
            dense = boundary_matrix(cx, k).entries
            assert dense == tuple(tuple(col.get(r, 0) for col in columns) for r in range(len(rows)))


def test_is_homology_sphere(cycle_join, bd5):
    assert is_homology_sphere(cycle_join)
    assert is_homology_sphere(bd5)
    res = is_homology_sphere(from_facets([[0, 1, 2, 3]]))
    assert not res
    assert res.witness is not None


def test_star_is_homology_ball(bd5):
    star = bd5.star([0, 1, 2, 3])
    assert is_homology_ball(star)
    # boundary = (boundary of the face) * (its two-point link)
    bd = ball_boundary(star)
    assert bd.dim == star.dim - 1
    expected = join(simplex_boundary(3), simplex_boundary(1))
    from scx import are_isomorphic

    assert are_isomorphic(bd, expected)


def test_ball_boundary_of_solid_simplex(bd3):
    solid = from_facets([[0, 1, 2, 3]])
    assert ball_boundary(solid) == bd3
    assert interior_faces(solid) == {frozenset({0, 1, 2, 3})}


def test_two_facet_ball_boundary(bd4):
    glued = min(bd4.facets, key=sorted)
    sphere = connected_sum(bd4, glued, simplex_boundary(4), glued)
    facets = sorted(sphere.facets, key=sorted)
    pair = next(
        (f, g) for f in facets for g in facets if f != g and len(f & g) == 3
    )
    ball = from_facets([sorted(pair[0]), sorted(pair[1])])
    res = is_homology_ball(ball)
    assert res
    bd = ball_boundary(ball, check=False)
    assert bd.n_faces(0) == 5
    assert g2(bd) == 0
    assert is_homology_sphere(bd)


def test_ball_boundary_rejects_spheres(bd3):
    with pytest.raises(PreconditionError):
        ball_boundary(bd3)


def _rp2_cases():
    """RP^2_6, its suspension and its cone from vertex 6."""
    rp2 = from_facets(RP2_FACETS)
    return rp2, suspension(rp2), from_facets([f + [6] for f in RP2_FACETS])


@pytest.mark.parametrize(
    "field, verdicts",
    [
        # over Q, RP^2 is acyclic, so only the empty face has a trivial link:
        # the boundary is the empty complex, of the wrong dimension, for it and
        # its suspension, and for the cone it is RP^2, no homology sphere
        ("rational", [("boundary has wrong dimension", None)] * 2
         + [("boundary is not a homology sphere", ())]),
        # over GF(2) the sweep meets a link that is neither first
        (2, [("link is neither ball- nor sphere-like", w) for w in ((), (), (6,))]),
    ],
    ids=["rational", "gf2"],
)
def test_ball_verdicts_past_the_link_sweep_on_the_projective_plane(field, verdicts):
    cases = _rp2_cases()
    assert betti(cases[0]).entries == (0, 0, 0, 0)
    for cx, (reason, witness) in zip(cases, verdicts):
        verdict, boundary, interior = homology._ball_analysis(cx, field)
        expected, expected_boundary, expected_interior = oracle.ball_analysis_by_sweep(cx, field)
        assert (verdict.ok, verdict.reason, verdict.witness) == (False, reason, witness)
        assert (expected.ok, expected.reason, expected.witness) == (False, reason, witness)
        assert (boundary, interior) == (expected_boundary, expected_interior)
        for reader in (ball_boundary, lambda c, f: is_r_stacked_ball(c, 1, f)):
            with pytest.raises(PreconditionError, match=reason):
                reader(cx, field)


def test_faces_with_trivial_links_are_closed_downward_past_the_link_sweep():
    # why homology._ball has no "boundary faces are not closed downward"
    # verdict, which the oracle's sweep keeps.  It would be tested only when
    # every face link is trivial or a homology sphere of complementary
    # dimension.  Let s have a sphere link L of dimension k and
    # t > s a trivial one.  Every face link of L is again trivial or such a
    # sphere, so L is pure and strongly connected, each ridge of L lies in
    # one or two facets, and a top cycle z of L is nonzero on every facet:
    # a ridge in one facet would force z to vanish everywhere.  Restricted to
    # the facets through t - s, z is a nonzero top cycle of lk(t), which is
    # then not trivial.  So the trivial faces are closed downward.
    rng = random.Random(39)
    cases = [*_rp2_cases(), *(b for cx in NON_BALL_HOSTS for b in _non_balls(cx))]
    for _ in range(300):
        n = rng.randint(3, 6)
        facets = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 5))]
        cases.append(from_facets(facets))
    reached = 0
    for cx, field in product(cases, ("rational", 2)):
        faces = [f for group in oracle.closure_by_dim(cx.facets).values() for f in group]
        profiles = {f: betti(cx.link(f), field) for f in faces}
        if all(p.is_trivial() or p.is_sphere(cx.dim - len(f)) for f, p in profiles.items()):
            reached += 1
            trivial = {f for f, p in profiles.items() if p.is_trivial()}
            assert all(f - {v} in trivial for f in trivial for v in f), (cx, field)
            verdict = homology._ball_analysis(cx, field)[0]
            expected = oracle.ball_analysis_by_sweep(cx, field)[0]
            assert (verdict.ok, verdict.reason) == (expected.ok, expected.reason)
    assert reached > 400


def test_homology_manifold_and_pseudomanifold(cycle_join):
    assert is_homology_manifold(cycle_join)
    assert is_normal_pseudomanifold(cycle_join)
    # a cycle with a pendant edge: purity fails, with a witness
    pendant = from_facets([[0, 1], [1, 2], [0, 2], [2, 3]])
    res = is_normal_pseudomanifold(pendant)
    assert not res and res.witness is not None
    assert is_normal_pseudomanifold(cycle(4))


RP2_FACETS = [
    [0, 1, 3], [0, 1, 4], [0, 2, 3], [0, 2, 5], [0, 4, 5],
    [1, 2, 4], [1, 2, 5], [1, 3, 5], [2, 3, 4], [3, 4, 5],
]

# manifolds on at most 8 vertices, from the 0-sphere up to 3-spheres
MANIFOLDS = (
    simplex_boundary(1),
    cycle(8),
    cross_polytope_boundary(3),
    from_facets(RP2_FACETS),
    simplex_boundary(4),
    stacked_sphere(3, 7),
    cross_polytope_boundary(4),
    join(cycle(4), cycle(4)),
)


@st.composite
def near_manifolds(draw):
    """A relabelled small manifold with up to two facets dropped and up to two
    random faces added, so that failures appear at any vertex."""
    base = draw(st.sampled_from(MANIFOLDS))
    perm = draw(st.permutations(range(8)))
    facets = [[perm[v] for v in f] for f in sorted(base.facets, key=sorted)]
    drop = draw(st.sets(st.integers(0, len(facets) - 1), max_size=2))
    extra = draw(
        st.lists(
            st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True), max_size=2
        )
    )
    return from_facets([f for i, f in enumerate(facets) if i not in drop] + extra)


random_complexes = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
    min_size=1,
    max_size=8,
).map(from_facets)


def _vertex_link_manifold(cx, field):
    """The definition: every vertex link is a homology (dim-1)-sphere."""
    for v in sorted(cx.vertices):
        link = cx.link([v])
        if link.dim != cx.dim - 1 or not is_homology_sphere(link, field):
            return False, (v,), "vertex link is not a homology sphere"
    return True, None, ""


@given(st.one_of(near_manifolds(), random_complexes), st.sampled_from(["rational", 2]))
@settings(max_examples=150, deadline=None)
def test_homology_manifold_matches_vertex_link_definition(cx, field):
    res = is_homology_manifold(cx, field)
    assert (res.ok, res.witness, res.reason) == _vertex_link_manifold(cx, field)


def _betti_on_own_labels(cx, field):
    """Reduced Betti numbers from the ranks of ``cx``'s own boundary matrices,
    never through the memo or its key."""
    sizes = [cx.n_faces(k) for k in range(-1, cx.dim + 1)]
    ranks = [0] + [oracle.matrix_rank(boundary_matrix(cx, k).entries, field) for k in range(cx.dim + 1)]
    ranks.append(0)  # ranks[k + 1] = rank d_k, with d_{-1} and d_{dim+1} zero
    return tuple(sizes[j] - ranks[j] - ranks[j + 1] for j in range(len(sizes)))


@given(
    st.one_of(near_manifolds(), random_complexes),
    st.permutations(range(8)),
    st.sets(st.integers(0, 40), min_size=8, max_size=8).map(sorted),
    st.sampled_from(["rational", 2]),
)
@settings(max_examples=150, deadline=None)
def test_betti_memo_matches_the_uncached_computation(cx, perm, rising, field):
    shuffled = from_facets([[perm[v] for v in f] for f in cx.facets])
    monotone = from_facets([[rising[v] for v in f] for f in cx.facets])  # order-preserving
    for c in (cx, shuffled, monotone, cx, shuffled, monotone):  # misses first, then hits
        assert betti(c, field).entries == _betti_on_own_labels(c, field)
    assert betti(shuffled, field) == betti(monotone, field) == betti(cx, field)
    if field == 2:
        assert betti(cx, field).entries == oracle.betti_gf2(cx.facets)


@given(st.one_of(near_manifolds(), random_complexes), st.sampled_from(["rational", 2, 3]))
@settings(max_examples=100, deadline=None)
def test_unit_pivot_ranks_of_boundary_columns(cx, field):
    ks = range(cx.dim + 1)
    faces = _face_masks(cx, range(cx.dim + 2))
    ranks = [rank_sparse(_boundary_columns(faces, k), field) for k in ks]
    assert ranks == [oracle.matrix_rank(boundary_matrix(cx, k).entries, field) for k in ks]
    if field == 2:
        sizes = [cx.n_faces(k) for k in range(-1, cx.dim + 1)]
        ranks = [0] + ranks + [0]
        entries = tuple(sizes[j] - ranks[j] - ranks[j + 1] for j in range(len(sizes)))
        assert entries == oracle.betti_gf2(cx.facets)


FIELDS = ("rational", 2, 3)


def _memo_key(cx):
    """The order type of ``cx``, whose class key ``betti`` looks it up by."""
    return homology._order_type(cx._masks[1])


def _assert_matches_every_column(masks):
    for field in FIELDS:
        expected = oracle.betti_every_column(masks, field)
        assert homology._betti.__wrapped__(masks, field).entries == expected, (masks, field)


MEMOS = ("_betti", "_is_sphere", "_class_key", "_ball")


def _run_all_cold(shelling: bool):
    """One ``run_all()`` on empty memos and a catalog built afresh, with or
    without shelling: the order types it hands to ``_class_key``, sorted,
    and each memo's misses."""
    seen, memo = set(), homology._class_key
    clear_memos()
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(homology, "_class_key", lambda masks: seen.add(masks) or memo(masks))
        monkeypatch.setattr(verify, "_CATALOG_MEMO", {})
        if not shelling:
            shelling_off(monkeypatch)
        assert all(report.passed for report in run_all())
    misses = {name: getattr(homology, name).cache_info().misses for name in MEMOS}
    clear_memos()  # no verdict outlives the plant
    return sorted(seen), misses


@pytest.fixture(scope="module")
def run_all_cold():
    return _run_all_cold(shelling=True)


@pytest.fixture(scope="module")
def run_all_eliminated():
    """:func:`_run_all_cold` with every shelling attempt failing, so that
    every sphere verdict is eliminated and every link judged."""
    return _run_all_cold(shelling=False)


@pytest.fixture(scope="module")
def run_all_order_types(run_all_eliminated):
    return run_all_eliminated[0]


def test_a_cold_run_all_counts_its_memo_misses(run_all_cold, run_all_eliminated):
    # counted work, free of host noise: each miss is one elimination, verdict,
    # key or sweep.  A change that stops shelling fails the first (117, 74
    # and 254 misses then, as the second pins), and one that eliminates the
    # links of sphere verdicts below dimension 3 again fails the second
    # (155, 92 and 270 misses then)
    assert run_all_cold[1] == {"_betti": 55, "_is_sphere": 28, "_class_key": 117, "_ball": 42}
    assert run_all_eliminated[1] == {"_betti": 117, "_is_sphere": 74, "_class_key": 254, "_ball": 42}


def test_betti_matches_every_column_ranks_on_run_all_misses(run_all_order_types):
    # every order type run_all() asks for with shelling off, each a
    # class-key miss once: 254 on empty memos, whose class keys make 117
    # Betti misses
    assert len(run_all_order_types) >= 200
    for masks in run_all_order_types:
        key = homology._class_key(masks)
        for field in FIELDS:
            expected = oracle.betti_every_column(masks, field)
            assert homology._betti.__wrapped__(masks, field).entries == expected, (masks, field)
            assert homology._betti.__wrapped__(key, field).entries == expected, (key, field)


def _complex_of(masks):
    """The complex whose facets are the bitmasks ``masks`` over 0..n-1."""
    return [frozenset(i for i in range(m.bit_length()) if m >> i & 1) for m in masks]


def _assert_class_key_relabels(masks):
    """The class key of the order type ``masks`` is its image under a vertex
    bijection, with the Betti numbers and the homology-sphere verdict of
    ``masks`` over Q, GF(2) and GF(3)."""
    key = homology._class_key.__wrapped__(masks)
    facets, image = _complex_of(masks), _complex_of(key)
    assert oracle.face_counts(facets) == oracle.face_counts(image)
    mapping = oracle.are_isomorphic_adjacency(facets, image)
    assert mapping is not None, masks
    assert {frozenset(map(mapping.__getitem__, f)) for f in facets} == set(image)
    for field in FIELDS:
        assert homology._betti.__wrapped__(key, field) == homology._betti.__wrapped__(masks, field)
        assert homology._is_sphere.__wrapped__(key, field) == homology._is_sphere.__wrapped__(
            masks, field
        ), (masks, field)


def test_class_key_relabels_every_run_all_order_type(run_all_order_types):
    for masks in run_all_order_types:
        _assert_class_key_relabels(masks)
    keys = set(map(homology._class_key, run_all_order_types))
    assert len(keys) < len(run_all_order_types)  # isomorphic order types meet


@given(st.one_of(near_manifolds(), random_complexes))
@settings(max_examples=100, deadline=None)
def test_class_key_relabels_random_complexes(cx):
    _assert_class_key_relabels(_memo_key(cx))
    bit, masks = cx._masks
    for b in bit.values():
        _assert_class_key_relabels(homology._order_type(homology._link(masks, b)))


def _counted_verdict(cx) -> bool:
    """The counted sphere verdict on the class key of ``cx``, of dimension
    <= 2, after checking it against elimination over Q, GF(2) and GF(3):
    the Betti numbers of ``cx`` and of every face link."""
    assert cx.dim <= 2
    key = homology._class_key(cx._masks[1])
    verdicts = set()
    for field in FIELDS:
        expected = betti(cx, field).is_sphere(cx.dim)
        expected = expected and bool(oracle.is_homology_manifold_by_links(cx, field))
        assert homology._is_sphere.__wrapped__(key, field) == expected, (key, field)
        verdicts.add(expected)
    assert len(verdicts) == 1  # no field changes a verdict below dimension 3
    return verdicts.pop()


def test_counted_sphere_verdicts_match_elimination_on_run_all_order_types(run_all_order_types):
    low = [m for m in run_all_order_types if max(map(int.bit_count, m)) <= 3]
    verdicts = [_counted_verdict(from_facets(_complex_of(m))) for m in low]
    assert len(low) >= 50 and True in verdicts and False in verdicts


def test_counted_sphere_verdicts_match_elimination_on_census_links(census):
    for sphere in census:
        for face in sphere.faces_of_dim(0) + sphere.faces_of_dim(1):
            assert _counted_verdict(sphere.link(face))


TORUS_7 = [[i, (i + 1) % 7, (i + 3) % 7] for i in range(7)]
TORUS_7 += [[i, (i + 2) % 7, (i + 3) % 7] for i in range(7)]
TETRAHEDRON = list(combinations(range(4), 3))
# two octahedra that share the antipodes 0 and 1, so that f0 - f1 + f2 = 2
OCTAHEDRA = [[a, b, c] for a in (0, 1) for bs, cs in (((2, 3), (4, 5)), ((6, 7), (8, 9)))
             for b in bs for c in cs]


@pytest.mark.parametrize(
    "facets, sphere",
    [
        ([], True),
        ([[0], [1]], True),
        ([[0], [1], [2]], False),
        ([[i, (i + 1) % 5] for i in range(5)], True),
        ([[0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [0, 4]], False),  # a figure-eight
        ([[0, 1, 2], [3, 4, 5]], False),  # two disjoint triangles
        ([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]], False),  # and their boundaries
        (TETRAHEDRON, True),
        (TETRAHEDRON + [[0, 4]], False),  # a dangling edge
        (TETRAHEDRON + [[v + 4 for v in f] for f in TETRAHEDRON], False),  # disjoint
        (TETRAHEDRON + [[v + 3 for v in f] for f in TETRAHEDRON], False),  # wedged at 3
        (TORUS_7, False),
        (TORUS_7 + [[v + 7 for v in f] for f in TETRAHEDRON], False),  # f0 - f1 + f2 = 2
        (OCTAHEDRA, False),  # the links of 0 and 1 are two 4-cycles each
        (RP2_FACETS, False),  # GF(2): b1 = b2 = 1
    ],
)
def test_counted_sphere_verdicts_match_elimination_on_plants(facets, sphere):
    assert _counted_verdict(from_facets(facets)) == sphere


@given(st.one_of(near_manifolds(), random_complexes).filter(lambda cx: cx.dim <= 2))
@settings(max_examples=150, deadline=None)
def test_counted_sphere_verdicts_match_elimination_on_random_complexes(cx):
    _counted_verdict(cx)


def test_manifold_verdicts_in_dimension_3_make_no_betti_miss(request):
    # each of these 3-spheres shells, with no memo lookup; when shelling
    # fails, every vertex link of a 3-manifold is a 2-complex, counted
    catalog = [e.complex for e in standard_catalog(dmax=7) if e.complex.dim == 3]
    clear_memos()
    assert len(catalog) > 10 and all(map(is_homology_manifold, catalog))
    assert memo_counts() == (0, 0, 0, 0)
    request.getfixturevalue("no_shelling")
    assert all(map(is_homology_manifold, catalog))
    assert homology._betti.cache_info().misses == 0
    assert homology._is_sphere.cache_info().misses > 0


# a 2-complex whose vertices 1..6 lie in 4, 1, 6, 2, 5 and 3 facets
DISTINCT_DEGREES = [(1, 3, 4), (1, 3, 5), (1, 3, 6), (1, 5, 6), (2, 3, 5), (3, 4, 5), (3, 5, 6)]


def test_a_shuffle_of_distinct_degrees_hits_both_memos():
    # the cone apex 0 is the least vertex, so the manifold test judges its
    # link, the 2-complex, first; that link has the homology of a 2-sphere
    # but an edge in four triangles, so the count fails it with no Betti
    # lookup and the test stops there
    shuffle = dict(zip(range(1, 7), (4, 6, 1, 5, 2, 3)))
    plain = from_facets(DISTINCT_DEGREES)
    shuffled = from_facets([[shuffle[v] for v in f] for f in DISTINCT_DEGREES])
    assert len({sum(v in f for f in DISTINCT_DEGREES) for v in range(1, 7)}) == 6
    assert _memo_key(shuffled) != _memo_key(plain)  # the order types differ
    clear_memos()
    counts = []
    for cx in (plain, shuffled):
        verdict = is_homology_manifold(from_facets([[0, *f] for f in cx.facets]))
        assert (verdict.ok, verdict.witness) == (False, (0,))
        counts.append(memo_counts())
    # (Betti lookups, misses, verdict lookups, misses): the second cone costs
    # one verdict lookup, a hit
    assert counts == [(0, 0, 1, 1), (0, 0, 2, 1)]
    expected = homology._betti.__wrapped__(_memo_key(plain), "rational")
    assert betti(shuffled) == betti(plain) == expected
    assert expected.is_sphere(2)
    assert memo_counts() == (2, 1, 2, 1)  # the second profile is a hit


def test_guards_raise_on_every_repeat_call_and_cache_nothing():
    clear_memos()
    # 2^18 faces; then 2^16 faces, but d_8 is 12870 x 11440
    for size, match in ((18, "closure bound"), (16, "Betti guard")):
        simplex = SimplicialComplex([range(1, size + 1)])
        cone = SimplicialComplex([range(size + 1)])  # the apex 0 links the simplex
        for _ in range(3):
            with pytest.raises(TooLargeError, match=match):
                betti(simplex)
            with pytest.raises(TooLargeError, match=match):
                is_homology_manifold(cone)
    betti_info, sphere_info = homology._betti.cache_info(), homology._is_sphere.cache_info()
    assert (betti_info.currsize, betti_info.misses) == (0, 12)
    assert (sphere_info.currsize, sphere_info.misses) == (0, 6)


def test_a_counted_sphere_verdict_meets_no_guard():
    # the apex links of the suspension are a stacked 2-sphere on 400
    # vertices whose d_2 has 1,194 x 796 cells, past the Betti guard; its
    # verdict is counted, as are the other vertex links
    sphere = stacked_sphere(3, 400)
    with pytest.raises(TooLargeError, match="Betti guard"):
        betti(sphere)
    assert is_homology_manifold(suspension(sphere))


def test_a_shellable_sphere_meets_no_guard():
    # the suspension of a stacked 2-sphere on 150 vertices has d_2 with
    # 744 x 1,184 cells, past the Betti guard, which stopped its sphere
    # verdict and the manifold verdict of its own suspension, whose apex
    # links it is; both shell
    sphere = suspension(stacked_sphere(3, 150))
    with pytest.raises(TooLargeError, match="Betti guard"):
        betti(sphere)
    assert is_homology_sphere(sphere) and is_homology_manifold(sphere)
    assert is_homology_manifold(join(simplex_boundary(1), sphere))


def test_betti_matches_every_column_ranks_on_the_census(census):
    for sphere in census:
        _assert_matches_every_column(_memo_key(sphere))
        for v in sorted(sphere.vertices):
            _assert_matches_every_column(_memo_key(sphere.link([v])))


def _moore_space_mod_3():
    """M(Z/3, 1), relabelled so that the reduction of its class key over Q
    meets a pivot entry other than +-1: a disc whose rim 9-gon w_0..w_8
    (vertices 3..11, centre 12) wraps three times round the triangle
    {0, 1, 2}; f = (13, 39, 27).  The class key puts the rim (5 facets a
    vertex) before the triangle and the centre (9 each), so only the order
    within those two sets matters: 105 of 300 seeded shuffles take the
    scaled step."""
    relabel = (9, 6, 3, 2, 10, 0, 12, 11, 4, 1, 7, 8, 5)
    w = [3 + i % 9 for i in range(10)]
    facets = []
    for i in range(9):
        a, b = i % 3, (i + 1) % 3
        facets += [(a, b, w[i]), (b, w[i], w[i + 1]), (w[i], w[i + 1], 12)]
    return from_facets([[relabel[v] for v in f] for f in facets])


def test_betti_matches_every_column_ranks_past_the_unit_pivots():
    # the 2-torsion of RP^2 and of its suspension makes Q and GF(2) differ;
    # the 3-torsion of the Moore space makes Q and GF(3) differ
    rp2 = from_facets(RP2_FACETS)
    suspension = join(rp2, simplex_boundary(1))
    for cx, rational, mod2 in (
        (rp2, (0, 0, 0, 0), (0, 0, 1, 1)),
        (suspension, (0, 0, 0, 0, 0), (0, 0, 0, 1, 1)),
        (_moore_space_mod_3(), (0, 0, 0, 0), (0, 0, 0, 0)),
    ):
        masks = _memo_key(cx)
        assert homology._betti.__wrapped__(masks, "rational").entries == rational
        assert homology._betti.__wrapped__(masks, 2).entries == mod2
        _assert_matches_every_column(masks)


def test_betti_takes_the_scaled_step_over_q_on_a_relabelled_moore_space(monkeypatch):
    # in its own labels the reduction meets only +-1 pivot entries; in these
    # one column over Q is scaled by a non-unit and divided by its content,
    # which is the one gcd call
    cx = _moore_space_mod_3()
    assert [cx.n_faces(k) for k in range(3)] == [13, 39, 27]
    calls, original = [], exact.gcd
    monkeypatch.setattr(exact, "gcd", lambda *xs: calls.append(xs) or original(*xs))
    clear_memos()
    for field, gcds, entries in (
        ("rational", 1, (0, 0, 0, 0)),
        (2, 0, (0, 0, 0, 0)),
        (3, 0, (0, 0, 1, 1)),
    ):
        calls.clear()
        assert betti(cx, field).entries == entries
        assert len(calls) == gcds, field
        assert entries == oracle.betti_every_column(_memo_key(cx), field)
    assert homology._betti.cache_info().misses == 3


@given(st.one_of(near_manifolds(), random_complexes))
@settings(max_examples=100, deadline=None)
def test_betti_matches_every_column_ranks_on_random_complexes(cx):
    _assert_matches_every_column(_memo_key(cx))


def test_betti_miss_checks_the_closure_guard_then_the_betti_guard():
    clear_memos()
    with pytest.raises(TooLargeError, match="closure bound"):
        betti(SimplicialComplex([range(18)]))  # 2^18 faces
    with pytest.raises(TooLargeError, match="Betti guard"):
        betti(SimplicialComplex([range(16)]))  # 2^16 faces, but d_8 is 12870 x 11440
    info = homology._betti.cache_info()
    assert (info.currsize, info.misses) == (0, 2)


def test_betti_memo_hits_an_order_preserving_relabelling():
    clear_memos()
    cx = join(cycle(4), cycle(5))
    shifted = from_facets([[3 * v + 10 for v in f] for f in cx.facets])
    assert shifted != cx
    assert betti(shifted) == betti(cx)
    info = homology._betti.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_manifold_sweep_of_a_join_computes_few_profiles():
    clear_memos()
    assert is_homology_manifold(join(cycle(5), cycle(6)))
    assert homology._betti.cache_info().misses <= 7  # 55 when keyed on the facets


@pytest.mark.parametrize(
    "facets, same_type, entries", [([], [], (1,)), ([[5]], [[0]], (0, 0))]
)
def test_smallest_complexes_round_trip_through_the_memo_key(facets, same_type, entries):
    clear_memos()
    for c in (from_facets(facets), from_facets(same_type)):
        assert betti(c).entries == entries == oracle.betti_gf2(c.facets)
    info = homology._betti.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("fields", [("rational", 2), (2, "rational")])
def test_betti_memo_keys_on_the_field(fields):
    clear_memos()
    rp2 = from_facets(RP2_FACETS)
    expected = {"rational": (0, 0, 0, 0), 2: (0, 0, 1, 1)}
    for field in fields + fields:
        profile = betti(rp2, field)
        assert (profile.entries, profile.field) == (expected[field], field)
    info = homology._betti.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_betti_memo_never_holds_a_guard_trip(monkeypatch):
    clear_memos()
    betti(cycle(5))
    monkeypatch.setattr(homology, "BETTI_GUARD", 5)  # 4x6 cells in d_1 of the 3-simplex
    for _ in range(3):
        with pytest.raises(TooLargeError):
            betti(simplex_boundary(3))
    info = homology._betti.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 4, 0)


def test_sphere_verdict_memo_never_holds_a_guard_trip(monkeypatch, no_shelling):
    # every vertex link of the 5-simplex boundary is a 4-simplex boundary
    # (d_1 5x10 and d_2 10x10 cells), every edge link a tetrahedron
    # boundary, whose counted verdict is warm; shelling is off, or the
    # 5-simplex boundary would shell with no Betti number
    clear_memos()
    assert is_homology_manifold(simplex_boundary(4))
    before = homology._is_sphere.cache_info().currsize
    monkeypatch.setattr(homology, "BETTI_GUARD", 10)
    for _ in range(3):
        with pytest.raises(TooLargeError, match="Betti guard"):
            is_homology_manifold(simplex_boundary(5))
    assert homology._is_sphere.cache_info().currsize == before == 1


def test_betti_memo_is_bounded():
    for v in range(homology.BETTI_MEMO + 40):  # v + 1 points: distinct order types
        assert betti(from_facets([[i] for i in range(v + 1)])).b(0) == v
    info = homology._betti.cache_info()
    assert info.maxsize == info.currsize == homology.BETTI_MEMO


def test_betti_memo_is_shared_safely_between_threads():
    shared = [from_facets(RP2_FACETS), join(cycle(4), cycle(4)), stacked_sphere(3, 7)]
    shared.append(from_facets(sorted(shared[1].facets, key=sorted)[1:]))  # not a manifold
    jobs = [(cx, field) for cx in shared for field in ("rational", 2)]
    clear_memos()
    expected = [is_homology_manifold(cx, field) for cx, field in jobs]
    clear_memos()
    results = [None] * 8

    def sweep(i):
        order = jobs[i % len(jobs):] + jobs[: i % len(jobs)]  # threads start apart
        got = {job: is_homology_manifold(*job) for job in order}
        results[i] = [got[job] for job in jobs]

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == expected for r in results)
    assert [r.ok for r in expected] == [True] * 6 + [False] * 2


def test_sphere_after_manifold_builds_only_its_own_boundary_matrices(monkeypatch, request):
    cx = join(cycle(4), cycle(4))
    assert len(cx.faces()) < homology.BETTI_MEMO
    built = []
    original = homology._boundary_columns
    monkeypatch.setattr(
        homology, "_boundary_columns", lambda faces, k: built.append(k) or original(faces, k)
    )
    clear_memos()
    assert is_homology_manifold(cx) and is_homology_sphere(cx)
    assert built == []  # it shells: neither builds a boundary matrix
    request.getfixturevalue("no_shelling")
    clear_memos()
    assert is_homology_manifold(cx)
    built.clear()
    assert is_homology_sphere(cx)
    assert built == list(range(cx.dim + 1))


def _per_face_sphere(cx, field):
    """The definition: every face link, the empty face included, has the
    homology of the sphere of complementary dimension."""
    return all(
        betti(cx.link(face), field).is_sphere(cx.dim - len(face)) for face in cx.faces()
    )


@given(st.one_of(near_manifolds(), random_complexes), st.sampled_from(["rational", 2]))
@settings(max_examples=150, deadline=None)
def test_homology_sphere_matches_per_face_definition(cx, field):
    res = is_homology_sphere(cx, field)
    assert res.ok == _per_face_sphere(cx, field)
    if not betti(cx, field).is_sphere(cx.dim):
        assert res.witness == ()
    else:
        assert res == is_homology_manifold(cx, field)


def record_links(monkeypatch) -> list:
    """The faces that ``SimplicialComplex.link`` is asked for from now on."""
    linked = []
    original = SimplicialComplex.link
    monkeypatch.setattr(
        SimplicialComplex, "link", lambda cx, f: linked.append(f) or original(cx, f)
    )
    return linked


def memo_counts() -> tuple:
    """(lookups, misses) of the Betti memo, then of the sphere-verdict memo."""
    b, s = homology._betti.cache_info(), homology._is_sphere.cache_info()
    return b.hits + b.misses, b.misses, s.hits + s.misses, s.misses


def record_swept(monkeypatch) -> list:
    """The face masks whose links ``homology._link`` reads from now on."""
    swept, original = [], homology._link

    def recording(masks, fm):
        swept.append(fm)
        return original(masks, fm)

    monkeypatch.setattr(homology, "_link", recording)
    return swept


def test_homology_sphere_rechecks_one_verdict_per_vertex(monkeypatch, no_shelling):
    # the elimination path, which a complex that does not shell takes
    cx = join(cycle(5), simplex_boundary(4))
    assert (len(cx.faces()), cx.n_faces(0)) == (341, 10)
    linked = record_links(monkeypatch)
    clear_memos()
    # cold: each class key among the iterated vertex links is judged once (8
    # of them); the 5 of dimension 3 and 4 are eliminated once, as is the
    # complex itself, and the 3 of dimension 2 are counted, with no lookup
    # of their own links
    assert is_homology_sphere(cx)
    assert memo_counts() == (6, 6, 45, 8)
    swept = record_swept(monkeypatch)
    assert is_homology_sphere(cx)
    # warm: its own Betti numbers, read off its facet masks with no link,
    # then one verdict lookup per vertex link, in sorted vertex order (bit i
    # is the i-th least vertex)
    assert memo_counts() == (6 + 1, 6, 45 + 10, 8)
    assert swept == [1 << i for i in range(10)]
    assert linked == []  # the links are read as facet bitmasks


def test_homology_manifold_rechecks_one_verdict_per_vertex(cycle_join, monkeypatch, no_shelling):
    # the elimination path, which a complex that does not shell takes
    linked = record_links(monkeypatch)
    monkeypatch.setattr(homology, "is_homology_sphere", None)  # never consulted
    clear_memos()
    assert is_homology_manifold(cycle_join)
    before = memo_counts()
    assert before[:2] == (0, 0) and before[3] > 0  # the 2-dimensional links are counted
    swept = record_swept(monkeypatch)
    assert is_homology_manifold(cycle_join)
    assert swept == [1 << i for i in range(cycle_join.n_faces(0))]
    # no Betti lookup, and one verdict hit per vertex
    assert memo_counts() == before[:2] + (before[2] + cycle_join.n_faces(0), before[3])
    assert linked == []


def test_a_shellable_sphere_is_judged_with_no_betti_number_or_link(monkeypatch):
    # the join shells on its own masks, so neither test reads a link, and a
    # second call costs the same shelling again, with no memo lookup
    cx = join(cycle(5), simplex_boundary(4))
    linked = record_links(monkeypatch)
    clear_memos()
    swept = record_swept(monkeypatch)
    for _ in range(2):
        assert is_homology_sphere(cx) and is_homology_manifold(cx)
    assert memo_counts() == (0, 0, 0, 0)
    assert swept == linked == []


def _kuhnel(d):
    """Kühnel's (2d + 3)-vertex d-manifold, a sphere bundle over the circle,
    with the facets {i, ..., i + d + 1} - {i + j} mod 2d + 3, 1 <= j <= d
    (Kühnel 1986); for d = 2 it is the 7-vertex torus."""
    n = 2 * d + 3
    return from_facets(
        [[(i + k) % n for k in range(d + 2) if k != j] for i in range(n) for j in range(1, d + 1)]
    )


def _wedge(cx):
    """Two copies of ``cx`` (vertices 0..n-1) sharing the vertex 0."""
    n = cx.n_faces(0)
    return from_facets(list(cx.facets) + [[v and v + n for v in f] for f in cx.facets])


TORUS, RP2 = from_facets(TORUS_7), from_facets(RP2_FACETS)

# closed pseudomanifolds and homology manifolds that are no spheres, balls,
# whose ridges on the boundary lie in one facet, and complexes with the
# homology of a sphere that are no manifolds
NON_SPHERES = {
    "torus": TORUS,
    "RP^2": RP2,
    "torus suspension": suspension(TORUS),
    "RP^2 suspension": suspension(RP2),
    "torus double suspension": suspension(suspension(TORUS)),
    "RP^2 double suspension": suspension(suspension(RP2)),
    "torus * triangle": join(TORUS, simplex_boundary(2)),
    "Kühnel 3-manifold": _kuhnel(3),
    "Kühnel 4-manifold": _kuhnel(4),
    "two 2-spheres wedged at a vertex": _wedge(simplex_boundary(3)),
    "two 3-spheres wedged at a vertex": _wedge(simplex_boundary(4)),
    "octahedra sharing two antipodes": from_facets(OCTAHEDRA),
    "solid tetrahedron": from_facets([range(4)]),
    "3-ball": simplex_boundary(4).star([0]),
    # sphere homology, with a ridge in three facets
    "2-sphere with a fin": from_facets(TETRAHEDRON + [[0, 1, 4]]),
    "3-sphere with a fin": from_facets([*simplex_boundary(4).facets, [0, 1, 2, 5]]),
}


@pytest.mark.parametrize("name", NON_SPHERES)
def test_no_non_sphere_shells(name, monkeypatch):
    # and each test tries the complex's own masks once, as a failed attempt
    # is not repeated within a call
    cx = NON_SPHERES[name]
    assert not homology._shells(cx._masks[1])
    tried, original = [], homology._shells
    monkeypatch.setattr(homology, "_shells", lambda masks: tried.append(masks) or original(masks))
    for field in ("rational", 2):
        assert not is_homology_sphere(cx, field)
        for test in (is_homology_sphere, is_homology_manifold):
            tried.clear()
            test(cx, field)
            assert tried.count(cx._masks[1]) == 1, (test, field)


def test_the_kuehnel_manifolds_are_homology_manifolds_and_no_spheres():
    # the 3-manifold is not orientable, the 4-manifold is
    orientable = (0, 0, 1, 0, 1, 1)
    for d, rational, mod2 in ((3, (0, 0, 1, 0, 0), (0, 0, 1, 1, 1)), (4, orientable, orientable)):
        cx = _kuhnel(d)
        assert (cx.n_faces(0), cx.n_faces(d)) == (2 * d + 3, (2 * d + 3) * d)
        assert (betti(cx).entries, betti(cx, 2).entries) == (rational, mod2)
        assert is_homology_manifold(cx) and is_homology_manifold(cx, 2)
    assert _kuhnel(2) == TORUS


def test_every_census_and_catalog_sphere_shells(census):
    catalog = [e.complex for e in standard_catalog(dmax=7)]
    assert len(census) == 39 and len(catalog) == 67
    for sphere in census + catalog:
        assert homology._shells(sphere._masks[1]), sphere
        for v in sphere.vertices:
            link = sphere.link([v])
            assert link.dim < 3 or homology._shells(link._masks[1]), (sphere, v)


def _verdicts(complexes, fields=("rational", 2)) -> list:
    """(ok, witness, reason) of the sphere and the manifold test of each
    complex over each field, on empty memos, which are emptied again."""
    clear_memos()
    found = [
        (r.ok, r.witness, r.reason)
        for cx in complexes
        for field in fields
        for r in (is_homology_sphere(cx, field), is_homology_manifold(cx, field))
    ]
    clear_memos()
    return found


def _assert_shelling_changes_no_verdict(complexes):
    """Each verdict and witness with shelling is that of elimination alone,
    whose memos hold no verdict that a shelling gave."""
    shelled = _verdicts(complexes)
    with pytest.MonkeyPatch.context() as monkeypatch:
        shelling_off(monkeypatch)
        assert _verdicts(complexes) == shelled


def test_shelling_changes_no_verdict_on_the_catalog_and_its_pieces(census):
    corpus = [*census, *NON_SPHERES.values(), from_facets([])]
    for cx in (e.complex for e in standard_catalog(dmax=7)):
        corpus.append(cx)
        for v in sorted(cx.vertices):
            corpus += [cx.link([v]), cx.antistar(v), cx.star([v])]
    assert len(corpus) > 2000
    _assert_shelling_changes_no_verdict(corpus)


@given(st.one_of(near_manifolds(), random_complexes))
@settings(max_examples=150, deadline=None)
def test_shelling_changes_no_verdict_on_random_complexes(cx):
    _assert_shelling_changes_no_verdict([cx])
    if homology._shells(cx._masks[1]):  # a shelled complex is a sphere by elimination
        with pytest.MonkeyPatch.context() as monkeypatch:
            shelling_off(monkeypatch)
            assert is_homology_sphere(cx) and is_homology_sphere(cx, 2)


def test_interior_is_the_complement_of_the_boundary():
    for entry in standard_catalog(dmax=4, f0max=8, cycle_max=5):
        cx = entry.complex
        for k in range(cx.dim):
            ball = cx.star(cx.faces_of_dim(k)[0])
            assert interior_faces(ball) == ball.faces() - ball_boundary(ball).faces()


def test_hierarchy_on_catalog_members(oct3, cycle_join, bd4):
    for cx in (oct3, cycle_join, bd4):
        assert is_homology_sphere(cx)
        assert is_homology_manifold(cx)
        assert is_normal_pseudomanifold(cx)


def test_disconnected_face_link_witness():
    # two tetrahedron boundaries sharing vertex 0: lk(0) is two triangles
    cx = from_facets(list(combinations(range(4), 3)) + list(combinations((0, 4, 5, 6), 3)))
    res = is_normal_pseudomanifold(cx)
    assert (res.ok, res.witness, res.reason) == (False, (0,), "face link is not connected")


def test_disconnected_complex_witness():
    cx = from_facets(list(combinations(range(4), 3)) + list(combinations(range(4, 8), 3)))
    res = is_normal_pseudomanifold(cx)
    assert (res.ok, res.witness, res.reason) == (False, (), "complex is not connected")


def test_ridge_count_witness():
    # two triangles sharing an edge: boundary edges lie in one facet only
    cx = from_facets([[0, 1, 2], [1, 2, 3]])
    res = is_normal_pseudomanifold(cx)
    assert not res
    assert "1 facets" in res.reason


def test_skeleton_completion_fixed_point(oct3):
    assert skeleton_completion(oct3, oct3.dim + 1) == oct3
    octa = join(join(simplex_boundary(1), simplex_boundary(1)), simplex_boundary(1))
    assert skeleton_completion(octa, 1) == octa  # diagonals stay missing


def test_skeleton_completion_fills_stacked_sphere(bd4):
    glued = min(bd4.facets, key=sorted)
    sphere = connected_sum(bd4, glued, simplex_boundary(4), glued)
    filled = skeleton_completion(sphere, 1)
    assert filled.dim == sphere.dim + 1
    assert sphere.faces() < filled.faces()
    assert is_homology_ball(filled)
    assert ball_boundary(filled, check=False) == sphere


def test_skeleton_completion_guard():
    # every vertex set of K_24 qualifies: about 2^24 candidates
    complete = from_facets(combinations(range(24), 2))
    with pytest.raises(TooLargeError):
        skeleton_completion(complete, 1)
    with pytest.raises(PreconditionError):
        skeleton_completion(complete, 0)


def test_stackedness_certificates(bd4, bd5):
    solid = from_facets([[0, 1, 2, 3, 4]])
    cert = is_r_stacked_ball(solid, 0)
    assert cert and cert.min_stackedness == 0

    glued = min(bd4.facets, key=sorted)
    sphere = connected_sum(bd4, glued, simplex_boundary(4), glued)
    facets = sorted(sphere.facets, key=sorted)
    pair = next((f, g) for f in facets for g in facets if f != g and len(f & g) == 3)
    ball = from_facets([sorted(pair[0]), sorted(pair[1])])
    cert = is_r_stacked_ball(ball, 1)
    assert cert and cert.min_stackedness == 1
    assert cert.interior_by_dim == {2: 1, 3: 2}  # shared ridge and both facets

    star = bd5.star([0, 1, 2, 3])  # 3-face in a 4-sphere: (d - i) = 1
    cert = is_r_stacked_ball(star, 1)
    assert cert and cert.min_stackedness == 1
    assert not is_r_stacked_ball(bd5.star([0, 1, 2]), 1).ok


def test_projective_plane_depends_on_the_field():
    # 6-vertex projective plane (antipodal icosahedron quotient): a normal
    # pseudomanifold and homology manifold that is not a sphere, with
    # 2-torsion separating the rationals from GF(2)
    rp2 = from_facets(RP2_FACETS)
    assert is_normal_pseudomanifold(rp2)
    assert is_homology_manifold(rp2)
    assert not is_homology_sphere(rp2)
    assert betti(rp2).entries == (0, 0, 0, 0)
    assert betti(rp2, 2).entries == (0, 0, 1, 1)
    assert betti(rp2, 3).entries == (0, 0, 0, 0)

    from scx import g2_via_rigidity

    assert g2(rp2) == 3
    assert g2_via_rigidity(rp2) == 3


def test_euler_relation_matches_betti(oct3, cycle_join):
    from scx import reduced_euler

    for cx in (oct3, cycle_join, from_facets([[0, 1, 2], [2, 3]])):
        profile = betti(cx)
        alt = -profile.b(-1) + sum(
            (-1) ** i * profile.b(i) for i in range(0, cx.dim + 1)
        )
        assert alt == reduced_euler(cx)

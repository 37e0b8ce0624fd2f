import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from scx import (
    InternalCheckError,
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
    simplex_boundary,
    skeleton_completion,
    stacked_sphere,
    standard_catalog,
)
import scx
from scx import homology
from scx.exact import matrix_rank, rank_unit_pivot
from scx.homology import _assert_composes_to_zero, _boundary_columns

import oracle


def test_betti_of_spheres(bd3, oct3):
    assert betti(bd3).entries == (0, 0, 0, 1)
    assert betti(oct3).entries == (0, 0, 0, 0, 1)


def test_betti_of_cone():
    solid = from_facets([[0, 1, 2, 3]])
    assert betti(solid).is_trivial()


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


def test_failed_composition_certificate_raises(bd3):
    low, high = _boundary_columns(bd3, 1), _boundary_columns(bd3, 2)
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
        "def flipped(cx, k):\n"
        "    columns = original(cx, k)\n"
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
            rows, columns = cx.faces_of_dim(k - 1), _boundary_columns(cx, k)
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
    ranks = [0] + [matrix_rank(boundary_matrix(cx, k).entries, field) for k in range(cx.dim + 1)]
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
    ranks = [rank_unit_pivot(_boundary_columns(cx, k), field) for k in ks]
    assert ranks == [matrix_rank(boundary_matrix(cx, k).entries, field) for k in ks]
    if field == 2:
        sizes = [cx.n_faces(k) for k in range(-1, cx.dim + 1)]
        ranks = [0] + ranks + [0]
        entries = tuple(sizes[j] - ranks[j] - ranks[j + 1] for j in range(len(sizes)))
        assert entries == oracle.betti_gf2(cx.facets)


def test_betti_memo_hits_an_order_preserving_relabelling():
    homology._betti.cache_clear()
    cx = join(cycle(4), cycle(5))
    shifted = from_facets([[3 * v + 10 for v in f] for f in cx.facets])
    assert shifted != cx
    assert betti(shifted) == betti(cx)
    info = homology._betti.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_manifold_sweep_of_a_join_computes_few_profiles():
    homology._betti.cache_clear()
    assert is_homology_manifold(join(cycle(5), cycle(6)))
    assert homology._betti.cache_info().misses <= 7  # 55 when keyed on the facets


@pytest.mark.parametrize(
    "facets, same_type, entries", [([], [], (1,)), ([[5]], [[0]], (0, 0))]
)
def test_smallest_complexes_round_trip_through_the_memo_key(facets, same_type, entries):
    homology._betti.cache_clear()
    for c in (from_facets(facets), from_facets(same_type)):
        assert betti(c).entries == entries == oracle.betti_gf2(c.facets)
    info = homology._betti.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("fields", [("rational", 2), (2, "rational")])
def test_betti_memo_keys_on_the_field(fields):
    homology._betti.cache_clear()
    rp2 = from_facets(RP2_FACETS)
    expected = {"rational": (0, 0, 0, 0), 2: (0, 0, 1, 1)}
    for field in fields + fields:
        profile = betti(rp2, field)
        assert (profile.entries, profile.field) == (expected[field], field)
    info = homology._betti.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_betti_memo_never_holds_a_guard_trip(monkeypatch):
    homology._betti.cache_clear()
    betti(cycle(5))
    monkeypatch.setattr(homology, "BETTI_GUARD", 5)  # 4x6 cells in d_1 of the 3-simplex
    for _ in range(3):
        with pytest.raises(TooLargeError):
            betti(simplex_boundary(3))
    info = homology._betti.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 4, 0)


def test_betti_memo_is_bounded():
    for v in range(homology.BETTI_MEMO + 40):  # v + 1 points: distinct order types
        assert betti(from_facets([[i] for i in range(v + 1)])).b(0) == v
    info = homology._betti.cache_info()
    assert info.maxsize == info.currsize == homology.BETTI_MEMO


def test_betti_memo_is_shared_safely_between_threads():
    shared = [from_facets(RP2_FACETS), join(cycle(4), cycle(4)), stacked_sphere(3, 7)]
    shared.append(from_facets(sorted(shared[1].facets, key=sorted)[1:]))  # not a manifold
    jobs = [(cx, field) for cx in shared for field in ("rational", 2)]
    homology._betti.cache_clear()
    expected = [is_homology_manifold(cx, field) for cx, field in jobs]
    homology._betti.cache_clear()
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


def test_sphere_after_manifold_builds_only_its_own_boundary_matrices(monkeypatch):
    cx = join(cycle(4), cycle(4))
    assert len(cx.faces()) < homology.BETTI_MEMO
    homology._betti.cache_clear()
    assert is_homology_manifold(cx)
    built = []
    original = homology._boundary_columns
    monkeypatch.setattr(
        homology, "_boundary_columns", lambda c, k: built.append(k) or original(c, k)
    )
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


def test_homology_sphere_computes_one_betti_per_face(monkeypatch):
    cx = join(cycle(5), simplex_boundary(4))
    calls = []
    original = homology.betti
    monkeypatch.setattr(homology, "betti", lambda *a: calls.append(1) or original(*a))
    assert is_homology_sphere(cx)
    assert len(calls) == len(cx.faces()) == 341


def test_homology_manifold_sweeps_each_face_link_once(cycle_join, monkeypatch):
    linked = []
    original_link = SimplicialComplex.link
    monkeypatch.setattr(
        SimplicialComplex, "link", lambda cx, f: linked.append(f) or original_link(cx, f)
    )
    monkeypatch.setattr(homology, "is_homology_sphere", None)  # never consulted
    assert is_homology_manifold(cycle_join)
    nonempty = cycle_join.faces() - {frozenset()}
    assert len(linked) == len(nonempty) and set(linked) == nonempty


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
    path = from_facets([[i, i + 1] for i in range(45)])
    with pytest.raises(TooLargeError):
        skeleton_completion(path, 1)
    with pytest.raises(PreconditionError):
        skeleton_completion(path, 0)


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

import pytest

from scx import (
    PreconditionError,
    are_isomorphic,
    betti,
    central_retriangulation,
    crtr_missing_faces_check,
    cycle,
    from_facets,
    g2,
    inverse_stellar,
    is_homology_sphere,
    is_normal_pseudomanifold,
    join,
    missing_face_identity_sides,
    simplex_boundary,
    stacked_sphere,
    suspension,
    swartz_all,
    swartz_operation,
)
from scx import homology, retriangulate


def test_crtr_of_face_star(bd5):
    out, record = central_retriangulation(bd5, bd5.star([0, 1, 2, 3]))
    assert record.g_before == (1, 0, 0)
    assert record.g_after == (1, 1, 1)
    assert record.prediction_holds()
    assert out.n_faces(0) == bd5.n_faces(0) + 1
    assert are_isomorphic(out, join(simplex_boundary(3), simplex_boundary(2)))


def test_crtr_of_adjacent_facet_pair():
    # star a ridge inside the missing facet, so the output comes out prime
    sphere = stacked_sphere(4, 6)
    glue = sphere.missing_faces(3)[0]
    ridge = glue[:-1]
    ball = sphere.star(ridge)
    assert len(ball.facets) == 2
    out, record = central_retriangulation(sphere, ball)
    assert g2(sphere) == 0 and g2(out) == 1
    assert record.prediction_holds()
    assert out.is_prime()
    assert are_isomorphic(out, join(cycle(4), simplex_boundary(2)))


def test_crtr_preserves_homology(bd4):
    out, _ = central_retriangulation(bd4, bd4.star([0, 1, 2]))
    assert betti(out).entries == betti(bd4).entries
    assert is_normal_pseudomanifold(out)


def test_crtr_rejects_bad_balls(bd4, bd3):
    facets = sorted(bd4.facets, key=sorted)
    disjointish = from_facets([sorted(facets[0])])
    with pytest.raises(PreconditionError):
        central_retriangulation(bd4, bd3)  # dimension mismatch
    with pytest.raises(PreconditionError):
        central_retriangulation(bd4, bd4)  # a sphere is not a ball
    with pytest.raises(PreconditionError):
        central_retriangulation(bd3, from_facets([[0, 1, 7]]))  # not a subcomplex
    out, _ = central_retriangulation(bd4, disjointish)  # single facet is fine
    assert out.n_faces(0) == 6


def test_missing_face_identity_top_dimensions(bd5):
    tau = frozenset({0, 1, 2, 3})
    lhs3, rhs3 = missing_face_identity_sides(bd5, tau, 3)
    assert lhs3 == rhs3 == {tau}
    lhs2, rhs2 = missing_face_identity_sides(bd5, tau, 2)
    assert lhs2 == rhs2 == {frozenset({4, 5, 6})}  # cone vertex is 6
    big_k = bd5.dim + 2
    lhs, rhs = missing_face_identity_sides(bd5, tau, big_k)
    assert lhs == rhs == set()


def test_missing_face_identity_check(cycle_join, bd5):
    assert crtr_missing_faces_check(bd5, [0, 1, 2, 3])
    face = cycle_join.faces_of_dim(2)[0]
    assert crtr_missing_faces_check(cycle_join, face)


def test_missing_face_identity_check_retriangulates_once(cycle_join, bd5, monkeypatch):
    cases = [(bd5, [0, 1, 2, 3]), (bd5, [0]), (cycle_join, cycle_join.faces_of_dim(1)[0])]
    for cx, tau in cases:
        sides = [missing_face_identity_sides(cx, tau, k) for k in range(cx.dim + 2)]
        assert all(lhs == rhs for lhs, rhs in sides)
    calls = []
    original = retriangulate.central_retriangulation
    monkeypatch.setattr(
        retriangulate,
        "central_retriangulation",
        lambda *args: calls.append(1) or original(*args),
    )
    for cx, tau in cases:
        assert crtr_missing_faces_check(cx, tau)
    assert len(calls) == len(cases)


def test_inverse_stellar_undoes_crtr(bd5):
    out, record = central_retriangulation(bd5, bd5.star([0, 1, 2, 3]))
    cone = record.new_vertices[0]
    back, undo = inverse_stellar(out, cone)
    assert back == bd5
    assert undo.prediction_holds()
    assert are_isomorphic(back, bd5)


@pytest.mark.parametrize("check", [True, False])
def test_one_ball_analysis_per_operation(bd5, monkeypatch, check):
    passes = []
    original = homology._ball_analysis
    monkeypatch.setattr(
        homology, "_ball_analysis", lambda *args: passes.append(1) or original(*args)
    )
    out, record = central_retriangulation(bd5, bd5.star([0, 1, 2, 3]), check=check)
    assert len(passes) == 1
    back, _ = inverse_stellar(out, record.new_vertices[0], check=check)
    assert len(passes) == 2
    assert back == bd5


def test_inverse_stellar_on_last_stacking():
    sphere = stacked_sphere(4, 7)
    out, record = inverse_stellar(sphere, 6)
    assert record.prediction_holds()
    assert g2(out) == 0
    assert out.n_faces(0) == 6


def test_inverse_stellar_theorem_pattern(cycle_join):
    # prime, g2 = 1, one vertex with a stacked link: removal lands at g2 = 0
    out, record = inverse_stellar(cycle_join, 0)
    assert g2(cycle_join) == 1 and g2(out) == 0
    assert record.prediction_holds()
    assert is_normal_pseudomanifold(out)


def test_inverse_stellar_rejects_present_interior(bd4):
    # star of an edge: the completion of its boundary is a different ball
    # whose interior facets are still present
    out, record = central_retriangulation(bd4, bd4.star([0, 1]))
    with pytest.raises(PreconditionError):
        inverse_stellar(out, record.new_vertices[0])


def test_inverse_stellar_rejects_non_stacked_link(oct3):
    with pytest.raises(PreconditionError):
        inverse_stellar(oct3, 0)


def test_swartz_with_double_shortcut(cycle_join):
    out, record = swartz_operation(cycle_join, 0, (4, 5, 6))
    assert record.g_before[2] == 1 and record.g_after[2] == 0
    assert record.prediction_holds()
    assert record.new_vertices == ()
    assert out.n_faces(0) == cycle_join.n_faces(0) - 1
    assert list(record.notes).count("filled missing facet") == 2
    assert is_normal_pseudomanifold(out)
    assert betti(out).entries == betti(cycle_join).entries


def test_swartz_rejects_present_face(cycle_join):
    with pytest.raises(PreconditionError):
        swartz_operation(cycle_join, 0, (1, 4, 5))


def test_swartz_on_two_sphere_hexagon_link():
    # 2-sphere whose polar link is a hexagon; inserting a short chord fills a
    # triangle and cones the remaining pentagon from a fresh vertex
    sphere = suspension(cycle(6))
    pole = 6
    out, record = swartz_operation(sphere, pole, (0, 2))
    assert frozenset({0, 1, 2}) in out.facets
    assert len(record.new_vertices) == 1
    assert betti(out).entries == (0, 0, 0, 1)


def test_swartz_all_counts_missing_facets():
    base = stacked_sphere(3, 6)
    sphere = suspension(base)
    pole = 6
    link = sphere.link([pole])
    eligible = [
        t for t in link.missing_faces(link.dim) if frozenset(t) not in sphere.faces()
    ]
    out, record = swartz_all(sphere, pole)
    assert record.steps == len(eligible) == 2
    assert g2(sphere) - g2(out) == record.steps
    assert g2(out) >= 0
    assert record.prediction_holds()


def test_swartz_all_identity_on_prime_link(oct3):
    out, record = swartz_all(oct3, 0)
    assert record.steps == 0
    assert out == oct3


def test_swartz_all_matches_inverse_stellar_for_stacked_links():
    cx = join(cycle(4), simplex_boundary(3))
    a, rec_a = swartz_all(cx, 0)
    b, rec_b = inverse_stellar(cx, 0)
    assert a == b
    assert rec_a.steps == 1 and rec_a.g_after == rec_b.g_after


def test_swartz_all_needs_dimension_three():
    with pytest.raises(PreconditionError):
        swartz_all(suspension(cycle(5)), 5)

import pytest

from scx import (
    PreconditionError,
    SimplicialComplex,
    are_isomorphic,
    betti,
    central_retriangulation,
    cross_polytope_boundary,
    crtr_missing_faces_check,
    cycle,
    from_faces,
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
from scx import homology, retriangulate, verify


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


def counted(monkeypatch, name, calls):
    original = getattr(retriangulate, name)
    monkeypatch.setattr(
        retriangulate, name, lambda cx, *args: calls.append(cx) or original(cx, *args)
    )


def test_swartz_all_checks_the_input_once_and_then_each_link(monkeypatch):
    sphere = suspension(stacked_sphere(4, 12))
    whole, links = [], []
    counted(monkeypatch, "is_normal_pseudomanifold", whole)
    counted(monkeypatch, "is_homology_sphere", links)
    out, record = swartz_all(sphere, 13)
    assert whole == [sphere]
    assert record.steps == len(links) == 7
    assert links[0] == sphere.link([13])
    assert (out, record) == swartz_all(sphere, 13, check=False)


def test_swartz_all_still_rejects_a_later_link(monkeypatch):
    # the second link checked is made to fail: a later step still checks
    links = []

    def first_only(cx, field):
        links.append(cx)
        return homology.PredicateResult(len(links) == 1)

    monkeypatch.setattr(retriangulate, "is_homology_sphere", first_only)
    with pytest.raises(PreconditionError, match="is not a homology sphere"):
        swartz_all(suspension(stacked_sphere(4, 12)), 13)
    assert len(links) == 2


def test_swartz_all_output_on_the_lemma_3_8_instances():
    for name, cx, v, steps in verify._swartz_instances(verify.Scale(dmax=7, f0max=16)):
        out, record = swartz_all(cx, v)
        assert record.steps == steps, name
        assert (out, record) == swartz_all(cx, v, check=False), name


# The outputs as they were first built: the maximal faces of the whole closure.


def closure_central(cx, ball, check):
    boundary = homology.ball_boundary(ball, check=check)
    interior = ball.faces() - boundary.faces()
    u = max(cx.vertices) + 1
    return from_faces((cx.faces() - interior) | {f | {u} for f in boundary.faces()})


def closure_inverse(cx, v, filled):
    return from_faces(cx.antistar(v).faces() | filled.faces())


def crtr_inputs():
    """The complexes that Lemma 3.3 retriangulates at dmax=5."""
    return [e.complex for e in verify._crtr_entries(verify.catalog_for(verify.Scale(dmax=5)))]


def test_central_output_matches_the_closure_formula_on_catalog_balls():
    compared = 0
    for cx in crtr_inputs():
        for _, ball in verify._central_balls(cx):
            out, record = central_retriangulation(cx, ball)
            assert out == closure_central(cx, ball, True)
            assert record.prediction_holds()
            compared += 1
    assert compared > 50


def _non_balls(cx):
    facets = sorted(cx.facets, key=sorted)
    first = facets[0]
    far = next((f for f in facets if not first & f), facets[-1])
    edge = next(e for e in cx.faces_of_dim(1) if not e <= first)
    v = min(cx.vertices)
    yield SimplicialComplex([first, far])  # two facets, apart if they can be
    yield SimplicialComplex(facets)  # the whole complex
    yield SimplicialComplex([first, edge])  # not pure
    yield SimplicialComplex(list(cx.star([v]).facets) + [far])


@pytest.mark.parametrize(
    "cx",
    [simplex_boundary(4), join(cycle(4), simplex_boundary(2)), cross_polytope_boundary(4),
     stacked_sphere(4, 7), suspension(cycle(6))],
    ids=["bd4", "cycle_join", "oct3", "stacked", "hexagon_suspension"],
)
def test_central_output_matches_the_closure_formula_without_check(cx):
    for ball in _non_balls(cx):
        out, record = central_retriangulation(cx, ball, check=False)
        assert out == closure_central(cx, ball, False)
        # a non-ball's interior is what lies off its boundary's closure: the
        # faces whose links the ball analysis finds nontrivial can be more
        boundary = homology.ball_boundary(ball, check=False)
        deltas = retriangulate._ball_deltas(cx.dim, boundary, ball.faces() - boundary.faces(), 1)
        assert record.predicted == tuple((i, record.g_before[i] + dx) for i, dx in deltas)


def test_inverse_output_matches_the_closure_formula_on_lemma_3_6_cases():
    cases = []
    for cx in crtr_inputs():
        for label, ball in verify._central_balls(cx):
            if label != "triple":
                out, record = central_retriangulation(cx, ball)
                cases.append((out, record.new_vertices[0]))
    cases += [(stacked_sphere(d, n), n - 1) for d in (4, 5) for n in (d + 2, d + 3)]
    cases += [(join(cycle(n), simplex_boundary(2)), 0) for n in (4, 5, 6)]
    for cx, v in cases:
        out, record = inverse_stellar(cx, v)
        assert out == closure_inverse(cx, v, record.ball_used)
        assert record.prediction_holds()
    assert len(cases) > 50

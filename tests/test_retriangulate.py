import re

import pytest

from scx import (
    FaceNotPresentError,
    MalformedInputError,
    PreconditionError,
    SimplicialComplex,
    are_isomorphic,
    betti,
    central_retriangulation,
    cross_polytope_boundary,
    crtr_missing_faces_check,
    cycle,
    extended_g,
    f_vector,
    from_faces,
    from_facets,
    g2,
    inverse_stellar,
    is_homology_ball,
    is_homology_sphere,
    is_normal_pseudomanifold,
    is_r_stacked_ball,
    join,
    missing_face_identity_sides,
    simplex_boundary,
    stacked_sphere,
    suspension,
    swartz_all,
    swartz_operation,
)
from scx import homology, retriangulate, verify

import oracle
from test_mask_constructor import assert_built_alike


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


def test_crtr_names_the_least_ball_facet_that_is_no_face():
    # two of the three facets are no faces of the join; the first one met in
    # the ball's facet set was named before, whatever the input's order
    base = join(cycle(5), cycle(5))
    facets = [(4, 5, 7, 9), (0, 3, 4, 8), (0, 1, 8, 9)]
    for order in (facets, facets[::-1], facets[1:] + facets[:1]):
        ball = from_facets(order)
        for move in (central_retriangulation, oracle.central_by_labels):
            with pytest.raises(PreconditionError, match=r"ball facet \(0, 3, 4, 8\) is not a face"):
                move(base, ball)


def test_crtr_records_the_interior_vertex_of_a_vertex_star_as_removed(bd4):
    out, record = central_retriangulation(bd4, bd4.star([0]))
    assert (record.new_vertices, record.removed_vertices) == ((5,), (0,))
    assert out.vertices == {1, 2, 3, 4, 5}
    assert (out, record) == oracle.central_by_labels(bd4, bd4.star([0]))


def test_crtr_of_the_empty_complex_cones_from_vertex_0():
    # the fresh label of an empty vertex set is 0; it took max() of it before
    e = from_facets([])
    out, record = central_retriangulation(e, e, check=False)
    assert out == from_facets([[0]])
    assert (record.new_vertices, record.removed_vertices) == ((0,), ())
    with pytest.raises(PreconditionError, match="not a homology ball"):
        central_retriangulation(e, e)


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


def test_a_negative_stackedness_level_is_refused(bd5):
    with pytest.raises(PreconditionError, match="r=-1 must be >= 0"):
        is_r_stacked_ball(bd5.star([0]), -1)


@pytest.mark.parametrize(
    "cx, v, r, message",
    [
        (simplex_boundary(5), 0, 1, r"stackedness level r=1 outside 2\.\.\(d\+1\)/2"),
        (suspension(cross_polytope_boundary(4)), 8, None, "link has no admissible stackedness level"),
    ],
    ids=["level-1", "no-level"],
)
def test_inverse_stellar_refuses_a_level_it_cannot_use(cx, v, r, message):
    with pytest.raises(PreconditionError, match=message):
        inverse_stellar(cx, v, r=r)


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


def test_inverse_stellar_refuses_a_fill_that_is_not_r_minus_1_stacked():
    # the link of 0 has g2 = 0, but its completion at r = 2 has interior
    # faces of dimension 2 = d - 2: it is 2-stacked, not 1-stacked, and the
    # move without the check gives a g2 = 0 sphere that no inverse stellar
    # move at r = 2 defines
    cx = join(join(simplex_boundary(2), simplex_boundary(2)), simplex_boundary(1))
    assert f_vector(cx).entries == (1, 8, 27, 48, 45, 18)
    for move in (inverse_stellar, oracle.inverse_stellar_by_antistar):
        with pytest.raises(PreconditionError, match="completion is 2-stacked, not 1-stacked"):
            move(cx, 0, r=2)
    out, record = inverse_stellar(cx, 0, r=2, check=False)
    assert g2(out) == 0 and is_r_stacked_ball(record.ball_used, 1).min_stackedness == 2


def _beside_a_stacked_2_sphere(sphere):
    """``sphere`` with a stacked 2-sphere on the labels 20..25 beside it."""
    beside = [{v + 20 for v in f} for f in stacked_sphere(3, 6).facets]
    return from_facets([*sphere.facets, *beside])


@pytest.mark.parametrize("d", [4, 6])
def test_inverse_stellar_reads_the_completions_own_stackedness(d):
    # at a vertex of degree 3 of the 2-sphere the completion is a triangle,
    # 0-stacked as a ball of its own dimension (against the complex's
    # dimension d it would read as (d - 2)-stacked); the g-bookkeeping
    # counts up to the triangle's dimension 2, below (d + 1) / 2 at d = 6.
    # Checked, the move and its reference refuse such a vertex: its link has
    # dimension 1, not d - 1, and Lemma 3.6's bookkeeping needs a pure complex
    cx = _beside_a_stacked_2_sphere(stacked_sphere(d + 1, d + 4))
    assert cx.dim == d
    for v in (20, 25):
        out, record = inverse_stellar(cx, v, check=False)
        assert (out, record) == oracle.inverse_stellar_by_antistar(cx, v, check=False)
        assert is_r_stacked_ball(record.ball_used, 0) and record.ball_used.dim == 2
        assert [i for i, _ in record.predicted] == [1, 2]
        refusal = rf"^link of {v} has dimension 1, not {d - 1}$"
        with pytest.raises(PreconditionError, match=refusal):
            inverse_stellar(cx, v)
        with pytest.raises(PreconditionError, match=refusal):
            oracle.inverse_stellar_by_antistar(cx, v)


def test_stack_level_detection_reads_0_past_a_short_links_last_g():
    # unchecked, at a degree-4 vertex of the 2-sphere beside a stacked
    # 5-sphere: the 4-cycle link has h-differences (1, 1, -1), so g_3 reads
    # 0 and r = 3; the move then refuses as its reference does (IndexError
    # before)
    cx = _beside_a_stacked_2_sphere(stacked_sphere(6, 9))
    link = cx.link([21])
    assert extended_g(link) == (1, 1, -1)
    assert retriangulate._detect_stack_level(link, cx.dim) == 3
    for move in (inverse_stellar, oracle.inverse_stellar_by_antistar):
        with pytest.raises(PreconditionError, match="of the completion is already present"):
            move(cx, 21, check=False)


def test_inverse_stellar_at_an_isolated_vertex_counts_up_to_d_unchecked():
    # the completion of the link {()} has no interior face: unchecked, the
    # g-bookkeeping counts up to (d + 1) / 2, as the reference's does;
    # checked, the link of dimension -1 is refused before its completion
    cx = from_facets([*stacked_sphere(4, 7).facets, (20,)])
    out, record = inverse_stellar(cx, 20, r=2, check=False)
    assert (out, record) == oracle.inverse_stellar_by_antistar(cx, 20, r=2, check=False)
    assert record.predicted == ((1, 2), (2, -4)) and out == stacked_sphere(4, 7)
    with pytest.raises(PreconditionError, match="link of 20 has dimension -1, not 2"):
        inverse_stellar(cx, 20, r=2)


MOVES_AT_A_VERTEX = {
    "antistar": lambda cx, v: cx.antistar(v),
    "inverse_stellar": inverse_stellar,
    "swartz_operation": lambda cx, v: swartz_operation(cx, v, (4, 5, 6)),
    "swartz_all": swartz_all,
}


@pytest.mark.parametrize("move", MOVES_AT_A_VERTEX.values(), ids=MOVES_AT_A_VERTEX)
def test_a_move_at_an_absent_or_unhashable_vertex_is_refused_by_link(cycle_join, move):
    # the presence rule of link: an unhashable vertex raised TypeError before,
    # and link reads its face by as_face
    with pytest.raises(FaceNotPresentError, match=r"^face \(99,\) is not in the complex$"):
        move(cycle_join, 99)
    with pytest.raises(MalformedInputError, match=r"^vertex labels must be .*, got \[0\]$"):
        move(cycle_join, [0])


def test_ball_deltas_match_the_closure_bookkeeping():
    # the package reads the least interior dimension off _ball_checked; the
    # oracle takes it off labelled closures.  A non-ball is also counted in
    # hosts one and two dimensions up, and the impure completions at d = 4, 6
    # are triangles, where d - stackedness and the least interior dimension
    # part (the cap (d + 1) / 2 hides it at d = 4 only)
    cases = [(cx.dim, ball, 1) for cx in crtr_inputs() for _, ball in verify._central_balls(cx)]
    cases += [(cx.dim, inverse_stellar(cx, v)[1].ball_used, -1) for cx, v in lemma_3_6_cases()]
    cases += [
        (ball.dim + up, ball, 1)
        for cx in NON_BALL_HOSTS for ball in _non_balls(cx) for up in (0, 1, 2)
    ]
    for d in (4, 6):
        cx = _beside_a_stacked_2_sphere(stacked_sphere(d + 1, d + 4))
        cases.append((d, inverse_stellar(cx, 20, check=False)[1].ball_used, -1))
    assert len(cases) > 200
    for d, ball, sign in cases:
        boundary, _, m = homology._ball_checked(ball, "rational", False)
        _, expected_boundary, interior = oracle.ball_analysis_by_sweep(ball, check=False)
        assert boundary == expected_boundary
        assert retriangulate._ball_deltas(d, boundary, m, sign) == oracle.ball_deltas(
            d, boundary, interior, sign
        )


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


def test_swartz_rejects_a_tau_off_the_vertices():
    # on a cycle the link of a vertex is two points, and a new label passed
    # the missing-facet test of that link: it is no missing face of the cycle
    with pytest.raises(PreconditionError, match="must be a missing face"):
        swartz_operation(cycle(5), 0, (9,), check=False)
    with pytest.raises(PreconditionError, match="must be a missing face"):
        oracle.swartz_operation_by_antistar(cycle(5), 0, (9,), check=False)


@pytest.mark.parametrize(
    "tau, message",
    [
        (5, "expected an iterable of vertex labels, got 5"),
        ([[4], 5], "vertex labels must be non-negative integers, got [4]"),
    ],
    ids=["not-iterable", "unhashable-label"],
)
def test_swartz_refuses_a_tau_that_is_no_face_by_the_presence_rule(cycle_join, tau, message):
    # tau is read through _through, as in and link read a face (by as_face):
    # it raised TypeError from frozenset(tau) before
    with pytest.raises(MalformedInputError, match=f"^{re.escape(message)}$"):
        swartz_operation(cycle_join, 0, tau)


def test_swartz_refuses_any_tau_at_an_isolated_vertex():
    # the link of an isolated vertex is the empty complex, which has no
    # missing facet: missing_faces(-1) of it would refuse the dimension instead
    points = from_facets([(0,), (1,), (2,)])
    with pytest.raises(PreconditionError, match="not a missing facet of the link of 0"):
        swartz_operation(points, 0, (1, 2), check=False)


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


def test_swartz_all_without_a_move_records_no_removed_vertex(bd4):
    # the link of 0 is a simplex boundary, which has no missing facet
    out, record = swartz_all(bd4, 0)
    assert out == bd4 and record.steps == 0
    assert (record.new_vertices, record.removed_vertices) == ((), ())
    assert (out, record) == oracle.swartz_all_by_operation(bd4, 0)


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


def octahedral_wedge():
    """Two octahedral 3-spheres glued at vertex 0, the second relabelled
    v -> v + 7 off 0: not a normal pseudomanifold, as the link of 0 has two
    components."""
    oct3 = cross_polytope_boundary(4)
    shifted = {frozenset(u if u == 0 else u + 7 for u in f) for f in oct3.facets}
    return SimplicialComplex(oct3.facets | shifted)


def test_swartz_all_checks_the_input_even_without_a_move():
    wedge = octahedral_wedge()
    assert len(wedge.vertices) == 15 and not is_normal_pseudomanifold(wedge)
    with pytest.raises(PreconditionError, match="not a normal pseudomanifold"):
        swartz_all(wedge, 1)
    out, record = swartz_all(wedge, 1, check=False)
    assert out == wedge and record.steps == 0


def swartz_instances():
    return list(verify._swartz_instances(verify.Scale(dmax=7, f0max=16)))


def skips_between_moves():
    """Suspended stacked 2-spheres with a facet at the pole n subdivided: a
    missing triangle of the pole's link is then a face, so ``swartz_all``
    skips it while it moves elsewhere."""
    for n in (6, 7):
        sphere = suspension(stacked_sphere(3, n))
        for facet in sorted((f for f in sphere.facets if n in f), key=sorted)[:4]:
            cx, _ = central_retriangulation(sphere, SimplicialComplex([facet]))
            yield f"skipped {tuple(sorted(facet - {n}))}", cx, n, n - 4


def test_swartz_all_matches_the_antistar_reference():
    for name, cx, v, steps in swartz_instances() + list(skips_between_moves()):
        for check in (True, False):
            out, record = swartz_all(cx, v, check=check)
            expected = oracle.swartz_all_by_operation(cx, v, check=check)
            assert (out, record) == expected, name
            assert_built_alike(out, expected[0])
            assert record.steps == steps, name
        if name.startswith("skipped"):
            assert name in record.notes
        for w in sorted(cx.vertices - {v}):
            got, expected = swartz_all(cx, w), oracle.swartz_all_by_operation(cx, w)
            assert got == expected, (name, w)
            assert_built_alike(got[0], expected[0])


def test_swartz_operation_matches_the_antistar_reference_on_every_insertable_facet():
    compared = 0
    for name, cx, _, _ in swartz_instances():
        for v in sorted(cx.vertices):
            link = cx.link([v])
            for tau in link.missing_faces(link.dim):
                if tau in cx:
                    continue
                got = swartz_operation(cx, v, tau)
                expected = oracle.swartz_operation_by_antistar(cx, v, tau)
                assert got == expected, (name, v, tau)
                assert_built_alike(got[0], expected[0])
                compared += 1
    assert compared > 50


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
    """Four non-balls of the host's dimension, each checked to be one."""
    facets = sorted(cx.facets, key=sorted)
    first = facets[0]
    far = next((f for f in facets if not first & f), facets[-1])
    if len(first & far) == cx.dim:  # every two facets share a ridge: a simplex boundary
        far -= first
    edge = next(e for e in cx.faces_of_dim(1) if not e <= first)
    mate = next(f for f in facets if len(f & first) == cx.dim)
    for ball in (
        SimplicialComplex([first, far]),  # facets meeting in less than a ridge, or a vertex off one
        SimplicialComplex(facets),  # the whole complex
        SimplicialComplex([first, edge]),  # not pure
        # less two adjacent facets, with the ridge they share spanning a hole
        SimplicialComplex((cx.facets - {first, mate}) | {first & mate}),
    ):
        assert not is_homology_ball(ball) and ball.dim == cx.dim
        yield ball


#: the hosts of :func:`_non_balls`
NON_BALL_HOSTS = [simplex_boundary(4), join(cycle(4), simplex_boundary(2)),
                  cross_polytope_boundary(4), stacked_sphere(4, 7), suspension(cycle(6))]


@pytest.mark.parametrize(
    "cx", NON_BALL_HOSTS, ids=["bd4", "cycle_join", "oct3", "stacked", "hexagon_suspension"]
)
def test_central_output_matches_the_closure_formula_without_check(cx):
    for ball in _non_balls(cx):
        out, record = central_retriangulation(cx, ball, check=False)
        assert out == closure_central(cx, ball, False)
        # a non-ball's interior is what lies off its boundary's closure: the
        # faces whose links the ball analysis finds nontrivial can be more
        boundary = homology.ball_boundary(ball, check=False)
        deltas = oracle.ball_deltas(cx.dim, boundary, ball.faces() - boundary.faces(), 1)
        assert record.predicted == tuple((i, record.g_before[i] + dx) for i, dx in deltas)


def test_interior_lies_off_the_boundary_closure_with_and_without_check():
    def off_closure(ball, check):
        boundary = homology.ball_boundary(ball, check=check)
        return homology.interior_faces(ball, check=check) == ball.faces() - boundary.faces()

    for entry in verify.catalog_for(verify.Scale()):
        for _, ball in verify._central_balls(entry.complex):
            assert off_closure(ball, True) and off_closure(ball, False)
    for ball in (b for cx in NON_BALL_HOSTS for b in _non_balls(cx)):
        assert off_closure(ball, False)


def lemma_3_6_cases():
    """Inverse stellar moves that undo the Lemma 3.3 retriangulations, and
    on stacked and cycle-join spheres."""
    cases = []
    for cx in crtr_inputs():
        for label, ball in verify._central_balls(cx):
            if label != "triple":
                out, record = central_retriangulation(cx, ball)
                cases.append((out, record.new_vertices[0]))
    cases += [(stacked_sphere(d, n), n - 1) for d in (4, 5) for n in (d + 2, d + 3)]
    cases += [(join(cycle(n), simplex_boundary(2)), 0) for n in (4, 5, 6)]
    assert len(cases) > 50
    return cases


def test_inverse_output_matches_the_closure_formula_on_lemma_3_6_cases():
    for cx, v in lemma_3_6_cases():
        out, record = inverse_stellar(cx, v)
        assert out == closure_inverse(cx, v, record.ball_used)
        assert record.prediction_holds()


def test_inverse_stellar_matches_the_antistar_reference_on_lemma_3_6_cases():
    for cx, v in lemma_3_6_cases():
        got, expected = inverse_stellar(cx, v), oracle.inverse_stellar_by_antistar(cx, v)
        assert got == expected
        assert_built_alike(got[0], expected[0])

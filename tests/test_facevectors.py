import pytest

from scx import (
    MalformedInputError,
    PreconditionError,
    SimplicialComplex,
    barnette_sphere,
    cycle,
    extended_g,
    f_from_h,
    f_vector,
    from_facets,
    g2,
    g_vector,
    h_from_f,
    h_vector,
    is_m_sequence,
    join,
    link_g_sum,
    link_monotonicity_check,
    macaulay_pseudopower,
    reduced_euler,
    simplex_boundary,
    stacked_sphere,
)
from scx.verify import Scale, catalog_for

import oracle
from conftest import optimized_exit_code


def test_f_vector_binomials(bd4):
    assert f_vector(bd4).entries == (1, 5, 10, 10, 5)


def test_every_face_vector_names_its_d(bd4):
    # the boundary of the 4-simplex is a 3-sphere: d = 4 in f, h and g alike
    assert f_vector(bd4).d == h_vector(bd4).d == g_vector(bd4).d == 4


def test_f_vector_octahedral_sphere(oct3):
    assert f_vector(oct3).entries == (1, 8, 24, 32, 16)
    assert f_vector(oct3).entries == oracle.face_counts(oct3.facets)


def test_f_vector_barnette():
    entry = barnette_sphere()
    f = f_vector(entry.complex)
    assert f[0] == 8
    assert f[3] == 19


def test_h_and_g_of_simplex_boundary(bd3):
    assert h_vector(bd3).entries == (1, 1, 1, 1)
    assert g_vector(bd3).entries == (1, 0)


def test_g2_of_triangle_join():
    cx = join(simplex_boundary(2), simplex_boundary(2))
    assert g_vector(cx)[2] == 1
    assert g2(cx) == 1


def test_g2_octahedral_sphere_via_degree_sum(oct3):
    degree_half_sum = sum(len(oct3.link([v]).vertices) for v in oct3.vertices) // 2
    assert degree_half_sum - 4 * oct3.n_faces(0) + 10 == 2
    assert g2(oct3) == 2


def test_f_h_round_trip(oct3, cycle_join):
    for cx in (oct3, cycle_join):
        f = f_vector(cx)
        assert f_from_h(h_from_f(f)).entries == f.entries


@pytest.mark.parametrize(
    "call, expected",
    [(lambda: h_from_f([]), "FVector"), (lambda: f_from_h("x"), "HVector")],
    ids=["h_from_f([])", "f_from_h('x')"],
)
def test_a_vector_of_the_wrong_kind_is_malformed_input(call, expected):
    # each raised AttributeError before, reading .d off the argument
    with pytest.raises(MalformedInputError, match=f"expected an {expected}, got"):
        call()


@pytest.mark.parametrize("index", ["a", 1.0, 100.5, -7.5, None])
@pytest.mark.parametrize(
    "reader, what",
    [(f_vector, "f-vector index"), (h_vector, "h-vector index"), (g_vector, "g-vector index")],
    ids=["f", "h", "g"],
)
def test_vector_readers_refuse_an_index_that_is_not_an_integer(reader, what, index):
    # refused as given, before the f-vector's offset and before the range test
    vector = reader(simplex_boundary(4))
    with pytest.raises(MalformedInputError, match=f"{what} must be an integer, got {index!r}"):
        vector[index]


def test_vector_readers_take_integers_and_bools():
    cx = simplex_boundary(4)
    f, h, g = f_vector(cx), h_vector(cx), g_vector(cx)
    assert (f[True], f[-1], f[9], h[False], h[-3], g[True], g[5]) == (10, 1, 0, 1, 0, 0, 0)


def test_g_matches_h_differences(cycle_join):
    h = h_vector(cycle_join)
    g = g_vector(cycle_join)
    for i in range(1, len(g.entries)):
        assert g[i] == h[i] - h[i - 1]


def test_extended_g_reaches_top(bd3):
    assert extended_g(bd3) == (1, 0, 0, 0)


def test_impure_complexes_are_flagged():
    cx = from_facets([[0, 1, 2], [3, 4]])
    f = f_vector(cx)
    assert f.impure
    assert h_vector(cx).impure
    assert f.d == cx.dim + 1


def test_empty_complex_vectors():
    cx = from_facets([])
    assert f_vector(cx).entries == (1,)
    assert h_vector(cx).entries == (1,)


def test_link_g_sum_identity(bd4, oct3, cycle_join):
    for cx in (bd4, oct3, cycle_join, stacked_sphere(5, 9)):
        for k in (1, 2):
            lhs, rhs = link_g_sum(cx, k)
            assert lhs == rhs


def test_link_g_sum_identity_at_top_k():
    # k = floor(d/2): the right side reads g_{k+1} beyond the official length
    for cx in (simplex_boundary(6), join(cycle(4), simplex_boundary(4))):
        lhs, rhs = link_g_sum(cx, 3)
        assert lhs == rhs


def test_link_g_sum_refuses_a_negative_index(bd3):
    # -1 would read the last entry and -9 past the first
    for k in (-1, -9):
        with pytest.raises(PreconditionError):
            link_g_sum(bd3, k)


def test_vertex_link_counts_build_no_link(monkeypatch):
    pure = [e.complex for e in catalog_for(Scale()) if e.complex.is_pure()]
    expected = [
        ([oracle.link_g_sum(cx.facets, k) for k in range(4)], oracle.link_g2s(cx.facets))
        for cx in pure
    ]

    def no_link(self, face):
        raise AssertionError("a link complex was built")

    monkeypatch.setattr(SimplicialComplex, "link", no_link)
    for cx, (sums, (total, per_vertex)) in zip(pure, expected):
        assert [link_g_sum(cx, k) for k in range(4)] == sums
        res = link_monotonicity_check(cx)
        assert (res.g2_total, res.per_vertex) == (total, per_vertex)
    assert len(pure) > 40


def test_reduced_euler():
    assert reduced_euler(simplex_boundary(3)) == 1  # even-dimensional sphere
    assert reduced_euler(simplex_boundary(4)) == -1  # odd-dimensional sphere
    assert reduced_euler(from_facets([[0, 1, 2]])) == 0


def test_macaulay_pseudopower_values():
    assert macaulay_pseudopower(1, 2) == 1
    assert macaulay_pseudopower(2, 2) == 2
    assert macaulay_pseudopower(3, 2) == 4
    assert macaulay_pseudopower(0, 5) == 0
    assert macaulay_pseudopower(4, 2) == 5
    assert macaulay_pseudopower(6, 2) == 10


def test_macaulay_pseudopower_matches_the_linear_search():
    for i in range(1, 7):
        for a in range(3001):
            assert macaulay_pseudopower(a, i) == oracle.macaulay_pseudopower_linear(a, i), (a, i)


def test_macaulay_pseudopower_validation():
    with pytest.raises(PreconditionError, match="need a >= 0 and i >= 1"):
        macaulay_pseudopower(-1, 2)
    with pytest.raises(PreconditionError, match="need a >= 0 and i >= 1"):
        macaulay_pseudopower(3, 0)


def test_is_m_sequence():
    assert is_m_sequence((1,))
    assert is_m_sequence((1, 4, 10, 20))
    assert is_m_sequence((1, 2, 3, 4))
    assert not is_m_sequence((1, 1, 2))
    assert not is_m_sequence((2, 1))
    assert not is_m_sequence((1, 2, -1))


def test_g1_values(cycle_join):
    from scx import g1

    assert g1(simplex_boundary(6)) == 0
    assert g1(cycle_join) == 7 - 5


def test_g_vector_certificate_survives_optimize_flag():
    # `python -O` strips assert statements; the route check must still run
    code = (
        "import scx.facevectors as fv\n"
        "from scx import InternalCheckError, simplex_boundary\n"
        "fv._g_direct = lambda f, j: -1\n"
        "try:\n"
        "    fv.g_vector(simplex_boundary(3))\n"
        "except InternalCheckError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    assert optimized_exit_code(code) == 0

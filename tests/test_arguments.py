"""Every integer argument is read once, where it enters the package, by one
rule (``errors._index``): a value that is not an integer is refused with
``MalformedInputError`` naming the parameter, before any other test, and an
integer, ``bool`` included, reads as it did before the rule.  The
face-vector and homology readers take their complex by one rule as well
(``facevectors._complex``)."""

import re

import pytest

from scx import (
    MalformedInputError,
    PreconditionError,
    Scale,
    ball_boundary,
    betti,
    boundary_matrix,
    chain_complex,
    cross_polytope_boundary,
    cycle,
    extended_g,
    f_vector,
    g1,
    g2,
    g2_one_family,
    g2_two_catalog,
    g3,
    g_vector,
    generic_rank,
    generic_rank_trials,
    h_vector,
    interior_faces,
    inverse_stellar,
    is_homology_ball,
    is_homology_manifold,
    is_homology_sphere,
    is_m_sequence,
    is_normal_pseudomanifold,
    is_r_stacked_ball,
    link_g_sum,
    macaulay_pseudopower,
    missing_face_identity_sides,
    random_embedding,
    reduced_euler,
    simplex_boundary,
    skeleton_completion,
    skeleton_graph,
    stacked_sphere,
    stacked_sphere_with_ridge,
    standard_catalog,
    stress_basis,
)

BD4 = simplex_boundary(4)
BALL = BD4.star([0])  # a 3-ball
STACKED = stacked_sphere(4, 7)

#: (call of the value, the parameter's name, whether None is its default)
PARAMETERS = [
    ("simplex_boundary(d)", lambda x: simplex_boundary(x), "d", False),
    ("cycle(n)", lambda x: cycle(x), "n", False),
    ("stacked_sphere(d)", lambda x: stacked_sphere(x, 7), "d", False),
    ("stacked_sphere(n)", lambda x: stacked_sphere(3, x), "n", False),
    ("cross_polytope_boundary(d)", lambda x: cross_polytope_boundary(x), "d", False),
    ("stacked_sphere_with_ridge(d)", lambda x: stacked_sphere_with_ridge(x, 7), "d", False),
    ("stacked_sphere_with_ridge(n)", lambda x: stacked_sphere_with_ridge(4, x), "n", False),
    ("g2_one_family(d)", lambda x: g2_one_family(x, "join", 2), "d", False),
    ("g2_one_family(param)", lambda x: g2_one_family(4, "join", x), "param", False),
    ("g2_two_catalog(d)", lambda x: g2_two_catalog(x, "triple_join"), "d", False),
    ("g2_two_catalog(param)", lambda x: g2_two_catalog(4, "crtr_ridge", x), "param", True),
    ("standard_catalog(dmax)", lambda x: standard_catalog(x), "dmax", False),
    ("standard_catalog(f0max)", lambda x: standard_catalog(f0max=x), "f0max", False),
    ("standard_catalog(cycle_max)", lambda x: standard_catalog(cycle_max=x), "cycle_max", False),
    ("link_g_sum(k)", lambda x: link_g_sum(BD4, x), "k", False),
    ("macaulay_pseudopower(a)", lambda x: macaulay_pseudopower(x, 2), "a", False),
    ("macaulay_pseudopower(i)", lambda x: macaulay_pseudopower(3, x), "i", False),
    ("is_m_sequence(seq entry)", lambda x: is_m_sequence((1, x)), "seq entry", False),
    ("skeleton_completion(i)", lambda x: skeleton_completion(BD4, x), "i", False),
    ("is_r_stacked_ball(r)", lambda x: is_r_stacked_ball(BALL, x), "r", False),
    ("inverse_stellar(r)", lambda x: inverse_stellar(STACKED, 6, r=x), "r", True),
    ("boundary_matrix(k)", lambda x: boundary_matrix(BD4, x), "k", False),
    ("missing_face_identity_sides(k)", lambda x: missing_face_identity_sides(BD4, (0, 1), x),
     "k", False),
    ("random_embedding(d)", lambda x: random_embedding(skeleton_graph(BD4), x), "d", False),
    ("random_embedding(bound)", lambda x: random_embedding(BD4, 2, bound=x), "bound", False),
    ("generic_rank(d)", lambda x: generic_rank(BD4, x), "d", False),
    ("generic_rank_trials(d)", lambda x: generic_rank_trials(BD4, x), "d", False),
    ("stress_basis(d)", lambda x: stress_basis(BD4, d=x), "d", True),
    ("Scale(dmax)", lambda x: Scale(dmax=x), "dmax", False),
    ("Scale(f0max)", lambda x: Scale(f0max=x), "f0max", False),
    ("Scale(cycle_max)", lambda x: Scale(cycle_max=x), "cycle_max", False),
    ("Scale(seed)", lambda x: Scale(seed=x), "seed", False),
    ("Scale(trials)", lambda x: Scale(trials=x), "trials", False),
]

CASES = [
    pytest.param(call, name, value, id=f"{label}={value!r}")
    for label, call, name, none_is_default in PARAMETERS
    for value in ("a", 1.5, None)
    if not (value is None and none_is_default)
] + [
    # r itself, not r - 1 as the completion's face dimension
    pytest.param(lambda x: inverse_stellar(STACKED, 6, r=x), "r", 2.0, id="inverse_stellar(r)=2.0")
]


@pytest.mark.parametrize("call, name, value", CASES)
def test_a_non_integer_is_refused_under_its_parameters_name(call, name, value):
    # each raised TypeError from its first comparison, or a later refusal
    # under another name (inverse_stellar's r = 2.0 as "face dimension" 1.0)
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(MalformedInputError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("seq", [5, 1.5, None])
def test_is_m_sequence_refuses_a_sequence_that_is_not_iterable(seq):
    message = f"^seq must be an iterable of integers, got {seq}$"
    with pytest.raises(MalformedInputError, match=message):
        is_m_sequence(seq)


class Four:
    """An integer type that is not ``int``: ``operator.index`` reads it."""

    def __index__(self):
        return 4


@pytest.mark.parametrize(
    "call, integer, other",
    [
        (simplex_boundary, 1, True),
        (cycle, 4, Four()),
        (cross_polytope_boundary, 4, Four()),
        (lambda x: stacked_sphere(x, 7), 4, Four()),
        (lambda x: g2_one_family(x, "cycle", 4), 4, Four()),
        (lambda x: g2_two_catalog(x, "octahedral"), 4, Four()),
        (lambda x: macaulay_pseudopower(x, x), 1, True),
        (lambda x: is_m_sequence((x, x, 0)), 1, True),
        (lambda x: link_g_sum(BD4, x), 1, True),
        (lambda x: skeleton_completion(BD4, x), 1, True),
        (lambda x: is_r_stacked_ball(BALL, x), 1, True),
        (lambda x: boundary_matrix(BD4, x), 1, True),
        (lambda x: missing_face_identity_sides(BD4, (0, 1), x), 1, True),
        (lambda x: random_embedding(BD4, 2, bound=x), 1, True),
        (lambda x: generic_rank(BD4, x), 4, Four()),
        (lambda x: stress_basis(BD4, d=x).vectors, 4, Four()),
        (lambda x: [e.name for e in standard_catalog(x, 8, 5)], 4, Four()),
        (lambda x: Scale(dmax=x, f0max=x, cycle_max=x), 4, Four()),
    ],
)
def test_bools_and_index_types_read_as_their_integers(call, integer, other):
    # a bool reads as it did before the rule; a type with __index__, once a
    # TypeError, now reads as the integer it declares
    assert call(other) == call(integer)


def test_an_integer_out_of_range_is_refused_as_before():
    for call in (lambda: cycle(False), lambda: is_r_stacked_ball(BALL, -1)):
        with pytest.raises(PreconditionError):
            call()
    assert is_m_sequence((True, 3, 6)) and not is_m_sequence((True, 3, 7))


def test_a_scale_stores_its_bounds_as_integers_and_its_sampling_as_given():
    # the sampling rule refuses a bool seed later, under its own name
    assert Scale(seed=True, trials=Four()).seed is True
    assert type(Scale(dmax=True, f0max=Four(), cycle_max=Four()).f0max) is int
    assert Scale() == Scale(6, 14, 8, 0, 3)


FACE_VECTOR_READERS = [f_vector, h_vector, g_vector, extended_g, g1, g2, g3, reduced_euler]


@pytest.mark.parametrize(
    "reader",
    FACE_VECTOR_READERS + [lambda x: link_g_sum(x, 1)],
    ids=[r.__name__ for r in FACE_VECTOR_READERS] + ["link_g_sum"],
)
@pytest.mark.parametrize("value", [5, None, BD4.facets], ids=["int", "None", "facets"])
def test_a_face_vector_reader_refuses_what_is_not_a_complex(reader, value):
    message = f"expected a SimplicialComplex, got {value!r}"
    with pytest.raises(MalformedInputError, match=f"^{re.escape(message)}$"):
        reader(value)


#: every homology reader that takes a complex, with its other arguments valid
HOMOLOGY_READERS = {
    "betti": betti,
    "boundary_matrix": lambda x: boundary_matrix(x, 1),
    "chain_complex": chain_complex,
    "is_homology_sphere": is_homology_sphere,
    "is_homology_manifold": is_homology_manifold,
    "is_homology_ball": is_homology_ball,
    "ball_boundary": ball_boundary,
    "interior_faces": interior_faces,
    "is_normal_pseudomanifold": is_normal_pseudomanifold,
    "skeleton_completion": lambda x: skeleton_completion(x, 1),
    "is_r_stacked_ball": lambda x: is_r_stacked_ball(x, 1),
}


@pytest.mark.parametrize("reader", HOMOLOGY_READERS)
@pytest.mark.parametrize("value", [5, None, BD4.facets], ids=["int", "None", "facets"])
def test_a_homology_reader_refuses_what_is_not_a_complex(reader, value):
    # each raised AttributeError on its first read of the complex
    message = f"expected a SimplicialComplex, got {value!r}"
    with pytest.raises(MalformedInputError, match=f"^{re.escape(message)}$"):
        HOMOLOGY_READERS[reader](value)

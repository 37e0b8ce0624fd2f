"""Every integer argument is read once, where it enters the package, by one
rule (``errors._index``): a value that is not an integer is refused with
``MalformedInputError`` naming the parameter, before any other test, and an
integer, ``bool`` included, reads as it did before the rule.  Every public
callable takes its complex by one rule as well (``complexes._complex``)."""

import dataclasses
import inspect
import re

import pytest

import scx
from scx import (
    FVector,
    HVector,
    MalformedInputError,
    PreconditionError,
    Scale,
    are_isomorphic,
    as_face,
    ball_boundary,
    betti,
    boundary_matrix,
    central_retriangulation,
    chain_complex,
    connected_sum,
    crtr_missing_faces_check,
    cross_polytope_boundary,
    cycle,
    detect_join,
    extended_g,
    f_from_h,
    f_vector,
    from_facets,
    g1,
    g2,
    g2_one_family,
    g2_two_catalog,
    g2_via_rigidity,
    g3,
    g_vector,
    generic_rank,
    generic_rank_trials,
    h_from_f,
    h_vector,
    interior_faces,
    inverse_stellar,
    is_homology_ball,
    is_homology_manifold,
    is_homology_sphere,
    is_m_sequence,
    is_normal_pseudomanifold,
    is_r_stacked_ball,
    is_simplex_boundary,
    join,
    link_g_sum,
    load_complex,
    load_fixture,
    macaulay_pseudopower,
    missing_face_identity_sides,
    random_embedding,
    read_scx,
    read_scx_text,
    reduced_euler,
    rigidity_matrix,
    run_all,
    run_statement,
    simplex_boundary,
    skeleton_completion,
    skeleton_graph,
    stack_over_facet,
    stacked_sphere,
    stacked_sphere_with_ridge,
    standard_catalog,
    stress_basis,
    swartz_all,
    swartz_operation,
    vertex_participation,
    write_complex,
    write_scx,
    write_scx_text,
)

BD4 = simplex_boundary(4)
BALL = BD4.star([0])  # a 3-ball
FACET = min(BD4.facets, key=sorted)
STACKED = stacked_sphere(4, 7)
CYCLE_JOIN = join(cycle(4), simplex_boundary(2))  # g2 = 1: one stress

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
    ("random_embedding(seed)", lambda x: random_embedding(BD4, 2, seed=x), "seed", False),
    ("generic_rank(d)", lambda x: generic_rank(BD4, x), "d", False),
    ("generic_rank(seed)", lambda x: generic_rank(BD4, 4, seed=x), "seed", False),
    ("generic_rank(trials)", lambda x: generic_rank(BD4, 4, trials=x), "trials", False),
    ("generic_rank_trials(d)", lambda x: generic_rank_trials(BD4, x), "d", False),
    ("generic_rank_trials(seed)", lambda x: generic_rank_trials(BD4, 4, seed=x), "seed", False),
    ("generic_rank_trials(trials)", lambda x: generic_rank_trials(BD4, 4, trials=x), "trials",
     False),
    ("g2_via_rigidity(seed)", lambda x: g2_via_rigidity(CYCLE_JOIN, seed=x), "seed", False),
    ("g2_via_rigidity(trials)", lambda x: g2_via_rigidity(CYCLE_JOIN, trials=x), "trials", False),
    ("stress_basis(d)", lambda x: stress_basis(BD4, d=x), "d", True),
    ("stress_basis(seed)", lambda x: stress_basis(CYCLE_JOIN, seed=x), "seed", False),
    ("stress_basis(trials)", lambda x: stress_basis(CYCLE_JOIN, trials=x), "trials", False),
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
] + [
    pytest.param(call, "trials", value, id=f"{label}(trials)={value!r}")
    for label, call in (
        ("stress_basis", lambda x: stress_basis(CYCLE_JOIN, trials=x)),
        ("g2_via_rigidity", lambda x: g2_via_rigidity(CYCLE_JOIN, trials=x)),
    )
    for value in ("3", 2.0)
]


@pytest.mark.parametrize("call, name, value", CASES)
def test_a_non_integer_is_refused_under_its_parameters_name(call, name, value):
    # each raised TypeError from its first comparison, or a later refusal
    # under another name (inverse_stellar's r = 2.0 as "face dimension" 1.0);
    # the samplers' seed and trials raised PreconditionError
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(MalformedInputError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("seq", [5, 1.5, None])
def test_is_m_sequence_refuses_a_sequence_that_is_not_iterable(seq):
    message = f"^expected an iterable of integers, got {seq}$"
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
        (lambda x: random_embedding(BD4, 2, seed=x), 1, True),
        (lambda x: generic_rank(BD4, x), 4, Four()),
        (lambda x: generic_rank_trials(BD4, 4, trials=x, seed=x), 4, Four()),
        (lambda x: g2_via_rigidity(CYCLE_JOIN, trials=x, seed=x), 1, True),
        (lambda x: stress_basis(BD4, d=x).vectors, 4, Four()),
        (lambda x: stress_basis(CYCLE_JOIN, trials=x, seed=x), 1, True),
        (lambda x: [e.name for e in standard_catalog(x, 8, 5)], 4, Four()),
        (lambda x: Scale(dmax=x, f0max=x, cycle_max=x, seed=x, trials=x), 4, Four()),
        (lambda x: Scale(seed=x, trials=x), 1, True),
    ],
)
def test_bools_and_index_types_read_as_their_integers(call, integer, other):
    # a bool reads as it did before the rule; a type with __index__, once a
    # TypeError, now reads as the integer it declares; the samplers refused
    # both as a seed or trial count
    assert call(other) == call(integer)


def test_an_integer_out_of_range_is_refused_as_before():
    # a negative coordinate bound raised ValueError from randrange
    for call in (
        lambda: cycle(False),
        lambda: is_r_stacked_ball(BALL, -1),
        lambda: random_embedding(BD4, 2, bound=-1),
        lambda: stress_basis(CYCLE_JOIN, trials=False),
        lambda: g2_via_rigidity(CYCLE_JOIN, trials=False),
    ):
        with pytest.raises(PreconditionError):
            call()
    assert is_m_sequence((True, 3, 6)) and not is_m_sequence((True, 3, 7))


def test_a_scale_stores_every_field_as_an_integer():
    scale = Scale(dmax=True, f0max=Four(), cycle_max=Four(), seed=True, trials=Four())
    assert [type(value) for value in vars(scale).values()] == [int] * 5
    assert (scale.seed, scale.trials) == (1, 4)
    assert Scale() == Scale(6, 14, 8, 0, 3)
    assert all(report.passed for report in run_all(Scale(seed=True)))


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


#: the face-vector conversions, each given a vector of ∂Δ³ with an impure flag
IMPURE_READERS = {
    "h_from_f": lambda impure: h_from_f(FVector((1, 4, 6, 4), impure=impure)),
    "f_from_h": lambda impure: f_from_h(HVector((1, 1, 1, 1), impure=impure)),
}


@pytest.mark.parametrize("reader", IMPURE_READERS.values(), ids=list(IMPURE_READERS))
@pytest.mark.parametrize("impure", ["a", [], None, 1, 0], ids=repr)
def test_an_impure_flag_that_is_not_a_bool_is_refused(reader, impure):
    # each was copied into the result unread: h_from_f gave HVector(..., impure='a')
    message = f"impure must be a bool, got {impure!r}"
    with pytest.raises(MalformedInputError, match=f"^{re.escape(message)}$"):
        reader(impure)


@pytest.mark.parametrize("reader", IMPURE_READERS.values(), ids=list(IMPURE_READERS))
@pytest.mark.parametrize("impure", [True, False])
def test_a_bool_impure_flag_passes_through(reader, impure):
    assert reader(impure).impure is impure


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


#: the other public functions that take a complex, with their other arguments
#: valid, each refusal once per complex parameter
OTHER_READERS = {
    "detect_join": detect_join,
    "central_retriangulation": lambda x: central_retriangulation(x, BALL),
    "central_retriangulation ball": lambda x: central_retriangulation(BD4, x),
    "stress_basis": stress_basis,
    "inverse_stellar": lambda x: inverse_stellar(x, 0),
    "are_isomorphic": lambda x: are_isomorphic(x, BD4),
    "are_isomorphic second": lambda x: are_isomorphic(BD4, x),
    "is_simplex_boundary": is_simplex_boundary,
    "stack_over_facet": lambda x: stack_over_facet(x, FACET),
    "connected_sum": lambda x: connected_sum(x, FACET, BD4, FACET),
    "connected_sum second": lambda x: connected_sum(BD4, FACET, x, FACET),
    # (4, 5, 6) is a missing facet of the link of 0 in C4 * bd(triangle)
    "swartz_operation": lambda x: swartz_operation(x, 0, (4, 5, 6)),
    "swartz_all": lambda x: swartz_all(x, 0),
    "crtr_missing_faces_check": lambda x: crtr_missing_faces_check(x, (0, 1)),
    "missing_face_identity_sides": lambda x: missing_face_identity_sides(x, (0, 1), 1),
    "skeleton_graph": skeleton_graph,
    "join": lambda x: join(x, BD4),
    "join second": lambda x: join(BD4, x),
    "vertex_participation": vertex_participation,
    "write_scx_text": write_scx_text,
    "write_scx": lambda x: write_scx(x, "never-written.scx"),
    "write_complex": lambda x: write_complex(x, "never-written.scx"),
}


@pytest.mark.parametrize("reader", OTHER_READERS)
@pytest.mark.parametrize("value", [5, None, BD4.facets], ids=["int", "None", "facets"])
def test_every_other_reader_refuses_what_is_not_a_complex(reader, value):
    # each raised AttributeError on its first read of the complex
    message = f"expected a SimplicialComplex, got {value!r}"
    with pytest.raises(MalformedInputError, match=f"^{re.escape(message)}$"):
        OTHER_READERS[reader](value)


#: calls given the integer 5 where a scale, a face, facets, text, a path or an
#: embedding belongs, and the refusal each raises
NOT_THE_ARGUMENT = {
    "run_all": (lambda: run_all(5), "expected a Scale, got 5"),
    "run_statement": (lambda: run_statement("Lemma2.2", 5), "expected a Scale, got 5"),
    "as_face": (lambda: as_face(5), "expected an iterable of vertex labels, got 5"),
    "from_facets": (lambda: from_facets(5), "expected an iterable of faces, got 5"),
    "from_facets face": (
        lambda: from_facets([[0, 1], 5]), "expected an iterable of vertex labels, got 5"
    ),
    "read_scx_text": (lambda: read_scx_text(5), "expected the text of a facet list, got 5"),
    "load_complex": (lambda: load_complex(5), "expected a file path, got 5"),
    "read_scx": (lambda: read_scx(5), "expected a file path, got 5"),
    "write_scx path": (lambda: write_scx(BD4, 5), "expected a file path, got 5"),
    "write_complex path": (lambda: write_complex(BD4, 5), "expected a file path, got 5"),
    "load_fixture": (lambda: load_fixture(5), "expected a file path, got 5"),
    "rigidity_matrix": (
        lambda: rigidity_matrix(skeleton_graph(BD4), 5), "expected an Embedding, got 5"
    ),
}


@pytest.mark.parametrize("call", NOT_THE_ARGUMENT)
def test_what_is_no_scale_face_text_or_path_is_refused(call):
    # run_all and run_statement raised AttributeError ('int' object has no
    # attribute 'dmax'), read_scx_text AttributeError, from_facets given a
    # face that is no iterable a refusal naming its generator, and the
    # others TypeError
    refused, message = NOT_THE_ARGUMENT[call]
    with pytest.raises(MalformedInputError, match=f"^{re.escape(message)}$"):
        refused()


#: the missing-face identity's two readers, each given a tau
IDENTITY_READERS = {
    "crtr_missing_faces_check": lambda tau: crtr_missing_faces_check(BD4, tau),
    "missing_face_identity_sides": lambda tau: missing_face_identity_sides(BD4, tau, 1),
}


@pytest.mark.parametrize("reader", IDENTITY_READERS)
@pytest.mark.parametrize("tau", [5, None, 1.5, BD4], ids=["int", "None", "float", "complex"])
def test_a_tau_that_is_no_face_is_refused(reader, tau):
    # each raised TypeError from frozenset(tau); tau is now read as a face
    message = f"expected an iterable of vertex labels, got {tau!r}"
    with pytest.raises(MalformedInputError, match=f"^{re.escape(message)}$"):
        IDENTITY_READERS[reader](tau)



#: the readers of a face at the public edge: the presence rule behind in,
#: link and star, and restriction
FACE_READERS = {
    "in": lambda face: face in BD4,
    "link": lambda face: BD4.link(face),
    "star": lambda face: BD4.star(face),
    "restriction": lambda face: BD4.restriction(face),
}


@pytest.mark.parametrize("reader", FACE_READERS)
@pytest.mark.parametrize("face", [[0, 0], [True], ["a"]], ids=["repeated", "bool", "str"])
def test_a_face_is_read_as_as_face_reads_it(reader, face):
    # each read its face with frozenset: [0, 0] as the vertex 0, [True] as
    # the vertex 1, and ["a"] as an absent vertex; as_face refuses all three
    with pytest.raises(MalformedInputError) as refused:
        as_face(face)
    with pytest.raises(MalformedInputError, match=f"^{re.escape(str(refused.value))}$"):
        FACE_READERS[reader](face)


def _fields(record) -> dict:
    """The constructor arguments that rebuild a dataclass ``record``."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


SMALL = Scale(dmax=4, f0max=8, cycle_max=5)
EMBEDDING = random_embedding(BD4, 4)

#: valid arguments of every callable that ``scx/__init__.py`` imports, by
#: parameter name; a parameter left out takes its default
VALID = {
    "SimplicialComplex": {"faces": BD4.facets},
    "Scale": {},
    "are_isomorphic": {"cx1": BD4, "cx2": BD4},
    "as_face": {"vertices": (0, 1)},
    "ball_boundary": {"cx": BALL},
    "barnette_sphere": {},
    "betti": {"cx": BD4},
    "boundary_matrix": {"cx": BD4, "k": 1},
    "central_retriangulation": {"cx": BD4, "ball": BALL},
    "chain_complex": {"cx": BD4},
    "connected_sum": {"cx1": BD4, "facet1": FACET, "cx2": BD4, "facet2": FACET},
    "cross_polytope_boundary": {"d": 3},
    "crtr_missing_faces_check": {"cx": BD4, "tau": (0, 1)},
    "cycle": {"n": 4},
    "detect_join": {"cx": CYCLE_JOIN},
    "extended_g": {"cx": BD4},
    "f_from_h": {"h": h_vector(BD4)},
    "f_vector": {"cx": BD4},
    "from_faces": {"faces": BD4.facets},
    "from_facets": {"facets": BD4.facets},
    "g1": {"cx": BD4},
    "g2": {"cx": BD4},
    "g2_one_family": {"d": 4, "variant": "join", "param": 2},
    "g2_two_catalog": {"d": 4, "kind": "octahedral"},
    "g2_via_rigidity": {"cx": CYCLE_JOIN},
    "g3": {"cx": BD4},
    "g_vector": {"cx": BD4},
    "generic_rank": {"graph": BD4, "d": 4},
    "generic_rank_trials": {"graph": BD4, "d": 4},
    "h_from_f": {"f": f_vector(BD4)},
    "h_vector": {"cx": BD4},
    "interior_faces": {"cx": BALL},
    "inverse_stellar": {"cx": STACKED, "v": 6},
    "is_homology_ball": {"cx": BALL},
    "is_homology_manifold": {"cx": BD4},
    "is_homology_sphere": {"cx": BD4},
    "is_m_sequence": {"seq": (1, 3, 6)},
    "is_normal_pseudomanifold": {"cx": BD4},
    "is_r_stacked_ball": {"cx": BALL, "r": 1},
    "is_simplex_boundary": {"cx": BD4},
    "join": {"cx1": BD4, "cx2": BD4},
    "link_g_sum": {"cx": BD4, "k": 1},
    "link_monotonicity_check": {"cx": BD4},
    "load_complex": {"path": "bd4.scx"},
    "load_fixture": {"path": "bd4.scx"},
    "macaulay_pseudopower": {"a": 3, "i": 2},
    "missing_face_identity_sides": {"cx": BD4, "tau": (0, 1), "k": 1},
    "random_embedding": {"graph": BD4, "d": 4},
    "read_scx": {"path": "bd4.scx"},
    "read_scx_text": {"text": "0 1\n1 2\n0 2\n"},
    "reduced_euler": {"cx": BD4},
    "rigidity_matrix": {"graph": BD4, "embedding": EMBEDDING},
    # run_all and run_statement read None as the default scale
    "run_all": {"scale": SMALL},
    "run_statement": {"statement": "Lemma2.2", "scale": SMALL},
    "simplex_boundary": {"d": 3},
    "skeleton_completion": {"cx": BD4, "i": 1},
    "skeleton_graph": {"cx": BD4},
    "stack_over_facet": {"cx": BD4, "facet": FACET},
    "stacked_sphere": {"d": 4, "n": 7},
    "stacked_sphere_with_ridge": {"d": 4, "n": 7},
    "standard_catalog": {"dmax": 4, "f0max": 8, "cycle_max": 5},
    "statement_ids": {},
    "stress_basis": {"cx": CYCLE_JOIN},
    "suspension": {"cx": BD4},
    # (4, 5, 6) is a missing facet of the link of 0 in C4 * bd(triangle)
    "swartz_all": {"cx": CYCLE_JOIN, "v": 0},
    "swartz_operation": {"cx": CYCLE_JOIN, "v": 0, "tau": (4, 5, 6)},
    "vertex_participation": {"cx": CYCLE_JOIN},
    "write_complex": {"cx": BD4, "path": "out.scx"},
    "write_scx": {"cx": BD4, "path": "out.scx"},
    "write_scx_text": {"cx": BD4},
    # records: the fields of one result each
    "BettiProfile": _fields(betti(BD4)),
    "BoundaryMatrix": _fields(boundary_matrix(BD4, 1)),
    "CatalogEntry": _fields(g2_one_family(4, "join", 2)),
    "Embedding": _fields(EMBEDDING),
    "FVector": _fields(f_vector(BD4)),
    "GVector": _fields(g_vector(BD4)),
    "Graph": _fields(skeleton_graph(BD4)),
    "HVector": _fields(h_vector(BD4)),
    "IsoCertificate": _fields(are_isomorphic(BD4, BD4)),
    "PredicateResult": _fields(is_homology_sphere(BD4)),
    "RetriangulationRecord": _fields(central_retriangulation(BD4, BALL)[1]),
    "RigidityMatrix": _fields(rigidity_matrix(BD4, EMBEDDING)),
    "StackedBallCertificate": _fields(is_r_stacked_ball(BALL, 1)),
    "StressBasis": _fields(stress_basis(CYCLE_JOIN)),
    "VerificationReport": {"statement": "Lemma2.2", "claim": "", "instances": 1, "passes": 1},
}

#: what every parameter is given in turn; no huge integer, since a trial
#: count or a dimension is a loop bound, not malformed input
SWEEP = ["a", 1.5, None, -1, True, [], [[0, 0]], object(), CYCLE_JOIN, 5]


#: a graph parameter is also given a Graph record, whose fields are swept
GRAPH = skeleton_graph(BD4)


def test_every_public_callable_returns_or_raises_an_scx_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_complex(BD4, "bd4.scx")
    public = {
        name: obj
        for name, obj in vars(scx).items()
        if callable(obj) and not name.startswith("_")
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
    }
    assert sorted(public) == sorted(VALID)
    escaped = []

    def call(name, obj, args, what):
        try:
            obj(**args)
        except scx.ScxError:
            pass
        except Exception as exc:  # what escapes is the finding
            escaped.append(f"{name}({what}): {type(exc).__name__}: {exc}")

    for name, obj in public.items():
        for param in inspect.signature(obj).parameters:
            for value in SWEEP:
                if name in ("run_all", "run_statement") and param == "scale" and value is None:
                    continue  # the default scale: a whole run, not malformed input
                call(name, obj, {**VALID[name], param: value}, f"{param}={value!r}")
            # a record argument is swept field by field; a Scale's fields are
            # the Scale constructor's parameters, swept above
            records = [VALID[name].get(param)] + [GRAPH] * (param == "graph")
            for record in records:
                if not dataclasses.is_dataclass(record) or param == "scale":
                    continue
                call(name, obj, {**VALID[name], param: record}, f"{param}={record!r}")
                for field in dataclasses.fields(record):
                    for value in SWEEP:
                        bad = dataclasses.replace(record, **{field.name: value})
                        what = f"{param}.{field.name}={value!r}"
                        call(name, obj, {**VALID[name], param: bad}, what)
    assert escaped == []

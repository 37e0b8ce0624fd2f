"""Exact calculus on finite simplicial complexes: face enumeration and
f/h/g-vectors, homology-based classification, three retriangulation
operations with g-bookkeeping, rigidity-based g_2, generators for the
classical sphere families, and a statement-verification harness."""

from .complexes import (
    SimplicialComplex,
    as_face,
    connected_sum,
    detect_join,
    from_facets,
    from_faces,
    is_simplex_boundary,
    join,
    stack_over_facet,
)
from .errors import (
    FaceNotPresentError,
    InternalCheckError,
    MalformedInputError,
    ParseError,
    PreconditionError,
    ScxError,
    TooLargeError,
    UnknownStatementError,
)
from .facevectors import (
    FVector,
    GVector,
    HVector,
    extended_g,
    f_from_h,
    f_vector,
    g1,
    g2,
    g3,
    g_vector,
    h_from_f,
    h_vector,
    is_m_sequence,
    link_g_sum,
    macaulay_pseudopower,
    reduced_euler,
)
from .fileio import (
    load_complex,
    read_scx,
    read_scx_text,
    write_complex,
    write_scx,
    write_scx_text,
)
from .generators import (
    CatalogEntry,
    barnette_sphere,
    cross_polytope_boundary,
    cycle,
    g2_one_family,
    g2_two_catalog,
    load_fixture,
    simplex_boundary,
    stacked_sphere,
    stacked_sphere_with_ridge,
    standard_catalog,
    suspension,
)
from .homology import (
    BettiProfile,
    BoundaryMatrix,
    PredicateResult,
    StackedBallCertificate,
    ball_boundary,
    betti,
    boundary_matrix,
    chain_complex,
    interior_faces,
    is_homology_ball,
    is_homology_manifold,
    is_homology_sphere,
    is_normal_pseudomanifold,
    is_r_stacked_ball,
    skeleton_completion,
)
from .isomorphism import IsoCertificate, are_isomorphic
from .retriangulate import (
    RetriangulationRecord,
    central_retriangulation,
    crtr_missing_faces_check,
    inverse_stellar,
    missing_face_identity_sides,
    swartz_all,
    swartz_operation,
)
from .rigidity import (
    Embedding,
    Graph,
    RigidityMatrix,
    StressBasis,
    g2_via_rigidity,
    generic_rank,
    generic_rank_trials,
    link_monotonicity_check,
    random_embedding,
    rigidity_matrix,
    skeleton_graph,
    stress_basis,
    vertex_participation,
)
from .verify import Scale, VerificationReport, run_all, run_statement, statement_ids

__version__ = "0.1.0"

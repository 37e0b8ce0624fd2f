"""Property-based checks of the library's structural invariants."""

from hypothesis import given, settings, strategies as st

from scx import (
    SimplicialComplex,
    betti,
    detect_join,
    f_from_h,
    f_vector,
    from_faces,
    from_facets,
    g1,
    h_from_f,
    join,
    macaulay_pseudopower,
    reduced_euler,
)
from scx.complexes import _maximal
from scx.fileio import read_scx_text, write_scx_text
from scx.isomorphism import _vertex_classes

import oracle

facet_lists = st.lists(
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=4, unique=True),
    min_size=1,
    max_size=6,
)

small_facet_lists = st.lists(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3, unique=True),
    min_size=1,
    max_size=4,
)


@given(st.lists(st.frozensets(st.integers(min_value=0, max_value=5), max_size=4), max_size=12))
def test_antichain_reduction_matches_the_quadratic_oracle(family):
    # mixed sizes, the empty face and repeated faces
    expected = oracle.maximal(family)
    assert _maximal(family) == expected
    assert SimplicialComplex(family).facets == expected
    assert SimplicialComplex(iter(family)).facets == expected


@given(facet_lists)
def test_closure_idempotence(facets):
    cx = from_facets(facets)
    assert from_faces(cx.facets) == cx
    assert from_facets([sorted(f) for f in cx.facets]) == cx


@given(facet_lists)
def test_closure_matches_powerset_oracle(facets):
    cx = from_facets(facets)
    assert cx.faces() == oracle.closure(facets)


@given(facet_lists, st.data())
def test_link_and_star_match_the_checked_constructor(facets, data):
    cx = from_facets(facets)
    face = data.draw(st.sampled_from(sorted(cx.faces(), key=sorted)))
    through = [f for f in cx.facets if face <= f]
    link, star = cx.link(face), cx.star(face)
    for built, checked in ((link, SimplicialComplex(f - face for f in through)),
                           (star, SimplicialComplex(through))):
        assert built.facets == checked.facets
        assert (built.vertices, built.dim) == (checked.vertices, checked.dim)
    faces = oracle.closure(facets)
    assert link.faces() == {g for g in faces if not g & face and g | face in faces}
    assert star.faces() == {g for g in faces if g | face in faces}


@given(facet_lists)
def test_f_h_round_trip(facets):
    f = f_vector(from_facets(facets))
    assert f_from_h(h_from_f(f)).entries == f.entries


@given(facet_lists, facet_lists)
def test_join_g1_arithmetic(facets1, facets2):
    cx1, cx2 = from_facets(facets1), from_facets(facets2)
    joined = join(cx1, cx2)
    assert g1(joined) == cx1.n_faces(0) + cx2.n_faces(0) - (cx1.dim + cx2.dim + 3)


@given(small_facet_lists)
@settings(max_examples=40, deadline=None)
def test_euler_relation(facets):
    cx = from_facets(facets)
    profile = betti(cx)
    alternating = -profile.b(-1) + sum(
        (-1) ** i * profile.b(i) for i in range(0, cx.dim + 1)
    )
    assert alternating == reduced_euler(cx)


@given(small_facet_lists, small_facet_lists)
@settings(max_examples=30, deadline=None)
def test_detect_join_soundness(facets1, facets2):
    joined = join(from_facets(facets1), from_facets(facets2))
    part = detect_join(joined)
    assert part is not None
    assert oracle.is_join_partition(joined.facets, *part)


@given(facet_lists)
def test_scx_round_trip(facets):
    cx = from_facets(facets)
    assert read_scx_text(write_scx_text(cx)) == cx


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=4))
def test_macaulay_pseudopower_monotone(a, i):
    assert macaulay_pseudopower(a + 1, i) >= macaulay_pseudopower(a, i)
    assert macaulay_pseudopower(a, i) >= a or i == 1


@given(facet_lists)
def test_vertex_classes_count_link_faces(facets):
    cx = from_facets(facets)
    adj = cx.adjacency()
    base = {v: (len(adj[v]), f_vector(cx.link([v])).entries) for v in cx.vertices}
    expected = {v: (base[v], tuple(sorted(base[u] for u in adj[v]))) for v in cx.vertices}
    assert _vertex_classes(cx) == expected

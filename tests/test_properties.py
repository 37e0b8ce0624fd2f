"""Property-based checks of the library's structural invariants."""

from hypothesis import example, given, settings, strategies as st

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
    link_g_sum,
    link_monotonicity_check,
    macaulay_pseudopower,
    reduced_euler,
)
from scx.complexes import _maximal, _tuple_order
from scx.facevectors import _link_f_vectors
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


def chain(face):
    """A nested chain: the prefixes of the sorted face, the empty one first."""
    vs = sorted(face)
    return [frozenset(vs[:k]) for k in range(len(vs) + 1)]


# families of single faces and nested chains, the first half repeated
chained_families = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=7), max_size=5).flatmap(
        lambda f: st.sampled_from([[f], chain(f)])
    ),
    max_size=8,
).map(lambda groups: [f for g in groups for f in g]).map(lambda fam: fam + fam[: len(fam) // 2])


@settings(max_examples=200)
@given(
    st.one_of(
        st.lists(st.frozensets(st.integers(min_value=0, max_value=5), max_size=4), max_size=12),
        chained_families,
    )
)
def test_antichain_reduction_matches_the_quadratic_oracle(family):
    # mixed sizes, the empty face, repeated faces and nested chains, as masks;
    # each maximal mask is kept once
    expected = oracle.maximal(family)
    kept = _maximal(sum(1 << v for v in f) for f in family)
    assert sorted(kept) == sorted(sum(1 << v for v in f) for f in expected)
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
    # rigidity and facevectors read the link f-vectors; the isomorphism
    # classes keep two of their entries, read off the facets: the facets
    # through a vertex (the link's facets) and its degree (the link's f_0)
    cx = from_facets(facets)
    adj = cx.adjacency()
    lk = {v: f_vector(cx.link([v])) for v in cx.vertices}
    assert all(lk[v][0] == len(adj[v]) for v in cx.vertices)
    lk_f = {v: f.entries for v, f in lk.items()}
    assert _link_f_vectors(cx) == lk_f
    base = {v: (sum(v in f for f in cx.facets), len(adj[v])) for v in cx.vertices}
    expected = {v: (base[v], tuple(sorted(base[u] for u in adj[v]))) for v in cx.vertices}
    classes, near = _vertex_classes(cx)
    assert classes == expected
    bit = cx._masks[0]
    assert near == {bit[v]: bit[v] + sum(bit[u] for u in adj[v]) for v in cx.vertices}


@example([0, 1, 3, 2, 6, 7, 5])
@given(st.lists(st.integers(min_value=0, max_value=2**12 - 1), unique=True))
def test_tuple_order_sorts_masks_of_any_sizes_by_their_label_tuples(masks):
    # the empty mask and masks of mixed sizes: a tuple precedes its extensions
    def labels(m):
        return tuple(i for i in range(m.bit_length()) if m >> i & 1)

    assert _tuple_order(masks) == sorted(masks, key=labels)


@given(facet_lists)
def test_faces_of_dim_match_the_oracle_closure_by_size(facets):
    cx = from_facets(facets)
    closure = oracle.closure(facets)
    for k in range(-2, cx.dim + 2):
        expected = sorted((f for f in closure if len(f) == k + 1), key=sorted)
        assert cx.faces_of_dim(k) == tuple(expected)


@given(facet_lists)
def test_link_sums_and_link_g2_match_links_built_from_the_facets(facets):
    cx = from_facets(facets)
    for k in range(cx.dim + 4):
        assert link_g_sum(cx, k) == oracle.link_g_sum(facets, k)
    total, per_vertex = oracle.link_g2s(facets)
    res = link_monotonicity_check(cx)
    assert (res.g2_total, res.per_vertex) == (total, per_vertex)
    assert res.violations == tuple((v, g) for v, g in per_vertex if g > total)

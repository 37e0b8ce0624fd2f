import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from scx import (
    FaceNotPresentError,
    MalformedInputError,
    PreconditionError,
    SimplicialComplex,
    TooLargeError,
    connected_sum,
    cycle,
    detect_join,
    f_vector,
    from_facets,
    g2,
    is_simplex_boundary,
    join,
    simplex_boundary,
    stack_over_facet,
    stacked_sphere,
)

import oracle


def test_from_facets_full_simplex():
    cx = from_facets([[0, 1, 2]])
    assert f_vector(cx).entries == (1, 3, 3, 1)
    assert cx.dim == 2


def test_from_facets_simplex_boundary(bd3):
    assert f_vector(bd3).entries == (1, 4, 6, 4)


def test_from_facets_absorbs_dominated_faces():
    cx = from_facets([[0, 1], [1, 2], [0, 2], [0]])
    assert f_vector(cx).entries == (1, 3, 3)
    assert cx.facets == {frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})}


def test_from_facets_rejects_repeated_vertex():
    with pytest.raises(MalformedInputError):
        from_facets([[0, 1, 1]])
    with pytest.raises(MalformedInputError):
        from_facets([[0, -1]])


def test_empty_complex():
    cx = from_facets([])
    assert cx.dim == -1
    assert cx.vertices == frozenset()
    assert cx.faces() == {frozenset()}
    assert frozenset() in cx


def test_closure_matches_oracle(oct3):
    assert oct3.faces() == oracle.closure(oct3.facets)
    assert f_vector(oct3).entries == oracle.face_counts(oct3.facets)


def test_link_of_vertex(bd3):
    link = bd3.link([0])
    assert link == from_facets([[1, 2], [1, 3], [2, 3]])


def test_link_of_empty_face_is_the_complex(bd4):
    assert bd4.link([]) == bd4


def test_link_in_cycle_join(cycle_join):
    # link of a cycle vertex: two suspension points joined with the triangle
    link = cycle_join.link([0])
    assert f_vector(link).entries == (1, 5, 9, 6)
    expected = oracle.face_counts(
        [[1, 4, 5], [1, 4, 6], [1, 5, 6], [3, 4, 5], [3, 4, 6], [3, 5, 6]]
    )
    assert f_vector(link).entries == expected


def test_star_of_edge(bd4):
    star = bd4.star([0, 1])
    assert star.facets == {
        frozenset({0, 1, 2, 3}),
        frozenset({0, 1, 2, 4}),
        frozenset({0, 1, 3, 4}),
    }


def test_link_requires_presence(bd3):
    with pytest.raises(FaceNotPresentError):
        bd3.link([0, 9])


def test_antistar_and_restriction(bd3):
    assert bd3.antistar(0) == from_facets([[1, 2, 3]])
    assert bd3.restriction([0, 1]) == from_facets([[0, 1]])
    with pytest.raises(FaceNotPresentError):
        bd3.antistar(7)


def test_skeleton(bd4):
    skel = bd4.skeleton(1)
    assert skel.dim == 1
    assert skel.n_faces(1) == 10
    assert bd4.skeleton(5) == bd4


def test_missing_faces_simplex_boundary(bd3):
    assert bd3.missing_faces(3) == [(0, 1, 2, 3)]
    assert bd3.missing_faces(1) == []
    assert bd3.missing_faces(2) == []
    assert bd3.missing_faces(9) == []


def test_missing_faces_connected_sum(bd4):
    glued = min(bd4.facets, key=sorted)
    cx = connected_sum(bd4, glued, simplex_boundary(4), glued)
    assert len(cx.missing_faces(3)) == 1


def test_missing_faces_octahedron():
    octa = join(join(simplex_boundary(1), simplex_boundary(1)), simplex_boundary(1))
    assert len(octa.missing_faces(1)) == 3
    assert octa.missing_faces(2) == []


def test_primeness(bd5, cycle_join):
    assert bd5.is_prime()
    assert cycle_join.is_prime()
    glued = min(bd5.facets, key=sorted)
    assert not connected_sum(bd5, glued, simplex_boundary(5), glued).is_prime()


def test_empty_complex_is_prime():
    # dimension -1 has no missing facets to ask for
    assert from_facets([]).is_prime()


def test_bool_labels_are_rejected():
    with pytest.raises(MalformedInputError):
        from_facets([[True, 2, 3]])


def test_join_of_two_point_pairs():
    square = join(simplex_boundary(1), simplex_boundary(1))
    assert f_vector(square).entries == (1, 4, 4)
    from scx import are_isomorphic

    assert are_isomorphic(square, cycle(4))


def test_join_counts():
    cx = join(simplex_boundary(2), simplex_boundary(2))
    assert cx.n_faces(0) == 6
    assert cx.n_faces(1) == 15
    assert g2(cx) == 1


def test_join_relabels_second_factor():
    cx = join(simplex_boundary(2), simplex_boundary(2))
    assert cx.vertices == frozenset(range(6))


def test_fourfold_join_is_octahedral_sphere(oct3):
    two = simplex_boundary(1)
    cx = join(join(join(two, two), two), two)
    assert cx == oct3
    assert len(cx.facets) == 16


def test_connected_sum_counts(bd4):
    glued = min(bd4.facets, key=sorted)
    cx = connected_sum(bd4, glued, simplex_boundary(4), glued)
    assert cx.n_faces(0) == 6
    assert g2(cx) == 0
    # boundary of the glued facet survives, the facet itself does not
    assert glued not in cx.facets
    assert all(glued - {v} in cx for v in glued)


def test_triple_connected_sum_is_stacked(bd3):
    cx = bd3
    for _ in range(2):
        facet = min(cx.facets, key=sorted)
        cx = connected_sum(cx, facet, simplex_boundary(3), min(simplex_boundary(3).facets, key=sorted))
    assert cx.n_faces(0) == 6
    assert g2(cx) == 0


def test_connected_sum_errors(bd3, bd4):
    with pytest.raises(PreconditionError):
        connected_sum(bd4, [0, 1, 2], bd4, [0, 1, 2, 3])  # not a facet
    with pytest.raises(PreconditionError):
        connected_sum(bd4, [0, 1, 2, 3], bd3, [0, 1, 2])  # dimension mismatch


def test_stacking_matches_connected_sum(bd4):
    from scx import are_isomorphic

    facet = min(bd4.facets, key=sorted)
    stacked = stack_over_facet(bd4, facet)
    summed = connected_sum(bd4, facet, simplex_boundary(4), min(simplex_boundary(4).facets, key=sorted))
    assert are_isomorphic(stacked, summed)
    assert stacked.n_faces(0) == bd4.n_faces(0) + 1


def test_stacking_preserves_g2():
    cx = join(simplex_boundary(2), simplex_boundary(2))
    stacked = stack_over_facet(cx, min(cx.facets, key=sorted))
    assert g2(stacked) == g2(cx) == 1


def test_detect_join_on_join():
    cx = join(simplex_boundary(2), simplex_boundary(3))
    part = detect_join(cx)
    assert part is not None
    assert sorted(map(len, part)) == [3, 4]
    assert oracle.is_join_partition(cx.facets, *part)


def test_detect_join_finds_suspension_structure(bd4):
    # the stacked sphere on d + 2 vertices is a bipyramid, hence a join
    glued = min(bd4.facets, key=sorted)
    cx = connected_sum(bd4, glued, simplex_boundary(4), glued)
    part = detect_join(cx)
    assert part is not None
    assert sorted(map(len, part)) == [2, 4]
    assert oracle.is_join_partition(cx.facets, *part)


def test_detect_join_absent():
    assert detect_join(stacked_sphere(4, 7)) is None
    assert detect_join(simplex_boundary(2)) is None


def test_detect_join_guard():
    # complete graph: every vertex is its own non-edge component
    from itertools import combinations

    complete = from_facets(combinations(range(10), 2))
    with pytest.raises(TooLargeError):
        detect_join(complete, max_components=8)


def test_is_simplex_boundary(bd3):
    assert is_simplex_boundary(bd3)
    assert not is_simplex_boundary(from_facets([[0, 1, 2]]))
    assert not is_simplex_boundary(cycle(4))


def test_closure_is_shared_safely_between_threads():
    cx = join(cycle(8), simplex_boundary(3))  # fresh: its closure is not built yet
    closure = sorted(oracle.closure(cx.facets), key=sorted)
    dims = range(-1, cx.dim + 1)
    expected = {k: tuple(f for f in closure if len(f) == k + 1) for k in dims}
    results = [None] * 8

    def read(i):
        results[i] = {k: cx.faces_of_dim(k) for k in dims}

    threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == expected for r in results)


def _one_skeleton_connected(cx):
    """Depth-first search over the edges of the oracle closure."""
    edges = [tuple(f) for f in oracle.closure(cx.facets) if len(f) == 2]
    verts = sorted(cx.vertices)
    seen, stack = set(verts[:1]), verts[:1]
    while stack:
        u = stack.pop()
        for a, b in edges:
            if u in (a, b) and (w := b if u == a else a) not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)


# facets of up to three vertices, single vertices and the empty face included,
# so that both connected and disconnected complexes are common
sparse_complexes = st.lists(
    st.lists(st.integers(0, 9), max_size=3, unique=True), max_size=7
).map(from_facets)


@given(sparse_complexes)
@settings(max_examples=300, deadline=None)
def test_is_connected_matches_one_skeleton_search(cx):
    assert cx.is_connected() == _one_skeleton_connected(cx)


def test_is_connected_edge_cases():
    assert from_facets([]).is_connected()
    assert from_facets([[4]]).is_connected()
    assert not from_facets([[0], [1]]).is_connected()
    assert not from_facets([[0, 1, 2], [3]]).is_connected()
    assert from_facets([[0, 1], [1, 2], [2, 3]]).is_connected()

import sys
import threading
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from scx import (
    FaceNotPresentError,
    MalformedInputError,
    PreconditionError,
    SimplicialComplex,
    TooLargeError,
    as_face,
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
from scx import complexes

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


def test_the_constructor_normalises_each_face():
    # tuples, lists and ranges become frozenset facets, as in from_facets,
    # so the set operations behind link and star work on them
    raw = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
    assert raw == from_facets([(0, 1, 2), (1, 2, 3)])
    assert raw.link([1]) == from_facets([(0, 2), (2, 3)])
    assert SimplicialComplex([[0, 1]]) == from_facets([[0, 1]])
    assert SimplicialComplex([range(3), [2, 3]]).star([3]) == from_facets([[2, 3]])


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
    for reader in (bd3.link, bd3.star):
        with pytest.raises(FaceNotPresentError, match=r"^face \(0, 9\) is not in the complex$"):
            reader([9, 0])
        with pytest.raises(FaceNotPresentError, match=r"^face \(0, 1, 2, 3\) is not"):
            reader([0, 1, 2, 3])


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


@pytest.mark.parametrize("reader", ["n_faces", "faces_of_dim", "missing_faces", "skeleton"])
@pytest.mark.parametrize("k", ["a", 1.5, 1.0, None, 100.5, -7.5])
def test_dimension_readers_refuse_a_dimension_that_is_not_an_integer(bd4, reader, k):
    # the closure's group reader refuses it, once, for all four, in range or
    # out of it (100.5 and -7.5 once read as empty)
    with pytest.raises(MalformedInputError, match=f"face dimension must be an integer, got {k!r}"):
        getattr(bd4, reader)(k)


def test_dimension_readers_read_outside_the_range_as_empty(bd4):
    # the group rule comes first, and the readers' own range tests still refuse
    assert [bd4.n_faces(k) for k in range(-3, 6)] == [0, 0, 1, 5, 10, 10, 5, 0, 0]
    assert from_facets([[0], [1]]).edges() == ()
    with pytest.raises(PreconditionError, match="missing-face dimension must be >= 0"):
        bd4.missing_faces(-1)
    with pytest.raises(PreconditionError, match="skeleton dimension must be >= -1"):
        bd4.skeleton(-2)


def test_skeleton_and_missing_faces_past_the_closure_guard_build_no_closure():
    # each reads its dimension without the closure's group reader, which
    # built 2^18 faces only to check that k is an integer (TooLargeError)
    cx = from_facets([range(18)])
    assert cx.missing_faces(0) == []
    assert cx.skeleton(17) is cx
    assert cx._closure is None


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


def test_labels_that_cannot_be_ordered_are_rejected_at_construction():
    # the constructor refuses every label that is not a non-negative int
    with pytest.raises(MalformedInputError, match="vertex labels must be non-negative integers"):
        SimplicialComplex([(0, "a")])
    with pytest.raises(MalformedInputError, match="vertex labels must be non-negative integers"):
        SimplicialComplex([(0, 1), ("a",)])


@pytest.mark.parametrize("faces", [[(-1, 0)], [(True, 2)], [(0, 1.0)]], ids=repr)
def test_the_constructor_refuses_labels_as_face_refuses(faces):
    with pytest.raises(MalformedInputError) as constructed:
        SimplicialComplex(faces)
    with pytest.raises(MalformedInputError) as normalized:
        as_face(faces[0])
    assert str(constructed.value) == str(normalized.value)
    assert "vertex labels must be non-negative integers" in str(constructed.value)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda cx: cx.link(5), id="link(5)"),
        pytest.param(lambda cx: cx.star(5), id="star(5)"),
        pytest.param(lambda cx: cx.link([[0]]), id="link([[0]])"),
        pytest.param(lambda cx: 5 in cx, id="5 in cx"),
        pytest.param(lambda cx: cx.restriction(None), id="restriction(None)"),
        pytest.param(lambda cx: stack_over_facet(cx, 5), id="stack_over_facet(cx, 5)"),
        pytest.param(lambda cx: connected_sum(cx, 5, cx, (0, 1, 2)), id="connected_sum(cx, 5)"),
        pytest.param(lambda cx: connected_sum(cx, (0, 1, 2), cx, 5), id="connected_sum(.., 5)"),
        pytest.param(lambda cx: SimplicialComplex(5), id="SimplicialComplex(5)"),
        pytest.param(lambda cx: SimplicialComplex([5]), id="SimplicialComplex([5])"),
        pytest.param(lambda cx: SimplicialComplex([[[0]]]), id="SimplicialComplex([[[0]]])"),
    ],
)
def test_a_malformed_face_is_refused_as_malformed_input(bd3, call):
    # each raised TypeError before: the presence rule and restriction now
    # read a face by as_face, and the constructor's one frozenset call
    # refuses the rest
    refusals = r"^expected (an iterable of vertex|iterables of) labels, got |^vertex labels must be "
    with pytest.raises(MalformedInputError, match=refusals):
        call(bd3)


def test_an_unhashable_matching_label_is_no_bijection():
    with pytest.raises(PreconditionError, match="matching must be a bijection"):
        connected_sum(cycle(4), (0, 1), cycle(5), (0, 1), {0: [0], 1: 1})


@pytest.mark.parametrize("matching", [[1, 2, 3], (1, 2, 3), {1, 2, 3}])
def test_a_matching_that_is_no_mapping_is_no_bijection(bd3, matching):
    # each holds the first facet's vertices, and raised AttributeError on .values()
    with pytest.raises(PreconditionError, match="^matching must be a bijection between the two facets$"):
        connected_sum(bd3, (1, 2, 3), bd3, (1, 2, 3), matching=matching)


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


def test_connected_sum_refuses_a_non_facet_of_the_second_complex(bd4):
    message = r"^\(0, 1, 2\) is not a facet of the second complex$"
    with pytest.raises(PreconditionError, match=message):
        connected_sum(bd4, [0, 1, 2, 3], bd4, [0, 1, 2])


def test_gluing_or_stacking_along_the_empty_facet_is_refused():
    # the empty complex's only facet is the empty face, which has no vertex
    # to glue along or to cone from
    empty = from_facets([])
    with pytest.raises(PreconditionError, match="must be nonempty"):
        connected_sum(empty, (), empty, ())
    with pytest.raises(PreconditionError, match="not a nonempty facet"):
        stack_over_facet(empty, ())


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
    # fewer than two non-edge components: none, one point, two points
    for facets in ([], [[0]], [[0], [1]]):
        assert detect_join(from_facets(facets)) is None


def test_detect_join_guard(monkeypatch):
    # complete graph: every vertex is its own non-edge component
    complete = from_facets(combinations(range(10), 2))
    monkeypatch.setattr(complexes, "JOIN_GUARD", 8)
    with pytest.raises(TooLargeError):
        detect_join(complete)


def test_is_simplex_boundary(bd3):
    assert is_simplex_boundary(bd3)
    assert not is_simplex_boundary(from_facets([[0, 1, 2]]))
    assert not is_simplex_boundary(cycle(4))


def test_is_simplex_boundary_counts_what_the_definition_lists():
    # the definition: the facets are all the (n - 1)-subsets of the n
    # vertices.  Every family of (n - 1)-subsets of range(n), n <= 6, alone
    # and with one more face: a new vertex, an edge to it, the whole simplex
    # or a vertex it already has
    def listed(cx):
        verts = sorted(cx.vertices)
        sides = {frozenset(c) for c in combinations(verts, len(verts) - 1)}
        return len(verts) == cx.dim + 2 and cx.facets == sides

    verdicts = []
    for n in range(1, 7):
        sides = list(combinations(range(n), max(n - 1, 1)))
        for k in range(1, len(sides) + 1):
            for family in combinations(sides, k):
                for extra in ([], [[n]], [[0, n]], [range(n)], [[0]]):
                    cx = from_facets([*family, *extra])
                    assert is_simplex_boundary(cx) == listed(cx), (family, extra)
                    verdicts.append(listed(cx))
    assert (len(verdicts), sum(verdicts)) == (600, 14)
    # as many facets as vertices and of dimension n - 2, but not pure
    assert not is_simplex_boundary(from_facets([[0, 1, 2], [0, 3], [1, 3], [2, 3]]))


def test_closure_is_shared_safely_between_threads():
    cx = join(cycle(8), simplex_boundary(3))  # fresh: its closure is not built yet
    closure = sorted(oracle.closure(cx.facets), key=sorted)
    dims = range(-1, cx.dim + 1)
    unread = join(cycle(8), simplex_boundary(3))  # built from masks: facets not labelled yet
    expected = (
        {k: tuple(f for f in closure if len(f) == k + 1) for k in dims},
        cx.facets,
        hash(cx),
    )
    results = [None] * 8

    def read(i):
        results[i] = ({k: cx.faces_of_dim(k) for k in dims}, unread.facets, hash(unread))

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


# facets of up to three vertices, single vertices and the empty face included,
# so that both connected and disconnected complexes are common
sparse_complexes = st.lists(
    st.lists(st.integers(0, 9), max_size=3, unique=True), max_size=7
).map(from_facets)


@given(sparse_complexes)
@settings(max_examples=300, deadline=None)
def test_is_connected_matches_one_skeleton_search(cx):
    assert cx.is_connected() == oracle.one_skeleton_connected(cx)


def test_is_connected_edge_cases():
    assert from_facets([]).is_connected()
    assert from_facets([[4]]).is_connected()
    assert not from_facets([[0], [1]]).is_connected()
    assert not from_facets([[0, 1, 2], [3]]).is_connected()
    assert from_facets([[0, 1], [1, 2], [2, 3]]).is_connected()

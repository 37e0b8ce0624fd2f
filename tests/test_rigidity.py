import inspect
import re
from math import comb

import pytest

from scx import (
    Embedding,
    Graph,
    InternalCheckError,
    MalformedInputError,
    PreconditionError,
    barnette_sphere,
    cross_polytope_boundary,
    cycle,
    exact,
    from_facets,
    g2,
    g2_one_family,
    g2_via_rigidity,
    generic_rank,
    generic_rank_trials,
    join,
    link_monotonicity_check,
    random_embedding,
    rigidity_matrix,
    simplex_boundary,
    skeleton_graph,
    stacked_sphere,
    stress_basis,
    vertex_participation,
)
import scx.rigidity as rigidity
from scx.generators import standard_catalog
from scx.rigidity import _rank_bound, _verify_stresses, expected_pseudomanifold_rank

import oracle

K4 = Graph((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


# two disjoint K4 in the plane: rank 2 * 5 = 10, below min(12 edges, 2 * 8 - 3)
TWO_K4 = Graph(tuple(range(8)), K4.edges + tuple((u + 4, v + 4) for u, v in K4.edges))
PENDANT = from_facets([[0, 1], [1, 2], [0, 2], [2, 3]])


def test_embedding_determinism():
    a = random_embedding(K4, 2, seed=11)
    b = random_embedding(K4, 2, seed=11)
    c = random_embedding(K4, 2, seed=12)
    assert a.coords == b.coords
    assert a.coords != c.coords


def test_embedding_refuses_dimension_0():
    with pytest.raises(PreconditionError, match="embedding dimension must be >= 1"):
        random_embedding(skeleton_graph(cycle(4)), 0)


def test_rigidity_readers_take_a_graph_or_a_complex():
    cx = cycle(5)
    assert random_embedding(cx, 2, seed=3) == random_embedding(skeleton_graph(cx), 2, seed=3)
    assert rigidity_matrix(cx, random_embedding(cx, 2)).edges == skeleton_graph(cx).edges
    message = "expected a Graph or SimplicialComplex, got <class 'list'>"
    with pytest.raises(MalformedInputError, match=message):
        generic_rank([(0, 1)], 2)
    # a Graph is read where it enters: an edge on an absent vertex, or fields
    # that are no labels, are malformed, not a KeyError or TypeError
    with pytest.raises(MalformedInputError, match=re.escape("got (0, 2)")):
        generic_rank(Graph((0, 1), ((0, 2),)), 2)
    with pytest.raises(MalformedInputError, match="expected an iterable of vertex labels, got 5"):
        generic_rank(Graph(5, 6), 2)
    # as are an embedding's fields: coordinates too short for its dimension
    emb = random_embedding(cx, 2)
    with pytest.raises(PreconditionError, match="other than 3 coordinates"):
        rigidity_matrix(cx, Embedding(emb.coords, 3, emb.seed))


def test_rigidity_matrix_reads_the_embedding_seed():
    # the record's seed is read by errors._index where it enters, as d is
    cx = simplex_boundary(4)
    emb = random_embedding(cx, 4)
    with pytest.raises(MalformedInputError, match="embedding seed must be an integer, got 'a'"):
        rigidity_matrix(cx, Embedding(emb.coords, emb.d, "a"))
    assert rigidity_matrix(cx, Embedding(emb.coords, emb.d, True)) == rigidity_matrix(cx, emb)


def test_every_sampler_defaults_to_three_trials():
    for sampler in (stress_basis, vertex_participation, g2_via_rigidity, generic_rank,
                    generic_rank_trials):
        assert inspect.signature(sampler).parameters["trials"].default == 3, sampler.__name__
    assert len(generic_rank_trials(K4, 3)) == 3


def test_k4_rank_in_the_plane():
    for seed in (0, 1):
        assert generic_rank(K4, 2, trials=2, seed=seed) == 5


def test_path_rank_on_a_line():
    path = Graph((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)))
    assert generic_rank(path, 1) == 3


def test_rigidity_matrix_shape_and_blocks():
    single = Graph((0, 1), ((0, 1),))
    emb = random_embedding(single, 2, seed=3)
    mat = rigidity_matrix(single, emb)
    assert len(mat.entries) == 1
    row = mat.entries[0]
    assert len(row) == 4
    assert row[0] == -row[2] and row[1] == -row[3]

    triangle = Graph((0, 1, 2), ((0, 1), (0, 2), (1, 2)))
    assert generic_rank(triangle, 2) == 3

    with pytest.raises(PreconditionError):
        rigidity_matrix(K4, random_embedding(triangle, 2, seed=0))


def test_tetrahedron_graph_in_3_space(bd3):
    g = skeleton_graph(bd3)
    mat = rigidity_matrix(g, random_embedding(g, 3, seed=0))
    assert len(mat.entries) == 6 and len(mat.entries[0]) == 12
    assert generic_rank(g, 3) == 6


def test_pseudomanifold_rank_formula(bd4, oct3):
    assert generic_rank(skeleton_graph(bd4), 4) == 4 * 5 - comb(5, 2)
    assert generic_rank(skeleton_graph(oct3), 4) == 4 * 8 - comb(5, 2)


def test_disconnected_graph_misses_the_bound():
    g = Graph((0, 1, 2, 3, 4, 5), ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
    assert generic_rank(g, 2) < 2 * 6 - comb(3, 2)


def test_g2_via_rigidity_values(cycle_join):
    assert g2_via_rigidity(stacked_sphere(4, 7)) == 0
    assert g2_via_rigidity(join(simplex_boundary(2), simplex_boundary(3))) == 1
    assert g2_via_rigidity(barnette_sphere().complex) == 5
    assert g2_via_rigidity(cycle_join) == g2(cycle_join) == 1


def test_g2_via_rigidity_requires_pseudomanifold():
    pendant = from_facets([[0, 1], [1, 2], [0, 2], [2, 3]])
    with pytest.raises(PreconditionError):
        g2_via_rigidity(pendant)
    assert g2_via_rigidity(pendant, require_pseudomanifold=False) >= 0


def test_stress_basis_participation(cycle_join):
    basis = stress_basis(cycle_join)
    assert len(basis.vectors) == 1
    assert all(basis.participation.values())
    assert vertex_participation(cycle_join) == basis.participation


def test_stress_check_rejects_a_non_stress():
    emb = random_embedding(K4, 2, seed=0)
    with pytest.raises(InternalCheckError):
        _verify_stresses(K4, emb, [(1, 0, 0, 0, 0, 0)])


def test_stress_basis_empty_for_stacked(monkeypatch):
    calls = []
    original = exact._bareiss
    monkeypatch.setattr(exact, "_bareiss", lambda *a, **k: calls.append(a) or original(*a, **k))
    for cx in (stacked_sphere(4, 7), stacked_sphere(4, 8)):
        basis = stress_basis(cx)
        assert basis.vectors == ()
        assert not any(basis.participation.values())
    assert calls == []  # full rank mod p proves the kernel over Q is {0}


def test_sampling_needs_a_trial(cycle_join):
    with pytest.raises(PreconditionError, match="need at least one trial"):
        stress_basis(cycle_join, trials=0)
    with pytest.raises(PreconditionError, match="need at least one trial"):
        generic_rank_trials(K4, 2, trials=0)


def test_an_embedding_keeps_a_negative_seed():
    assert random_embedding(cycle(4), 2, seed=-3).seed == -3


def test_participation_stable_across_seeds(oct3):
    assert vertex_participation(oct3, seed=5) == vertex_participation(oct3, seed=9)


def test_rank_trials_agree(oct3, cycle_join):
    for cx in (oct3, cycle_join):
        g = skeleton_graph(cx)
        trials = generic_rank_trials(g, cx.dim + 1, trials=3, seed=2)
        assert len(set(trials)) == 1


def test_cone_lemma_spot_check(cycle_join, oct3):
    # star of v rigid in dimension d exactly when the link is in d-1
    for cx in (cycle_join, oct3):
        d = cx.dim + 1
        v = min(cx.vertices)
        link = cx.link([v])
        star = cx.star([v])
        link_rank = generic_rank(skeleton_graph(link), d - 1)
        star_rank = generic_rank(skeleton_graph(star), d)
        link_rigid = link_rank == (d - 1) * len(link.vertices) - comb(d, 2)
        star_rigid = star_rank == d * len(star.vertices) - comb(d + 1, 2)
        assert link_rigid == star_rigid


def test_link_monotonicity(bd5, oct3):
    res = link_monotonicity_check(oct3)
    assert res.ok and res.g2_total == 2
    assert all(lg == 0 for _, lg in res.per_vertex)  # octahedron links

    res = link_monotonicity_check(join(simplex_boundary(2), simplex_boundary(3)))
    assert res.ok
    assert {lg for _, lg in res.per_vertex} <= {0, 1}

    res = link_monotonicity_check(bd5)
    assert res.ok and res.g2_total == 0


def test_stress_basis_matches_the_whole_matrix(oct3, cycle_join):
    # the stresses solved on the Gale dual are the kernel of the whole
    # rigidity matrix, exactly
    inputs = [
        oct3,
        cycle_join,
        cross_polytope_boundary(3),
        cross_polytope_boundary(5),
        g2_one_family(4, "join", 2).complex,
        g2_one_family(5, "cycle", 5).complex,
        stacked_sphere(4, 8),
        barnette_sphere().complex,
        from_facets([[u, v] for u, v in TWO_K4.edges]),  # below the bound: every column
        PENDANT,
    ]
    for cx in inputs:
        for seed in (0, 1):
            basis = stress_basis(cx, seed=seed)
            g = skeleton_graph(cx)
            whole = rigidity_matrix(g, basis.embedding).entries
            assert basis.vectors == tuple(oracle.left_nullspace(whole))
            assert len(basis.vectors) == len(g.edges) - exact.rank_rational(whole)


def test_generic_rank_is_the_maximum_of_the_trials(oct3, cycle_join):
    spheres = (oct3, cycle_join, barnette_sphere().complex)
    graphs = [(skeleton_graph(cx), cx.dim + 1) for cx in spheres]
    graphs += [(K4, 2), (Graph((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3))), 1)]
    graphs += [(TWO_K4, 2), (skeleton_graph(PENDANT), 2), (skeleton_graph(oct3), 2)]
    for g, d in graphs:
        for seed in (0, 1, 2):
            assert generic_rank(g, d, seed=seed) == max(generic_rank_trials(g, d, seed=seed))
    assert generic_rank(TWO_K4, 2) == 10 < _rank_bound(TWO_K4, 2)


def test_sampling_stops_at_the_rank_bound(monkeypatch, oct3, cycle_join):
    calls = []
    original = exact._reduce
    monkeypatch.setattr(
        exact, "_reduce", lambda *a, **k: calls.append((a, k)) or original(*a, **k)
    )
    for cx in (oct3, cycle_join):
        g = skeleton_graph(cx)
        del calls[:]
        generic_rank(g, cx.dim + 1, trials=3)
        assert len(calls) == 1
        assert calls[0][1] == {"limit": _rank_bound(g, cx.dim + 1)}
        del calls[:]
        stress_basis(cx, trials=3)
        assert len(calls) == 1
        del calls[:]
        assert g2_via_rigidity(cx, trials=3) == g2(cx)
        assert len(calls) == 1
        del calls[:]
        assert len(generic_rank_trials(g, cx.dim + 1, trials=3)) == 3
        assert len(calls) == 3
    del calls[:]
    generic_rank(TWO_K4, 2, trials=3)  # below the bound: every trial
    assert len(calls) == 3


def test_complete_graphs_reach_the_rank_bound():
    for d in (2, 3, 4, 5):
        for n in (d - 1, d, d + 1, d + 3):
            kn = Graph(tuple(range(n)), tuple((u, v) for u in range(n) for v in range(u + 1, n)))
            bound = _rank_bound(kn, d)
            assert bound == (comb(n, 2) if n <= d + 1 else d * n - comb(d + 1, 2))
            assert max(generic_rank_trials(kn, d, trials=3)) == generic_rank(kn, d) == bound
            assert generic_rank(kn, d, field="rational") == bound


def test_small_coordinates_reach_the_generic_rank():
    # trial 0 at each seed is the sample that g2_via_rigidity and stress_basis
    # start with, and the only one they take when it reaches the bound
    assert rigidity.DEFAULT_COORD_BOUND == 2**16
    pseudomanifolds = [
        e.complex for e in standard_catalog() if "normal-pm" in e.tags and g2(e.complex) >= 1
    ]
    assert len(pseudomanifolds) == 29
    for cx in pseudomanifolds:
        g, expected = skeleton_graph(cx), expected_pseudomanifold_rank(cx)
        for seed in range(10):
            assert generic_rank_trials(g, cx.dim + 1, trials=1, seed=seed) == [expected]


def _counting_reduce(monkeypatch):
    """Make ``exact._reduce`` read its columns through a counting iterable;
    the lists returned get the number of columns each call read and what
    each call returned."""
    original, reads, results = exact._reduce, [], []

    def counting(columns, field, limit=None):
        read = [0]

        def counted():
            for col in columns:
                read[0] += 1
                yield col

        result = original(counted(), field, limit)
        reads.append(read[0])
        results.append(result)
        return result

    monkeypatch.setattr(exact, "_reduce", counting)
    return original, reads, results


def _in_vertex_order(pivots, n, d):
    """Pivots ``{column: lowest row}`` of a reduction in the frame-last
    order of ``rigidity._samples`` mapped back to column indices, ascending."""
    frame = {(n - 1 - k) * d + t for k in range(min(d, n)) for t in range(k, d)}
    order = [j for j in range(d * n) if j not in frame] + sorted(frame)
    return sorted((order[j], low) for j, low in pivots.items())


def test_frame_last_samples_match_the_vertex_order_on_the_catalog(monkeypatch):
    # every sample g2_via_rigidity, stress_basis and generic_rank_trials may
    # take at seeds 0-2: the same rank and pivots, each at the same lowest
    # row, as the whole reduction in vertex order, from only as many columns
    # as the rank bound
    original, reads, results = _counting_reduce(monkeypatch)
    pseudomanifolds = [
        e.complex for e in standard_catalog(dmax=7, f0max=16) if "normal-pm" in e.tags
    ]
    assert len(pseudomanifolds) == 67
    for cx in pseudomanifolds:
        g, d = skeleton_graph(cx), cx.dim + 1
        bound = _rank_bound(g, d)
        for seed in range(3):
            del reads[:], results[:]
            samples = list(rigidity._samples(g, d, 3, seed, exact.DEFAULT_PRIME))
            for (rank, emb), (_, pivots) in zip(samples, results, strict=True):
                whole = original(rigidity._columns(g, emb), exact.DEFAULT_PRIME)
                assert rank == whole[0] == bound
                assert _in_vertex_order(pivots, len(g.vertices), d) == list(whole[1].items())
            assert reads == [bound] * 3


def test_stress_bases_match_the_whole_matrix_on_the_catalog():
    pseudomanifolds = [
        e.complex for e in standard_catalog(dmax=7, f0max=16) if "normal-pm" in e.tags
    ]
    for cx in pseudomanifolds:
        g = skeleton_graph(cx)
        for seed in range(3):
            basis = stress_basis(cx, seed=seed)
            whole = rigidity_matrix(g, basis.embedding).entries
            assert basis.vectors == tuple(oracle.left_nullspace(whole))


def test_ranks_below_the_bound_read_every_column(monkeypatch):
    original, reads, _ = _counting_reduce(monkeypatch)
    # K4 and a pendant edge in the plane: rank 5 + 1, below min(7 edges, 2 * 5 - 3)
    k4_pendant = Graph(tuple(range(5)), K4.edges + ((3, 4),))
    for g in (TWO_K4, k4_pendant):
        for seed in range(3):
            del reads[:]
            ranks = generic_rank_trials(g, 2, trials=3, seed=seed)
            assert reads == [2 * len(g.vertices)] * 3
            for t, rank in enumerate(ranks):
                emb = random_embedding(g, 2, rigidity._trial_seed(seed, t))
                assert rank == original(rigidity._columns(g, emb), exact.DEFAULT_PRIME)[0]
                assert rank < _rank_bound(g, 2)
    # PENDANT's four edges are independent in every dimension, so its rank
    # meets the bound f_1 and the reduction stops at the fourth pivot
    g = skeleton_graph(PENDANT)
    for d in (1, 2, 3):
        del reads[:]
        assert generic_rank_trials(g, d, trials=3) == [_rank_bound(g, d)] * 3 == [3 if d == 1 else 4] * 3
        assert all(read < d * 4 for read in reads)


def test_rank_bound_edge_cases(monkeypatch, oct3, cycle_join):
    original, reads, results = _counting_reduce(monkeypatch)
    # no edges: d * n empty columns, no pivot, so every column is read
    for d in (1, 2, 3):
        for n in (1, 2, 4):
            g = Graph(tuple(range(n)), ())
            del reads[:]
            assert generic_rank_trials(g, d, trials=1) == [0] == [_rank_bound(g, d)]
            assert reads == [d * n]
            assert rigidity_matrix(g, random_embedding(g, d)).entries == ()
    isolated = from_facets([[0], [1], [2]])
    assert stress_basis(isolated).vectors == ()
    # n < d: the bound is f_1, met on the f_1 columns outside the frame of K_n
    for d in (3, 4, 5):
        for n in range(2, d):
            kn = Graph(tuple(range(n)), tuple((u, v) for u in range(n) for v in range(u + 1, n)))
            del reads[:], results[:]
            samples = list(rigidity._samples(kn, d, 3, 0, exact.DEFAULT_PRIME))
            assert [rank for rank, _ in samples] == [len(kn.edges)] * 3 == [_rank_bound(kn, d)] * 3
            assert reads == [len(kn.edges)] * 3
            for (_, emb), (_, pivots) in zip(samples, results, strict=True):
                whole = original(rigidity._columns(kn, emb), exact.DEFAULT_PRIME)
                assert _in_vertex_order(pivots, n, d) == list(whole[1].items())
    # stress bases in a dimension other than dim + 1
    for cx in (oct3, cycle_join):
        g = skeleton_graph(cx)
        for d in (2, 3, cx.dim + 2):
            del reads[:]
            basis = stress_basis(cx, d=d, seed=1)
            assert basis.embedding.d == d
            whole = rigidity_matrix(g, basis.embedding).entries
            assert basis.vectors == tuple(oracle.left_nullspace(whole))
            assert exact.rank_rational(whole) == _rank_bound(g, d) == len(g.edges) - len(basis.vectors)
            if d < cx.dim + 1:
                # rigid with stresses: the bound is met outside the frame
                assert basis.vectors and reads == [_rank_bound(g, d)]
            else:
                # independent edges: every column up to the last pivot
                assert not basis.vectors and reads[0] <= d * len(g.vertices)

"""Stress bases from the stress matrix (``rigidity._stresses``) against the
left kernel of the whole rigidity matrix (``oracle.left_nullspace``)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from scx import (
    Graph,
    InternalCheckError,
    cross_polytope_boundary,
    cycle,
    from_facets,
    g2,
    join,
    random_embedding,
    rigidity_matrix,
    simplex_boundary,
    skeleton_graph,
    stack_over_facet,
    stacked_sphere,
    stress_basis,
)
import scx.rigidity as rigidity
from scx import exact
from scx.rigidity import Embedding, _stresses

import oracle
from conftest import optimized_exit_code


def _agree(g, emb):
    vectors = _stresses(g, emb)
    assert vectors == tuple(oracle.left_nullspace(rigidity_matrix(g, emb).entries))
    return vectors


def _stacked(cx, times, rng):
    for _ in range(times):
        cx = stack_over_facet(cx, rng.choice(sorted(cx.facets, key=sorted)))
    return cx


def _small_graphs():
    """Skeletons of small complexes, and seeded random graphs on 2 to 8
    vertices, sparse to nearly complete."""
    complexes = (
        simplex_boundary(3),
        join(cycle(4), simplex_boundary(2)),
        cross_polytope_boundary(3),
        stacked_sphere(3, 6),
        from_facets([[0, 1], [1, 2], [0, 2], [2, 3]]),
    )
    graphs = [skeleton_graph(cx) for cx in complexes]
    rng = random.Random(0)
    for n in range(2, 9):
        for density in (0.3, 0.6, 0.9):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            graphs.append(Graph(tuple(range(n)), tuple(e for e in pairs if rng.random() < density)))
    return graphs


def _on_a_hyperplane(g, d, seed):
    # every point has x_d = x_1 + 1, so [P | 1] loses rank for d >= 2
    emb = random_embedding(g, d, seed, bound=2**4)
    coords = {v: x[:-1] + (x[0] + 1,) if d > 1 else x for v, x in emb.coords.items()}
    return Embedding(coords, d, seed)


def test_degenerate_embeddings():
    # coordinates from [-b, b] for b = 0, 1, 2 put points on one another and
    # on lines; d runs past the dimension where every graph here is flexible
    count = 0
    for g in _small_graphs():
        for d in range(1, 6):
            for seed in range(2):
                embeddings = [random_embedding(g, d, seed, bound=b) for b in (0, 1, 2)]
                for emb in embeddings + [_on_a_hyperplane(g, d, seed)]:
                    _agree(g, emb)
                    count += 1
    assert count == 26 * 5 * 2 * 4


@st.composite
def embedded_graphs(draw):
    """A graph on at most 9 vertices in R^1..R^4, with coordinates that are
    small, so often degenerate, or wide."""
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = tuple(e for e in pairs if draw(st.booleans()))
    d = draw(st.integers(min_value=1, max_value=4))
    bound = draw(st.sampled_from((1, 3, 2**16)))
    coord = st.integers(min_value=-bound, max_value=bound)
    coords = {v: tuple(draw(coord) for _ in range(d)) for v in range(n)}
    return Graph(tuple(range(n)), edges), Embedding(coords, d, 0)


@settings(max_examples=150, deadline=None)
@given(embedded_graphs())
def test_stresses_match_the_whole_matrix(graph_and_embedding):
    _agree(*graph_and_embedding)


#: the shapes of the rigidity-stress benchmark stream: (base, stackings)
BENCH_SHAPES = (
    (lambda: cross_polytope_boundary(4), 0),
    (lambda: join(cycle(4), cycle(5)), 0),
    (lambda: simplex_boundary(4), 5),
    (lambda: join(cycle(5), cycle(5)), 0),
    (lambda: join(simplex_boundary(3), simplex_boundary(3)), 0),
    (lambda: join(cycle(5), simplex_boundary(3)), 0),
    (lambda: simplex_boundary(5), 3),
    (lambda: join(cycle(4), cycle(6)), 0),
    (lambda: join(cycle(4), simplex_boundary(4)), 0),
    (lambda: join(cycle(4), cycle(4)), 4),
    (lambda: cross_polytope_boundary(5), 0),
)


def test_bench_shapes():
    for seed in range(3):
        rng = random.Random(seed)
        for base, times in BENCH_SHAPES:
            cx = _stacked(base(), times, rng)
            g = skeleton_graph(cx)
            assert len(_agree(g, random_embedding(g, cx.dim + 1, seed))) == g2(cx)


def test_cycle_joins():
    inputs = [join(cycle(a), cycle(b)) for a in range(3, 9) for b in range(a, 9)]
    inputs += [join(cycle(m), simplex_boundary(3)) for m in range(3, 12)]
    for cx in inputs:
        g = skeleton_graph(cx)
        assert len(_agree(g, random_embedding(g, cx.dim + 1, 0))) == g2(cx)


def test_cross_polytopes_and_stacked_g2_one_spheres():
    rng = random.Random(0)
    inputs = [cross_polytope_boundary(d) for d in range(3, 7)]
    triangle = simplex_boundary(2)
    for base in (join(triangle, triangle), join(cycle(5), triangle)):
        inputs += [_stacked(base, times, rng) for times in (1, 4, 12)]
    for cx in inputs:
        g = skeleton_graph(cx)
        assert len(_agree(g, random_embedding(g, cx.dim + 1, 1))) == g2(cx)


def test_peeling_leaves_the_base(monkeypatch):
    # stacking adds a vertex of degree d in independent directions, so the
    # peel removes every stacked vertex and the Gale dual is taken on the
    # six vertices of the triangle join alone, in any stacking order
    gale = []
    original = exact.right_nullspace

    def spy(rows):
        if rows[-1] and set(rows[-1]) == {1}:  # [P | 1]^T
            gale.append(len(rows[-1]))
        return original(rows)

    monkeypatch.setattr(exact, "right_nullspace", spy)
    base = join(simplex_boundary(2), simplex_boundary(2))
    cx = _stacked(base, 36, random.Random(0))
    basis = stress_basis(cx, seed=0)
    assert len(basis.vectors) == 1 and gale == [6]
    on_base = {e for e, x in zip(basis.edges, basis.vectors[0]) if x}
    assert on_base == set(skeleton_graph(base).edges)


def _drop_last(original):
    return lambda g, emb: original(g, emb)[:-1]


def test_the_dimension_is_certified_at_the_bound(monkeypatch, oct3):
    # a lost stress passes the equilibrium check; at the rank bound the
    # count f_1 - rank catches it, and a repeated one, which would pass
    # equilibrium too
    original = rigidity._stresses
    monkeypatch.setattr(rigidity, "_stresses", _drop_last(original))
    with pytest.raises(InternalCheckError, match="1 stresses where the rank mod p leaves 2"):
        stress_basis(oct3, seed=0)
    monkeypatch.setattr(rigidity, "_stresses", lambda g, emb: original(g, emb) * 2)
    with pytest.raises(InternalCheckError, match="4 stresses where the rank mod p leaves 2"):
        stress_basis(oct3, seed=0)


def test_below_the_bound_the_count_is_an_upper_bound(monkeypatch):
    # two disjoint K4 in the plane: rank 10 < 13, 2 stresses.  Below the
    # bound a sampled rank may fall short, so fewer stresses pass the count,
    # but never more
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    two_k4 = from_facets(k4 + [(u + 4, v + 4) for u, v in k4])
    assert len(stress_basis(two_k4, d=2).vectors) == 2
    original = rigidity._stresses
    monkeypatch.setattr(rigidity, "_stresses", _drop_last(original))
    assert len(stress_basis(two_k4, d=2).vectors) == 1
    monkeypatch.setattr(rigidity, "_stresses", lambda g, emb: original(g, emb) * 2)
    with pytest.raises(InternalCheckError, match="4 stresses where the rank mod p leaves 2"):
        stress_basis(two_k4, d=2)


def test_stress_certificates_survive_optimize_flag():
    # `python -O` strips assert statements; a changed entry must still fail
    # the equilibrium check and a lost stress the count at the rank bound
    code = (
        "import scx.rigidity as rigidity\n"
        "from scx import InternalCheckError, cross_polytope_boundary, stress_basis\n"
        "original = rigidity._stresses\n"
        "def changed(g, emb):\n"
        "    first, *rest = original(g, emb)\n"
        "    return ((first[0] + 1, *first[1:]), *rest)\n"
        "plants = {\n"
        "    'violates vertex equilibrium': changed,\n"
        "    'stresses where the rank mod p leaves': lambda g, emb: original(g, emb)[:-1],\n"
        "}\n"
        "for message, plant in plants.items():\n"
        "    rigidity._stresses = plant\n"
        "    try:\n"
        "        stress_basis(cross_polytope_boundary(4), seed=0)\n"
        "    except InternalCheckError as exc:\n"
        "        if message not in str(exc):\n"
        "            raise SystemExit(3)\n"
        "    else:\n"
        "        raise SystemExit(1)\n"
    )
    assert optimized_exit_code(code) == 0

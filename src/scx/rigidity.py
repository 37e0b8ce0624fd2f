"""Generic rigidity over exact arithmetic: rank, stresses and g_2.

Genericity is realized by sampling integer coordinates from a wide range
(Schwartz-Zippel style: a rank drop across independent trials is
astronomically unlikely), so every rank decision stays exact.  Ranks are
taken over GF(2^61 - 1) by default for speed, or over the rationals via
fraction-free elimination; stress bases are always exact rational vectors
re-checked against the equilibrium condition at every vertex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from . import exact
from .complexes import SimplicialComplex
from .errors import InternalCheckError, PreconditionError, TooLargeError
from .facevectors import FVector, _g2, _link_f_vectors, g2
from .homology import is_normal_pseudomanifold

DEFAULT_COORD_BOUND = 2**31


@dataclass(frozen=True)
class Graph:
    vertices: tuple
    edges: tuple


def skeleton_graph(cx: SimplicialComplex) -> Graph:
    return Graph(tuple(sorted(cx.vertices)), cx.edges())


def _as_graph(obj) -> Graph:
    if isinstance(obj, Graph):
        return obj
    if isinstance(obj, SimplicialComplex):
        return skeleton_graph(obj)
    raise PreconditionError(f"expected a Graph or SimplicialComplex, got {type(obj)!r}")


@dataclass(frozen=True)
class Embedding:
    coords: dict  # vertex -> tuple of d ints
    d: int
    seed: int


@dataclass(frozen=True)
class RigidityMatrix:
    edges: tuple
    vertices: tuple
    d: int
    entries: tuple  # one row per edge, d columns per vertex


@dataclass(frozen=True)
class StressBasis:
    edges: tuple
    vectors: tuple  # edge-indexed exact vectors spanning the left kernel
    participation: dict  # vertex -> bool
    embedding: Embedding


def _trial_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def random_embedding(graph, d: int, seed: int = 0, bound: int = DEFAULT_COORD_BOUND) -> Embedding:
    """Integer coordinates drawn uniformly from [-bound, bound], per seed."""
    if d < 1:
        raise PreconditionError("embedding dimension must be >= 1")
    g = _as_graph(graph)
    rng = random.Random(seed)
    coords = {
        v: tuple(rng.randint(-bound, bound) for _ in range(d)) for v in g.vertices
    }
    return Embedding(coords, d, seed)


def rigidity_matrix(graph, embedding: Embedding) -> RigidityMatrix:
    """f_1 x (d * f_0) matrix: the row of edge {u, v} carries phi(u)-phi(v)
    in u's column block and the negation in v's block."""
    g = _as_graph(graph)
    missing = [v for v in g.vertices if v not in embedding.coords]
    if missing:
        raise PreconditionError(f"embedding lacks coordinates for {missing}")
    d = embedding.d
    col = {v: i * d for i, v in enumerate(g.vertices)}
    rows = []
    for u, v in g.edges:
        row = [0] * (d * len(g.vertices))
        pu, pv = embedding.coords[u], embedding.coords[v]
        for t in range(d):
            row[col[u] + t] = pu[t] - pv[t]
            row[col[v] + t] = pv[t] - pu[t]
        rows.append(tuple(row))
    return RigidityMatrix(g.edges, g.vertices, d, tuple(rows))


def _rank_bound(g: Graph, d: int) -> int:
    """No embedding of ``g`` in R^d gives a rigidity matrix of higher rank:
    d*n - C(d+1, 2) for n >= d vertices (Asimow-Roth 1978), and never above
    the number of edges."""
    n, f1 = len(g.vertices), len(g.edges)
    return f1 if n < d else min(f1, d * n - comb(d + 1, 2))


def _samples(g: Graph, d: int, trials: int, seed: int, field):
    """(rank over ``field``, pivot columns, matrix, embedding) of the rigidity
    matrix at each of ``trials`` seeded random embeddings, by ``exact._unit_pivot``
    on its columns.  Over GF(p) the pivot columns are the indices of ``rank``
    columns independent mod p, so independent over Q too."""
    if trials < 1:
        raise PreconditionError("need at least one trial")
    # validated once: its primality test costs about 6% of a typical rank mod p here
    field = exact.validate_field(field)
    for t in range(trials):
        emb = random_embedding(g, d, _trial_seed(seed, t))
        mat = rigidity_matrix(g, emb)
        cols = [{i: x for i, x in enumerate(col) if x} for col in zip(*mat.entries)]
        yield *exact._unit_pivot(cols, field), mat, emb


def _kept_sample(g: Graph, d: int, trials: int, seed: int, field):
    """The first sample of maximal rank, as ``max`` picks it among all
    ``trials``.  Sampling stops at the first sample that reaches
    :func:`_rank_bound`, since no later one can exceed it."""
    bound = _rank_bound(g, d)
    kept = None
    for sample in _samples(g, d, trials, seed, field):
        if kept is None or sample[0] > kept[0]:
            kept = sample
            if kept[0] == bound:
                break
    return kept


def generic_rank_trials(graph, d: int, trials: int = 3, seed: int = 0, field=exact.DEFAULT_PRIME):
    """Exact rank of the rigidity matrix for each of `trials` embeddings."""
    return [rank for rank, *_ in _samples(_as_graph(graph), d, trials, seed, field)]


def generic_rank(graph, d: int, trials: int = 3, seed: int = 0, field=exact.DEFAULT_PRIME) -> int:
    """Maximum exact rank over independent random embeddings.

    Sampling stops at the first trial whose rank reaches d*n - C(d+1, 2)
    (capped at the number of edges; the number of edges when n < d): no
    embedding exceeds that bound, so the trial is the generic rank and the
    maximum over all `trials`.  Only graphs below the bound run every trial.
    """
    return _kept_sample(_as_graph(graph), d, trials, seed, field)[0]


def g2_via_rigidity(
    cx: SimplicialComplex,
    trials: int = 3,
    seed: int = 0,
    field=exact.DEFAULT_PRIME,
    require_pseudomanifold: bool = True,
) -> int:
    """g_2 as the left-kernel dimension f_1 - rank of the rigidity matrix.

    The identification with g_2 needs generic rigidity of the 1-skeleton,
    which holds for normal pseudomanifolds; pass
    ``require_pseudomanifold=False`` to get the bare kernel dimension for
    other inputs.

    The rank is sampled, and its error is one-sided: each trial is the exact
    rank, over ``field`` (GF(p) by default), of the matrix at one random
    integer embedding, and neither a special embedding nor reduction mod p
    can raise a rank above the generic rank, only lower it.  So the result can only overestimate
    g_2, never underestimate it, and only when every trial falls short, which
    for a random embedding has negligible probability (Schwartz-Zippel).
    Sampling stops at the first trial that reaches d*f_0 - C(d+1, 2) (or f_1,
    if smaller): the generic rank never exceeds that bound, so such a trial
    is exact and the result is the one all `trials` give.
    """
    if require_pseudomanifold:
        res = is_normal_pseudomanifold(cx)
        if not res:
            raise PreconditionError(
                "not a normal pseudomanifold "
                f"({res.reason}; witness {res.witness}); pass "
                "require_pseudomanifold=False for the raw kernel dimension"
            )
    d = cx.dim + 1
    g = skeleton_graph(cx)
    return len(g.edges) - generic_rank(g, d, trials, seed, field)


#: Bound on rows x cols of the matrix whose nullspace :func:`stress_basis`
#: takes: 9x the largest in ``run_all()`` at dmax=7 (4,970; 3,306 in the tests
#: and at the default scale, 1,520 on the rigidity-stress benchmark stream).
RIGIDITY_GUARD = 45_000


def stress_basis(
    cx: SimplicialComplex, d: int | None = None, seed: int = 0, trials: int = 3
) -> StressBasis:
    """Exact rational basis of the left kernel of one sampled rigidity matrix.

    The matrix kept is the first among `trials` samples attaining the
    maximal rank mod ``exact.DEFAULT_PRIME``; sampling stops at the first
    that reaches the bound of :func:`generic_rank`, which no sample exceeds.
    Every basis vector is re-checked against the equilibrium condition at
    every vertex before being returned.

    When the rank mod p equals the number of edges the basis is empty with
    no elimination over Q: a minor nonzero mod p is nonzero, so the rank over
    Q is full too.  When it reaches the bound, rank mod p <= rank over Q <=
    generic rank <= bound makes all four equal, so the columns that took a
    pivot mod p span the column space over Q; the kernel is taken on those
    columns alone, with the same reduced echelon form and so the same
    vectors as on the whole matrix.  Otherwise every column goes in.  A
    matrix over ``RIGIDITY_GUARD`` cells raises ``TooLargeError``.

    The error is one-sided: the basis is exact for the matrix kept, but a
    sampled rank can only fall short of the generic rank, never exceed it,
    so an unlucky sample can only add stresses that a generic embedding does
    not have, with negligible probability.
    """
    if d is None:
        d = cx.dim + 1
    g = skeleton_graph(cx)
    rank, pivoted, mat, emb = _kept_sample(g, d, trials, seed, exact.DEFAULT_PRIME)
    vectors = ()
    if rank < len(g.edges):
        cols = list(zip(*mat.entries))  # the rows of the transpose
        if rank == _rank_bound(g, d):
            cols = [cols[j] for j in pivoted]
        cells = len(cols) * len(g.edges)
        if cells > RIGIDITY_GUARD:
            raise TooLargeError(
                f"{cells} rigidity-matrix cells exceed the stress guard ({RIGIDITY_GUARD})"
            )
        vectors = tuple(exact.right_nullspace(cols))
    _verify_stresses(g, emb, vectors)
    participation = {v: False for v in g.vertices}
    for vec in vectors:
        for e_idx, weight in enumerate(vec):
            if weight:
                u, v = g.edges[e_idx]
                participation[u] = True
                participation[v] = True
    return StressBasis(g.edges, vectors, participation, emb)


def _verify_stresses(g: Graph, emb: Embedding, vectors):
    incident = {v: [] for v in g.vertices}
    for idx, (u, v) in enumerate(g.edges):
        incident[u].append((idx, u, v))
        incident[v].append((idx, v, u))
    for vec in vectors:
        for v in g.vertices:
            total = [0] * emb.d
            for idx, here, other in incident[v]:
                w = vec[idx]
                if w:
                    for t in range(emb.d):
                        total[t] += w * (emb.coords[here][t] - emb.coords[other][t])
            if any(total):
                raise InternalCheckError("stress vector violates vertex equilibrium")


def vertex_participation(cx: SimplicialComplex, seed: int = 0, trials: int = 3) -> dict:
    """Which vertices lie on an edge with a nonzero weight in some basis stress."""
    return stress_basis(cx, seed=seed, trials=trials).participation


def expected_pseudomanifold_rank(cx: SimplicialComplex) -> int:
    """d*f_0 - C(d+1, 2): the generic rank of the skeleton of a normal
    pseudomanifold embedded in dimension d = dim + 1."""
    d = cx.dim + 1
    return d * len(cx.vertices) - comb(d + 1, 2)


@dataclass(frozen=True)
class LinkMonotonicityResult:
    ok: bool
    g2_total: int
    per_vertex: tuple  # (vertex, g2 of link) pairs
    violations: tuple

    def __bool__(self) -> bool:
        return self.ok


def link_monotonicity_check(cx: SimplicialComplex) -> LinkMonotonicityResult:
    """Check g_2(link of v) <= g_2(complex) at every vertex (combinatorially)."""
    total = g2(cx)
    per_vertex = []
    for v, entries in sorted(_link_f_vectors(cx).items()):
        f = FVector(entries)  # of lk(v)
        per_vertex.append((v, _g2(f[0], f[1], f.d)))
    violations = tuple((v, lg) for v, lg in per_vertex if lg > total)
    return LinkMonotonicityResult(
        ok=not violations,
        g2_total=total,
        per_vertex=tuple(per_vertex),
        violations=violations,
    )

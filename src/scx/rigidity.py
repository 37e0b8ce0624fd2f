"""Generic rigidity over exact arithmetic: rank, stresses and g_2.

Genericity is realized by sampling integer coordinates uniformly from
[-2^16, 2^16], so every rank decision stays exact.  A rank-r minor of the
rigidity matrix is a polynomial of degree r in the coordinates, so by
Schwartz-Zippel one trial falls short of rank r with probability at most
r / (2*2^16 + 1), about 4e-4 for the largest stress basis of ``run_all()``
(rank 57), and independent trials all fall short with at most the product.
Ranks are taken over GF(``exact.DEFAULT_PRIME``), 2^30 - 35, by default for
speed, or over the rationals by the same exact column reduction.  Stress
bases are always exact rational vectors, solved from the stress matrix on
the Gale dual of the embedding rather than from the rigidity matrix, and
re-checked against the equilibrium condition at every vertex and against
the sampled rank.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, gcd

from . import exact
from .complexes import SimplicialComplex, _items, as_face
from .errors import (
    InternalCheckError, MalformedInputError, PreconditionError, TooLargeError, _index
)
from .facevectors import FVector, _complex, _g2, _link_f_vectors, g2
from .homology import is_normal_pseudomanifold

DEFAULT_COORD_BOUND = 2**16


@dataclass(frozen=True)
class Graph:
    vertices: tuple
    edges: tuple


def skeleton_graph(cx: SimplicialComplex) -> Graph:
    return Graph(tuple(sorted(_complex(cx).vertices)), cx.edges())


def _vertices(obj) -> tuple:
    """The vertices of a complex's 1-skeleton, or of a Graph, read as distinct
    labels by :func:`as_face`; anything else is refused."""
    if isinstance(obj, SimplicialComplex):
        return tuple(sorted(obj.vertices))
    if not isinstance(obj, Graph):
        raise MalformedInputError(f"expected a Graph or SimplicialComplex, got {type(obj)!r}")
    vertices = _items(obj.vertices, "vertex labels")
    as_face(vertices)
    return vertices


def _as_graph(obj) -> Graph:
    """The 1-skeleton of a complex, or a Graph read where it enters: its
    :func:`_vertices`, and each edge two of them, by :func:`as_face`."""
    if isinstance(obj, SimplicialComplex):
        return skeleton_graph(obj)
    vertices = _vertices(obj)
    labels = frozenset(vertices)
    edges = tuple(_items(e, "vertex labels") for e in _items(obj.edges, "edges"))
    for e in edges:
        if len(as_face(e)) != 2 or not labels.issuperset(e):
            raise MalformedInputError(f"an edge is two of the graph's vertices, got {e!r}")
    return Graph(vertices, edges)


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
    """Integer coordinates drawn uniformly from [-bound, bound], per seed.

    The default bound, 2^16, halves the bit size of the stress entries
    against 2^31 (2,932 bits against 6,045 at the edge of the stress guard),
    while a trial misses rank r with probability at most r / (2*2^16 + 1)
    (Schwartz-Zippel).
    """
    d, bound, seed = _index(d, "d"), _index(bound, "bound"), _index(seed, "seed")
    if d < 1:
        raise PreconditionError("embedding dimension must be >= 1")
    if bound < 0:
        raise PreconditionError("coordinate bound must be >= 0")
    vertices = _vertices(graph)  # the edges are not read
    rng = random.Random(seed)
    coords = {v: tuple(rng.randint(-bound, bound) for _ in range(d)) for v in vertices}
    return Embedding(coords, d, seed)


def _columns(g: Graph, embedding: Embedding) -> list:
    """The d * f_0 columns of the rigidity matrix as ``{edge index: entry}``
    dicts with no zero entry: column i * d + t is coordinate t of vertex i."""
    missing = [v for v in g.vertices if v not in embedding.coords]
    if missing:
        raise PreconditionError(f"embedding lacks coordinates for {missing}")
    d, coords = embedding.d, embedding.coords
    block = {v: i * d for i, v in enumerate(g.vertices)}
    cols = [{} for _ in range(d * len(g.vertices))]
    for e, (u, v) in enumerate(g.edges):
        pu, pv, bu, bv = coords[u], coords[v], block[u], block[v]
        for t in range(d):
            x = pu[t] - pv[t]
            if x:
                cols[bu + t][e] = x
                cols[bv + t][e] = -x
    return cols


def rigidity_matrix(graph, embedding: Embedding) -> RigidityMatrix:
    """f_1 x (d * f_0) matrix: the row of edge {u, v} carries phi(u)-phi(v)
    in u's column block and the negation in v's block."""
    if not isinstance(embedding, Embedding):
        raise MalformedInputError(f"expected an Embedding, got {embedding!r}")
    g, d = _as_graph(graph), _index(embedding.d, "embedding dimension")
    given = _items(embedding.coords, "vertex labels")
    coords = {
        v: tuple(_index(x, "coordinate") for x in _items(embedding.coords[v], "coordinates"))
        for v in g.vertices
        if v in given
    }
    wrong = [v for v, p in coords.items() if len(p) != d]
    if wrong:
        raise PreconditionError(f"embedding gives {wrong} other than {d} coordinates")
    cols = _columns(g, Embedding(coords, d, embedding.seed))
    rows = [[0] * len(cols) for _ in g.edges]
    for j, col in enumerate(cols):
        for e, x in col.items():
            rows[e][j] = x
    return RigidityMatrix(g.edges, g.vertices, d, tuple(map(tuple, rows)))


def _rank_bound(g: Graph, d: int) -> int:
    """No embedding of ``g`` in R^d gives a rigidity matrix of higher rank:
    d*n - C(d+1, 2) for n >= d vertices (Asimow-Roth 1978), and never above
    the number of edges."""
    n, f1 = len(g.vertices), len(g.edges)
    return f1 if n < d else min(f1, d * n - comb(d + 1, 2))


def _samples(g: Graph, d: int, trials: int, seed: int, field):
    """(rank over ``field``, embedding) of the rigidity matrix at each of
    ``trials`` seeded random embeddings, by ``exact._reduce`` on its columns
    (:func:`_columns`).

    The reduction stops at :func:`_rank_bound`, which no embedding exceeds
    over Q, so none exceeds it mod p either.  It takes every column in
    vertex order except a staircase frame, then the frame: coordinates
    t >= k of the vertex k places from the last, C(d+1, 2) columns when
    n >= d.  In vertex order, a column is dependent exactly when some
    motion of the framework is 1 there and 0 on every later column.  At a
    generic embedding of a graph that reaches the bound, the motions are
    the trivial ones (translations and rotations), and the columns where
    one of them is 1 with 0 on every later column are the frame columns.
    Without the frame the reduction then names the same pivots, each at the
    same lowest row, and it reaches the bound at the last column outside
    the frame.  On a matrix below the bound every column is read, and the
    rank is the same in any order.
    """
    seed, trials = _index(seed, "seed"), _index(trials, "trials")
    if trials < 1:
        raise PreconditionError("need at least one trial")
    # validated once: its primality test costs about 3-5% of one rank mod p on
    # the rigidity-stress stream
    field = exact.validate_field(field)
    n, bound = len(g.vertices), _rank_bound(g, d)
    frame = {(n - 1 - k) * d + t for k in range(min(d, n)) for t in range(k, d)}
    order = [j for j in range(d * n) if j not in frame] + sorted(frame)
    for trial in range(trials):
        emb = random_embedding(g, d, _trial_seed(seed, trial))
        cols = _columns(g, emb)
        rank, _ = exact._reduce((cols[j] for j in order), field, limit=bound)
        yield rank, emb


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
    return [rank for rank, _ in _samples(_as_graph(graph), _index(d, "d"), trials, seed, field)]


def generic_rank(graph, d: int, trials: int = 3, seed: int = 0, field=exact.DEFAULT_PRIME) -> int:
    """Maximum exact rank over independent random embeddings.

    Sampling stops at the first trial whose rank reaches d*n - C(d+1, 2)
    (capped at the number of edges; the number of edges when n < d): no
    embedding exceeds that bound, so the trial is the generic rank and the
    maximum over all `trials`.  Only graphs below the bound run every trial.
    Each trial's reduction stops at the same bound, and it ranks last the
    C(d+1, 2) frame columns that the trivial motions leave dependent (see
    ``_samples``), so a trial that reaches the bound reads only as many
    columns as the bound.
    """
    return _kept_sample(_as_graph(graph), _index(d, "d"), trials, seed, field)[0]


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
    integer embedding in [-2^16, 2^16]^d, and neither a special embedding nor
    reduction mod p can raise a rank above the generic rank, only lower it.
    So the result can only overestimate g_2, never underestimate it, and
    only when every trial falls short; by Schwartz-Zippel each does so with
    probability at most rank / (2*2^16 + 1).  Over GF(p) that bound needs
    p > 2*2^16 + 1, so that the sampled coordinates stay distinct mod p, and
    a rank-r minor that is not identically zero mod p.
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
    return len(g.edges) - _kept_sample(g, d, trials, seed, field)[0]


#: Bound on the rigidity matrix of a :func:`stress_basis`, rows x cols on its
#: pivot columns mod p at the rank bound and on every column below it: 9x the
#: largest in ``run_all()`` at dmax=7 (4,970; 3,306 in the tests and at the
#: default scale, 1,520 on the rigidity-stress benchmark stream).  The largest
#: g2 = 1 cycle join under it, 210 x 211, takes about 0.4 s on a 2-vCPU host
#: with Python 3.11, most of it the 98 x 99 system of its non-edge equations.
RIGIDITY_GUARD = 45_000


def stress_basis(
    cx: SimplicialComplex, d: int | None = None, seed: int = 0, trials: int = 3
) -> StressBasis:
    """Exact rational basis of the left kernel of one sampled rigidity matrix:
    the stresses of the embedding kept.

    The embedding kept is the first among `trials` samples attaining the
    maximal rank mod ``exact.DEFAULT_PRIME``; sampling stops at the first
    that reaches the bound of :func:`generic_rank`, which no sample exceeds.

    When the rank mod p equals the number of edges the basis is empty with
    no elimination over Q: a minor nonzero mod p is nonzero, so the rank over
    Q is full too.  Otherwise the stresses are solved from the stress matrix
    on the embedding's Gale dual (``_stresses``), a system much smaller than
    the rigidity matrix, and come in the canonical basis that
    ``exact.right_nullspace`` gives on its transpose: each vector is
    nonzero at its own free edge, an edge whose row depends on the rows
    before it, and 0 at the other free edges, primitive, with its first
    nonzero entry positive.  A rigidity matrix over ``RIGIDITY_GUARD`` cells
    raises ``TooLargeError`` before that: its pivot columns mod p times its
    rows when the rank reaches the bound, every column times its rows
    otherwise.

    Two certificates check the basis, under ``python -O`` too.  Every vector
    is re-checked against the equilibrium condition at every vertex.  Their
    number is at most f_1 - rank, since rank mod p <= rank over Q, and
    equal to it when the rank reaches the bound, where rank mod p <= rank
    over Q <= generic rank <= bound makes all four equal; a lost stress
    passes equilibrium, but not this count.

    The error is one-sided: the basis is exact for the matrix kept, but a
    sampled rank can only fall short of the generic rank, never exceed it,
    so an unlucky sample can only add stresses that a generic embedding does
    not have.  Coordinates come from [-2^16, 2^16], so by Schwartz-Zippel
    each trial falls short with probability at most rank / (2*2^16 + 1),
    given p > 2*2^16 + 1, so that the coordinates stay distinct mod p, and a
    rank-r minor that is not identically zero mod p.
    """
    cx = _complex(cx)
    d = cx.dim + 1 if d is None else _index(d, "d")
    g = skeleton_graph(cx)
    rank, emb = _kept_sample(g, d, trials, seed, exact.DEFAULT_PRIME)
    vectors = ()
    f1, bound = len(g.edges), _rank_bound(g, d)
    if rank < f1:
        cells = (rank if rank == bound else d * len(g.vertices)) * f1
        if cells > RIGIDITY_GUARD:
            raise TooLargeError(
                f"{cells} rigidity-matrix cells exceed the stress guard ({RIGIDITY_GUARD})"
            )
        vectors = _stresses(g, emb)
    if len(vectors) > f1 - rank or (rank == bound and len(vectors) != f1 - rank):
        raise InternalCheckError(f"{len(vectors)} stresses where the rank mod p leaves {f1 - rank}")
    _verify_stresses(g, emb, vectors)
    participation = {v: False for v in g.vertices}
    for vec in vectors:
        for e_idx, weight in enumerate(vec):
            if weight:
                u, v = g.edges[e_idx]
                participation[u] = True
                participation[v] = True
    return StressBasis(g.edges, vectors, participation, emb)


def _stresses(g: Graph, emb: Embedding) -> tuple:
    """The stresses of ``g`` at ``emb``, in the canonical basis that
    ``exact.right_nullspace`` gives on the transpose of the rigidity matrix,
    solved from the stress matrix rather than from that matrix.

    A stress w is a symmetric n x n matrix Omega, -w_uv at each edge, 0 at
    each non-edge and rows that sum to zero, with Omega P = 0 for the
    coordinates P: then Omega [P | 1] = 0.  Every such Omega is G S G^T, for
    G a basis of the left kernel of [P | 1] (its Gale dual) and S symmetric
    k x k, k = n - rank [P | 1], at any embedding, generic or not.  So the
    unknowns are the entries of S, with one equation per non-edge:

    1. Peel: a vertex with at most d neighbours in independent directions
       is 0 on its edges in every stress, so it goes, until none is left;
       peeling only makes more vertices peelable, so the order does not
       matter.
    2. Gale dual: G is the kernel of [P | 1]^T over the vertices left, in
       order of degree, highest first.  The affine basis, its pivots, is
       then the best-connected vertices, and each vector of G is nonzero at
       its own free vertex and 0 at the others.
    3. Equations: the coefficients of S in (G S G^T)_uv at each non-edge
       {u, v}.  One between two free vertices has a single nonzero, which
       zeroes that entry of S; such rows and entries go until none is
       left, and the rest is one kernel (every S if no row is left).
    4. Each S gives the stress through the nonzeros of G, 0 on peeled
       edges, and ``exact._canonical`` puts the stresses in canonical form.
    """
    d, index = emb.d, {v: i for i, v in enumerate(g.vertices)}
    pts = [emb.coords[v] for v in g.vertices]
    edges = [(index[u], index[v]) for u, v in g.edges]
    nbrs = [set() for _ in pts]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    todo = list(range(len(pts)))
    while todo:
        u = todo.pop()
        if nbrs[u] is not None and len(nbrs[u]) <= d and not exact.right_nullspace(
            [[pts[u][t] - pts[v][t] for v in nbrs[u]] for t in range(d)]
        ):
            for v in nbrs[u]:
                nbrs[v].discard(u)
                todo.append(v)
            nbrs[u] = None
    live = [u for u, near in enumerate(nbrs) if near is not None]
    live.sort(key=lambda u: -len(nbrs[u]))
    gale = exact.right_nullspace([[pts[u][t] for u in live] for t in range(d)] + [[1] * len(live)])
    if not gale:
        return ()
    nonzero = {u: [(a, z[i]) for a, z in enumerate(gale) if z[i]] for i, u in enumerate(live)}

    def coefficients(u, v):
        row = {}
        for a, x in nonzero[u]:
            for b, y in nonzero[v]:
                key = (a, b) if a <= b else (b, a)
                row[key] = row.get(key, 0) + x * y
        return {key: c for key, c in row.items() if c}

    rows = [
        coefficients(u, v) for i, u in enumerate(live) for v in live[i + 1 :] if v not in nbrs[u]
    ]
    zero = set()
    while True:
        rows = [row for row in rows if row]
        singles = {key for row in rows if len(row) == 1 for key in row}
        if not singles:
            break
        zero |= singles
        rows = [{key: c for key, c in row.items() if key not in singles} for row in rows]
    k = len(gale)
    free = [(a, b) for a in range(k) for b in range(a, k) if (a, b) not in zero]
    column = {key: j for j, key in enumerate(free)}
    if rows:
        # a row's content, a free vertex's entry of G or more, would only
        # grow the integers of the elimination
        contents = [gcd(*row.values()) for row in rows]
        solutions = exact.right_nullspace(
            [[row.get(key, 0) // c for key in free] for row, c in zip(rows, contents)]
        )
    else:
        solutions = [[int(i == j) for j in range(len(free))] for i in range(len(free))]
    weights = [
        [(column[key], c) for key, c in coefficients(u, v).items() if key in column]
        if nbrs[u] is not None and nbrs[v] is not None
        else []
        for u, v in edges
    ]
    vectors = [[sum(c * s[j] for j, c in w) for w in weights] for s in solutions]
    return tuple(exact._canonical(vectors))


def _verify_stresses(g: Graph, emb: Embedding, vectors):
    """Equilibrium of every vector at every vertex u: the sum of w_uv (p(u) -
    p(v)) is 0.  Each edge's difference is taken once, for both its ends."""
    index = {v: i for i, v in enumerate(g.vertices)}
    spans = [
        (index[u], index[v], [a - b for a, b in zip(emb.coords[u], emb.coords[v])])
        for u, v in g.edges
    ]
    for vec in vectors:
        totals = [[0] * emb.d for _ in g.vertices]
        for w, (i, j, span) in zip(vec, spans, strict=True):
            if w:
                at_u, at_v = totals[i], totals[j]
                for t, x in enumerate(span):
                    x *= w
                    at_u[t] += x
                    at_v[t] -= x
        if any(map(any, totals)):
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

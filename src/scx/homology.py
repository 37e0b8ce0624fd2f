"""Simplicial homology over exact fields and the classification predicates.

Reduced homology is computed from sparse integer boundary columns
(alternating sign convention, augmentation map included), certified to
satisfy d.d = 0 and ranked by one exact elimination that pivots on unit
entries, over the rationals by default or over GF(p).  Predicates return a
:class:`PredicateResult` carrying one violating face as a witness.

Betti numbers are the one cached homology fact: :func:`betti` keeps the
last ``BETTI_MEMO`` profiles in a thread-safe LRU keyed by the complex's
order type (its facets as bitmasks over the sorted vertices) and the
normalized field, so a link swept by several predicates or statements, or
met again under an order-preserving relabelling, is eliminated once.
Nothing seeded is cached, nor is a ``TooLargeError``; ``_betti.cache_info()``
reports hits and misses, ``_betti.cache_clear()`` empties it.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field as dc_field

from . import exact
from .complexes import SimplicialComplex, from_faces
from .errors import InternalCheckError, PreconditionError, TooLargeError


@dataclass(frozen=True)
class PredicateResult:
    ok: bool
    witness: tuple | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class BoundaryMatrix:
    """The differential from k-chains to (k-1)-chains."""

    k: int
    row_faces: tuple  # (k-1)-faces
    col_faces: tuple  # k-faces
    entries: tuple  # row-major, entries in {-1, 0, 1}


@dataclass(frozen=True)
class BettiProfile:
    """Reduced Betti numbers b_{-1}..b_{dim} over the chosen field."""

    entries: tuple
    field: object = "rational"

    def b(self, i: int) -> int:
        j = i + 1
        if 0 <= j < len(self.entries):
            return self.entries[j]
        return 0

    def is_trivial(self) -> bool:
        return not any(self.entries)

    def is_sphere(self, m: int) -> bool:
        """Profile of the m-sphere: a single 1 in degree m (m = -1 allowed)."""
        if m > len(self.entries) - 2:
            return False
        return all(x == (1 if i - 1 == m else 0) for i, x in enumerate(self.entries))


def boundary_matrix(cx: SimplicialComplex, k: int) -> BoundaryMatrix:
    """Signed incidence matrix of k-faces over (k-1)-faces: the dense view
    of :func:`_boundary_columns`."""
    return _dense(cx, k, _boundary_columns(cx, k))


def _dense(cx: SimplicialComplex, k: int, columns: list) -> BoundaryMatrix:
    rows, cols = cx.faces_of_dim(k - 1), cx.faces_of_dim(k)
    entries = [[0] * len(cols) for _ in rows]
    for c, column in enumerate(columns):
        for r, e in column.items():
            entries[r][c] = e
    return BoundaryMatrix(k, rows, cols, tuple(map(tuple, entries)))


def _boundary_columns(cx: SimplicialComplex, k: int) -> list:
    """d_k as one ``{row index: +-1}`` column per k-face, in ``faces_of_dim``
    order.  Dropping the vertex in sorted position j contributes (-1)^j; k = 0
    gives the augmentation map onto the empty face."""
    index = {f: i for i, f in enumerate(cx.faces_of_dim(k - 1))}
    return [
        {index[face - {v}]: 1 - 2 * (j & 1) for j, v in enumerate(sorted(face))}
        for face in cx.faces_of_dim(k)
    ]


def chain_complex(cx: SimplicialComplex) -> list:
    """All boundary matrices d_0..d_dim, with the d.d = 0 identity asserted."""
    return [_dense(cx, k, columns) for k, columns in enumerate(_checked_columns(cx))]


def _checked_columns(cx: SimplicialComplex) -> list:
    """The columns of d_0..d_dim, after certifying d_k . d_{k+1} = 0."""
    columns = [_boundary_columns(cx, k) for k in range(cx.dim + 1)]
    for low, high in zip(columns, columns[1:]):
        _assert_composes_to_zero(low, high)
    return columns


def _assert_composes_to_zero(low: list, high: list):
    # low is d_k and high d_{k+1}, as columns: each column of high maps to 0
    for column in high:
        acc = {}
        for r, e in column.items():
            for rr, e2 in low[r].items():
                acc[rr] = acc.get(rr, 0) + e * e2
        if any(acc.values()):
            raise InternalCheckError("boundary matrices do not compose to zero")


#: Bound on rows x cols of each d_k in :func:`betti`, which fill-in never exceeds:
#: 9x the largest in ``run_all()`` at dmax=7 (56,640; 14,850 in the tests and at
#: the default scale, 10,000 on the classify-distinct benchmark stream).
BETTI_GUARD = 2**19

#: Most vertices :func:`skeleton_completion` accepts.
COMPLETION_GUARD = 40

#: Profiles kept by the :func:`betti` memo.  The key is the complex's order
#: type, a tuple of ints, so no facet set or closure stays alive: after one
#: ``run_all()`` the memo holds about 0.5 kB per entry (tracemalloc), against
#: 3 kB when the key held the facets.  The 200 order types of ``run_all()``
#: (225 at dmax=7) fit, so the sweeps there never evict a profile.
BETTI_MEMO = 256


def betti(cx: SimplicialComplex, field="rational") -> BettiProfile:
    """Reduced Betti numbers from exact ranks of sparse boundary columns.

    Memoised: the last ``BETTI_MEMO`` results are kept in a thread-safe LRU
    keyed by the complex's order type and the normalized field.  The order
    type numbers the vertices 0..n-1 in sorted order and lists each facet as
    a bitmask over that numbering, sorted; two complexes with the same key
    differ by an order-preserving relabelling, which changes no Betti number
    and no face count, so a relabelled link or star shares its entry.  Each
    miss certifies d.d = 0 before ranking.  A ``TooLargeError`` is raised
    again on every call and never cached; ``_betti.cache_info()`` counts hits.
    """
    bit = {v: 1 << i for i, v in enumerate(sorted(cx.vertices))}
    key = tuple(sorted(sum(map(bit.__getitem__, f)) for f in cx.facets))
    return _betti(key, exact.validate_field(field))


@functools.lru_cache(maxsize=BETTI_MEMO)
def _betti(masks: tuple, field) -> BettiProfile:
    # the complex of the order type, on the vertices 0..n-1
    cx = SimplicialComplex(
        frozenset(i for i in range(m.bit_length()) if m >> i & 1) for m in masks
    )
    dim = cx.dim
    sizes = [cx.n_faces(k) for k in range(-1, dim + 1)]  # sizes[k + 1] = f_k
    cells = max((rows * cols for rows, cols in zip(sizes, sizes[1:])), default=0)
    if cells > BETTI_GUARD:
        raise TooLargeError(f"{cells} boundary-matrix cells exceed the Betti guard ({BETTI_GUARD})")
    # ranks[k] = rank d_k, with rank d_{dim+1} = 0
    ranks = [exact.rank_unit_pivot(c, field) for c in _checked_columns(cx)] + [0]
    entries = []
    for i in range(-1, dim + 1):
        rk = ranks[i] if i >= 0 else 0
        entries.append(sizes[i + 1] - rk - ranks[i + 1])
    return BettiProfile(tuple(entries), field)


def is_homology_sphere(cx: SimplicialComplex, field="rational") -> PredicateResult:
    """A homology manifold with the homology of the sphere of its dimension.

    Equivalently, every face link (the empty face included) has the homology
    of the sphere of complementary dimension.  The complex's own Betti
    numbers come first; if they fail, the witness is the empty face ``()``.
    Otherwise the verdict is that of :func:`is_homology_manifold`, whose
    witness is the smallest vertex ``(v,)`` with a failing link.
    """
    if not betti(cx, field).is_sphere(cx.dim):
        return PredicateResult(False, (), "complex does not have sphere homology")
    return is_homology_manifold(cx, field)


def _ball_analysis(cx: SimplicialComplex, field, check):
    """One sweep over the face links: (verdict, boundary complex, interior faces).

    Boundary faces are the ones with homologically trivial links; a face
    whose link is neither trivial nor sphere-like of complementary dimension
    makes the verdict negative.  With ``check`` the verdict also requires
    ball homology and a boundary that is closed downward, of dimension
    dim - 1 and a homology sphere; without it those tests are skipped.
    """
    d = cx.dim
    boundary, interior = [], []
    verdict = PredicateResult(True)
    for face in itertools.chain.from_iterable(cx.faces_of_dim(k) for k in range(-1, d + 1)):
        profile = betti(cx.link(face), field)
        if profile.is_trivial():
            boundary.append(face)
        else:
            interior.append(face)
            if verdict.ok and not profile.is_sphere(d - len(face)):
                verdict = PredicateResult(
                    False, tuple(sorted(face)), "link is neither ball- nor sphere-like"
                )
    bd = from_faces(boundary)
    if check and verdict:
        if frozenset() in interior:
            verdict = PredicateResult(False, (), "complex does not have ball homology")
        elif bd.faces() != set(boundary):
            verdict = PredicateResult(False, None, "boundary faces are not closed downward")
        elif d > 0 and bd.dim != d - 1:
            verdict = PredicateResult(False, None, "boundary has wrong dimension")
        elif not (sphere := is_homology_sphere(bd, field)):
            verdict = PredicateResult(False, sphere.witness, "boundary is not a homology sphere")
    return verdict, bd, interior


def is_homology_ball(cx: SimplicialComplex, field="rational") -> PredicateResult:
    """Trivial homology, every face link a ball or sphere of complementary
    dimension, and a boundary subcomplex that is a homology sphere."""
    return _ball_analysis(cx, field, True)[0]


def ball_boundary(cx: SimplicialComplex, field="rational", check=True) -> SimplicialComplex:
    """Subcomplex of faces with homologically trivial links."""
    return _ball_checked(cx, field, check)[0]


def interior_faces(cx: SimplicialComplex, field="rational", check=True) -> frozenset:
    return frozenset(_ball_checked(cx, field, check)[1])


def _ball_checked(cx, field, check):
    verdict, boundary, interior = _ball_analysis(cx, field, check)
    if check and not verdict:
        raise PreconditionError(
            f"not a homology ball: {verdict.reason} (witness {verdict.witness})"
        )
    return boundary, interior


def is_homology_manifold(cx: SimplicialComplex, field="rational") -> PredicateResult:
    """All vertex links are homology spheres of dimension dim - 1.

    The link of a face tau in lk(v) is the link of tau + v in the complex,
    so this holds exactly when every nonempty face link has the homology of
    the sphere of complementary dimension; each face link is computed once.
    Faces are visited by their smallest vertex first, so the witness is the
    smallest vertex whose link fails.
    """
    n = cx.dim
    # stable: faces with one smallest vertex stay by dimension, then vertex tuple
    faces = itertools.chain.from_iterable(cx.faces_of_dim(k) for k in range(n + 1))
    for face in sorted(faces, key=min):
        if not betti(cx.link(face), field).is_sphere(n - len(face)):
            return PredicateResult(False, (min(face),), "vertex link is not a homology sphere")
    return PredicateResult(True)


def is_normal_pseudomanifold(cx: SimplicialComplex) -> PredicateResult:
    """Pure + connected, every ridge in exactly two facets, and connected
    links in low dimensions.  Purely combinatorial; no homology involved."""
    n = cx.dim
    if n < 1:
        return PredicateResult(False, (), "dimension must be at least 1")
    if not cx.is_pure():
        smallest = min(cx.facets, key=len)
        return PredicateResult(False, tuple(sorted(smallest)), "complex is not pure")
    if not cx.is_connected():
        return PredicateResult(False, (), "complex is not connected")
    ridge_count = Counter(facet - {v} for facet in cx.facets for v in facet)
    for ridge, count in sorted(ridge_count.items(), key=lambda kv: sorted(kv[0])):
        if count != 2:
            return PredicateResult(
                False, tuple(sorted(ridge)), f"ridge lies in {count} facets"
            )
    for k in range(0, n - 1):
        for face in cx.faces_of_dim(k):
            if not cx.link(face).is_connected():
                return PredicateResult(
                    False, tuple(sorted(face)), "face link is not connected"
                )
    return PredicateResult(True)


def skeleton_completion(cx: SimplicialComplex, i: int) -> SimplicialComplex:
    """Add every vertex set whose i-skeleton already lies in the complex.

    Vertex sets of size <= i+1 qualify exactly when they are faces, so the
    result contains the input; larger candidates are grown level by level
    through common neighbourhoods in the 1-skeleton.
    """
    if i < 1:
        raise PreconditionError("skeleton-completion index must be >= 1")
    if len(cx.vertices) > COMPLETION_GUARD:
        raise TooLargeError(
            f"{len(cx.vertices)} vertices exceed the completion guard ({COMPLETION_GUARD})"
        )
    faces = cx.faces()
    adj = cx.adjacency()

    def qualifies(cand: frozenset) -> bool:
        return all(
            frozenset(sub) in faces
            for sub in itertools.combinations(sorted(cand), i + 1)
        )

    level = set(cx.faces_of_dim(i))
    accepted = []
    while level:
        nxt = set()
        for face in level:
            common = set.intersection(*(adj[v] for v in face)) - face
            for v in common:
                cand = face | {v}
                if cand not in nxt and qualifies(cand):
                    nxt.add(cand)
        accepted.extend(nxt)
        level = nxt
    return from_faces(itertools.chain(cx.facets, accepted))


@dataclass(frozen=True)
class StackedBallCertificate:
    r: int
    ok: bool
    min_stackedness: int
    interior_by_dim: dict = dc_field(default_factory=dict)
    boundary: SimplicialComplex | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_r_stacked_ball(
    cx: SimplicialComplex, r: int, field="rational", check=True
) -> StackedBallCertificate:
    """Certify that a homology d-ball is r-stacked: no interior faces of
    dimension <= d - r - 1 (equivalently, min interior dimension >= d - r)."""
    d = cx.dim
    boundary, interior = _ball_checked(cx, field, check)
    by_dim = {}
    for face in interior:
        by_dim[len(face) - 1] = by_dim.get(len(face) - 1, 0) + 1
    min_dim = min(by_dim) if by_dim else d
    min_stackedness = d - min_dim
    return StackedBallCertificate(
        r=r,
        ok=min_stackedness <= r,
        min_stackedness=min_stackedness,
        interior_by_dim=by_dim,
        boundary=boundary,
    )

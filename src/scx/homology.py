"""Simplicial homology over exact fields and the classification predicates.

Reduced homology is computed from sparse integer boundary columns on faces
as bitmasks (alternating sign convention, augmentation map included),
certified to satisfy d.d = 0 and ranked by one exact column reduction,
over the rationals by default or over GF(p).  Predicates return a
:class:`PredicateResult` carrying one violating face as a witness.

A Betti miss ranks d_dim first, then each lower d_k without the columns of
the faces that were lowest rows of d_{k+1} ("clearing", Chen and Kerber
2011).  The rank is unchanged: a reduced column of d_{k+1} with lowest row
i is a cycle (certified), so column i of d_k is a combination of the
earlier columns, and by induction on i of the columns kept.

Three homology facts are cached, each in a thread-safe LRU of
``BETTI_MEMO`` entries keyed by the normalized field and an encoding of the
complex.  The Betti numbers (:func:`_betti`, behind :func:`betti`) and the
homology-sphere verdict (:func:`_is_sphere`, behind
:func:`is_homology_manifold`) take the class key (:func:`_class_key`, a
fourth memo of the same bound): the complex with its vertices renumbered by
how many facets contain them.  The ball analysis (:func:`_ball`, behind
:func:`_ball_analysis` and so every ball predicate and retriangulation)
takes the order type, the masks the complex keeps.  So a link swept by several
predicates or statements, or met again under a relabelling that the degree
order undoes, is eliminated at most once and judged once, and a ball that several
retriangulations read, with or without ``check``, is swept once.  Nothing
seeded is cached, nor is a ``TooLargeError``; ``cache_info()`` reports hits
and misses and ``cache_clear()`` empties each memo.

A homology-sphere verdict of dimension at most 2 is counted on the masks
(:func:`_is_low_sphere`), with no closure, matrix or memo lookup for its
links, so no guard can stop it.  Such a sphere is the empty complex, two
points, a connected cycle, or a connected closed surface (every edge in two
triangles, every vertex link a cycle) whose Euler characteristic
f0 - f1 + f2 is 2, which the classification of closed surfaces makes a
2-sphere.  The Euler characteristic is the same over every field, and so
is the verdict.  From dimension 3 a greedy shelling is tried first
(:func:`_shells`, on the masks, with no closure): a shellable closed
pseudomanifold is a PL sphere (Danaraj and Klee 1974), and polytopal
spheres are shellable (Bruggesser and Mani 1971).  A failed search proves
nothing; the Betti numbers come next, then the vertex links, so a
3-manifold's vertex links are all counted.  :func:`is_homology_manifold`
and :func:`is_homology_sphere` try the search on the complex itself
first, once a call, so a shellable sphere is judged with no Betti number,
link or memo lookup.  Verdicts, witnesses and reasons are those of
elimination alone: a search that succeeds has found a sphere, and one that
fails leaves the verdict to elimination.

The face-link sweeps (the manifold, ball and normal pseudomanifold tests)
read each link's facets off the facet masks with ``complexes._link``, and
take its order type and components from those masks.  Every face sweep
reads a closure enumerated by ``complexes._closure_masks``, in vertex-tuple
order (``complexes._tuple_order``) where a witness or a matrix needs it.
The completion and the ball boundary are built from masks
(``SimplicialComplex._of_masks``), with no face labelled.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter, deque
from dataclasses import dataclass, field as dc_field

from . import exact
from .complexes import (
    SimplicialComplex,
    _bits,
    _closure_masks,
    _components,
    _labelled,
    _link,
    _neighbourhoods,
    _order_type,
    _tuple_order,
)
from .errors import InternalCheckError, PreconditionError, TooLargeError, _index
from .facevectors import _complex, _entry


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
        return _entry(self.entries, _index(i, "Betti degree") + 1)

    def is_trivial(self) -> bool:
        return not any(self.entries)

    def is_sphere(self, m: int) -> bool:
        """Profile of the m-sphere: a single 1 in degree m, -1 <= m <= dim."""
        return self.b(m) == 1 and sum(self.entries) == 1


def boundary_matrix(cx: SimplicialComplex, k: int) -> BoundaryMatrix:
    """Signed incidence matrix of k-faces over (k-1)-faces: the dense view
    of :func:`_boundary_columns`."""
    cx, k = _complex(cx), _index(k, "k")
    faces = _face_masks(cx, (k, k + 1))
    return _dense(cx, faces, k, _boundary_columns(faces, k))


def _dense(cx: SimplicialComplex, faces: dict, k: int, columns: list) -> BoundaryMatrix:
    """d_k on the labelled faces ``faces[k]`` (rows) and ``faces[k + 1]``."""
    label = functools.partial(_labelled, list(cx._masks[0]))
    rows, cols = tuple(map(label, faces[k])), tuple(map(label, faces[k + 1]))
    entries = tuple(tuple(col.get(r, 0) for col in columns) for r in range(len(rows)))
    return BoundaryMatrix(k, rows, cols, entries)


def _face_masks(cx: SimplicialComplex, sizes) -> dict:
    """``{j: faces with j vertices}`` as bitmasks over the sorted vertices:
    the closure's groups (``cx._group(j - 1)``) in vertex-tuple order, the
    order of ``faces_of_dim``, each sorted once; :func:`_dense` labels them."""
    return {j: _tuple_order(cx._group(j - 1)) for j in sizes}


def _boundary_columns(faces, k: int) -> list:
    """d_k as one ``{row index: +-1}`` column per face of ``faces[k + 1]``, the
    rows being ``faces[k]`` (``faces[j]``: the faces with j vertices, as
    bitmasks).  Dropping the j-th lowest set bit contributes (-1)^j; k = 0
    gives the augmentation map onto the empty face."""
    index = {f: i for i, f in enumerate(faces[k])}
    columns = []
    for f in faces[k + 1]:
        column, rest, sign = {}, f, 1
        while rest:
            low = rest & -rest
            column[index[f ^ low]] = sign
            rest, sign = rest ^ low, -sign
        columns.append(column)
    return columns


def chain_complex(cx: SimplicialComplex) -> list:
    """All boundary matrices d_0..d_dim, with the d.d = 0 identity asserted."""
    cx = _complex(cx)
    faces = _face_masks(cx, range(cx.dim + 2))
    return [_dense(cx, faces, k, c) for k, c in enumerate(_checked_columns(faces))]


def _checked_columns(faces) -> list:
    """The columns of d_0..d_dim, after certifying d_k . d_{k+1} = 0."""
    columns = [_boundary_columns(faces, k) for k in range(len(faces) - 1)]
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

#: Candidate vertex sets one :func:`skeleton_completion` may test: 9x the most in
#: ``run_all()`` at dmax=7 (699; 384 in the tests and at the default scale).
COMPLETION_GUARD = 6_300

#: Entries kept by each memo: the profiles of :func:`_betti`, the verdicts of
#: :func:`_is_sphere`, the ball analyses of :func:`_ball` and the class keys of
#: :func:`_class_key`.  Every key is a tuple of ints, so no facet set or
#: closure stays alive: after one ``run_all()`` the Betti memo holds about
#: 0.5 kB per entry and the ball memo 0.8 kB, its masks being ints
#: (tracemalloc), against 3 kB when the Betti key held the facets; a verdict
#: shares its key with the profile it was read from.  The 55 profiles, 28
#: verdicts and 42 ball analyses of ``run_all()`` (63, 36 and 52 at dmax=7)
#: fit, so no memo evicts there; a sphere that shells is judged with no
#: profile.  The classify-distinct benchmark stream at seed 0 makes 37 Betti,
#: 8 verdict and 55 ball misses, so no memo evicts there either (with no
#: shelling, 343 Betti and 553 verdict misses evicted).
BETTI_MEMO = 256


def betti(cx: SimplicialComplex, field="rational") -> BettiProfile:
    """Reduced Betti numbers from exact ranks of sparse boundary columns.

    Memoised: the last ``BETTI_MEMO`` results are kept in a thread-safe LRU
    keyed by the complex's class key (:func:`_class_key` of its order type)
    and the normalized field.  Two complexes with the same key are images of
    one another under a vertex bijection, which changes no Betti number over
    any field and no face count, so a relabelled link or star shares its
    entry whenever the degree order undoes the relabelling.  A miss builds
    its closure on the masks, certifies d.d = 0 and ranks with clearing.
    A ``TooLargeError`` is raised again on every call and never cached;
    ``_betti.cache_info()`` counts hits.
    """
    cx = _complex(cx)
    return _betti(_class_key(cx._masks[1]), exact.validate_field(field))


@functools.lru_cache(maxsize=BETTI_MEMO)
def _class_key(masks: tuple) -> tuple:
    """The key of :func:`_betti` and :func:`_is_sphere` for the order type
    ``masks``: its vertices renumbered 0..n-1 by (number of facets containing
    the vertex, old position), its facets relabelled and sorted.

    The key is the image of the complex under a vertex bijection, so equal
    keys mean isomorphic complexes; Betti numbers over every field and the
    homology-sphere verdict are isomorphism invariants, so complexes with one
    key share one profile and one verdict.  Isomorphic order types share a
    key when the degree order matches their vertices up, as it always does
    when the vertices' degrees are pairwise distinct.  The degree order is
    the first round of colour refinement (McKay and Piperno 2014), not a
    canonical form, so some isomorphic order types keep keys of their own.
    """
    n = max(masks).bit_length()  # the vertices are 0..n-1
    degrees = [sum(m >> v & 1 for m in masks) for v in range(n)]
    bit = [0] * n
    for i, v in enumerate(sorted(range(n), key=degrees.__getitem__)):  # stable
        bit[v] = 1 << i
    return tuple(sorted(sum(bit[v] for v in range(m.bit_length()) if m >> v & 1) for m in masks))


@functools.lru_cache(maxsize=BETTI_MEMO)
def _betti(masks: tuple, field) -> BettiProfile:
    """One memo miss, on the masks alone; ranks top-down with clearing."""
    faces, _ = _closure_masks(masks)  # faces[j]: the faces with j vertices
    sizes = list(map(len, faces))  # sizes[k + 1] = f_k
    cells = max((rows * cols for rows, cols in zip(sizes, sizes[1:])), default=0)
    if cells > BETTI_GUARD:
        raise TooLargeError(f"{cells} boundary-matrix cells exceed the Betti guard ({BETTI_GUARD})")
    columns = _checked_columns(faces)
    # ranks[k + 1] = rank d_k, with d_{-1} and d_{dim+1} zero
    ranks, cleared = [0] * (len(sizes) + 1), ()
    for k in reversed(range(len(columns))):
        kept = [c for j, c in enumerate(columns[k]) if j not in cleared]
        ranks[k + 1], pivots = exact._reduce(kept, field)
        cleared = set(pivots.values())
    return BettiProfile(tuple(sizes[j] - ranks[j] - ranks[j + 1] for j in range(len(sizes))), field)


@functools.lru_cache(maxsize=BETTI_MEMO)
def _is_sphere(masks: tuple, field) -> bool:
    """Whether the class key ``masks`` is a homology sphere over ``field``.

    Up to dimension 2 the verdict is counted (:func:`_is_low_sphere`), the
    same over every field.  From dimension 3 it is one when a greedy search
    shells it (:func:`_shells`), or else when its Betti numbers are those
    of the sphere of its own dimension and every vertex link (:func:`_link`
    of the vertex bit) is a homology sphere one dimension lower.  Memoised
    beside :func:`_betti`, on the same key: the verdict is an isomorphism
    invariant, so it may be read off any relabelling of the complex
    (:func:`_class_key`).
    """
    dim = max(map(int.bit_count, masks)) - 1
    if dim < 3:
        return _is_low_sphere(masks, dim)
    if _shells(masks):
        return True
    if not _betti(masks, field).is_sphere(dim):
        return False
    bits = (1 << i for i in range(max(masks).bit_length()))  # the vertices are 0..n-1
    return all(_is_sphere_of_dim(_link(masks, b), dim - 1, field) for b in bits)


def _is_low_sphere(masks: tuple, dim: int) -> bool:
    """Whether the facet masks ``masks`` over the vertices 0..n-1, of
    dimension ``dim`` <= 2, form a homology sphere, by counting alone.

    The empty complex is the (-1)-sphere and two points the 0-sphere.  From
    dimension 1 the facets have dim + 1 vertices, every ridge lies in two of
    them and they are connected: a cycle, or in dimension 2 a closed surface
    once every vertex link is connected too, and a sphere when its Euler
    characteristic f0 - f1 + f2 is 2 (the classification of closed
    surfaces).  A homology sphere over any field is one of these: its vertex
    links are homology spheres, so cycles, and its Euler characteristic,
    which no field changes, is that of the sphere."""
    if dim < 1:  # the empty face alone, or two points
        return len(masks) == dim + 2
    ridges = Counter(m ^ b for m in masks for b in _bits(m))
    n = max(masks).bit_length()
    return (
        all(m.bit_count() == dim + 1 for m in masks)
        and set(ridges.values()) == {2}
        and len(_components(masks)) == 1
        and (
            dim == 1
            or n - len(ridges) + len(masks) == 2
            and all(len(_components(_link(masks, 1 << v))) == 1 for v in range(n))
        )
    )


def _shells(masks) -> bool:
    """Whether the facet masks ``masks`` form a closed pseudomanifold that a
    greedy search shells: then they are a PL sphere (Danaraj and Klee 1974),
    whose links are PL spheres too, so a homology sphere and a homology
    manifold over every field.  False proves nothing.

    Every ridge must lie in two facets.  The search places the least mask
    first, then takes facets from a FIFO queue of ridge neighbours of placed
    ones, so it places every facet only if they are strongly connected, and
    then of one size, as facets of two sizes share no ridge.  A facet F is
    placed when S, the vertices v with F - v in a placed facet, is nonempty
    and lies in no placed facet: then F meets the placed facets in the
    facets F - v of its boundary, v in S, as a shelling needs.  S grows only
    when a neighbour of F is placed, so a refused facet is queued again only
    then: each is tested at most d + 1 times, scanning the placed facets
    through the vertex of S that fewest of them hold, so a cone apex is
    passed over.  No closure is built.
    """
    across = {}  # ridge -> the facets through it
    for m in masks:
        for b in _bits(m):
            across.setdefault(m ^ b, []).append(m)
    if any(len(facets) != 2 for facets in across.values()):
        return False
    placed, through, queue = set(), {}, deque([min(masks)])
    while queue:
        m = queue.popleft()
        if m in placed:
            continue
        # S as bits: empty for the first facet only, as the rest are queued by a neighbour
        s = sum(b for b in _bits(m) if any(g in placed for g in across[m ^ b]))
        fewest = min((through.get(b, ()) for b in _bits(s)), key=len, default=())
        if any(g & s == s for g in fewest):  # the placed facets through one vertex of S
            continue
        placed.add(m)
        for b in _bits(m):
            through.setdefault(b, []).append(m)
            queue.extend(g for g in across[m ^ b] if g not in placed)
    return len(placed) == len(masks)


def _is_sphere_of_dim(link: list, dim: int, field) -> bool:
    """Whether the facet masks ``link`` (not empty) form a homology ``dim``-sphere."""
    if max(map(int.bit_count, link)) != dim + 1:
        return False
    return _is_sphere(_class_key(_order_type(link)), field)


def is_homology_sphere(cx: SimplicialComplex, field="rational") -> PredicateResult:
    """A homology manifold with the homology of the sphere of its dimension.

    Equivalently, every face link (the empty face included) has the homology
    of the sphere of complementary dimension.  A complex that a greedy
    search shells (:func:`_shells`, on its own masks) is a PL sphere and
    passes with no Betti number or link.  Otherwise its own Betti numbers
    come first; if they fail, the witness is the empty face ``()``.  Then
    the vertex links are swept as in :func:`is_homology_manifold`, with no
    second shelling attempt, and the witness is the smallest vertex
    ``(v,)`` with a failing link.
    """
    cx, field = _complex(cx), exact.validate_field(field)
    return PredicateResult(True) if _shells(cx._masks[1]) else _sphere_sweep(cx, field)


def _sphere_sweep(cx: SimplicialComplex, field) -> PredicateResult:
    """:func:`is_homology_sphere` past its shelling: the Betti numbers of
    ``cx``, then its vertex links (:func:`_vertex_sweep`)."""
    if not betti(cx, field).is_sphere(cx.dim):
        return PredicateResult(False, (), "complex does not have sphere homology")
    return _vertex_sweep(cx, field)


def _ball_analysis(cx: SimplicialComplex, field):
    """(verdict, boundary complex, interior faces), as one sweep over the face
    links of ``cx`` gives them (:func:`_ball`).

    Memoised on the order type, the masks the complex keeps, not on its
    class key; the witness and the interior are read back through the
    sorted vertices, and the boundary is built on them from its masks.  An
    order-preserving relabelling keeps the vertex-tuple order of the faces,
    the faces with trivial links and the least failing vertex of the
    boundary, so all three are those of a sweep on ``cx`` itself.
    """
    verdict, boundary, interior = _ball(cx._masks[1], exact.validate_field(field))
    labels = list(cx._masks[0])
    if verdict.witness:
        witness = tuple(labels[i] for i in verdict.witness)
        verdict = PredicateResult(verdict.ok, witness, verdict.reason)
    interior = frozenset(_labelled(labels, m) for m in interior)
    return verdict, SimplicialComplex._of_masks(labels, boundary), interior


@functools.lru_cache(maxsize=BETTI_MEMO)
def _ball(masks: tuple, field) -> tuple:
    """One sweep over the face links of the order type ``masks``: (verdict,
    boundary facet masks, interior face masks), over the vertices 0..n-1.

    The sweep reads the closure's masks by size, each size in vertex-tuple
    order, and the witness is the first face whose link is neither trivial
    nor sphere-like of complementary dimension.  The boundary facets are the
    trivial-link faces in no such face one vertex larger (the maximal ones
    if those faces are closed downward, else a family with their closure),
    and the interior is every face off that closure; neither depends on the
    verdict.  The verdict also requires ball homology and a boundary of
    dimension dim - 1 that is a homology sphere, judged on the masks; only a
    failing boundary is built, for the witness of :func:`is_homology_sphere`,
    read past its shelling (:func:`_sphere_sweep`), which failed already.
    Past the link sweep the trivial-link faces are closed downward (a sphere
    link's top cycle is nonzero on the link of every face above), so that is
    not tested.  Memoised beside :func:`_betti`, on the order type: the
    witness depends on the sweep order.
    """
    by_size, members = _closure_masks(masks)
    d = len(by_size) - 2
    vertices = range(max(masks).bit_length())  # 0..n-1, the bits of the masks
    trivial = set()
    verdict = PredicateResult(True)
    for group in by_size:
        for fm in _tuple_order(group):
            profile = _betti(_class_key(_order_type(_link(masks, fm))), field)
            if profile.is_trivial():
                trivial.add(fm)
            elif verdict.ok and not profile.is_sphere(d - fm.bit_count()):
                witness = tuple(sorted(_labelled(vertices, fm)))
                verdict = PredicateResult(False, witness, "link is neither ball- nor sphere-like")
    below = {fm ^ b for fm in trivial for b in _bits(fm)}  # one vertex short of a trivial face
    bd_masks = tuple(sorted(trivial - below)) or (0,)  # no trivial face: the empty complex
    bd_by_size, closed = _closure_masks(bd_masks)  # the boundary's faces
    if verdict:
        if 0 not in trivial:
            verdict = PredicateResult(False, (), "complex does not have ball homology")
        elif d > 0 and len(bd_by_size) - 2 != d - 1:
            verdict = PredicateResult(False, None, "boundary has wrong dimension")
        elif not _is_sphere_of_dim(bd_masks, d - 1, field):  # label the boundary for a witness
            sphere = _sphere_sweep(SimplicialComplex._of_masks(vertices, bd_masks), field)
            verdict = PredicateResult(False, sphere.witness, "boundary is not a homology sphere")
    return verdict, bd_masks, tuple(members - closed)


def is_homology_ball(cx: SimplicialComplex, field="rational") -> PredicateResult:
    """Trivial homology, every face link a ball or sphere of complementary
    dimension, and a boundary subcomplex that is a homology sphere."""
    return _ball_analysis(_complex(cx), field)[0]


def ball_boundary(cx: SimplicialComplex, field="rational", check=True) -> SimplicialComplex:
    """Closure of the faces with homologically trivial links."""
    return _ball_checked(_complex(cx), field, check)[0]


def interior_faces(cx: SimplicialComplex, field="rational", check=True) -> frozenset:
    """The faces of the complex that :func:`ball_boundary` does not contain."""
    return _ball_checked(_complex(cx), field, check)[1]


def _ball_checked(cx, field, check):
    """(boundary, interior, m) of :func:`_ball_analysis`, a non-ball refused
    under ``check``: m, the least dimension of an interior face (dim with
    none), is computed only here; the ball's least stackedness is dim - m."""
    verdict, boundary, interior = _ball_analysis(cx, field)
    if check and not verdict:
        raise PreconditionError(
            f"not a homology ball: {verdict.reason} (witness {verdict.witness})"
        )
    return boundary, interior, min((len(f) - 1 for f in interior), default=cx.dim)


def is_homology_manifold(cx: SimplicialComplex, field="rational") -> PredicateResult:
    """All vertex links are homology spheres of dimension dim - 1.

    A complex that a greedy search shells (:func:`_shells`, on its own
    masks) is a PL sphere, whose vertex links are PL spheres, and passes
    with no link read.  Otherwise the vertex links are swept
    (:func:`_vertex_sweep`): each is read as facet bitmasks (:func:`_link`)
    and judged by the memoised verdict :func:`_is_sphere` on its class key,
    which recurses on the link's own vertex links.  For a face
    tau = {v} + tau', lk(tau) is the link of tau' in lk(v), so every vertex
    link is a homology (dim - 1)-sphere exactly when every nonempty face
    link has the homology of the sphere of complementary dimension: the
    definition by face links gives the same verdict.  Vertices are visited
    in sorted order, and the witness is the first whose link fails.  The
    definition gives the same witness, the least of the failing faces'
    smallest vertices: a face fails inside the link of its smallest vertex,
    and a failing vertex link holds a failing face through that vertex.  A
    complex that does not shell, checked again, costs one verdict lookup
    per vertex.
    """
    cx, field = _complex(cx), exact.validate_field(field)
    return PredicateResult(True) if _shells(cx._masks[1]) else _vertex_sweep(cx, field)


def _vertex_sweep(cx: SimplicialComplex, field) -> PredicateResult:
    """The verdict of :func:`is_homology_manifold` from the vertex links of
    ``cx``, in sorted vertex order."""
    n = cx.dim
    bit, masks = cx._masks
    for v, b in bit.items():  # in sorted vertex order
        if not _is_sphere_of_dim(_link(masks, b), n - 1, field):
            return PredicateResult(False, (v,), "vertex link is not a homology sphere")
    return PredicateResult(True)


def is_normal_pseudomanifold(cx: SimplicialComplex) -> PredicateResult:
    """Pure + connected, every ridge in exactly two facets, and connected
    links in low dimensions.  Purely combinatorial; no homology involved.

    The link sweep runs on the bitmask closure, one dimension at a time:
    each face's link is read off the facet masks (:func:`_link`) and
    tested for connectivity.  The witness is the least failing face of the
    lowest failing dimension in vertex-tuple order, the first that a sweep
    in ``faces_of_dim`` order would meet; mask order differs from it, so
    every face of that dimension is tested before one is chosen."""
    cx = _complex(cx)
    n = cx.dim
    if n < 1:
        return PredicateResult(False, (), "dimension must be at least 1")
    bit, masks = cx._masks  # no closure yet: past its bound, ridges still count
    labels = list(bit)
    if not cx.is_pure():  # the witness is the least of the smallest facets
        least = min(map(int.bit_count, masks))
        smallest = _tuple_order([m for m in masks if m.bit_count() == least])[0]
        witness = tuple(sorted(_labelled(labels, smallest)))
        return PredicateResult(False, witness, "complex is not pure")
    if len(_components(masks)) > 1:
        return PredicateResult(False, (), "complex is not connected")
    ridge_count = Counter(m ^ b for m in masks for b in _bits(m))
    bad = [ridge for ridge, count in ridge_count.items() if count != 2]
    if bad:
        ridge = _tuple_order(bad)[0]  # the witness is the least failing ridge
        witness = tuple(sorted(_labelled(labels, ridge)))
        return PredicateResult(False, witness, f"ridge lies in {ridge_count[ridge]} facets")
    for k in range(n - 1):  # the faces of dimension 0..n-2
        failing = [fm for fm in cx._group(k) if len(_components(_link(masks, fm))) > 1]
        if failing:
            witness = tuple(sorted(_labelled(labels, _tuple_order(failing)[0])))
            return PredicateResult(False, witness, "face link is not connected")
    return PredicateResult(True)


def skeleton_completion(cx: SimplicialComplex, i: int) -> SimplicialComplex:
    """Add every vertex set whose i-skeleton already lies in the complex.

    Vertex sets of size <= i+1 qualify exactly when they are faces, so the
    result contains the input; larger candidates are grown level by level
    through common neighbourhoods in the 1-skeleton.  The search runs on the
    bitmask closure: a candidate is a member of the level plus one vertex,
    so only its (i+1)-subsets through that vertex need testing.
    """
    cx, i = _complex(cx), _index(i, "i")
    if i < 1:
        raise PreconditionError("skeleton-completion index must be >= 1")
    bit, masks = cx._masks
    level, members = set(cx._group(i)), cx._mask_closure()[1]
    neighbours = _neighbourhoods(masks)  # vertex bit -> its closed neighbourhood
    accepted = []
    tested = 0
    while level:
        nxt = set()
        for face in level:
            rest = list(_bits(face))
            common = ~face
            for b in rest:
                common &= neighbours[b]
            for b in _bits(common):
                cand = face | b
                if cand in nxt:
                    continue
                tested += 1
                if tested > COMPLETION_GUARD:
                    raise TooLargeError(
                        f"completion exceeds the completion guard ({COMPLETION_GUARD} candidates)"
                    )
                if all(sum(sub) | b in members for sub in itertools.combinations(rest, i)):
                    nxt.add(cand)
        accepted.extend(nxt)
        level = nxt
    return SimplicialComplex._of_masks(list(bit), itertools.chain(masks, accepted))


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
    cx, r = _complex(cx), _index(r, "r")
    if r < 0:
        raise PreconditionError(f"stackedness level r={r} must be >= 0")
    boundary, interior, m = _ball_checked(cx, field, check)
    return StackedBallCertificate(
        r=r,
        ok=cx.dim - m <= r,
        min_stackedness=cx.dim - m,
        interior_by_dim=Counter(len(face) - 1 for face in interior),
        boundary=boundary,
    )

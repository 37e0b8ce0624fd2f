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
``BETTI_MEMO`` entries keyed by the complex's order type (the masks it
keeps, ``complexes._order_type``) and, but for the search, the normalized
field: the Betti numbers (:func:`_betti`, behind :func:`betti`), the ball
analysis (:func:`_ball`, behind :func:`_ball_analysis` and so every ball
predicate and retriangulation) and the greedy shelling search
(:func:`_shelling`, behind :func:`_shells`).  So a complex or link met
again by several predicates or statements, or under an order-preserving
relabelling, is searched once and eliminated at most once, and a ball that
several retriangulations read, with or without ``check``, is analysed
once.  No verdict is cached: the manifold sweep (:func:`_vertex_sweep`)
reads these memos on every call.  Nothing seeded is cached,
nor is a ``TooLargeError`` or an ``InternalCheckError``; ``cache_info()``
reports hits and misses and ``cache_clear()`` empties each memo.

Every sphere, manifold, ball and normal pseudomanifold verdict first tries
one greedy shelling (:func:`_shells`, on the facet masks).  A shellable
pseudomanifold is a PL sphere if every ridge lies in two facets, and else a
PL ball whose boundary the ridges in one facet generate (Danaraj and Klee
1974).  Every 1- and 2-sphere is extendably shellable (Danaraj and Klee
1978) and the search sticks only where no facet can be appended, so below
dimension 3 it fails exactly on non-spheres, over every field.  A shelled
ball answers the sphere test too, as it has trivial homology; the manifold
test leaves it to the vertex sweep, which fails at its least boundary
vertex, whose link is a ball.
From dimension 3 a failed search proves nothing: a sphere verdict falls
through to its Betti numbers and face links, a ball to its face-link
sweep, and verdicts, witnesses, boundaries and interiors are those of
elimination alone.  Each success is certified on every call, a memo hit
included, on the closure its caller holds: the restriction faces R_j of a
shelling (the search's S) satisfy h_i = #{j : |R_j| = i} (McMullen 1970;
Ziegler, *Lectures on Polytopes*, 8.3), checked against the closure's face
counts, under ``python -O`` too.  Like d.d = 0, the identity is necessary,
not sufficient.  As it reads the closure, a shellable complex past
``CLOSURE_GUARD`` raises ``TooLargeError``.

The face-link sweeps (the sphere, manifold, ball and normal pseudomanifold
tests) read each link's facets off the facet masks with ``complexes._link``,
and take its order type and components from those masks.  Every face sweep
reads a closure enumerated by ``complexes._closure_masks``, in vertex-tuple
order (``complexes._tuple_order``) where a witness or a matrix needs it.
The completion and the ball boundary are built from masks
(``SimplicialComplex._of_masks``), with no face labelled.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter, defaultdict, deque
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
from .errors import InternalCheckError, PreconditionError, _guard, _index
from .facevectors import FVector, _complex, _entry, h_from_f


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

#: Entries kept by each memo: the profiles of :func:`_betti`, the ball analyses
#: of :func:`_ball` and the searches of :func:`_shelling`.  Every key is a tuple
#: of ints, so no facet set or closure stays alive: with no shelling, after one
#: ``run_all()`` the Betti memo holds about 0.5 kB per entry and the ball memo
#: 0.8 kB, its masks being ints (tracemalloc), against 3 kB when the Betti key
#: held the facets; a search adds about 0.3 kB beside its key.  Every sphere
#: and ball of ``run_all()`` shells, so it makes no profile, 42 ball analyses
#: and 184 searches (187 hits; 52 analyses and 237 searches at dmax=7).  The
#: benchmark streams at seed 0 make 185 searches (130 complexes and 55 balls;
#: 260 hits) and 55 ball analyses on classify-distinct, 103 searches (1 hit)
#: on rigidity-stress, and no profile: no memo evicts there.  With no shelling
#: ``run_all()`` makes 181 profiles, and the classify-distinct stream 2,458.
BETTI_MEMO = 256


def betti(cx: SimplicialComplex, field="rational") -> BettiProfile:
    """Reduced Betti numbers from exact ranks of sparse boundary columns.

    Memoised: the last ``BETTI_MEMO`` results are kept in a thread-safe LRU
    keyed by the complex's order type (the masks it keeps) and the
    normalized field, so an order-preserving relabelling, which changes no
    face count, shares its entry.  A miss builds its closure on the masks,
    certifies d.d = 0 and ranks with clearing.  A ``TooLargeError`` is
    raised again on every call and never cached; ``_betti.cache_info()``
    counts hits.
    """
    cx = _complex(cx)
    return _betti(cx._masks[1], exact.validate_field(field))


@functools.lru_cache(maxsize=BETTI_MEMO)
def _betti(masks: tuple, field) -> BettiProfile:
    """One memo miss, on the masks alone; ranks top-down with clearing."""
    faces, _ = _closure_masks(masks)  # faces[j]: the faces with j vertices
    sizes = list(map(len, faces))  # sizes[k + 1] = f_k
    cells = max((rows * cols for rows, cols in zip(sizes, sizes[1:])), default=0)
    _guard(cells, BETTI_GUARD, "Betti guard, boundary-matrix cells")
    columns = _checked_columns(faces)
    # ranks[k + 1] = rank d_k, with d_{-1} and d_{dim+1} zero
    ranks, cleared = [0] * (len(sizes) + 1), ()
    for k in reversed(range(len(columns))):
        kept = [c for j, c in enumerate(columns[k]) if j not in cleared]
        ranks[k + 1], pivots = exact._reduce(kept, field)
        cleared = set(pivots.values())
    return BettiProfile(tuple(sizes[j] - ranks[j] - ranks[j + 1] for j in range(len(sizes))), field)


def _shells(masks, closure) -> tuple:
    """(shelled, ridges in one facet) of the greedy search on the facet masks
    ``masks`` (:func:`_shelling`, memoised on them), every ridge in one or
    two facets; a failure is (False, ()).  Shelled, they form a PL sphere
    with no such ridge, and else a PL ball whose boundary facets are those
    ridges, sorted.

    A shelling is certified on every call, a memo hit included: ``closure()``,
    the caller's closure of the same complex, gives (by_size, members), and
    the sizes of S must be the h-vector of its face counts, or
    ``InternalCheckError`` is raised.  A failed search reads no closure.
    """
    shelled, ones, histogram = _shelling(masks)
    if not shelled:
        return False, ()
    h = h_from_f(FVector(tuple(map(len, closure()[0])))).entries
    if histogram != h:
        raise InternalCheckError(f"shelling restriction sizes differ from the h-vector {h}")
    return True, ones


@functools.lru_cache(maxsize=BETTI_MEMO)
def _shelling(masks: tuple) -> tuple:
    """(shelled, ridges in one facet, histogram of |S|) of a greedy search on
    the order type ``masks``, (False, (), ()) on failure: the search of
    :func:`_shells`, which certifies it.  Memoised beside :func:`_betti`,
    on the order type alone; it reads no closure.

    The search places the least mask first, then takes facets from a FIFO
    queue of ridge neighbours of placed ones, so it places every facet only
    if they are strongly connected, and then of one size.  A facet F is
    placed when S, the vertices v with F - v in a placed facet, is nonempty
    and lies in no placed facet: then F meets the placed facets in the
    facets F - v of its boundary, v in S, as a shelling needs.  S grows
    only when a neighbour of F is placed, which queues F again, so each
    facet is tested at most d + 1 times, scanning the placed facets through
    the vertex of S that fewest of them hold.  Placing another facet can
    only add one that holds S, so the search sticks only where no facet can
    be appended.  The histogram counts the placed facets by |S|, 0..d + 1.
    """
    across, sides = {}, {}  # ridge -> its facets; facet F -> (bit, facets of F - bit), read once
    for m in masks:
        sides[m] = [(b, across.setdefault(m ^ b, [])) for b in _bits(m)]
        for _, facets in sides[m]:
            facets.append(m)
    if max(map(len, across.values()), default=0) > 2:
        return False, (), ()
    placed, through, sizes, queue = set(), defaultdict(list), [], deque([min(masks)])
    while queue:
        m = queue.popleft()
        if m in placed:
            continue
        s, held = 0, None  # S as bits, empty for the first facet only; the fewest facets through it
        for b, facets in sides[m]:
            if facets[0] in placed or facets[-1] in placed:  # F - b lies in a placed facet
                s |= b
                if held is None or len(through[b]) < len(held):
                    held = through[b]
        if held and any(map(s.__eq__, map(s.__and__, held))):  # a placed facet holds S
            continue
        placed.add(m)
        sizes.append(s.bit_count())
        for b, facets in sides[m]:
            through[b].append(m)
            queue.extend(facets)  # a placed facet is passed over when it comes up
    if len(placed) < len(masks):
        return False, (), ()
    ones = tuple(sorted(r for r, facets in across.items() if len(facets) == 1))
    return True, ones, tuple(map(sizes.count, range(masks[0].bit_count() + 1)))


def is_homology_sphere(cx: SimplicialComplex, field="rational") -> PredicateResult:
    """A homology manifold with the homology of the sphere of its dimension.

    Equivalently, every face link (the empty face included) has the homology
    of the sphere of complementary dimension.  A complex that the memoised
    greedy search shells (:func:`_shells`, certified on ``cx``'s own
    closure) is a PL sphere if no ridge lies in one facet, and passes with
    no Betti number or link, and else a PL ball, which is acyclic and fails
    with the witness ``()``.  Otherwise it fails with ``()`` unless its Betti
    numbers are the sphere's, and then with the smallest vertex ``(v,)``
    whose link fails, swept as in :func:`is_homology_manifold`.
    """
    cx, field = _complex(cx), exact.validate_field(field)
    shelled, ones = _shells(cx._masks[1], cx._mask_closure)
    if shelled and not ones:
        return PredicateResult(True)
    if shelled or not betti(cx, field).is_sphere(cx.dim):  # a shelled ball is acyclic
        return PredicateResult(False, (), "complex does not have sphere homology")
    return _vertex_sweep(cx, field)


def _ball_analysis(cx: SimplicialComplex, field):
    """(verdict, boundary complex, interior faces) of ``cx``, as one shelling
    or one sweep over its face links gives them (:func:`_ball`).

    Memoised on the order type, the masks the complex keeps; the witness
    and the interior are read back through the sorted vertices, and the
    boundary is built on them from its masks.  An order-preserving
    relabelling keeps the vertex-tuple order of the faces, the faces with
    trivial links and the least failing vertex of the boundary, so all
    three are those of a sweep on ``cx`` itself.
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
    """The ball analysis of the order type ``masks``: (verdict, boundary
    facet masks, interior face masks), over the vertices 0..n-1.  A ball that
    shells (:func:`_shells`, certified on the closure built here) has the
    ridges in one facet as its boundary facets; else the face links are
    swept (:func:`_ball_sweep`).  The interior is every face off the
    boundary's closure.  Memoised beside :func:`_betti`, on the order type:
    the sweep's witness depends on the sweep order.
    """
    closure = by_size, members = _closure_masks(masks)
    shelled, bd_masks = _shells(masks, lambda: closure)
    verdict = PredicateResult(True)
    if not (shelled and bd_masks):  # no ball shelled
        verdict, bd_masks = _ball_sweep(masks, by_size, field)
    return verdict, bd_masks, tuple(members - _closure_masks(bd_masks)[1])


def _ball_sweep(masks: tuple, by_size: list, field) -> tuple:
    """(verdict, boundary facet masks) of :func:`_ball` from one sweep over
    the face links of ``masks``, whose closure's faces by size are ``by_size``,
    each size in vertex-tuple order.  The witness is the first face whose
    link is neither trivial nor sphere-like of complementary dimension.  The
    boundary facets are the trivial-link faces in no such face one vertex
    larger (the maximal ones if those faces are closed downward, else a
    family with their closure), whatever the verdict.  The verdict also
    requires ball homology and a boundary of dimension dim - 1 that is a
    homology sphere, built on its masks and judged, with its witness, by
    :func:`is_homology_sphere`.  Past the link sweep the
    trivial-link faces are closed downward (a sphere link's top cycle is
    nonzero on the link of every face above), so that is not tested.
    """
    d = len(by_size) - 2
    vertices = range(max(masks).bit_length())  # 0..n-1, the bits of the masks
    trivial = set()
    verdict = PredicateResult(True)
    for group in by_size:
        for fm in _tuple_order(group):
            profile = _betti(_order_type(_link(masks, fm)), field)
            if profile.is_trivial():
                trivial.add(fm)
            elif verdict.ok and not profile.is_sphere(d - fm.bit_count()):
                witness = tuple(sorted(_labelled(vertices, fm)))
                verdict = PredicateResult(False, witness, "link is neither ball- nor sphere-like")
    below = {fm ^ b for fm in trivial for b in _bits(fm)}  # one vertex short of a trivial face
    bd_masks = tuple(sorted(trivial - below)) or (0,)  # no trivial face: the empty complex
    if verdict:
        boundary = SimplicialComplex._of_masks(vertices, bd_masks)
        if 0 not in trivial:
            verdict = PredicateResult(False, (), "complex does not have ball homology")
        elif boundary.dim != d - 1:
            verdict = PredicateResult(False, None, "boundary has wrong dimension")
        elif not (sphere := is_homology_sphere(boundary, field)):
            verdict = PredicateResult(False, sphere.witness, "boundary is not a homology sphere")
    return verdict, bd_masks


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

    A complex that a greedy search shells with no ridge in one facet
    (:func:`_shells`) is a PL sphere, whose vertex links are PL spheres, and
    passes with no link read.  Otherwise, a shelled ball and a point
    included, :func:`_vertex_sweep` judges every nonempty face once, by the
    definition by face links: for a face tau = {v} + tau', lk(tau) is the
    link of tau' in lk(v), so every vertex link is a homology
    (dim - 1)-sphere exactly when every nonempty face link has the homology
    of the sphere of complementary dimension.  The witness is the least
    vertex whose link fails, which is the least of the failing faces'
    smallest vertices: a face fails inside the link of each of its
    vertices, and a failing vertex link holds a failing face through that
    vertex.
    """
    cx, field = _complex(cx), exact.validate_field(field)
    shelled, ones = _shells(cx._masks[1], cx._mask_closure)
    if shelled and not ones:
        return PredicateResult(True)
    return _vertex_sweep(cx, field)


def _vertex_sweep(cx: SimplicialComplex, field) -> PredicateResult:
    """The verdict of :func:`is_homology_manifold` from one pass over the
    vertices v of ``cx`` in sorted order, each face judged at its least
    vertex, with no recursion; the first v that fails is the witness.

    A v whose link is impure or has facets of other than dim vertices fails
    at once.  Else the memoised search on lk(v) (:func:`_shells`, certified
    on the closure of its order type) decides when it shells: lk(v) is a PL
    sphere if no ridge lies in one facet, and else a PL ball.  Below link
    dimension 3 the
    search also decides a failure alone (see the module docstring).
    Otherwise every face v + tau, tau a face of lk(v) on vertices after v,
    the empty face first, must have the Betti numbers of the sphere of
    complementary dimension.  The faces through v that hold an earlier
    vertex passed at that vertex, so v fails exactly when lk(v) is no
    homology sphere.
    """
    bit, masks = cx._masks
    d = cx.dim - 1  # the dimension of a sphere link
    for v, b in bit.items():  # in sorted vertex order
        lk = _link(masks, b)
        if set(map(int.bit_count, lk)) != {d + 1}:  # no homology sphere is impure
            return PredicateResult(False, (v,), "vertex link is not a homology sphere")
        key = _order_type(lk)
        shelled, ones = _shells(key, functools.partial(_closure_masks, key))
        if shelled or d < 3:
            sphere = shelled and not ones
        else:
            later = _closure_masks([m & -(b << 1) for m in lk])[0]  # tau, by size
            sphere = all(
                _betti(_order_type(_link(lk, t)), field).is_sphere(d - t.bit_count())
                for t in itertools.chain.from_iterable(later)
            )
        if not sphere:
            return PredicateResult(False, (v,), "vertex link is not a homology sphere")
    return PredicateResult(True)


def is_normal_pseudomanifold(cx: SimplicialComplex) -> PredicateResult:
    """Pure + connected, every ridge in exactly two facets, and connected
    links in low dimensions.  Purely combinatorial; no homology involved.

    Past the ridge count a complex that a greedy search shells
    (:func:`_shells`) is a PL sphere, whose face links are spheres, so
    connected below dimension dim - 1.  Else the link sweep runs on the
    bitmask closure, one dimension at a time:
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
    if _shells(cx._masks[1], cx._mask_closure)[0]:
        return PredicateResult(True)
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
                _guard(tested, COMPLETION_GUARD, "completion guard, candidates tested")
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

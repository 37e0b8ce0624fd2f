"""Finite abstract simplicial complexes and their combinatorial operations.

A complex is stored by its inclusion-maximal faces (facets); the full face
list is materialized lazily, grouped by dimension.  Complexes are immutable
values: every operation returns a new complex, so concurrent reads are safe.

Vertices are non-negative integer labels; faces are frozensets of labels.
Every complex contains the empty face; ``from_facets([])`` yields the
complex whose only face is the empty one (dimension -1).
"""

from __future__ import annotations

import itertools

from .errors import (
    FaceNotPresentError,
    MalformedInputError,
    PreconditionError,
    TooLargeError,
)


def as_face(vertices) -> frozenset:
    """Normalize an iterable of vertex labels into a face; rejects repeats."""
    vs = tuple(vertices)
    for v in vs:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise MalformedInputError(
                f"vertex labels must be non-negative integers, got {v!r}"
            )
    if len(set(vs)) != len(vs):
        raise MalformedInputError(f"repeated vertex in face {sorted(vs)}")
    return frozenset(vs)


#: Bound on the sum of 2^|F| over the facets, which bounds the closure size: 21x the
#: largest sum in the tests, ``run_all()`` and the dmax=7 catalog (6,144).
CLOSURE_GUARD = 2**17

#: Bound on sides x facets in :func:`detect_join`, which tries 2^(c-1) sides for c
#: non-edge components: 9x the most in ``run_all()`` at dmax=7 (5,120; 2,048 in
#: the tests and at the default scale).
JOIN_GUARD = 46_080


def _check_closure_bound(sizes):
    """Stop a closure of facets of ``sizes`` vertices over ``CLOSURE_GUARD``."""
    bound = sum(1 << s for s in sizes)
    if bound > CLOSURE_GUARD:
        raise TooLargeError(f"closure bound {bound} exceeds the guard ({CLOSURE_GUARD})")


def _maximal(faces) -> frozenset:
    """Inclusion-maximal members of a family of frozensets.

    Faces are taken largest first, and a kept face that contains f also
    contains min(f), so f is compared only with the kept faces through it.
    """
    faces = frozenset(faces)
    if len(set(map(len, faces))) == 1:  # distinct faces of one size form an antichain
        return faces
    kept = []
    through = {}  # vertex -> the kept faces containing it
    for f in sorted(faces, key=len, reverse=True):
        if not f:  # the empty face comes last and lies in any kept face
            break
        if not any(f < g for g in through.get(min(f), ())):
            kept.append(f)
            for v in f:
                through.setdefault(v, []).append(f)
    return frozenset(kept or [frozenset()])


class SimplicialComplex:
    """Immutable simplicial complex identified by its facet set."""

    __slots__ = ("_facets", "_vertices", "_dim", "_faces", "_by_dim")

    def __init__(self, faces):
        self._facets = _maximal(faces)
        self._vertices = frozenset(itertools.chain.from_iterable(self._facets))
        self._dim = max(map(len, self._facets)) - 1
        self._faces = None
        self._by_dim = None

    @property
    def facets(self) -> frozenset:
        return self._facets

    @property
    def vertices(self) -> frozenset:
        return self._vertices

    @property
    def dim(self) -> int:
        return self._dim

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._facets == other._facets

    def __hash__(self):
        return hash(self._facets)

    def __repr__(self):
        return (
            f"SimplicialComplex(dim={self._dim}, vertices={len(self._vertices)}, "
            f"facets={len(self._facets)})"
        )

    # -- face enumeration ------------------------------------------------

    def faces(self) -> frozenset:
        """The full face set (closure of the facets), including the empty face."""
        if self._faces is None:
            _check_closure_bound(map(len, self._facets))
            # by_size[k]: the k-subsets of the facets as sorted tuples, which
            # sort natively in vertex-tuple order
            by_size = [set() for _ in range(self._dim + 2)]
            for facet in self._facets:
                fs = sorted(facet)
                for k in range(len(fs) + 1):
                    by_size[k].update(itertools.combinations(fs, k))
            # _by_dim before _faces: a reader that sees the closure sees its
            # grouping too; a race only computes the same closure twice
            self._by_dim = {k - 1: tuple(map(frozenset, sorted(s))) for k, s in enumerate(by_size)}
            self._faces = frozenset(itertools.chain.from_iterable(self._by_dim.values()))
        return self._faces

    def faces_of_dim(self, k: int) -> tuple:
        """All k-dimensional faces, sorted by vertex tuple."""
        self.faces()
        return self._by_dim.get(k, ())

    def n_faces(self, k: int) -> int:
        return len(self.faces_of_dim(k))

    def __contains__(self, face) -> bool:
        return frozenset(face) in self.faces()

    # -- simple predicates ------------------------------------------------

    def is_pure(self) -> bool:
        return len({len(f) for f in self._facets}) == 1

    def is_prime(self) -> bool:
        """Pure and without missing facets (missing faces of top dimension);
        the empty complex, of dimension -1, has none."""
        return self.is_pure() and (self._dim < 0 or not self.missing_faces(self._dim))

    def adjacency(self) -> dict:
        """Vertex -> set of neighbours in the 1-skeleton."""
        adj = {v: set() for v in self._vertices}
        for u, v in self.faces_of_dim(1):
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def edges(self) -> tuple:
        return tuple(tuple(sorted(e)) for e in self.faces_of_dim(1))

    def is_connected(self) -> bool:
        """One component in the 1-skeleton, found from the facets alone."""
        pairs = ((min(f), v) for f in self._facets for v in f)
        return len(_components(self._vertices, pairs)) <= 1

    # -- subcomplex operations ---------------------------------------------

    def _require_face(self, face) -> frozenset:
        f = frozenset(face)
        if f not in self.faces():
            raise FaceNotPresentError(f"face {tuple(sorted(f))} is not in the complex")
        return f

    def link(self, face) -> "SimplicialComplex":
        """Faces disjoint from ``face`` whose union with it is again a face."""
        f = self._require_face(face)
        return SimplicialComplex(facet - f for facet in self._facets if f <= facet)

    def star(self, face) -> "SimplicialComplex":
        """Closed star: all faces whose union with ``face`` is a face."""
        f = self._require_face(face)
        return SimplicialComplex(facet for facet in self._facets if f <= facet)

    def restriction(self, verts) -> "SimplicialComplex":
        w = frozenset(verts)
        return SimplicialComplex(facet & w for facet in self._facets)

    def antistar(self, v: int) -> "SimplicialComplex":
        if v not in self._vertices:
            raise FaceNotPresentError(f"vertex {v} is not in the complex")
        return self.restriction(self._vertices - {v})

    def skeleton(self, i: int) -> "SimplicialComplex":
        """Subcomplex of faces of dimension at most ``i``."""
        if i < -1:
            raise PreconditionError("skeleton dimension must be >= -1")
        if i >= self._dim:
            return self
        low = [f for f in self._facets if len(f) - 1 <= i]
        return SimplicialComplex(itertools.chain(low, self.faces_of_dim(i)))

    # -- missing faces ------------------------------------------------------

    def missing_faces(self, k: int) -> list:
        """Minimal non-faces of dimension k, as sorted vertex tuples."""
        if k < 0:
            raise PreconditionError("missing-face dimension must be >= 0")
        if k == 0 or k > self._dim + 1:
            return []
        faces = self.faces()
        out = {
            cand
            for base in self.faces_of_dim(k - 1)
            for cand in (base | {v} for v in self._vertices - base)
            if cand not in faces and all(cand - {u} in faces for u in cand)
        }
        return sorted(tuple(sorted(f)) for f in out)


def from_facets(facets) -> SimplicialComplex:
    """Build the closure of a list of faces; dominated input faces are absorbed."""
    return SimplicialComplex(as_face(f) for f in facets)


def from_faces(faces) -> SimplicialComplex:
    """Build a complex from an already-normalized family of frozenset faces."""
    return SimplicialComplex(faces)


def join(cx1: SimplicialComplex, cx2: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes; the second factor is relabelled above the first.

    Every vertex v of ``cx2`` becomes v + max(V(cx1)) + 1, so output labels
    are deterministic and the factors stay disjoint.
    """
    shift = max(cx1.vertices, default=-1) + 1
    return SimplicialComplex(
        f1 | frozenset(v + shift for v in f2)
        for f1 in cx1.facets
        for f2 in cx2.facets
    )


def connected_sum(
    cx1: SimplicialComplex,
    facet1,
    cx2: SimplicialComplex,
    facet2,
    matching: dict | None = None,
) -> SimplicialComplex:
    """Glue two complexes along a facet of each and delete the glued facet.

    ``matching`` maps each vertex of ``facet1`` to the vertex of ``facet2``
    it is identified with; by default both facets are matched in sorted
    order.  The unmatched vertices of ``cx2`` are relabelled to fresh labels
    above max(V(cx1)), in sorted order.
    """
    f1 = frozenset(facet1)
    f2 = frozenset(facet2)
    if f1 not in cx1.facets:
        raise PreconditionError(f"{tuple(sorted(f1))} is not a facet of the first complex")
    if f2 not in cx2.facets:
        raise PreconditionError(f"{tuple(sorted(f2))} is not a facet of the second complex")
    if len(f1) != len(f2):
        raise PreconditionError("glued facets must have equal dimension")
    if matching is None:
        matching = dict(zip(sorted(f1), sorted(f2)))
    if set(matching) != set(f1) or set(matching.values()) != set(f2):
        raise PreconditionError("matching must be a bijection between the two facets")
    relabel = {v2: v1 for v1, v2 in matching.items()}
    fresh = max(cx1.vertices) + 1
    for v in sorted(cx2.vertices - f2):
        relabel[v] = fresh
        fresh += 1
    glued = frozenset(relabel[v] for v in f2)  # equals f1
    new_facets = set(cx1.facets) - {f1}
    for facet in cx2.facets:
        mapped = frozenset(relabel[v] for v in facet)
        if mapped != glued:
            new_facets.add(mapped)
    return SimplicialComplex(new_facets)


def stack_over_facet(cx: SimplicialComplex, facet) -> SimplicialComplex:
    """Replace a facet by the cone over its boundary from one fresh vertex."""
    f = frozenset(facet)
    if f not in cx.facets:
        raise PreconditionError(f"{tuple(sorted(f))} is not a facet")
    w = max(cx.vertices) + 1
    new_facets = set(cx.facets) - {f}
    for v in f:
        new_facets.add((f - {v}) | {w})
    return SimplicialComplex(new_facets)


def is_simplex_boundary(cx: SimplicialComplex) -> bool:
    """Whether the complex is the full boundary of a simplex on its vertices."""
    verts = sorted(cx.vertices)
    if len(verts) != cx.dim + 2:
        return False
    expected = {frozenset(c) for c in itertools.combinations(verts, len(verts) - 1)}
    return cx.facets == expected


def _components(items, pairs) -> list:
    """Connected components of the graph on ``items`` with edges ``pairs``,
    each listed in item order, sorted by their first item (union-find)."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    comps = {}
    for x in parent:
        comps.setdefault(find(x), []).append(x)
    return sorted(comps.values(), key=lambda comp: comp[0])


def detect_join(cx: SimplicialComplex):
    """Find a bipartition (A, B) of the vertices with cx = cx[A] * cx[B].

    Candidate sides are unions of connected components of the non-edge graph
    (two vertices are joinable only if every cross pair is an edge).  Each
    candidate is verified by the full facet-product check before being
    returned; ``None`` means no join decomposition exists.
    """
    verts = sorted(cx.vertices)
    if len(verts) < 2:
        return None
    adj = cx.adjacency()
    non_edges = ((u, v) for u, v in itertools.combinations(verts, 2) if v not in adj[u])
    groups = _components(verts, non_edges)
    c = len(groups)
    if c < 2:
        return None
    facets = cx.facets
    if len(facets) << (c - 1) > JOIN_GUARD:
        raise TooLargeError(
            f"{c} non-edge components and {len(facets)} facets exceed the join-search"
            f" guard ({JOIN_GUARD})"
        )
    for mask in range(1, 2 ** (c - 1)):
        side_a, side_b = set(groups[0]), set()
        for bit in range(c - 1):
            (side_b if mask >> bit & 1 else side_a).update(groups[bit + 1])
        fa = _maximal(f & frozenset(side_a) for f in facets)
        fb = _maximal(f & frozenset(side_b) for f in facets)
        product = {a | b for a in fa for b in fb}
        if product == facets:
            return tuple(sorted(side_a)), tuple(sorted(side_b))
    return None

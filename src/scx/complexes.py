"""Finite abstract simplicial complexes and their combinatorial operations.

A complex is stored by its inclusion-maximal faces (facets).  Its closure is
built lazily in two forms, each at most once.  The readers that count faces,
test membership or sweep links (``n_faces``, ``in``, ``missing_faces``,
``edges``, the link f-vectors and the link sweeps of :mod:`scx.homology`)
use the closure as bitmasks over the sorted vertices, every submask of a
facet mask (:func:`_closure_masks`, which the Betti numbers share).  Only
``faces`` and ``faces_of_dim``, for the callers that need frozensets, build
the closure as frozensets.  ``adjacency`` and ``is_connected`` read the
facets alone.  Complexes are immutable values: every operation returns a new
complex, so concurrent reads are safe.

Vertices are non-negative integer labels; faces are frozensets of labels.
Every complex contains the empty face; ``from_facets([])`` yields the
complex whose only face is the empty one (dimension -1).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

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


def _closure_masks(masks) -> tuple:
    """(by_size, members) for the closure of the facet bitmasks ``masks``:
    by_size[j] lists the faces with j vertices in increasing order, and
    members is the set of them all, the empty face 0 included.

    Each face is a submask of a facet, and the submasks of m are enumerated
    by ``sub = (sub - 1) & m``, which visits each once in decreasing order.
    The closure bound is checked first.
    """
    _check_closure_bound(map(int.bit_count, masks))
    members = {0}
    for m in masks:
        sub = m
        while sub:
            members.add(sub)
            sub = (sub - 1) & m
    by_size = [[] for _ in range(max(map(int.bit_count, masks)) + 1)]
    for f in sorted(members):
        by_size[f.bit_count()].append(f)
    return by_size, members


class _MaskClosure(NamedTuple):
    """The closure of a complex as bitmasks over its sorted vertices."""

    bit: dict  # vertex -> 1 << its position, in sorted vertex order
    facets: list  # the facet masks
    by_size: list  # by_size[j]: the faces with j vertices, in increasing order
    members: set  # every face mask, the empty face 0 included


def _bits(mask):
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


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

    __slots__ = ("_facets", "_vertices", "_dim", "_faces", "_by_dim", "_masks")

    def __init__(self, faces):
        self._facets = _maximal(faces)
        self._vertices = frozenset(itertools.chain.from_iterable(self._facets))
        self._dim = max(map(len, self._facets)) - 1
        self._faces = None
        self._by_dim = None
        self._masks = None

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
        """The full face set (closure of the facets), including the empty face.

        Built as frozensets, separately from the bitmask closure
        (:meth:`_mask_closure`) that counts and membership tests read."""
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
        """All k-dimensional faces, sorted by vertex tuple (from :meth:`faces`)."""
        self.faces()
        return self._by_dim.get(k, ())

    def _mask_closure(self) -> _MaskClosure:
        """The closure as bitmasks over the sorted vertices, built once
        (:func:`_closure_masks`); a race only builds it twice."""
        if self._masks is None:
            bit, facets = self._facet_masks()
            self._masks = _MaskClosure(bit, facets, *_closure_masks(facets))
        return self._masks

    def _facet_masks(self) -> tuple:
        """(bit, facet masks) as in :meth:`_mask_closure`, read off it when it
        is built; otherwise computed without building it, so a complex over
        the closure bound still gives its links."""
        if self._masks is not None:
            return self._masks.bit, self._masks.facets
        bit = {v: 1 << i for i, v in enumerate(sorted(self._vertices))}
        return bit, [sum(map(bit.__getitem__, f)) for f in self._facets]

    def n_faces(self, k: int) -> int:
        """f_k, counted on the bitmask closure; 0 outside -1..dim."""
        by_size = self._mask_closure().by_size
        return len(by_size[k + 1]) if 0 <= k + 1 < len(by_size) else 0

    def __contains__(self, face) -> bool:
        """Whether ``face`` is a face, tested on the bitmask closure."""
        bit, _, _, members = self._mask_closure()
        mask = 0
        for v in face:
            if v not in bit:
                return False
            mask |= bit[v]
        return mask in members

    # -- simple predicates ------------------------------------------------

    def is_pure(self) -> bool:
        return len({len(f) for f in self._facets}) == 1

    def is_prime(self) -> bool:
        """Pure and without missing facets (missing faces of top dimension);
        the empty complex, of dimension -1, has none."""
        return self.is_pure() and (self._dim < 0 or not self.missing_faces(self._dim))

    def adjacency(self) -> dict:
        """Vertex -> set of neighbours in the 1-skeleton, read off the facets."""
        adj = {v: set() for v in self._vertices}
        for f in self._facets:
            for v in f:
                adj[v].update(f)
        for v, neighbours in adj.items():
            neighbours.discard(v)
        return adj

    def edges(self) -> tuple:
        """The edges as sorted vertex pairs, in ``faces_of_dim(1)`` order."""
        bit, _, by_size, _ = self._mask_closure()
        if len(by_size) < 3:
            return ()
        labels = list(bit)
        return tuple(
            sorted((labels[(m & -m).bit_length() - 1], labels[m.bit_length() - 1]) for m in by_size[2])
        )

    def is_connected(self) -> bool:
        """One component in the 1-skeleton, found from the facets alone."""
        pairs = ((min(f), v) for f in self._facets for v in f)
        return len(_components(self._vertices, pairs)) <= 1

    # -- subcomplex operations ---------------------------------------------

    def _require_face(self, face) -> frozenset:
        f = frozenset(face)
        if f not in self:
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
        """Minimal non-faces of dimension k, as sorted vertex tuples.

        Read off the bitmask closure: each candidate is a face with k
        vertices plus one vertex above all of them, so it is met once, and
        it is missing when it is no face but every face of its boundary is.
        """
        if k < 0:
            raise PreconditionError("missing-face dimension must be >= 0")
        if k == 0 or k > self._dim + 1:
            return []
        bit, _, by_size, members = self._mask_closure()
        labels = list(bit)
        top = 1 << len(labels)
        out = []
        for base in by_size[k]:
            v = 1 << base.bit_length()
            while v < top:
                cand = base | v
                if cand not in members and all(cand ^ b in members for b in _bits(base)):
                    out.append(tuple(labels[b.bit_length() - 1] for b in _bits(cand)))
                v <<= 1
        return sorted(out)


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

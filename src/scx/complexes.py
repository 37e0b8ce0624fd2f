"""Finite abstract simplicial complexes and their combinatorial operations.

A complex is its facet masks: its maximal faces (:func:`_maximal`) as
bitmasks over its sorted vertices, kept as their order type
(:func:`_order_type`) by the one private constructor,
:meth:`SimplicialComplex._of_masks`.  The public constructor is its
labelled front end; ``link``, ``star``, ``restriction``, ``antistar``,
``skeleton`` and ``join`` pass it their parent's masks, and each move that
edits a few facets (``stack_over_facet``, ``connected_sum`` and the
retriangulations) replaces facet masks through :func:`_replaced`.
``facets`` labels the masks on first read.  ``in``, ``link`` and ``star``
share one presence and link rule, :func:`_link`.  The closure, every
submask of a facet mask (:func:`_closure_masks`, which the Betti numbers
share), is built lazily, at most once; its groups by size are read through
:meth:`SimplicialComplex._group`, empty outside -1..dim, by the face counts,
``missing_faces``, ``edges``, ``skeleton``, ``faces_of_dim`` and the link
sweeps of :mod:`scx.homology`, and ``faces`` labels its members.  The rest read the
facet masks: one routine finds their components (:func:`_components`) and
one the vertex neighbourhoods (:func:`_neighbourhoods`).  Complexes are
immutable values: every operation returns a new complex, so concurrent reads
are safe.

Vertices are non-negative integer labels; faces are frozensets of labels.
Every complex contains the empty face; ``from_facets([])`` yields the
complex whose only face is the empty one (dimension -1).
"""

from __future__ import annotations

import functools
from collections.abc import Mapping

from .errors import (
    FaceNotPresentError,
    MalformedInputError,
    PreconditionError,
    _guard,
    _index,
)


def _items(values, what: str) -> tuple:
    """``tuple(values)``, or ``MalformedInputError`` if it is no iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise MalformedInputError(f"expected an iterable of {what}, got {values!r}") from None


def as_face(vertices) -> frozenset:
    """Normalize an iterable of vertex labels into a face; rejects repeats and
    any label that is not a non-negative ``int`` (a ``bool`` included)."""
    vs = _items(vertices, "vertex labels")
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
    _guard(sum(1 << s for s in sizes), CLOSURE_GUARD, "closure guard, closure bound")


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


def _bits(mask):
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _tuple_order(masks) -> list:
    """Face bitmasks of any sizes in vertex-tuple order, a prefix first: the
    lesser tuple holds the lowest differing vertex or ends first, so its bits
    read lowest first, closed by a "2" above both digits, are greater."""
    return sorted(masks, key=lambda m: (bin(m)[:1:-1] if m else "") + "2", reverse=True)


def _labelled(labels, mask) -> frozenset:
    """The face whose bitmask over ``labels`` is ``mask``."""
    return frozenset(labels[b.bit_length() - 1] for b in _bits(mask))


def _maximal(masks) -> list:
    """The inclusion-maximal members of a family of face bitmasks, each once,
    or [0] if none is nonempty.  Masks are taken largest first, and a kept
    mask that contains m holds m's lowest bit, so m is compared only with the
    kept masks through that bit."""
    masks = set(masks)
    if len(set(map(int.bit_count, masks))) == 1:  # distinct masks of one size form an antichain
        return list(masks)
    kept = []
    through = {}  # bit -> the kept masks holding it
    for m in sorted(masks, key=int.bit_count, reverse=True):
        if not m:  # the empty face comes last and lies in any kept mask
            break
        if not any(m & g == m for g in through.get(m & -m, ())):
            kept.append(m)
            for b in _bits(m):
                through.setdefault(b, []).append(m)
    return kept or [0]


def _order_type(masks) -> tuple:
    """The order type of the complex whose facets are ``masks``: the masks
    that :meth:`SimplicialComplex._of_masks` keeps, and the key of the three
    homology memos (``homology._betti``, ``_ball`` and ``_shelling``).

    It numbers the vertices 0..n-1 in sorted order and lists each facet as a
    bitmask over that numbering, so two complexes with the same order type
    differ by an order-preserving relabelling.  Each mask is compressed onto
    the complex's own vertices, the set bits of the union, in order: bit
    ``b`` moves to position ``popcount(union & (b - 1))``.  The compressed
    masks are sorted.
    """
    union = functools.reduce(int.__or__, masks, 0)
    if union & (union + 1):  # the vertices are not 0..n-1
        compressed = []
        for m in masks:
            c = 0
            while m:
                low = m & -m
                c |= 1 << (union & (low - 1)).bit_count()
                m ^= low
            compressed.append(c)
        masks = compressed
    return tuple(sorted(masks))


def _link(masks, fm) -> list:
    """The facets of the link of the face ``fm`` in the complex whose facets
    are the bitmasks ``masks``: ``m ^ fm`` for the masks ``m`` that contain
    it, an antichain as the facets are, and none when the face is absent."""
    return [m ^ fm for m in masks if m & fm == fm]


class SimplicialComplex:
    """Immutable simplicial complex identified by its facet set."""

    __slots__ = ("_masks", "_dim", "_facets", "_closure")

    def __init__(self, faces):
        """The labelled front end of :meth:`_of_masks`: each distinct label is
        checked once (by :func:`as_face`), each distinct face masked once."""
        try:
            faces = set(map(frozenset, faces)) or {frozenset()}
        except TypeError:
            raise MalformedInputError(f"expected iterables of labels, got {faces!r}") from None
        bit = {v: 1 << i for i, v in enumerate(sorted(as_face(set().union(*faces))))}
        built = self._of_masks(list(bit), (sum(map(bit.__getitem__, f)) for f in faces))
        if len(built._masks[1]) == len(faces):  # no face was dominated: they are the facets
            built._facets = frozenset(faces)
        for name in self.__slots__:
            setattr(self, name, getattr(built, name))

    @classmethod
    def _of_masks(cls, labels, masks) -> "SimplicialComplex":
        """The complex of the face bitmasks ``masks`` over the sorted labels
        ``labels``, unchecked: the bit map of the labels its maximal masks
        hold, and those masks' order type, with no face labelled."""
        masks = _maximal(masks)
        union = functools.reduce(int.__or__, masks)
        cx = object.__new__(cls)
        bit = {labels[b.bit_length() - 1]: 1 << i for i, b in enumerate(_bits(union))}
        cx._masks, cx._dim = (bit, _order_type(masks)), max(map(int.bit_count, masks)) - 1
        cx._facets = cx._closure = None
        return cx

    @property
    def facets(self) -> frozenset:
        """The facets as frozensets of labels: the masks labelled on first read
        and kept (a race only labels them twice), unless the constructor kept its faces."""
        if self._facets is None:
            labels = list(self._masks[0])
            self._facets = frozenset(_labelled(labels, m) for m in self._masks[1])
        return self._facets

    @property
    def vertices(self) -> frozenset:
        return frozenset(self._masks[0])

    @property
    def dim(self) -> int:
        return self._dim

    def __eq__(self, other):
        """Equal labels and equal sorted masks over them, with no face labelled."""
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._masks == other._masks

    def __hash__(self):
        bit, masks = self._masks
        return hash((tuple(bit), masks))

    def __repr__(self):
        bit, masks = self._masks
        return f"SimplicialComplex(dim={self._dim}, vertices={len(bit)}, facets={len(masks)})"

    # -- face enumeration ------------------------------------------------

    def faces(self) -> frozenset:
        """The full face set (closure of the facets), including the empty face:
        the bitmask closure (:meth:`_mask_closure`) labelled on each call, so
        a repeated reader keeps the result, or uses ``in`` or ``n_faces``."""
        labels = list(self._masks[0])
        return frozenset(_labelled(labels, m) for m in self._mask_closure()[1])

    def faces_of_dim(self, k: int) -> tuple:
        """All k-dimensional faces in vertex-tuple order: :meth:`_group` ``k``
        labelled, so () outside -1..dim."""
        k = _index(k, "face dimension")
        labels = list(self._masks[0])
        return tuple(_labelled(labels, m) for m in _tuple_order(self._group(k)))

    def _mask_closure(self) -> tuple:
        """(by_size, members) of the closure of the facet masks
        (:func:`_closure_masks`), built once; a race only builds it twice."""
        if self._closure is None:
            self._closure = _closure_masks(self._masks[1])
        return self._closure

    def _group(self, k: int) -> list:
        """The closure's k-face masks in increasing order, or [] outside
        -1..dim, with no closure built: the one reader of its groups.  Its
        callers read k as an integer (:func:`errors._index`)."""
        return self._mask_closure()[0][k + 1] if -1 <= k <= self._dim else []

    def n_faces(self, k: int) -> int:
        """f_k, the length of :meth:`_group` ``k``; 0 outside -1..dim."""
        return len(self._group(_index(k, "face dimension")))

    def __contains__(self, face) -> bool:
        """Whether ``face`` is a face, by the presence rule of :meth:`_through`."""
        return bool(self._through(face)[2])

    # -- simple predicates ------------------------------------------------

    def is_pure(self) -> bool:
        return len(set(map(int.bit_count, self._masks[1]))) == 1

    def is_prime(self) -> bool:
        """Pure and without missing facets (missing faces of top dimension);
        the empty complex, of dimension -1, has none."""
        return self.is_pure() and (self._dim < 0 or not self.missing_faces(self._dim))

    def adjacency(self) -> dict:
        """Vertex -> set of neighbours in the 1-skeleton, the
        :func:`_neighbourhoods` of the facet masks labelled."""
        bit, masks = self._masks
        near, labels = _neighbourhoods(masks), list(bit)
        return {v: set(_labelled(labels, near[b] ^ b)) for v, b in bit.items()}

    def edges(self) -> tuple:
        """The edges as sorted vertex pairs, in ``faces_of_dim(1)`` order."""
        labels = list(self._masks[0])
        ends = (((m & -m).bit_length() - 1, m.bit_length() - 1) for m in self._group(1))
        return tuple(sorted((labels[a], labels[b]) for a, b in ends))

    def is_connected(self) -> bool:
        """One component in the 1-skeleton, from the facet masks alone."""
        return len(_components(self._masks[1])) <= 1

    # -- subcomplex operations ---------------------------------------------

    def _through(self, face) -> tuple:
        """(face, its mask, its :func:`_link`, [] when it is absent): a face is
        present exactly when some facet contains it, the one rule of ``in``,
        ``link`` and ``star``, so none of them builds a closure or labels a
        facet.  The face is read by :func:`as_face`."""
        f = as_face(face)
        bit, masks = self._masks
        fm = sum(bit.get(v, 1 << len(bit)) for v in f)  # an absent label: bits no facet holds
        return f, fm, _link(masks, fm)

    def _star_facets(self, face) -> tuple:
        """(mask, link) of :meth:`_through` for a face that must be present."""
        f, fm, link = self._through(face)
        if not link:
            raise FaceNotPresentError(f"face {tuple(sorted(f))} is not in the complex")
        return fm, link

    def link(self, face) -> "SimplicialComplex":
        """Faces disjoint from ``face`` whose union with it is again a face."""
        return self._of_masks(list(self._masks[0]), self._star_facets(face)[1])

    def star(self, face) -> "SimplicialComplex":
        """Closed star: all faces whose union with ``face`` is a face."""
        fm, link = self._star_facets(face)
        return self._of_masks(list(self._masks[0]), [m | fm for m in link])

    def restriction(self, verts) -> "SimplicialComplex":
        """The faces within the vertex set ``verts``, read by :func:`as_face`."""
        w = sum(self._masks[0].get(v, 0) for v in as_face(verts))
        return self._of_masks(list(self._masks[0]), [m & w for m in self._masks[1]])

    def antistar(self, v: int) -> "SimplicialComplex":
        """The faces avoiding v, which :meth:`_star_facets` requires present."""
        self._star_facets([v])
        return self.restriction(self._masks[0].keys() - {v})

    def skeleton(self, i: int) -> "SimplicialComplex":
        """Subcomplex of faces of dimension at most ``i``: the facets of
        dimension at most i and the i-faces (:meth:`_group`), with no closure
        built when i >= dim."""
        i = _index(i, "face dimension")
        if i < -1:
            raise PreconditionError("skeleton dimension must be >= -1")
        if i >= self._dim:
            return self
        low = [m for m in self._masks[1] if m.bit_count() <= i + 1]
        return self._of_masks(list(self._masks[0]), low + self._group(i))

    # -- missing faces ------------------------------------------------------

    def missing_faces(self, k: int) -> list:
        """Minimal non-faces of dimension k, as sorted vertex tuples.

        Read off the bitmask closure: each candidate is a (k-1)-face
        (:meth:`_group`) plus one vertex above all of it, so it is met once,
        and it is missing when it is no face but every face of its boundary is.
        """
        k = _index(k, "face dimension")
        if k < 0:
            raise PreconditionError("missing-face dimension must be >= 0")
        if k == 0 or k > self._dim + 1:
            return []
        members = self._mask_closure()[1]
        labels = list(self._masks[0])
        top = 1 << len(labels)
        out = []
        for base in self._group(k - 1):
            v = 1 << base.bit_length()
            while v < top:
                cand = base | v
                if cand not in members and all(cand ^ b in members for b in _bits(base)):
                    out.append(tuple(labels[b.bit_length() - 1] for b in _bits(cand)))
                v <<= 1
        return sorted(out)


def _complex(cx) -> SimplicialComplex:
    """``cx`` if it is a complex, else ``MalformedInputError``: the one rule by
    which every public callable takes a complex, as ``h_from_f`` and
    ``f_from_h`` take their vectors."""
    if not isinstance(cx, SimplicialComplex):
        raise MalformedInputError(f"expected a SimplicialComplex, got {cx!r}")
    return cx


def from_facets(facets) -> SimplicialComplex:
    """Build the closure of a list of faces; dominated input faces are absorbed."""
    return SimplicialComplex(map(as_face, _items(facets, "faces")))


def from_faces(faces) -> SimplicialComplex:
    """Build a complex from an already-normalized family of frozenset faces."""
    return SimplicialComplex(faces)


def join(cx1: SimplicialComplex, cx2: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes; the second factor is relabelled above the first.

    Every vertex v of ``cx2`` becomes v + max(V(cx1)) + 1, so output labels
    are deterministic and the factors stay disjoint.
    """
    (bit1, masks1), (bit2, masks2) = _complex(cx1)._masks, _complex(cx2)._masks
    shift, n1 = max(bit1, default=-1) + 1, len(bit1)
    labels = [*bit1, *(v + shift for v in bit2)]
    return SimplicialComplex._of_masks(labels, [a | b << n1 for a in masks1 for b in masks2])


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
    above max(V(cx1)), in sorted order: new top bits of the masks.
    """
    f1, fm1, link1 = _complex(cx1)._through(facet1)
    f2, _, link2 = _complex(cx2)._through(facet2)
    if link1 != [0]:  # a facet's link is the empty complex
        raise PreconditionError(f"{tuple(sorted(f1))} is not a facet of the first complex")
    if link2 != [0]:
        raise PreconditionError(f"{tuple(sorted(f2))} is not a facet of the second complex")
    if len(f1) != len(f2) or not f1:
        raise PreconditionError("glued facets must be nonempty and of equal dimension")
    if not isinstance(matching, Mapping):  # None matches in sorted order, any other nothing
        matching = dict(zip(sorted(f1), sorted(f2))) if matching is None else {}
    try:
        bijective = set(matching) == f1 and set(matching.values()) == f2
    except TypeError:  # an unhashable label matches no vertex
        bijective = False
    if not bijective:
        raise PreconditionError("matching must be a bijection between the two facets")
    bit1, bit2 = cx1._masks[0], cx2._masks[0]
    bit = {v2: bit1[v1] for v1, v2 in matching.items()}
    bit.update((v, 1 << i) for i, v in enumerate((v for v in bit2 if v not in f2), len(bit1)))
    return _replaced(cx1, [fm1], [m for m in _masks_in(cx2, bit) if m != fm1])


def stack_over_facet(cx: SimplicialComplex, facet) -> SimplicialComplex:
    """Replace a facet by the cone over its boundary from one fresh vertex,
    on masks: the facet's ridges, each with a new top bit."""
    f, fm, link = _complex(cx)._through(facet)
    if not f or link != [0]:  # a facet's link is the empty complex
        raise PreconditionError(f"{tuple(sorted(f))} is not a nonempty facet")
    top = 1 << len(cx._masks[0])  # the new vertex is the top bit
    return _replaced(cx, [fm], [(fm ^ b) | top for b in _bits(fm)])


def _masks_in(sub: SimplicialComplex, bit: dict) -> list:
    """The facet masks of ``sub`` moved onto the bit map ``bit``, label -> bit."""
    moved = [bit[v] for v in sub._masks[0]]  # sub's bit i -> its bit in ``bit``
    return [sum(moved[b.bit_length() - 1] for b in _bits(m)) for m in sub._masks[1]]


def _replaced(cx: SimplicialComplex, drop, add) -> SimplicialComplex:
    """``cx`` with the facet masks ``drop`` replaced by the list of masks
    ``add``, the one way a move is built (:meth:`SimplicialComplex._of_masks`):
    the bits above ``cx``'s, up to the highest of ``add`` (that of its
    greatest mask), are the fresh labels max(V) + 1, max(V) + 2, ..."""
    (bit, masks), drop = cx._masks, set(drop)
    fresh = max(bit, default=-1) + 1
    labels = [*bit, *range(fresh, fresh + max(add, default=0).bit_length() - len(bit))]
    return SimplicialComplex._of_masks(labels, [m for m in masks if m not in drop] + add)


def is_simplex_boundary(cx: SimplicialComplex) -> bool:
    """Whether the complex is the full boundary of a simplex on its vertices:
    n distinct facets of n - 1 vertices each, on n vertices, are all of them."""
    return len(_complex(cx)._masks[0]) == cx.dim + 2 == len(cx._masks[1]) and cx.is_pure()


def _components(masks) -> list:
    """The components of the bitmasks ``masks``, joined where they share a
    bit, as unions of masks in no set order: each mask absorbs the
    components it meets, which stay disjoint (a mask 0 meets none)."""
    components = []
    for m in masks:
        apart = []
        for c in components:
            if c & m:
                m |= c
            else:
                apart.append(c)
        components = apart + [m]
    return components


def _neighbourhoods(masks) -> dict:
    """Vertex bit -> the union of the bitmasks ``masks`` through it: for facet
    masks, the vertex and its neighbours in the 1-skeleton."""
    near = {}
    for m in masks:
        for b in _bits(m):
            near[b] = near.get(b, 0) | m
    return near


def detect_join(cx: SimplicialComplex):
    """Find a bipartition (A, B) of the vertices with cx = cx[A] * cx[B].

    Candidate sides are unions of connected components of the non-edge graph
    (two vertices are joinable only if every cross pair is an edge): the
    :func:`_components` of one mask per vertex, its own bit and its
    non-neighbours'.  Each candidate is verified by the full facet-product
    check before being returned; ``None`` means no join decomposition
    exists.  If the products of the facets' traces on the two sides are
    the facets, an antichain, the traces are maximal on each side.
    """
    bit, masks = _complex(cx)._masks
    every = (1 << len(bit)) - 1
    near = _neighbourhoods(masks).items()
    groups = sorted(_components((every ^ n) | b for b, n in near), key=lambda g: g & -g)
    c = len(groups)
    if c < 2:
        return None
    _guard(len(masks) << (c - 1), JOIN_GUARD, "join-search guard, sides x facets")
    facets, labels = set(masks), list(bit)
    for choice in range(1, 1 << (c - 1)):
        side_b = sum(g for i, g in enumerate(groups[1:]) if choice >> i & 1)
        side_a = every ^ side_b
        traces_a, traces_b = {m & side_a for m in masks}, {m & side_b for m in masks}
        if {a | b for a in traces_a for b in traces_b} == facets:
            return tuple(tuple(sorted(_labelled(labels, side))) for side in (side_a, side_b))
    return None

"""Combinatorial isomorphism of small complexes by pruned backtracking.

Vertices are first partitioned by cheap invariants (link face counts,
neighbour classes), whose multisets alone refuse complexes with different
f-vectors; the search then extends an injection vertex by vertex.  Each
placed vertex must keep adjacency and non-adjacency to those placed before
it, and each facet of the first complex, once its last vertex is placed,
must land on a facet of the second.  Past ``ISOMORPHISM_GUARD`` candidate
images tried, the search raises instead of running away.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex, _bits, _neighbourhoods
from .errors import TooLargeError
from .facevectors import _complex, _link_f_vectors

#: Search nodes, one per candidate image tried, that one call may visit: 9x the most
#: in the tests (175,119; 1,673 on the classify-distinct stream, 49 in ``run_all()``).
ISOMORPHISM_GUARD = 1_600_000


@dataclass(frozen=True)
class IsoCertificate:
    mapping: dict | None

    def __bool__(self) -> bool:
        return self.mapping is not None


def _vertex_classes(cx: SimplicialComplex) -> dict:
    """Vertex -> (link f-vector, its f_0 the degree; sorted neighbour classes),
    read off the vertices' :func:`_neighbourhoods` by bit.  Summed over the
    vertices, entry j counts j f_{j-1}: equal class multisets, equal f-vectors."""
    bit, masks = cx._masks
    near, link_f = _neighbourhoods(masks), _link_f_vectors(cx)
    base = {b: link_f[v] for v, b in bit.items()}
    # one refinement round: append the sorted multiset of neighbour classes
    return {v: (base[b], tuple(sorted(map(base.get, _bits(near[b] ^ b))))) for v, b in bit.items()}


def are_isomorphic(cx1: SimplicialComplex, cx2: SimplicialComplex) -> IsoCertificate:
    """Search for a vertex bijection sending facets to facets."""
    cx1, cx2, none = _complex(cx1), _complex(cx2), IsoCertificate(None)
    cls1, cls2 = _vertex_classes(cx1), _vertex_classes(cx2)
    if sorted(cls1.values()) != sorted(cls2.values()):  # the f-vectors differ, among others
        return none
    if not cx1.vertices:
        return IsoCertificate({})
    adj1 = cx1.adjacency()
    candidates = {
        v: sorted(u for u in cx2.vertices if cls2[u] == cls1[v])
        for v in cx1.vertices
    }
    # rarest class first, then prefer vertices adjacent to already-placed ones.
    # closing[i] holds the facets whose last vertex is order[i]; the map is
    # injective and the f-vectors agree, so once every facet lands on a facet
    # of cx2, the image of cx1 is all of cx2
    order, closing = [], []
    remaining = set(cx1.vertices)
    while remaining:
        placed = set(order)
        pool = [v for v in remaining if adj1[v] & placed] or list(remaining)
        v = min(pool, key=lambda v: (len(candidates[v]), v))
        order.append(v)
        remaining.discard(v)
        closing.append([f for f in cx1.facets if v in f and remaining.isdisjoint(f)])
    bit, masks2 = cx2._masks
    nbrs2 = _neighbourhoods(masks2)  # closed: u's own bit is never in ``used`` below
    mapping, used, nodes = {}, 0, 0
    # stack[i] yields order[i]'s untried images; no recursion, so no depth limit
    stack = [iter(candidates[order[0]])]
    while stack:
        i = len(stack) - 1
        v = order[i]
        if v in mapping:  # back from a dead end
            used ^= bit[mapping.pop(v)]
        # the placed neighbours of v's image must be the images of v's: this
        # prunes long before a facet closes when cx1 is not neighborly
        want = sum(bit[mapping[w]] for w in adj1[v] if w in mapping)
        for u in stack[-1]:
            b = bit[u]
            if used & b:
                continue
            nodes += 1
            if nodes > ISOMORPHISM_GUARD:
                raise TooLargeError(
                    f"search exceeds the isomorphism guard ({ISOMORPHISM_GUARD} nodes)"
                )
            if nbrs2[b] & used != want:
                continue
            mapping[v] = u
            if all(frozenset(map(mapping.get, f)) in cx2.facets for f in closing[i]):
                break
            del mapping[v]
        else:
            stack.pop()
            continue
        used |= b
        if i + 1 == len(order):
            return IsoCertificate(dict(mapping))
        stack.append(iter(candidates[order[i + 1]]))
    return none

"""Combinatorial isomorphism of small complexes by pruned backtracking.

Vertices are first partitioned by invariants of the facet masks (facets
through a vertex, its degree, its neighbours' classes); the search then
extends an injection of vertex bits, labelled only in the certificate.  Each
placed vertex must keep adjacency and non-adjacency to those placed before
it, and each facet mask of the first complex, once its last vertex is placed,
must land on one of the second.  Past ``ISOMORPHISM_GUARD`` candidate images
tried, the search raises instead of running away.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex, _bits, _neighbourhoods
from .errors import TooLargeError
from .facevectors import _complex

#: Search nodes, one per candidate image tried, that one call may visit: 9x the most
#: in the tests (175,119; 1,673 on the classify-distinct stream, 49 in ``run_all()``).
ISOMORPHISM_GUARD = 1_600_000


@dataclass(frozen=True)
class IsoCertificate:
    mapping: dict | None

    def __bool__(self) -> bool:
        return self.mapping is not None


def _vertex_classes(cx: SimplicialComplex) -> tuple:
    """(vertex -> (facets through it, its degree; sorted neighbour classes), the
    :func:`_neighbourhoods` by bit), with no closure built.  Summed over the
    vertices, the facets through a vertex give the facets' total size, so equal
    class multisets give equal facet-size totals: an injective vertex map that
    sends every facet of one complex to a facet of the other then covers all of
    the other's facets, so any map the search returns is an isomorphism."""
    bit, masks = cx._masks
    near = _neighbourhoods(masks)
    base = {b: (len([m for m in masks if m & b]), n.bit_count() - 1) for b, n in near.items()}
    # one refinement round: append the sorted multiset of neighbour classes
    return {
        v: (base[b], tuple(sorted(map(base.get, _bits(near[b] ^ b))))) for v, b in bit.items()
    }, near


def are_isomorphic(cx1: SimplicialComplex, cx2: SimplicialComplex) -> IsoCertificate:
    """Search for a vertex bijection sending facets to facets."""
    cx1, cx2, none = _complex(cx1), _complex(cx2), IsoCertificate(None)
    (cls1, near1), (cls2, near2) = _vertex_classes(cx1), _vertex_classes(cx2)
    if sorted(cls1.values()) != sorted(cls2.values()):  # e.g. the facet-size totals differ
        return none
    (bit1, masks1), (bit2, masks2) = cx1._masks, cx2._masks
    if not bit1:
        return IsoCertificate({})
    candidates = {b: [bit2[u] for u, c in cls2.items() if c == cls1[v]] for v, b in bit1.items()}
    # rarest class first, then prefer vertices adjacent to already-placed ones;
    # bit order is label order.  prior[i] holds the depths of order[i]'s placed
    # neighbours, closing[i] those of each facet whose last vertex is order[i]:
    # the map is injective and the facet-size totals agree, so once every
    # facet lands on a facet of cx2, the image of cx1 is all of cx2
    order, prior, closing, depth, placed = [], [], [], {}, 0
    while len(order) < len(bit1):
        left = [c for c in bit1.values() if not c & placed]
        pool = [c for c in left if near1[c] & placed] or left
        b = min(pool, key=lambda c: (len(candidates[c]), c))
        prior.append([depth[c] for c in _bits(near1[b] & placed)])
        depth[b], placed = len(order), placed | b
        order.append(b)
        closing.append([[depth[c] for c in _bits(m)] for m in masks1 if m & b and m & placed == m])
    facets2 = set(masks2)  # near2 is closed: u's own bit is never in ``used`` below
    image, used, nodes = [], 0, 0  # order[i] goes to the bit image[i]
    # stack[i] yields order[i]'s untried images; no recursion, so no depth limit
    stack = [iter(candidates[order[0]])]
    while stack:
        i = len(stack) - 1
        if len(image) > i:  # back from a dead end
            used ^= image.pop()
        # the placed neighbours of the image must be the images of order[i]'s:
        # this prunes long before a facet closes when cx1 is not neighborly
        want = sum(image[j] for j in prior[i])
        for u in stack[-1]:
            if used & u:
                continue
            nodes += 1
            if nodes > ISOMORPHISM_GUARD:
                raise TooLargeError(
                    f"search exceeds the isomorphism guard ({ISOMORPHISM_GUARD} nodes)"
                )
            if near2[u] & used != want:
                continue
            image.append(u)
            if all(sum(image[j] for j in f) in facets2 for f in closing[i]):
                break
            image.pop()
        else:
            stack.pop()
            continue
        used |= u
        if i + 1 == len(order):
            label1, label2 = ({b: v for v, b in bit.items()} for bit in (bit1, bit2))
            return IsoCertificate({label1[b]: label2[u] for b, u in zip(order, image)})
        stack.append(iter(candidates[order[i + 1]]))
    return none

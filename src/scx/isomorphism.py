"""Combinatorial isomorphism of small complexes by pruned backtracking.

Vertices are first partitioned by cheap invariants (degree, link face
counts, neighbour classes); the search then extends a partial bijection
vertex by vertex, pruning on adjacency, and accepts only if the induced map
sends facets onto facets bijectively.  Intended for complexes with at most
~15 vertices; larger inputs raise instead of running away.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex
from .errors import TooLargeError
from .facevectors import f_vector


@dataclass(frozen=True)
class IsoCertificate:
    mapping: dict | None

    def __bool__(self) -> bool:
        return self.mapping is not None


def _vertex_classes(cx: SimplicialComplex) -> dict:
    adj = cx.adjacency()
    # the f-vector of lk(v): lk_f[v][k] counts the k-faces through v
    lk_f = {v: [] for v in cx.vertices}
    for k in range(cx.dim + 1):
        for face in cx.faces_of_dim(k):
            for v in face:
                counts = lk_f[v]
                if len(counts) == k:
                    counts.append(0)
                counts[k] += 1
    base = {v: (len(adj[v]), tuple(lk_f[v])) for v in cx.vertices}
    # one refinement round: append the sorted multiset of neighbour classes
    refined = {
        v: (base[v], tuple(sorted(base[u] for u in adj[v]))) for v in cx.vertices
    }
    return refined


def are_isomorphic(
    cx1: SimplicialComplex, cx2: SimplicialComplex, max_vertices: int = 16
) -> IsoCertificate:
    """Search for a vertex bijection sending facets to facets."""
    none = IsoCertificate(None)
    if f_vector(cx1).entries != f_vector(cx2).entries:
        return none
    n = len(cx1.vertices)
    if n > max_vertices:
        raise TooLargeError(
            f"{n} vertices exceed the isomorphism guard ({max_vertices})"
        )
    if n == 0:
        return IsoCertificate({})
    cls1, cls2 = _vertex_classes(cx1), _vertex_classes(cx2)
    if sorted(cls1.values()) != sorted(cls2.values()):
        return none
    adj1, adj2 = cx1.adjacency(), cx2.adjacency()
    candidates = {
        v: sorted(u for u in cx2.vertices if cls2[u] == cls1[v])
        for v in cx1.vertices
    }
    # rarest class first, then prefer vertices adjacent to already-placed ones
    order = []
    remaining = set(cx1.vertices)
    while remaining:
        placed = set(order)
        pool = [v for v in remaining if adj1[v] & placed] or list(remaining)
        v = min(pool, key=lambda v: (len(candidates[v]), v))
        order.append(v)
        remaining.discard(v)

    facets2 = cx2.facets
    mapping = {}
    used = set()

    def extend(idx: int) -> bool:
        if idx == len(order):
            image = {frozenset(mapping[v] for v in f) for f in cx1.facets}
            return image == facets2
        v = order[idx]
        for u in candidates[v]:
            if u in used:
                continue
            ok = all(
                (w in adj1[v]) == (mapping[w] in adj2[u])
                for w in mapping
            )
            if not ok:
                continue
            mapping[v] = u
            used.add(u)
            if extend(idx + 1):
                return True
            del mapping[v]
            used.discard(u)
        return False

    if extend(0):
        return IsoCertificate(dict(mapping))
    return none

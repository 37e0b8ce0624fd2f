"""Seeded streams of distinct normal pseudomanifolds.

A stream position has a fixed shape (a base sphere and a number of
stackings), so every seed asks for the same sizes in the same order and the
work per run stays comparable.  The seed chooses the facets to stack on, the
vertex relabelling and the per-operation choices.  Each item carries the
h-vector tracked through the construction by polynomial arithmetic, which
is independent of the face counting the operations are checked against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from scx import (
    SimplicialComplex,
    cross_polytope_boundary,
    cycle,
    join,
    simplex_boundary,
    stack_over_facet,
)


def _cycle(m):
    return cycle(m), (1, m - 2, 1)


def _simplex_boundary(k):
    return simplex_boundary(k), (1,) * (k + 1)


def _cross(d):
    return cross_polytope_boundary(d), tuple(comb(d, i) for i in range(d + 1))


def _join(a, b):
    # the h-polynomial of a join is the product of the factors' h-polynomials
    (cx1, h1), (cx2, h2) = a, b
    h = [0] * (len(h1) + len(h2) - 1)
    for i, x in enumerate(h1):
        for j, y in enumerate(h2):
            h[i + j] += x * y
    return join(cx1, cx2), tuple(h)


#: Prime spheres of dimension 3 to 5; every one is a normal pseudomanifold.
BASES = {
    "bd4": lambda: _simplex_boundary(4),
    "bd5": lambda: _simplex_boundary(5),
    "bd6": lambda: _simplex_boundary(6),
    "cross4": lambda: _cross(4),
    "cross5": lambda: _cross(5),
    "c4*c4": lambda: _join(_cycle(4), _cycle(4)),
    "c4*c5": lambda: _join(_cycle(4), _cycle(5)),
    "c4*c6": lambda: _join(_cycle(4), _cycle(6)),
    "c5*c5": lambda: _join(_cycle(5), _cycle(5)),
    "c5*bd3": lambda: _join(_cycle(5), _simplex_boundary(3)),
    "c4*bd4": lambda: _join(_cycle(4), _simplex_boundary(4)),
    "c4*cross3": lambda: _join(_cycle(4), _cross(3)),
    "bd3*bd3": lambda: _join(_simplex_boundary(3), _simplex_boundary(3)),
}


@dataclass(frozen=True)
class Item:
    """One generated input and what its construction says about it."""

    name: str
    complex: SimplicialComplex
    h: tuple  # tracked h-vector h_0..h_d
    prime: bool  # stacking leaves a missing facet; the bases have none
    seed: int  # per-operation seed
    face: tuple  # seeded face of dimension > dim/2, for a central retriangulation
    perm: tuple  # seeded permutation of positions 0..f0, for an isomorphic copy

    @property
    def g(self) -> tuple:
        d = len(self.h) - 1
        return (1,) + tuple(self.h[i] - self.h[i - 1] for i in range(1, d // 2 + 1))


def _stack(cx, h, times, rng):
    # stacking a facet adds one vertex and raises h_1..h_{d-1} by one
    for _ in range(times):
        cx = stack_over_facet(cx, rng.choice(sorted(cx.facets, key=sorted)))
        h = (h[0],) + tuple(x + 1 for x in h[1:-1]) + (h[-1],)
    return cx, h


def _relabel(cx, rng):
    verts = sorted(cx.vertices)
    labels = dict(zip(verts, rng.sample(range(2 * len(verts)), len(verts))))
    return SimplicialComplex(frozenset(labels[v] for v in f) for f in cx.facets)


def _high_face(cx, rng) -> tuple:
    # a face of dimension k > dim/2, drawn from a facet so that no closure
    # is computed while the inputs are generated
    k = rng.choice(range(cx.dim // 2 + 1, cx.dim))
    facet = sorted(rng.choice(sorted(cx.facets, key=sorted)))
    return tuple(sorted(rng.sample(facet, k + 1)))


def stream(shapes, count: int, seed: int, salt: str) -> list:
    """``count`` distinct items; position i has shape ``shapes[i % len(shapes)]``."""
    rng = random.Random(f"{salt}:{seed}")
    seen = set()
    items = []
    for i in range(count):
        base, stackings = shapes[i % len(shapes)]
        cx, h = BASES[base]()
        cx, h = _stack(cx, h, stackings, rng)
        relabelled = _relabel(cx, rng)
        while relabelled.facets in seen:
            relabelled = _relabel(cx, rng)
        seen.add(relabelled.facets)
        n = len(relabelled.vertices)
        items.append(
            Item(
                name=f"{base}+{stackings}",
                complex=relabelled,
                h=h,
                prime=stackings == 0,
                seed=rng.randrange(2**31),
                face=_high_face(relabelled, rng),
                perm=tuple(rng.sample(range(n + 1), n + 1)),
            )
        )
    return items

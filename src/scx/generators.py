"""Deterministic constructors for the classical sphere families, a catalog
of desk-scale instances, and fixture ingestion.

Labelling conventions (so isomorphism tests have stable inputs): simplex
boundaries and cycles use labels 0..n-1; joins relabel their second factor
above the first; stacking introduces fresh labels in increasing order, each
pyramid built over the lexicographically largest facet created last.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from . import complexes
from .complexes import SimplicialComplex, _tuple_order, from_facets, join
from .errors import InternalCheckError, ParseError, PreconditionError, TooLargeError, _index
from .facevectors import f_vector, g2
from .fileio import _path, load_complex
from .homology import is_normal_pseudomanifold
from .retriangulate import central_retriangulation

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def _guard_closure(count: int, size: int):
    """Raise ``TooLargeError`` before ``count`` facets of ``size`` vertices are
    built if their closure bound, count * 2^size, is over ``CLOSURE_GUARD``."""
    guard = complexes.CLOSURE_GUARD
    if size > guard.bit_length() or count << size > guard:
        raise TooLargeError(f"closure bound {count} * 2^{size} exceeds the guard ({guard})")


def simplex_boundary(d: int) -> SimplicialComplex:
    """Boundary of the d-simplex on labels 0..d."""
    d = _index(d, "d")
    if d < 1:
        raise PreconditionError("simplex boundary needs d >= 1")
    _guard_closure(d + 1, d)
    return from_facets(itertools.combinations(range(d + 1), d))


def cycle(n: int) -> SimplicialComplex:
    """The n-cycle on labels 0..n-1."""
    n = _index(n, "n")
    if n < 3:
        raise PreconditionError("cycle needs n >= 3")
    _guard_closure(n, 2)
    return from_facets([(i, (i + 1) % n) for i in range(n)])


def suspension(cx: SimplicialComplex) -> SimplicialComplex:
    """Join with two new points (the second factor of the join is relabelled,
    so the poles get the two largest labels)."""
    return join(cx, simplex_boundary(1))


def stacked_sphere(d: int, n: int) -> SimplicialComplex:
    """Iterated connected sum of boundaries of d-simplices with n vertices.

    Each stacking step places a shallow pyramid over the facet most recently
    created (largest in lexicographic order among the previous step's new
    facets), so results are reproducible.  Each replaces facet masks as
    :func:`stack_over_facet` does, vertex w being bit w; no facet is labelled.
    """
    d, n = _index(d, "d"), _index(n, "n")
    if n < d + 1:
        raise PreconditionError("a stacked (d-1)-sphere needs at least d+1 vertices")
    facets = set(simplex_boundary(d)._masks[1])
    _guard_closure(d + 1 + (n - d - 1) * (d - 1), d)  # each step adds d - 1 facets
    new = [m for m in facets if m >> d]  # the facets through the last vertex
    for w in range(d + 1, n):
        cone = _tuple_order(new)[-1]
        new = [(cone ^ b) | 1 << w for b in complexes._bits(cone)]
        facets.remove(cone)
        facets.update(new)
    return SimplicialComplex._of_masks(range(n), facets)


def cross_polytope_boundary(d: int) -> SimplicialComplex:
    """d-fold join of two-point complexes: 2d vertices in antipodal pairs
    (2i, 2i+1), one facet per choice of a vertex from every pair."""
    d = _index(d, "d")
    if d < 1:
        raise PreconditionError("cross polytope needs d >= 1")
    _guard_closure(1, 2 * d)  # 2^d facets of d vertices
    pairs = [(2 * i, 2 * i + 1) for i in range(d)]
    return from_facets(itertools.product(*pairs))


def stacked_sphere_with_ridge(d: int, n: int):
    """A stacked (d-1)-sphere all of whose missing facets contain one fixed
    ridge: the boundary of (d-2-simplex) * (path on n-d+1 points).

    Returns (complex, ridge); the ridge is the simplex factor, on labels
    0..d-2, and the path uses labels d-1..n-1.
    """
    d, n = _index(d, "d"), _index(n, "n")
    if d < 1:
        raise PreconditionError("need d >= 1")
    if n < d + 1:
        raise PreconditionError("need n >= d + 1")
    _guard_closure(2 + (n - d) * (d - 1), d)
    ridge = tuple(range(d - 1))
    path = list(range(d - 1, n))
    facets = [ridge + (path[0],), ridge + (path[-1],)]
    for a, b in zip(path, path[1:]):
        for x in ridge:
            facets.append(tuple(v for v in ridge if v != x) + (a, b))
    return from_facets(facets), ridge


@dataclass
class CatalogEntry:
    name: str
    params: tuple
    complex: SimplicialComplex
    expected: dict = dc_field(default_factory=dict)
    tags: frozenset = frozenset()

    def verify_expected(self) -> "CatalogEntry":
        if "f_vector" in self.expected:
            got = list(f_vector(self.complex).entries)
            if got != list(self.expected["f_vector"]):
                raise InternalCheckError(
                    f"{self.name}: f-vector {got} != expected {self.expected['f_vector']}"
                )
        if "g2" in self.expected:
            got = g2(self.complex)
            if got != self.expected["g2"]:
                raise InternalCheckError(f"{self.name}: g2 {got} != expected {self.expected['g2']}")
        return self


def g2_one_family(d: int, variant: str, param: int) -> CatalogEntry:
    """The prime spheres with g2 = 1: joins of two simplex boundaries, and
    joins of a cycle with a simplex boundary."""
    d, param = _index(d, "d"), _index(param, "param")
    if variant == "join":
        i = param
        if not 2 <= i <= d - 2:
            raise PreconditionError(f"join variant needs 2 <= i <= {d - 2}")
        cx = join(simplex_boundary(i), simplex_boundary(d - i))
        name = f"join-sphere-d{d}-i{i}"
        tags = {"g2one", "g2one-join"}
    elif variant == "cycle":
        n = param
        if n < 4:
            raise PreconditionError("cycle variant needs n >= 4")
        if d < 4:
            raise PreconditionError("cycle variant needs d >= 4")
        cx = join(cycle(n), simplex_boundary(d - 2))
        name = f"cycle-join-sphere-d{d}-n{n}"
        tags = {"g2one", "g2one-cycle"}
    else:
        raise PreconditionError(f"unknown variant {variant!r}")
    return _plain_entry(name, (d, param), cx, 1, tags | {"sphere"})


def g2_two_catalog(d: int, kind: str, param: int | None = None) -> CatalogEntry:
    """The named g2 = 2 complexes: the triple join, suspensions of g2 = 1
    join spheres, the octahedral 3-sphere, and central retriangulations of
    cycle-join spheres along two adjacent facets."""
    d, param = _index(d, "d"), None if param is None else _index(param, "param")
    if param is not None and kind in ("triple_join", "octahedral"):
        raise PreconditionError(f"{kind} takes no PARAM, got {param!r}")
    if kind == "triple_join":
        if d < 5:
            raise PreconditionError("triple join needs d >= 5")
        cx = join(join(simplex_boundary(1), simplex_boundary(2)), simplex_boundary(d - 3))
        name = f"triple-join-sphere-d{d}"
        tags = {"g2two", "g2two-suspension"}
        params = (d,)
    elif kind == "suspension":
        i = param
        if i is None or not 2 <= i <= d - 3:
            raise PreconditionError(f"suspension variant needs PARAM i with 2 <= i <= {d - 3}")
        cx = suspension(join(simplex_boundary(i), simplex_boundary(d - 1 - i)))
        name = f"suspended-join-sphere-d{d}-i{i}"
        tags = {"g2two", "g2two-suspension"}
        params = (d, i)
    elif kind == "octahedral":
        if d != 4:
            raise PreconditionError("the octahedral 3-sphere lives at d = 4")
        cx = cross_polytope_boundary(4)
        name = "octahedral-3-sphere"
        tags = {"g2two", "g2two-octahedral"}
        params = (4,)
    elif kind == "crtr_ridge":
        n = param
        if d != 4 or n is None or n < 4:
            raise PreconditionError("crtr_ridge variant needs d = 4 and n >= 4")
        base = join(cycle(n), simplex_boundary(2))
        first = min(base.facets, key=sorted)
        ball = base.star(first - {max(first)})  # the two facets through a ridge of the first
        cx, _ = central_retriangulation(base, ball)
        name = f"crtr-two-facets-sphere-d4-n{n}"
        tags = {"g2two", "g2two-crtr"}
        params = (4, n)
    else:
        raise PreconditionError(f"unknown kind {kind!r}")
    return _plain_entry(name, params, cx, 2, tags | {"sphere"})


def load_fixture(path) -> CatalogEntry:
    """Read a ``.scx`` file plus its optional ``<stem>.meta.json`` sidecar
    (fields: name, f_vector, g2, tags) and verify the expectations."""
    path = _path(path)
    cx = load_complex(path)
    meta_path = path.with_suffix(".meta.json")
    expected = {}
    name = path.stem
    tags = {"fixture"}
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"{meta_path}: invalid JSON: {exc}") from exc
        name = meta.get("name", name)
        expected = {key: meta[key] for key in ("f_vector", "g2") if key in meta}
        tags |= set(meta.get("tags", ()))
    return CatalogEntry(name, (), cx, expected, frozenset(tags)).verify_expected()


def barnette_sphere() -> CatalogEntry:
    return load_fixture(FIXTURE_DIR / "barnette.scx")


def _plain_entry(name, params, cx, g2_expected, tags) -> CatalogEntry:
    entry = CatalogEntry(name, tuple(params), cx, {"g2": g2_expected}, frozenset(tags))
    return entry.verify_expected()


def standard_catalog(dmax: int = 6, f0max: int = 14, cycle_max: int = 8) -> list:
    """Every named family at desk scale, tagged; primality and the normal
    pseudomanifold property are computed once per entry here."""
    dmax, f0max, cycle_max = map(_index, (dmax, f0max, cycle_max), ("dmax", "f0max", "cycle_max"))
    entries = []
    for d in range(4, dmax + 1):
        entries.append(
            _plain_entry(
                f"boundary-simplex-{d}", (d,), simplex_boundary(d), 0,
                {"sphere", "stacked", "boundary"},
            )
        )
        for n in range(d + 2, min(12, f0max) + 1):
            entries.append(
                _plain_entry(
                    f"stacked-sphere-d{d}-n{n}", (d, n), stacked_sphere(d, n), 0,
                    {"sphere", "stacked"},
                )
            )
        for i in range(2, d - 1):
            entries.append(g2_one_family(d, "join", i))
        for n in range(4, cycle_max + 1):
            if n + d - 1 <= f0max:
                entries.append(g2_one_family(d, "cycle", n))
        if d == 4:
            entries.append(g2_two_catalog(4, "octahedral"))
            for n in range(4, min(6, cycle_max) + 1):
                entries.append(g2_two_catalog(4, "crtr_ridge", n))
        if d >= 5:
            entries.append(g2_two_catalog(d, "triple_join"))
            for i in range(3, d - 2):
                entries.append(g2_two_catalog(d, "suspension", i))
    entries.append(barnette_sphere())
    for entry in entries:
        if entry.complex.is_prime():
            entry.tags |= {"prime"}
        if is_normal_pseudomanifold(entry.complex):
            entry.tags |= {"normal-pm"}
    return entries

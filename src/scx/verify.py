"""Registered verification statements over the standard catalog.

Each statement id maps to a one-line claim (in this library's own words)
and a runner that generates bounded instances, checks the claim exactly on
each, and reports per-instance pass/fail with a witness string.  Instance
generation never consumes randomness, so two runs with different seeds may
differ only through the randomized rank computations, whose results are
stable by design; reports are therefore deterministic for a fixed scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

from .complexes import (
    SimplicialComplex,
    connected_sum,
    detect_join,
    is_simplex_boundary,
    join,
    stack_over_facet,
)
from .errors import MalformedInputError, PreconditionError, UnknownStatementError, _index
from .facevectors import (
    extended_g,
    g2,
    g3,
    is_m_sequence,
    link_g_sum,
    macaulay_pseudopower,
)
from .generators import (
    cycle,
    g2_one_family,
    g2_two_catalog,
    simplex_boundary,
    stacked_sphere,
    stacked_sphere_with_ridge,
    standard_catalog,
    suspension,
)
from .homology import (
    is_homology_sphere,
    is_normal_pseudomanifold,
    is_r_stacked_ball,
    skeleton_completion,
)
from .isomorphism import are_isomorphic
from .retriangulate import (
    central_retriangulation,
    crtr_missing_faces_check,
    inverse_stellar,
    swartz_all,
)
from .rigidity import (
    expected_pseudomanifold_rank,
    generic_rank_trials,
    link_monotonicity_check,
    skeleton_graph,
    stress_basis,
)


@dataclass
class Scale:
    """Instance-generation bounds; defaults are desk scale."""

    dmax: int = 6
    f0max: int = 14
    cycle_max: int = 8
    seed: int = 0
    trials: int = 3

    def __post_init__(self):
        for name, value in vars(self).items():
            setattr(self, name, _index(value, name))


@dataclass
class VerificationReport:
    statement: str
    claim: str
    instances: int
    passes: int
    failures: list = dc_field(default_factory=list)
    seconds: float = 0.0
    notes: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures and self.instances > 0

    def to_dict(self) -> dict:
        return {
            "statement": self.statement,
            "claim": self.claim,
            "instances": self.instances,
            "passes": self.passes,
            "failures": list(self.failures),
            "notes": list(self.notes),
            "seconds": round(self.seconds, 3),
        }

    def render(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        lines = [
            f"[{mark}] {self.statement}: {self.passes}/{self.instances} instances"
            f" ({self.seconds:.2f}s)",
            f"       {self.claim}",
        ]
        for failure in self.failures:
            lines.append(f"       failure: {failure}")
        for note in self.notes:
            lines.append(f"       note: {note}")
        return "\n".join(lines)


_CATALOG_MEMO: dict = {}  # the catalog of the last scale asked for, and no other


def catalog_for(scale: Scale) -> list:
    key = (scale.dmax, scale.f0max, scale.cycle_max)
    if key not in _CATALOG_MEMO:
        _CATALOG_MEMO.clear()
        _CATALOG_MEMO[key] = standard_catalog(*key)
    return _CATALOG_MEMO[key]


def _tagged(catalog, *tags):
    for entry in catalog:
        if all(t in entry.tags for t in tags):
            yield entry


# ---------------------------------------------------------------------------
# shared instance generators


def _central_balls(cx: SimplicialComplex):
    """Deterministic ball subcomplexes for central retriangulation: the star
    of the first face in each dimension above half, one pair of adjacent
    facets, and one path of three facets."""
    d = cx.dim
    for k in range(d // 2 + 1, d):
        face = cx.faces_of_dim(k)[0]
        yield f"star{tuple(sorted(face))}", cx.star(face)
    facets = sorted(cx.facets, key=sorted)
    first = facets[0]
    partner = next((f for f in facets[1:] if len(first & f) == len(first) - 1), None)
    if partner is not None:
        yield "pair", SimplicialComplex([first, partner])
        third = next(
            (
                f
                for f in facets
                if f not in (first, partner) and len(partner & f) == len(partner) - 1
            ),
            None,
        )
        if third is not None:
            yield "triple", SimplicialComplex([first, partner, third])


def _crtr_entries(catalog):
    for entry in _tagged(catalog, "normal-pm"):
        if len(entry.complex.vertices) <= 10 and entry.complex.dim >= 3:
            yield entry


# ---------------------------------------------------------------------------
# statement runners


def _run_link_g_sum(catalog, scale):
    for entry in catalog:
        if not entry.complex.is_pure():
            continue
        for k in (1, 2):
            lhs, rhs = link_g_sum(entry.complex, k)
            yield f"{entry.name}:k={k}", lhs == rhs, f"lhs={lhs} rhs={rhs}"


def _run_generic_rank(catalog, scale):
    for entry in _tagged(catalog, "normal-pm"):
        cx = entry.complex
        d = cx.dim + 1
        ranks = generic_rank_trials(
            skeleton_graph(cx), d, trials=scale.trials, seed=scale.seed
        )
        rank = max(ranks)
        expected = expected_pseudomanifold_rank(cx)
        kernel = cx.n_faces(1) - rank
        ok = rank == expected and kernel == g2(cx) and len(set(ranks)) == 1
        yield (
            entry.name,
            ok,
            f"rank={rank} expected={expected} kernel={kernel} g2={g2(cx)} trials={ranks}",
        )


def _run_stress_participation(catalog, scale):
    for entry in _tagged(catalog, "normal-pm", "prime"):
        cx = entry.complex
        if cx.dim < 3 or g2(cx) < 1:
            continue
        basis = stress_basis(cx, seed=scale.seed, trials=scale.trials)
        missing = sorted(v for v, p in basis.participation.items() if not p)
        ok = not missing and len(basis.vectors) == g2(cx)
        yield (
            entry.name,
            ok,
            f"basis={len(basis.vectors)} g2={g2(cx)} non-participating={missing}",
        )


def _run_link_monotonicity(catalog, scale):
    for entry in _tagged(catalog, "normal-pm"):
        if entry.complex.dim < 3:
            continue
        res = link_monotonicity_check(entry.complex)
        yield entry.name, res.ok, f"g2={res.g2_total} violations={res.violations}"


def _run_one_stacked_fill(catalog, scale):
    for entry in _tagged(catalog, "stacked"):
        cx = entry.complex
        if g2(cx) != 0:
            yield entry.name, False, f"stacked entry has g2={g2(cx)}"
            continue
        filled = skeleton_completion(cx, 1)
        try:
            cert = is_r_stacked_ball(filled, 1)
        except PreconditionError as exc:
            yield entry.name, False, f"fill is not a ball ({exc})"
            continue
        boundary_ok = cert.boundary == cx
        ok = boundary_ok and cert.ok
        yield (
            entry.name,
            ok,
            f"boundary-matches={boundary_ok} stackedness={cert.min_stackedness}",
        )


def _run_central_g_delta(catalog, scale):
    for entry in _crtr_entries(catalog):
        for label, ball in _central_balls(entry.complex):
            try:
                out, record = central_retriangulation(entry.complex, ball)
            except PreconditionError as exc:
                yield f"{entry.name}:{label}", False, f"precondition: {exc}"
                continue
            pm = is_normal_pseudomanifold(out)
            ok = record.prediction_holds() and bool(pm)
            yield (
                f"{entry.name}:{label}",
                ok,
                f"g {record.g_before}->{record.g_after} predicted {record.predicted}"
                f" pm={bool(pm)}",
            )


def _run_inverse_g_delta(catalog, scale):
    # undo central retriangulations and check the decrement arithmetic;
    # only star- and pair-based retriangulations are exactly undoable (a
    # three-facet ball need not equal the completion of its boundary)
    for entry in _crtr_entries(catalog):
        cx = entry.complex
        for label, ball in _central_balls(cx):
            if label == "triple":
                continue
            try:
                out, record = central_retriangulation(cx, ball)
                cone = record.new_vertices[0]
                back, undo = inverse_stellar(out, cone)
            except PreconditionError as exc:
                yield f"{entry.name}:{label}", False, f"precondition: {exc}"
                continue
            restored = back == cx
            iso_ok = bool(are_isomorphic(back, cx))
            ok = undo.prediction_holds() and restored and iso_ok
            yield (
                f"{entry.name}:{label}",
                ok,
                f"g {undo.g_before}->{undo.g_after} predicted {undo.predicted}"
                f" restored={restored} iso={iso_ok}",
            )
    # direct undo of the last stacking step
    for d in range(4, scale.dmax + 1):
        for n in (d + 2, d + 3):
            cx = stacked_sphere(d, n)
            out, record = inverse_stellar(cx, n - 1)
            ok = record.prediction_holds() and g2(out) == 0
            yield (
                f"unstack-d{d}-n{n}",
                ok,
                f"g {record.g_before}->{record.g_after} predicted {record.predicted}",
            )
    # prime g2=1 sphere with a stacked vertex link: removal lands at g2=0
    for entry in _tagged(catalog, "g2one-cycle"):
        cx = entry.complex
        out, record = inverse_stellar(cx, 0)
        ok = record.prediction_holds() and g2(out) == 0
        yield (
            f"{entry.name}:v0",
            ok,
            f"g {record.g_before}->{record.g_after} predicted {record.predicted}",
        )


def _run_star_properties(catalog, scale):
    # stars of high-dimensional faces are stacked balls, and the missing-face
    # bookkeeping identity holds for the induced central retriangulation
    count = 0
    for entry in _crtr_entries(catalog):
        cx = entry.complex
        d = cx.dim
        for i in range(d // 2 + 1, d):
            tau = cx.faces_of_dim(i)[0]
            cert = is_r_stacked_ball(cx.star(tau), d - i)
            stacked_ok = cert.ok and cert.min_stackedness == d - i
            yield (
                f"{entry.name}:star-dim{i}",
                stacked_ok,
                f"min-stackedness={cert.min_stackedness} expected={d - i}",
            )
            identity = crtr_missing_faces_check(cx, tau)
            yield (
                f"{entry.name}:missing-faces-dim{i}",
                bool(identity),
                identity.reason or "sides equal at every dimension",
            )
            count += 1
            if count >= 16:
                return


def _swartz_instances(scale):
    for d in range(4, scale.dmax + 1):
        for n in (4, 5):
            if n + d - 1 <= scale.f0max:
                yield (
                    f"cycle-join-d{d}-n{n}:v0",
                    join(cycle(n), simplex_boundary(d - 2)),
                    0,
                    1,
                )
    for n in (6, 7):
        base = stacked_sphere(3, n)
        yield f"suspended-stacked-2-sphere-n{n}:pole", suspension(base), n, n - 4
    if scale.dmax >= 5:
        base = stacked_sphere(4, 7)
        yield "suspended-stacked-3-sphere-n7:pole", suspension(base), 7, 2
    yield "octahedral-3-sphere:v0", g2_two_catalog(4, "octahedral").complex, 0, 0


def _run_swartz_bound(catalog, scale):
    for name, cx, vertex, expected_steps in _swartz_instances(scale):
        link = cx.link([vertex])
        eligible = [t for t in link.missing_faces(link.dim) if t not in cx]
        try:
            out, record = swartz_all(cx, vertex)
        except PreconditionError as exc:
            yield name, False, f"precondition: {exc}"
            continue
        drop = g2(cx) - g2(out)
        ok = (
            record.steps == expected_steps
            and record.steps == len(eligible)
            and drop == record.steps
            and g2(out) >= 0
            and g2(cx) >= record.steps
        )
        yield (
            name,
            ok,
            f"steps={record.steps} expected={expected_steps} eligible={len(eligible)}"
            f" g2 {g2(cx)}->{g2(out)}",
        )


def _run_few_vertex_join(catalog, scale):
    for entry in _tagged(catalog, "normal-pm"):
        cx = entry.complex
        if len(cx.vertices) != cx.dim + 3:
            continue
        part = detect_join(cx)
        if part is None:
            yield entry.name, False, "no join decomposition found"
            continue
        side_a, side_b = part
        ok = is_simplex_boundary(cx.restriction(side_a)) and is_simplex_boundary(
            cx.restriction(side_b)
        )
        yield entry.name, ok, f"partition sizes {len(side_a)}/{len(side_b)}"


def _g2_one_members(d: int, f0: int):
    """Members of the g2 = 1 family with a given vertex count, d >= 4."""
    members = []
    if f0 == d + 2:
        members += [g2_one_family(d, "join", i).complex for i in range(2, d - 1)]
    if f0 - d + 1 >= 4:
        members.append(g2_one_family(d, "cycle", f0 - d + 1).complex)
    return members


def _prime_crtr_cases(d: int, scale):
    """Central retriangulations of stacked (d-1)-spheres along face stars."""
    for n in (d + 1, d + 2, d + 3):
        if n > scale.f0max:
            continue
        if n == d + 1:
            cx = simplex_boundary(d)
            dims = range((d - 1) // 2 + 1, d - 1)
        else:
            cx, _ = stacked_sphere_with_ridge(d, n)
            dims = (d - 2,)
        for i in dims:
            for tau in cx.faces_of_dim(i)[:2]:
                yield f"stacked-d{d}-n{n}:star{tuple(sorted(tau))}", cx, tau


def _run_prime_crtr_classification(catalog, scale, dvals):
    for d in dvals:
        if d > scale.dmax:
            continue
        for name, cx, tau in _prime_crtr_cases(d, scale):
            try:
                out, _ = central_retriangulation(cx, cx.star(tau))
            except PreconditionError as exc:
                yield name, False, f"precondition: {exc}"
                continue
            if not out.is_prime() or g2(out) != 1:
                continue  # the classification only speaks about prime g2=1 outputs
            members = _g2_one_members(d, len(out.vertices))
            ok = any(are_isomorphic(out, member) for member in members)
            yield name, ok, f"f0={len(out.vertices)} candidates={len(members)}"


def _run_prime_crtr_d45(catalog, scale):
    yield from _run_prime_crtr_classification(catalog, scale, (4, 5))


def _run_prime_crtr_d56(catalog, scale):
    yield from _run_prime_crtr_classification(catalog, scale, (5, 6))
    # every catalog member of the family arises from such a retriangulation
    for entry in _tagged(catalog, "g2one"):
        d = entry.params[0]
        if d not in (5, 6) or d > scale.dmax:
            continue
        if "g2one-join" in entry.tags:
            i = entry.params[1]
            base = simplex_boundary(d)
            tau = base.faces_of_dim(i)[0]
        else:
            n = entry.params[1]
            base, ridge = stacked_sphere_with_ridge(d, n + d - 2)
            tau = frozenset(ridge)
        out, _ = central_retriangulation(base, base.star(tau))
        ok = bool(are_isomorphic(out, entry.complex))
        yield f"{entry.name}:reconstruction", ok, f"f0={len(out.vertices)}"


def _run_macaulay_bound(catalog, scale):
    for entry in _tagged(catalog, "normal-pm"):
        cx = entry.complex
        if cx.dim < 3:
            continue
        bound = macaulay_pseudopower(g2(cx), 2)
        ok = g3(cx) <= bound
        if g3(cx) >= 0:
            ok = ok and is_m_sequence((1, extended_g(cx)[1], g2(cx), g3(cx)))
        yield entry.name, ok, f"g2={g2(cx)} g3={g3(cx)} bound={bound}"


def _suspension_bases(d: int):
    """(target kind, suspension index or None, base join sphere, facet to star
    over) for each g2 = 2 target: the base joins the boundaries of the i- and
    (d-i)-simplices, i = 2 for the triple join and i = 3..d-3 for the
    suspensions."""
    cases = []
    for i in range(2, d - 2):
        base = join(simplex_boundary(i), simplex_boundary(d - i))
        tau = frozenset(range(i + 1, d + 1))  # a facet of the second factor
        cases.append(("triple_join", None, base, tau) if i == 2 else ("suspension", i, base, tau))
    return cases


def _run_g2_two_construction(catalog, scale):
    for d in (5, 6):
        if d > scale.dmax:
            continue
        for kind, i, base, tau in _suspension_bases(d):
            entry = g2_two_catalog(d, kind, i)
            if g2(base) > 1:
                yield f"{entry.name}:base", False, f"base has g2={g2(base)}"
                continue
            out, record = central_retriangulation(base, base.star(tau))
            sphere = is_homology_sphere(entry.complex)
            ok = (
                bool(are_isomorphic(out, entry.complex))
                and g2(out) == 2
                and out.is_prime()
                and record.prediction_holds()
                and bool(sphere)
            )
            yield (
                f"{entry.name}:crtr-of-join",
                ok,
                f"g {record.g_before}->{record.g_after} sphere={bool(sphere)}",
            )


def _run_g2_two_dim3(catalog, scale):
    for entry in _tagged(catalog, "g2two-octahedral"):
        sphere = is_homology_sphere(entry.complex)
        ok = bool(sphere) and g2(entry.complex) == 2 and entry.complex.is_prime()
        yield (
            f"{entry.name}:exception",
            ok,
            "registered exception: not produced by a central retriangulation",
        )
    for entry in _tagged(catalog, "g2two-crtr"):
        n = entry.params[1]
        base = join(cycle(n), simplex_boundary(2))
        sphere = is_homology_sphere(entry.complex)
        ok = (
            g2(base) == 1
            and bool(is_homology_sphere(base))
            and entry.complex.is_prime()
            and g2(entry.complex) == 2
            and bool(sphere)
            and bool(is_normal_pseudomanifold(entry.complex))
        )
        yield (
            f"{entry.name}:crtr-of-g2one",
            ok,
            f"base g2={g2(base)} output g2={g2(entry.complex)} sphere={bool(sphere)}",
        )


def _run_sum_and_stacking_closure(catalog, scale):
    for d in range(4, scale.dmax + 1):
        left = join(simplex_boundary(2), simplex_boundary(d - 2))
        right = join(cycle(4), simplex_boundary(d - 2))
        if len(left.vertices) + len(right.vertices) - d > scale.f0max:
            continue
        summed = connected_sum(
            left,
            min(left.facets, key=sorted),
            right,
            min(right.facets, key=sorted),
        )
        sphere = is_homology_sphere(summed)
        ok = g2(summed) == 2 and bool(sphere)
        yield f"sum-of-two-g2one-d{d}", ok, f"g2={g2(summed)} sphere={bool(sphere)}"
    for entry in _tagged(catalog, "g2two"):
        cx = entry.complex
        if len(cx.vertices) > 9:
            continue
        stacked = stack_over_facet(cx, min(cx.facets, key=sorted))
        sphere = is_homology_sphere(stacked)
        ok = g2(stacked) == 2 and bool(sphere)
        yield f"{entry.name}:stacked", ok, f"g2={g2(stacked)} sphere={bool(sphere)}"


_REGISTRY = {
    "Lemma2.2": (
        "summing g_k over all vertex links of a pure complex equals "
        "(k+1) g_{k+1} + (d+1-k) g_k, for k = 1, 2",
        _run_link_g_sum,
    ),
    "Lemma2.4": (
        "skeleta of normal pseudomanifolds attain generic rank d*f0 - C(d+1,2), "
        "and the left-kernel dimension of the rigidity matrix equals g2",
        _run_generic_rank,
    ),
    "Lemma2.5": (
        "in a prime normal pseudomanifold with g2 >= 1 (dim >= 3), every vertex "
        "participates in the generic stress basis",
        _run_stress_participation,
    ),
    "Lemma2.6": (
        "g2 of every vertex link is at most g2 of the complex",
        _run_link_monotonicity,
    ),
    "Theorem2.3": (
        "a g2 = 0 sphere equals the boundary of its 1-stacked clique fill, "
        "which is a homology ball",
        _run_one_stacked_fill,
    ),
    "Lemma3.3": (
        "central retriangulation along a stacked ball adds the boundary's "
        "g-vector: g_i(out) = g_i + g_{i-1}(boundary)",
        _run_central_g_delta,
    ),
    "Lemma3.4": (
        "stars of i-faces (i > d/2) are (d-i)-stacked homology balls, and the "
        "missing-face bookkeeping identity holds for star retriangulations",
        _run_star_properties,
    ),
    "Lemma3.6": (
        "inverse stellar retriangulation subtracts the link's g-vector "
        "(g_i(out) = g_i - g_{i-1}(link)) and undoes the central one exactly",
        _run_inverse_g_delta,
    ),
    "Lemma3.8": (
        "iterating the vertex split over all k insertable missing facets of a "
        "sphere link drops g2 by exactly k, so g2 >= k",
        _run_swartz_bound,
    ),
    "Lemma4.1": (
        "a normal pseudomanifold on d+2 vertices is the join of two simplex "
        "boundaries",
        _run_few_vertex_join,
    ),
    "Prop4.2": (
        "a prime g2 = 1 central retriangulation of a stacked sphere along a "
        "face star is a join sphere or a cycle join",
        _run_prime_crtr_d45,
    ),
    "Lemma4.4": (
        "g3 is at most the Macaulay pseudopower g2^<2>, and (1, g1, g2, g3) is "
        "an M-sequence when g3 >= 0",
        _run_macaulay_bound,
    ),
    "Theorem4.5": (
        "prime g2 = 1 spheres at d = 5, 6 arise as central retriangulations of "
        "stacked spheres along face stars, and land in the named family",
        _run_prime_crtr_d56,
    ),
    "Theorem5.4": (
        "each prime g2 = 2 catalog entry at d = 5, 6 is a central "
        "retriangulation of a polytopal sphere with g2 <= 1 along a stacked "
        "subcomplex",
        _run_g2_two_construction,
    ),
    "Theorem5.5": (
        "prime g2 = 2 homology 3-manifolds: the octahedral 3-sphere (flagged "
        "exception) or central retriangulations of g2 = 1 spheres along two "
        "adjacent facets",
        _run_g2_two_dim3,
    ),
    "Corollary5.6": (
        "connected sums of two g2 = 1 spheres and stackings of g2 = 2 entries "
        "again have g2 = 2 and stay homology spheres",
        _run_sum_and_stacking_closure,
    ),
}


def statement_ids() -> list:
    return list(_REGISTRY)


def run_statement(statement: str, scale: Scale | None = None) -> VerificationReport:
    if not isinstance(statement, str) or statement not in _REGISTRY:
        raise UnknownStatementError(
            f"unknown statement {statement!r}; known: {', '.join(_REGISTRY)}"
        )
    if scale is None:
        scale = Scale()
    elif not isinstance(scale, Scale):
        raise MalformedInputError(f"expected a Scale, got {scale!r}")
    claim, runner = _REGISTRY[statement]
    catalog = catalog_for(scale)
    start = time.perf_counter()
    results = list(runner(catalog, scale))
    seconds = time.perf_counter() - start
    failures = [f"{name}: {detail}" for name, ok, detail in results if not ok]
    return VerificationReport(
        statement=statement, claim=claim, instances=len(results),
        passes=len(results) - len(failures), failures=failures, seconds=seconds,
    )


def run_all(scale: Scale | None = None) -> list:
    """Every statement in registry order; ``run_statement`` checks ``scale``."""
    return [run_statement(sid, scale) for sid in _REGISTRY]

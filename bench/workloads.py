"""The three benchmark workloads: set-up, a closed timed loop, and the
correctness gate of each operation.

Each workload's ``prepare(seed, seconds)`` is the set-up (it runs after
``import scx``); ``run(inputs, meter)`` is the timed phase and returns an
:class:`Outcome` of raw timings.  Between operations, and outside their
timings, the :class:`probe.SpeedMeter` measures the host's speed.  Operations that raise ``ScxError`` or ``AssertionError``
(today's certificates raise the latter) count as failed and the loop goes
on with the next one.  The program only ever sees the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import scx
from scx import verify
from scx.errors import PreconditionError, ScxError, TooLargeError

import streams


@dataclass
class Outcome:
    wall_s: float
    op_s: list  # seconds of each operation, in order
    op_end: list  # perf_counter() at the end of each operation
    attempted: int
    failed: int
    errors: Counter = field(default_factory=Counter)
    statement_s: dict = field(default_factory=dict)  # summed instance seconds
    digests: dict = field(default_factory=dict)  # statement -> report digest
    catalog_s: float = 0.0


def _count_error(errors: Counter, exc: Exception):
    if isinstance(exc, TooLargeError):
        errors["too_large"] += 1
    elif isinstance(exc, PreconditionError):
        errors["precondition"] += 1


def _closed_loop(items, operate, check, meter) -> Outcome:
    """One caller: the next operation starts after the previous one returns."""
    op_s, op_end, failed, errors = [], [], 0, Counter()
    spent = meter.spent
    start = perf_counter()
    for item in items:
        t0 = perf_counter()
        try:
            result = operate(item)
        except (ScxError, AssertionError) as exc:
            _count_error(errors, exc)
            result = None
        op_end.append(perf_counter())
        op_s.append(op_end[-1] - t0)
        if result is None or not check(item, result):
            failed += 1
        meter.tick()
    wall_s = perf_counter() - start - (meter.spent - spent)
    return Outcome(wall_s, op_s, op_end, len(items), failed, errors)


def _op_count(seconds: int, shapes, cycle_s: float) -> int:
    """Whole cycles of the size mix: about ``seconds`` of work at the seed
    commit, and never fewer than 100 operations, so that ten lie beyond p90."""
    cycles = max(math.ceil(100 / len(shapes)), round(seconds / cycle_s))
    return cycles * len(shapes)


# ---------------------------------------------------------------------------
# verify-default: run_all(Scale(seed=seed)) at the default scale

#: sha256 prefix of each report's JSON without "seconds", at Scale() with
#: dmax=6, f0max=14, cycle_max=8, trials=3.  Instance generation ignores the
#: seed, so the same digests hold for every seed.
VERIFY_DIGESTS = {
    "Lemma2.2": "a22cf067c1ca2335",
    "Lemma2.4": "7441a6224d8ab93a",
    "Lemma2.5": "b80da8ea7c76de65",
    "Lemma2.6": "a4d3e18324269b28",
    "Theorem2.3": "2040c537203d501e",
    "Lemma3.3": "15cfc79508074c23",
    "Lemma3.4": "aeb1ef5cd2e26a29",
    "Lemma3.6": "a14ec6913bf3daf6",
    "Lemma3.8": "dedec2c388c1c03c",
    "Lemma4.1": "172e5ba8f41b8906",
    "Prop4.2": "cec269431dafa08a",
    "Lemma4.4": "e1c4ed50f3552e78",
    "Theorem4.5": "39669aea28560260",
    "Theorem5.4": "c88092835a34e864",
    "Theorem5.5": "264055b21663de64",
    "Corollary5.6": "5f36e7b85330bec4",
}


def _report_digest(report) -> str:
    body = {k: v for k, v in report.to_dict().items() if k != "seconds"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:16]


def _timed_runner(runner, op_s, op_end, errors, meter):
    """Yield the runner's instances, recording the time of each; an
    exception ends the statement with one failed instance instead of
    aborting run_all."""

    def timed(catalog, scale):
        instances = runner(catalog, scale)
        while True:
            t0 = perf_counter()
            try:
                instance = next(instances)
            except StopIteration:
                return
            except (ScxError, AssertionError) as exc:
                _count_error(errors, exc)
                # a generator that raised is finished: report one failed
                # instance and end the statement there
                instance = "raised", False, f"{type(exc).__name__}: {exc}"
                instances = iter(())
            op_end.append(perf_counter())
            op_s.append(op_end[-1] - t0)
            meter.tick()
            yield instance

    return timed


class VerifyDefault:
    name = "verify-default"

    @staticmethod
    def prepare(seed, seconds):
        scale = verify.Scale(seed=seed)
        t0 = perf_counter()
        verify.catalog_for(scale)
        return scale, perf_counter() - t0

    @staticmethod
    def run(inputs, meter) -> Outcome:
        scale, catalog_s = inputs
        registry = dict(verify._REGISTRY)
        times, op_end, errors = {sid: [] for sid in registry}, [], Counter()
        for sid, (claim, runner) in registry.items():
            timed = _timed_runner(runner, times[sid], op_end, errors, meter)
            verify._REGISTRY[sid] = (claim, timed)
        try:
            spent = meter.spent
            start = perf_counter()
            reports = scx.run_all(scale)
            wall_s = perf_counter() - start - (meter.spent - spent)
        finally:
            verify._REGISTRY.update(registry)
        digests = {r.statement: _report_digest(r) for r in reports}
        failed = 0
        for report in reports:
            failed += report.instances - report.passes
            if digests[report.statement] != VERIFY_DIGESTS.get(report.statement):
                failed += report.passes  # every instance of a changed report
        failed += len(VERIFY_DIGESTS.keys() - digests.keys())  # a statement went missing
        return Outcome(
            wall_s,
            [t for sid in times for t in times[sid]],  # run in registry order
            op_end,
            sum(r.instances for r in reports),
            failed,
            errors,
            {sid: sum(ts) for sid, ts in times.items()},
            digests,
            catalog_s,
        )


# ---------------------------------------------------------------------------
# rigidity-stress: g2 by rigidity, stress basis, participation

#: (base, stackings) by stream position: dimensions 3-5, 8-12 vertices,
#: g2 0-5; the stacked ones are not prime.  The mix has an odd length and
#: its heaviest shape three times, so that p50 and p90 fall inside a group
#: of equal shapes rather than on the jump between two.  The heaviest shape
#: is unstacked: the cost of a heavily stacked complex varies by about 20%
#: with the facets the seed stacks on, which would move p90 from seed to seed.
RIGIDITY_SHAPES = (
    ("cross4", 0),
    ("c4*c5", 0),
    ("bd4", 5),
    ("c5*c5", 0),
    ("bd3*bd3", 0),
    ("c5*bd3", 0),
    ("bd5", 3),
    ("c4*c6", 0),
    ("c4*bd4", 0),
    ("c4*c4", 4),
    ("cross5", 0),
    ("cross5", 0),
    ("cross5", 0),
)
RIGIDITY_CYCLE_S = 3.4


def _rigidity_op(item):
    cx = item.complex
    g2_rigidity = scx.g2_via_rigidity(cx, seed=item.seed)
    basis = scx.stress_basis(cx, seed=item.seed)
    return g2_rigidity, scx.g2(cx), basis


def _rigidity_check(item, result) -> bool:
    g2_rigidity, g2_faces, basis = result
    cx = item.complex
    tracked = item.g[2]
    if not g2_rigidity == g2_faces == len(basis.vectors) == tracked:
        return False
    if set(basis.participation) != cx.vertices:
        return False
    if item.prime and tracked >= 1 and cx.dim >= 3:
        return all(basis.participation.values())
    return True


class RigidityStress:
    name = "rigidity-stress"

    @staticmethod
    def prepare(seed, seconds):
        count = _op_count(seconds, RIGIDITY_SHAPES, RIGIDITY_CYCLE_S)
        return streams.stream(RIGIDITY_SHAPES, count, seed, "rigidity")

    @staticmethod
    def run(items, meter) -> Outcome:
        return _closed_loop(items, _rigidity_op, _rigidity_check, meter)


# ---------------------------------------------------------------------------
# classify-distinct: text round trip, `scx info`, `scx op crtr`, isomorphism

#: dimensions 3-5, 9-14 vertices; at most 15 so that the retriangulated
#: complex stays within the isomorphism guard of 16 vertices.  Odd length,
#: heaviest shape twice, as for rigidity-stress.
CLASSIFY_SHAPES = (
    ("c4*c4", 2),
    ("c4*c5", 4),
    ("c5*c5", 0),
    ("bd4", 7),
    ("c5*bd3", 3),
    ("cross5", 0),
    ("bd5", 6),
    ("c4*cross3", 2),
    ("bd3*bd3", 1),
    ("c4*bd4", 1),
    ("bd6", 3),
    ("c4*c4", 6),
    ("c4*bd4", 1),
)
CLASSIFY_CYCLE_S = 2.6


def _permuted(cx, perm):
    verts = sorted(cx.vertices)
    to = {v: verts[p] for v, p in zip(verts, perm)}
    return scx.SimplicialComplex(frozenset(to[v] for v in f) for f in cx.facets)


def _classify_op(item):
    text = scx.write_scx_text(item.complex)
    cx = scx.read_scx_text(text)
    info = (
        scx.f_vector(cx),
        scx.h_vector(cx),
        scx.g_vector(cx),
        cx.is_prime(),
        scx.is_normal_pseudomanifold(cx),
        scx.is_homology_manifold(cx),
        scx.is_homology_sphere(cx),
    )
    out, record = scx.central_retriangulation(cx, cx.star(item.face))
    copy = _permuted(out, item.perm)
    return text, cx, info, out, record, copy, scx.are_isomorphic(out, copy)


def _maps_facets_onto_facets(mapping, src, dst) -> bool:
    if mapping is None or set(mapping) != src.vertices:
        return False
    if set(mapping.values()) != dst.vertices:
        return False
    return {frozenset(mapping[v] for v in f) for f in src.facets} == dst.facets


def _classify_check(item, result) -> bool:
    text, cx, info, out, record, copy, cert = result
    f, h, g, prime, pm, manifold, sphere = info
    return (
        cx == item.complex
        and scx.write_scx_text(cx) == text
        and f[0] == len(item.complex.vertices)
        and h.entries == item.h
        and g.entries == item.g
        and prime == item.prime
        and bool(pm)
        and bool(manifold)
        and bool(sphere)
        and record.prediction_holds()
        and _maps_facets_onto_facets(cert.mapping, out, copy)
    )


class ClassifyDistinct:
    name = "classify-distinct"

    @staticmethod
    def prepare(seed, seconds):
        count = _op_count(seconds, CLASSIFY_SHAPES, CLASSIFY_CYCLE_S)
        return streams.stream(CLASSIFY_SHAPES, count, seed, "classify")

    @staticmethod
    def run(items, meter) -> Outcome:
        return _closed_loop(items, _classify_op, _classify_check, meter)


WORKLOADS = {w.name: w for w in (VerifyDefault, RigidityStress, ClassifyDistinct)}

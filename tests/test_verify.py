import ast
import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from scx import (
    FVector,
    InternalCheckError,
    PreconditionError,
    PredicateResult,
    Scale,
    UnknownStatementError,
    facevectors,
    g2,
    homology,
    retriangulate,
    rigidity,
    run_all,
    run_statement,
    statement_ids,
)
from scx import verify

WORKLOADS = Path(__file__).parents[1] / "bench" / "workloads.py"


def test_registry_contents():
    ids = statement_ids()
    assert "Lemma2.2" in ids and "Theorem5.5" in ids and "Corollary5.6" in ids
    assert len(ids) == 16


def test_unknown_statement():
    with pytest.raises(UnknownStatementError):
        run_statement("Lemma9.9")
    # an unhashable id raised TypeError from the registry lookup
    with pytest.raises(UnknownStatementError):
        run_statement([])


def test_cheap_statements_pass():
    scale = Scale(dmax=5, f0max=9, cycle_max=5)
    for sid in ("Lemma2.2", "Lemma2.6", "Lemma4.1", "Lemma4.4"):
        rep = run_statement(sid, scale)
        assert rep.passed, rep.failures
        assert rep.instances > 0


def test_report_shape_and_rendering():
    rep = run_statement("Lemma4.4", Scale(dmax=4, f0max=9, cycle_max=5))
    text = rep.render()
    assert text.startswith("[PASS] Lemma4.4")
    assert rep.claim in text
    payload = json.loads(json.dumps(rep.to_dict()))
    assert payload["statement"] == "Lemma4.4"
    assert payload["passes"] == payload["instances"]


def test_seed_does_not_change_outcomes():
    reps = [
        run_statement("Lemma2.4", Scale(dmax=4, f0max=8, cycle_max=4, seed=seed))
        for seed in (7, 8)
    ]
    summaries = [(r.instances, r.passes, tuple(r.failures)) for r in reps]
    assert summaries[0] == summaries[1]


def test_scale_restricts_instances():
    small = run_statement("Lemma2.2", Scale(dmax=4, f0max=8, cycle_max=4))
    full = run_statement("Lemma2.2", Scale())
    assert small.instances < full.instances


def test_theorem_2_3_analyses_each_fill_once(monkeypatch):
    # the catalog is built first: its construction analyses balls of its own
    scale = Scale(dmax=5, f0max=9, cycle_max=5)
    verify.catalog_for(scale)
    passes = []
    original = homology._ball_analysis
    monkeypatch.setattr(
        homology, "_ball_analysis", lambda *args: passes.append(1) or original(*args)
    )
    rep = run_statement("Theorem2.3", scale)
    assert rep.passed, rep.failures
    assert rep.instances > 0
    assert len(passes) == rep.instances


def test_theorem_2_3_reports_a_fill_that_is_not_a_ball(monkeypatch):
    monkeypatch.setattr(verify, "skeleton_completion", lambda cx, i: cx)  # a sphere
    rep = run_statement("Theorem2.3", Scale(dmax=4, f0max=8, cycle_max=4))
    assert len(rep.failures) == rep.instances > 0
    assert all(
        f.endswith(": fill is not a ball (not a homology ball: complex does not have"
                   " ball homology (witness ())) [failed: ball]")
        for f in rep.failures
    )


def test_the_catalog_memo_keeps_the_last_scale_only(monkeypatch):
    monkeypatch.setattr(verify, "_CATALOG_MEMO", {})
    small = Scale(dmax=4, f0max=8, cycle_max=4)
    first = verify.catalog_for(small)
    assert verify.catalog_for(Scale(dmax=4, f0max=8, cycle_max=4, seed=5)) is first  # a hit
    verify.catalog_for(Scale(dmax=3, f0max=7, cycle_max=4))
    assert list(verify._CATALOG_MEMO) == [(3, 7, 4)]
    assert verify.catalog_for(small) is not first
    assert list(verify._CATALOG_MEMO) == [(4, 8, 4)]


def _pinned_digests():
    """The report digests of ``run_all()`` at ``Scale()``, ``seconds`` left
    out, as the benchmark's ``VERIFY_DIGESTS`` table pins them."""
    (table,) = [
        node.value
        for node in ast.parse(WORKLOADS.read_text()).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "VERIFY_DIGESTS"
    ]
    return ast.literal_eval(table)


def _digest(report):
    body = {k: v for k, v in report.to_dict().items() if k != "seconds"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:16]


def _run_all_with_a_plant(statement):
    """The reports of ``run_all()`` by statement, after checking that the
    planted statement alone fails and every other keeps its digest."""
    reports = {rep.statement: rep for rep in run_all()}
    changed = {sid for sid, digest in _pinned_digests().items() if _digest(reports[sid]) != digest}
    assert changed == {statement}
    assert [sid for sid, rep in reports.items() if not rep.passed] == [statement]
    return reports


def _entry_name(cx):
    (name,) = [entry.name for entry in verify.catalog_for(Scale()) if entry.complex is cx]
    return name


def test_lemma_3_3_reports_a_prediction_that_is_off_by_one(monkeypatch):
    original, planted = verify.central_retriangulation, []

    def off_by_one(cx, ball, *args, **kwargs):
        out, record = original(cx, ball, *args, **kwargs)
        if not planted and record.predicted:  # the first record that predicts anything
            (i, value), *rest = record.predicted
            record = dataclasses.replace(record, predicted=((i, value + 1), *rest))
            planted.append((cx, ball, record))
        return out, record

    monkeypatch.setattr(verify, "central_retriangulation", off_by_one)
    reports = _run_all_with_a_plant("Lemma3.3")
    ((cx, ball, record),) = planted
    # the first label of that ball: a triangle's star in a 3-sphere is also its "pair"
    label = next(label for label, other in verify._central_balls(cx) if other == ball)
    (failure,) = reports["Lemma3.3"].failures
    assert failure.startswith(f"{_entry_name(cx)}:{label}: ")
    assert f"predicted {record.predicted} " in failure


def test_lemma_4_1_reports_a_split_that_is_not_a_join(monkeypatch):
    original, planted = verify.detect_join, []

    def one_vertex_across(cx):
        part = original(cx)
        if not planted and part:  # side a keeps a simplex, not its boundary
            (first, *a), b = part
            part = (tuple(a), (first, *b))
            planted.append((cx, part))
        return part

    monkeypatch.setattr(verify, "detect_join", one_vertex_across)
    reports = _run_all_with_a_plant("Lemma4.1")
    ((cx, (a, b)),) = planted
    # both sides are judged: the side that lost a vertex is no simplex
    # boundary either, and a failure names every check that broke
    assert reports["Lemma4.1"].failures == [
        f"{_entry_name(cx)}: partition sizes {len(a)}/{len(b)} [failed: first_side, second_side]"
    ]


def test_lemma_2_5_refuses_a_stress_with_one_entry_changed(monkeypatch):
    original = rigidity._stresses

    def changed(g, emb):
        (first, *rest) = original(g, emb)
        return ((first[0] + 1, *first[1:]), *rest)

    monkeypatch.setattr(rigidity, "_stresses", changed)
    with pytest.raises(InternalCheckError, match="violates vertex equilibrium"):
        run_statement("Lemma2.5")


def _plant(monkeypatch, statement, target, attr, fake):
    """Run ``statement``, and no other statement, with ``target.attr`` swapped
    for ``fake(original, reached)``.  The fake appends None to ``reached``
    when it plants its defect; the name of the runner's next instance, the
    planted one, takes its place."""
    claim, runner = verify._REGISTRY[statement]
    reached = []
    planted = fake(getattr(target, attr), reached)

    def run(catalog, scale):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(target, attr, planted)
            for name, ok, detail in runner(catalog, scale):
                if None in reached:
                    reached[reached.index(None)] = name
                yield name, ok, detail

    monkeypatch.setitem(verify._REGISTRY, statement, (claim, run))
    return reached


def _first_call(alter):
    """A fake whose first call returns ``alter(original, *args, **kwargs)``,
    planted."""

    def fake(original, reached):
        def call(*args, **kwargs):
            if reached:
                return original(*args, **kwargs)
            reached.append(None)
            return alter(original, *args, **kwargs)

        return call

    return fake


def _refused(original, *args):
    raise PreconditionError("planted refusal")


def _link_g2_above_the_total(original, cx):
    # the first vertex link gains edges until its g2 is one above the complex's
    links = dict(original(cx))
    v = min(links)
    f = FVector(links[v])
    entries = list(f.entries)
    entries[2] += g2(cx) + 1 - facevectors._g2(f[0], f[1], f.d)
    links[v] = tuple(entries)
    return links


def _undo_off_by_one(original, cx, v):
    out, record = original(cx, v)
    (i, value), *rest = record.predicted
    return out, dataclasses.replace(record, predicted=((i, value + 1), *rest))


def _isomorphism_withheld(original, reached):
    # every candidate of the first instance that asks is refused
    withheld = []

    def call(a, b):
        if not reached:
            reached.append(None)
            withheld.append(a)
        return None if a is withheld[0] else original(a, b)

    return call


def _lhs_one_above(original, cx, k):
    lhs, rhs = original(cx, k)
    return lhs + 1, rhs


def _tau_among_the_missing_vertices(original, cx, tau, dims):
    # the right side of the first dimension, k = 0, gains tau itself
    (k, lhs, rhs), *rest = original(cx, tau, dims)
    return iter([(k, lhs, rhs | {frozenset(tau)}), *rest])


def _ranks_one_short(original, *args, **kwargs):
    # every trial's rank one below the generic rank, so the left kernel one above g2
    return [rank - 1 for rank in original(*args, **kwargs)]


def _not_a_sphere(original, cx):
    return PredicateResult(False, (), "planted")


#: statement -> the checks that its instances name at ``Scale()``, in the
#: order they are first named
CHECKS = {
    "Lemma2.2": ("sums",),
    "Lemma2.4": ("rank", "kernel", "trials_agree"),
    "Lemma2.5": ("participation", "basis"),
    "Lemma2.6": ("monotone",),
    "Theorem2.3": ("boundary", "stacked"),
    "Lemma3.3": ("prediction", "normal_pm"),
    "Lemma3.4": ("stacked", "least", "identity"),
    "Lemma3.6": ("prediction", "restored", "isomorphic", "stacked"),
    "Lemma3.8": ("steps", "eligible", "drop", "nonnegative", "bound"),
    "Lemma4.1": ("first_side", "second_side"),
    "Prop4.2": ("in_family",),
    "Lemma4.4": ("macaulay", "m_sequence"),
    "Theorem4.5": ("in_family", "isomorphic"),
    "Theorem5.4": ("isomorphic", "g2", "prime", "prediction", "sphere"),
    "Theorem5.5": ("sphere", "g2", "prime", "base_g2", "base_sphere", "normal_pm"),
    "Corollary5.6": ("g2", "sphere"),
}


def test_every_instance_is_judged_by_one_rule(monkeypatch):
    # each instance of run_all() goes through verify._judged once, and the
    # (statement, check) names it is given are the ones CHECKS lists
    judged, running, original = [], [], verify._judged

    def recording(name, detail, **checks):
        judged.append((running[-1], tuple(checks)))
        return original(name, detail, **checks)

    for sid, (claim, runner) in list(verify._REGISTRY.items()):
        def run(catalog, scale, sid=sid, runner=runner):
            running.append(sid)
            yield from runner(catalog, scale)

        monkeypatch.setitem(verify._REGISTRY, sid, (claim, run))
    monkeypatch.setattr(verify, "_judged", recording)
    reports = run_all()
    assert all(rep.passed for rep in reports)
    assert len(judged) == sum(rep.instances for rep in reports) == 633
    for rep in reports:
        assert sum(sid == rep.statement for sid, _ in judged) == rep.instances
    named = {}
    for sid, checks in judged:
        named.setdefault(sid, {}).update(dict.fromkeys(checks))
    assert {sid: tuple(checks) for sid, checks in named.items()} == CHECKS
    assert sum(map(len, CHECKS.values())) == 43


def _first_vertex_left_out(original, *args, **kwargs):
    basis = original(*args, **kwargs)
    v = min(basis.participation)
    return dataclasses.replace(basis, participation={**basis.participation, v: False})


#: statement -> (module, name, fake, the planted instance's failure detail)
PLANTS = {
    "Lemma2.2": (verify, "link_g_sum", _first_call(_lhs_one_above), "lhs=1 rhs=0 [failed: sums]"),
    "Lemma2.4": (verify, "generic_rank_trials", _first_call(_ranks_one_short),
                 "rank=9 expected=10 kernel=1 g2=0 trials=[9, 9, 9] [failed: rank, kernel]"),
    "Lemma2.5": (verify, "stress_basis", _first_call(_first_vertex_left_out),
                 "basis=1 g2=1 non-participating=[0] [failed: participation]"),
    "Lemma2.6": (rigidity, "_link_f_vectors", _first_call(_link_g2_above_the_total),
                 "g2=0 violations=((0, 1),) [failed: monotone]"),
    "Lemma3.3": (verify, "central_retriangulation", _first_call(_refused),
                 "precondition: planted refusal [failed: precondition]"),
    "Lemma3.4": (retriangulate, "_identity_sides", _first_call(_tau_among_the_missing_vertices),
                 "sides differ at dimension 0 [failed: identity]"),
    "Lemma3.6": (verify, "inverse_stellar", _first_call(_undo_off_by_one),
                 "g (1, 1, 1)->(1, 0, 0) predicted ((1, 1), (2, 0)) [failed: prediction]"),
    "Lemma3.8": (verify, "swartz_all", _first_call(_refused),
                 "precondition: planted refusal [failed: precondition]"),
    "Lemma4.1": (verify, "detect_join", _first_call(lambda original, cx: None),
                 "no join decomposition found [failed: join]"),
    "Prop4.2": (verify, "are_isomorphic", _isomorphism_withheld,
                "f0=6 candidates=1 [failed: in_family]"),
    "Lemma4.4": (verify, "macaulay_pseudopower",
                 _first_call(lambda original, *args: original(*args) - 1),
                 "g2=0 g3=0 bound=-1 [failed: macaulay]"),
    "Theorem4.5": (verify, "central_retriangulation", _first_call(_refused),
                   "precondition: planted refusal [failed: precondition]"),
    "Theorem5.4": (verify, "is_homology_sphere", _first_call(_not_a_sphere),
                   "g (1, 1, 1)->(1, 2, 2) [failed: sphere]"),
    "Theorem5.5": (verify, "is_homology_sphere", _first_call(_not_a_sphere),
                   "registered exception: not produced by a central retriangulation"
                   " [failed: sphere]"),
    "Corollary5.6": (verify, "is_homology_sphere", _first_call(_not_a_sphere),
                     "g2=2 [failed: sphere]"),
}


@pytest.mark.parametrize("statement", list(PLANTS))
def test_a_planted_defect_fails_its_statement_at_the_planted_instance(monkeypatch, statement):
    *plant, detail = PLANTS[statement]
    reached = _plant(monkeypatch, statement, *plant)
    (failure,) = run_statement(statement).failures
    (name,) = reached
    assert failure == f"{name}: {detail}"


def test_a_refused_undo_fails_lemma_3_6_as_a_precondition(monkeypatch):
    # the precondition branch of Lemma3.6, beside its planted off-by-one
    reached = _plant(monkeypatch, "Lemma3.6", verify, "inverse_stellar", _first_call(_refused))
    (failure,) = run_statement("Lemma3.6").failures
    assert failure == f"{reached[0]}: precondition: planted refusal [failed: precondition]"


def test_planted_defects_leave_the_other_reports_alone(monkeypatch):
    reached = {sid: _plant(monkeypatch, sid, *plant) for sid, (*plant, _) in PLANTS.items()}
    reports = {rep.statement: rep for rep in run_all()}
    changed = {sid for sid, digest in _pinned_digests().items() if _digest(reports[sid]) != digest}
    assert changed == set(PLANTS)
    for sid, (name,) in reached.items():
        (failure,) = reports[sid].failures
        assert failure.startswith(f"{name}: ")

import json

import pytest

from scx import Scale, UnknownStatementError, homology, run_statement, statement_ids
from scx import verify


def test_registry_contents():
    ids = statement_ids()
    assert "Lemma2.2" in ids and "Theorem5.5" in ids and "Corollary5.6" in ids
    assert len(ids) == 16


def test_unknown_statement():
    with pytest.raises(UnknownStatementError):
        run_statement("Lemma9.9")


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
                   " ball homology (witness ()))")
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

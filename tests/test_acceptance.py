"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All tolerances are exact (integer equality); the instance pools come from
the standard catalog at default desk scale (d = 4..6, f0 <= 14, cycles <= 8).
"""

from math import comb

import pytest

from scx import (
    Scale,
    barnette_sphere,
    f_vector,
    g2,
    g2_via_rigidity,
    g_vector,
    generic_rank_trials,
    link_g_sum,
    run_all,
    skeleton_graph,
)
from scx.verify import catalog_for

from conftest import clear_memos

SCALE = Scale()


@pytest.fixture(scope="module")
def catalog():
    return catalog_for(SCALE)


@pytest.fixture(scope="module")
def pseudomanifolds(catalog):
    return [e for e in catalog if "normal-pm" in e.tags]


def _conclude(number, ok, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_g2_triple_agreement(pseudomanifolds):
    assert len(pseudomanifolds) >= 30
    assert {e.complex.dim + 1 for e in pseudomanifolds} >= {4, 5, 6}
    mismatches = []
    for entry in pseudomanifolds:
        cx = entry.complex
        d = cx.dim + 1
        via_h = g_vector(cx)[2]
        via_counts = cx.n_faces(1) - d * cx.n_faces(0) + comb(d + 1, 2)
        via_rigidity = g2_via_rigidity(cx, trials=SCALE.trials, seed=SCALE.seed)
        if not via_h == via_counts == via_rigidity:
            mismatches.append((entry.name, via_h, via_counts, via_rigidity))
    _conclude(
        1,
        not mismatches,
        f"h-vector, face-count and rigidity g2 agree exactly on "
        f"{len(pseudomanifolds)} pseudomanifolds; mismatches={mismatches}",
    )


def test_criterion_2_known_values(catalog):
    problems = []
    for entry in catalog:
        if "boundary" in entry.tags or "stacked" in entry.tags:
            if g2(entry.complex) != 0:
                problems.append(entry.name)
        if "g2one" in entry.tags and g2(entry.complex) != 1:
            problems.append(entry.name)
        if "g2two-octahedral" in entry.tags and g2(entry.complex) != 2:
            problems.append(entry.name)
    stacked_names = {e.name for e in catalog if "stacked" in e.tags}
    for d in (4, 5, 6):
        for n in range(d + 2, 13):
            if f"stacked-sphere-d{d}-n{n}" not in stacked_names:
                problems.append(f"missing stacked-sphere-d{d}-n{n}")
    barnette = barnette_sphere()
    f = f_vector(barnette.complex)
    if (f[0], f[3], g2(barnette.complex)) != (8, 19, 5):
        problems.append("barnette invariants")
    _conclude(2, not problems, f"known g2/f values exact; problems={problems}")


def test_criterion_3_link_sum_identity(catalog):
    failures = []
    checked = 0
    for entry in catalog:
        if not entry.complex.is_pure():
            continue
        for k in (1, 2):
            lhs, rhs = link_g_sum(entry.complex, k)
            checked += 1
            if lhs != rhs:
                failures.append((entry.name, k, lhs, rhs))
    _conclude(
        3,
        checked >= 60 and not failures,
        f"link g-sum identity exact on {checked} (complex, k) pairs; "
        f"failures={failures}",
    )


def test_criterion_4_retriangulation_g_deltas(reports):
    central = reports["Lemma3.3"]
    inverse = reports["Lemma3.6"]
    ok = (
        central.passed
        and inverse.passed
        and central.instances >= 20
        and inverse.instances >= 20
    )
    _conclude(
        4,
        ok,
        f"central retriangulations {central.passes}/{central.instances}, "
        f"inverse undos {inverse.passes}/{inverse.instances}, predictions and "
        f"isomorphic restorations exact",
    )


def test_criterion_5_missing_face_identity(reports):
    rep = reports["Lemma3.4"]
    identity_instances = rep.instances // 2  # one identity check per star
    _conclude(
        5,
        rep.passed and identity_instances >= 10,
        f"missing-face identity holds as face sets on {identity_instances} "
        f"star retriangulations",
    )


def test_criterion_6_swartz_bound(reports):
    rep = reports["Lemma3.8"]
    _conclude(
        6,
        rep.passed and rep.instances >= 5,
        f"iterated vertex split: g2 drop equals processed missing-facet count "
        f"and stays non-negative on {rep.instances} instances",
    )


def test_criterion_7_stress_and_monotonicity(reports):
    participation = reports["Lemma2.5"]
    monotonic = reports["Lemma2.6"]
    ok = (
        participation.passed
        and monotonic.passed
        and participation.instances >= 10
        and monotonic.instances >= 30
    )
    _conclude(
        7,
        ok,
        f"all vertices participate on {participation.instances} prime g2>=1 "
        f"instances; link g2 monotone on {monotonic.instances} instances",
    )


def test_criterion_8_g2_one_classification(reports):
    prop = reports["Prop4.2"]
    thm = reports["Theorem4.5"]
    ok = prop.passed and thm.passed and thm.instances >= 10
    _conclude(
        8,
        ok,
        f"prime g2=1 retriangulations land in the named family "
        f"({prop.instances} + {thm.instances} instances, d = 4..6)",
    )


def test_criterion_9_g2_two_classification(reports):
    high = reports["Theorem5.4"]
    dim3 = reports["Theorem5.5"]
    closure = reports["Corollary5.6"]
    ok = high.passed and dim3.passed and closure.passed and dim3.instances >= 4
    _conclude(
        9,
        ok,
        f"g2=2 entries reproduced by central retriangulations with the "
        f"octahedral exception flagged; homology spheres confirmed "
        f"({high.instances} + {dim3.instances} + {closure.instances} instances)",
    )


def test_criterion_10_determinism(reports, pseudomanifolds):
    # the second seed recomputes every homology fact
    clear_memos()
    second = {rep.statement: rep for rep in run_all(Scale(seed=SCALE.seed + 7))}
    diffs = []
    for sid, rep in reports.items():
        other = second[sid]
        if (rep.instances, rep.passes, rep.failures) != (
            other.instances,
            other.passes,
            other.failures,
        ):
            diffs.append(sid)
    unstable = []
    for entry in pseudomanifolds:
        cx = entry.complex
        trials = generic_rank_trials(
            skeleton_graph(cx), cx.dim + 1, trials=3, seed=SCALE.seed
        )
        if len(set(trials)) != 1:
            unstable.append(entry.name)
    _conclude(
        10,
        not diffs and not unstable,
        f"verify-all outcomes identical across seeds (diffs={diffs}); ranks "
        f"agree across 3 trials on all {len(pseudomanifolds)} pseudomanifolds "
        f"(unstable={unstable})",
    )

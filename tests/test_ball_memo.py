"""The ball-analysis memo: one sweep per order type, read back through each
ball's own vertices."""

import random

import pytest

from scx import (
    InternalCheckError,
    SimplicialComplex,
    TooLargeError,
    ball_boundary,
    central_retriangulation,
    from_facets,
    interior_faces,
    is_homology_ball,
    run_all,
    simplex_boundary,
)
from scx import homology, verify

import oracle
from conftest import clear_memos
from test_retriangulate import NON_BALL_HOSTS, _non_balls as _non_balls_of

FIELDS = ("rational", 2, 3)


def _relabelled(cx, labels):
    """``cx`` with its sorted vertices renamed to ``labels``, in order."""
    rename = dict(zip(sorted(cx.vertices), labels))
    return from_facets([[rename[v] for v in f] for f in cx.facets])


def _assert_matches_the_sweep(cx, field):
    verdict, boundary, interior = homology._ball_analysis(cx, field)
    expected, expected_boundary, expected_interior = oracle.ball_analysis_by_sweep(cx, field, True)
    assert (verdict.ok, verdict.witness, verdict.reason) == (
        expected.ok,
        expected.witness,
        expected.reason,
    ), (cx, field)
    assert boundary == expected_boundary and boundary.vertices <= cx.vertices
    assert interior == expected_interior


@pytest.fixture(scope="module")
def run_all_balls():
    """The distinct balls that one ``run_all()`` analyses on empty memos, and
    the ball memo's ``cache_info()`` after it.  The catalog is built afresh
    too: it retriangulates three of its entries."""
    balls, original = {}, homology._ball_analysis

    def recording(cx, field):
        balls.setdefault(cx.facets, cx)
        return original(cx, field)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(homology, "_ball_analysis", recording)
        monkeypatch.setattr(verify, "_CATALOG_MEMO", {})
        clear_memos()
        assert all(report.passed for report in run_all())
    return list(balls.values()), homology._ball.cache_info()


def _non_balls():
    """The 20 non-balls of the retriangulation tests, each checked to be one."""
    non_balls = [ball for cx in NON_BALL_HOSTS for ball in _non_balls_of(cx)]
    assert len(non_balls) == 20
    return non_balls


def test_ball_memo_analyses_each_run_all_order_type_once(run_all_balls):
    balls, info = run_all_balls
    # 420 analyses on 42 order types: Lemma 3.3 and 3.6 retriangulate the
    # same balls, and each inverse move meets the ball the central move coned
    assert (info.hits + info.misses, info.misses) == (420, 42)
    assert len(balls) > info.misses
    for cx in balls + _non_balls():
        for field in FIELDS:
            _assert_matches_the_sweep(cx, field)


def test_ball_memo_matches_the_sweep_under_relabelling(run_all_balls):
    # an order-preserving relabelling hits the memo; a shuffle misses it
    rng = random.Random(24)
    balls, _ = run_all_balls
    for cx in balls + _non_balls():
        n = len(cx.vertices)
        keeping = _relabelled(cx, sorted(rng.sample(range(100), n)))
        shuffled = _relabelled(cx, rng.sample(range(n), n))
        for field in FIELDS:
            homology._ball_analysis(cx, field)
            before = homology._ball.cache_info()
            _assert_matches_the_sweep(keeping, field)
            after = homology._ball.cache_info()
            assert (after.misses, after.hits) == (before.misses, before.hits + 1)
            _assert_matches_the_sweep(shuffled, field)


def test_the_sweep_reads_boundary_and_interior_alike_with_and_without_check(run_all_balls):
    # check changes only the verdict, so the memo keeps the checked one alone
    balls, _ = run_all_balls
    for cx in balls + _non_balls():
        for field in FIELDS:
            _, *checked = oracle.ball_analysis_by_sweep(cx, field, True)
            _, *unchecked = oracle.ball_analysis_by_sweep(cx, field, False)
            assert checked == unchecked, (cx, field)


def test_mixed_check_reads_share_one_sweep():
    ball = simplex_boundary(5).star([0, 1])
    clear_memos()
    assert ball_boundary(ball, check=False) == ball_boundary(ball)
    assert is_homology_ball(ball)
    assert interior_faces(ball, check=False) == interior_faces(ball)
    assert homology._ball.cache_info().misses == 1


def test_a_ball_miss_builds_only_the_labelled_boundary(bd5, monkeypatch):
    # the sweep finds and judges the boundary on masks, so the one complex
    # that a miss builds is the boundary read back through the ball's labels;
    # every complex, labelled or not, is built by _of_masks
    ball = bd5.star([0, 1])
    built, of_masks = [], SimplicialComplex._of_masks

    def recording(labels, masks):
        built.append(of_masks(labels, masks))
        return built[-1]

    clear_memos()
    monkeypatch.setattr(SimplicialComplex, "_of_masks", staticmethod(recording))
    assert is_homology_ball(ball)
    assert homology._ball.cache_info().misses == 1
    (boundary,) = built
    assert boundary.facets == {f - {0, 1} | e for f in ball.facets for e in ({0}, {1})}


def test_ball_memo_never_holds_a_guard_trip(monkeypatch):
    clear_memos()
    assert is_homology_ball(simplex_boundary(4).star([0]))
    before = homology._ball.cache_info().currsize
    for _ in range(3):
        with pytest.raises(TooLargeError, match="closure bound"):
            is_homology_ball(SimplicialComplex([range(18)]))  # a simplex: 2^18 faces
    monkeypatch.setattr(homology, "BETTI_GUARD", 5)  # d_1 of the edge star: 5 x 10 cells
    for _ in range(3):
        with pytest.raises(TooLargeError, match="Betti guard"):
            homology.interior_faces(simplex_boundary(4).star([0, 1]))
    assert homology._ball.cache_info().currsize == before == 1


@pytest.mark.parametrize("check", [True, False])
def test_certificate_reaches_a_ball_analysed_just_before(bd5, request, check):
    ball = bd5.star([0, 1, 2, 3])
    assert is_homology_ball(ball)
    central_retriangulation(bd5, ball, check=check)
    request.getfixturevalue("flipped_d1")  # the plant empties every memo
    with pytest.raises(InternalCheckError):
        is_homology_ball(ball)
    with pytest.raises(InternalCheckError):
        central_retriangulation(bd5, ball, check=check)

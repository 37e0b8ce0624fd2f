"""One end-to-end replay of the verification harness against the references.

Each homology memo and mask reader has differential tests of its own, but a
key that is sound routine by routine could still collide across statements.
These tests run ``run_all`` twice: as it is, and with every memo bypassed
and the memoised routines swapped for their references in
``tests/oracle.py``.  The reports, ``seconds`` left out, must hash alike.
"""

import pytest

import oracle
from conftest import digest
from scx import cli, generators, homology, retriangulate, rigidity, run_all, verify
from scx.homology import BettiProfile
from scx.verify import Scale


def references(monkeypatch):
    """Bypass the Betti and ball memos and route every memoised path through
    a reference: the ball sweeps unmemoised, the Betti numbers of every
    column, the ball sweep on the ball's own labels, and the link-by-link
    manifold and pseudomanifold tests, in every module that imports them."""
    monkeypatch.setattr(homology, "_ball", homology._ball.__wrapped__)

    def every_column(masks, field):
        return BettiProfile(oracle.betti_every_column(masks, field), field)

    monkeypatch.setattr(homology, "_betti", every_column)
    monkeypatch.setattr(oracle, "_betti", every_column)
    monkeypatch.setattr(homology, "_ball_analysis", oracle.ball_analysis_by_sweep)
    monkeypatch.setattr(homology, "is_homology_manifold", oracle.is_homology_manifold_by_links)
    monkeypatch.setattr(cli, "is_homology_manifold", oracle.is_homology_manifold_by_links)
    for module in (homology, generators, retriangulate, rigidity, verify, cli):
        monkeypatch.setattr(
            module, "is_normal_pseudomanifold", oracle.is_normal_pseudomanifold_by_links
        )


@pytest.mark.parametrize(
    "dmax, expected",
    [
        (4, "f63d1715a51eca83"),
        pytest.param(5, "d0ec8059dc3f4f09", marks=pytest.mark.slow),
    ],
)
def test_run_all_replays_alike_through_the_references(dmax, expected, monkeypatch):
    scale = Scale(dmax=dmax)
    monkeypatch.setattr(verify, "_CATALOG_MEMO", {})
    assert digest(run_all(scale)) == expected
    references(monkeypatch)
    monkeypatch.setattr(verify, "_CATALOG_MEMO", {})
    assert digest(run_all(scale)) == expected


def test_the_whole_run_is_pinned_at_two_scales(reports, monkeypatch):
    # at Scale(), and at dmax=7, the stretch workload
    assert digest(list(reports.values())) == "792c15270191e222"
    monkeypatch.setattr(verify, "_CATALOG_MEMO", {})
    assert digest(run_all(Scale(dmax=7))) == "337acffa5e263a6e"

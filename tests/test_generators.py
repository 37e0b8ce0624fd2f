import re
from math import comb
from time import perf_counter

import pytest

from scx import (
    InternalCheckError,
    ParseError,
    PreconditionError,
    TooLargeError,
    are_isomorphic,
    barnette_sphere,
    betti,
    central_retriangulation,
    cross_polytope_boundary,
    cycle,
    f_vector,
    g2,
    g2_one_family,
    g2_two_catalog,
    is_homology_sphere,
    join,
    load_fixture,
    simplex_boundary,
    stacked_sphere,
    stack_over_facet,
    stacked_sphere_with_ridge,
    standard_catalog,
    suspension,
    write_scx,
)
from scx import complexes
from scx.generators import CatalogEntry


def test_simplex_boundary_is_small_cycle():
    assert simplex_boundary(2) == cycle(3)


def test_simplex_boundary_counts():
    for d in (2, 3, 4, 5):
        f = f_vector(simplex_boundary(d))
        assert f.entries == tuple(comb(d + 1, k) for k in range(d + 1))


def test_parameter_validation():
    with pytest.raises(PreconditionError):
        simplex_boundary(0)
    with pytest.raises(PreconditionError):
        cycle(2)
    with pytest.raises(PreconditionError):
        stacked_sphere(4, 4)
    with pytest.raises(PreconditionError):
        stacked_sphere(-1, 0)
    with pytest.raises(PreconditionError):
        cross_polytope_boundary(0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: stacked_sphere_with_ridge(4, 4), "need n >= d + 1"),
        # before the closure bound, whose shift by a negative d would raise ValueError
        (lambda: stacked_sphere_with_ridge(-1, 4), "need d >= 1"),
        (lambda: g2_one_family(3, "cycle", 4), "cycle variant needs d >= 4"),
        (lambda: g2_one_family(4, "wedge", 4), "unknown variant 'wedge'"),
        (lambda: g2_two_catalog(4, "triple_join"), "triple join needs d >= 5"),
        (lambda: g2_two_catalog(5, "crtr_ridge", 4), "crtr_ridge variant needs d = 4 and n >= 4"),
        (lambda: g2_two_catalog(4, "crtr_ridge", 3), "crtr_ridge variant needs d = 4 and n >= 4"),
        (lambda: g2_two_catalog(4, "crtr_ridge"), "crtr_ridge variant needs d = 4 and n >= 4"),
    ],
    ids=["ridge-n", "ridge-d", "cycle-d", "variant", "triple-d", "crtr-d", "crtr-n", "crtr-none"],
)
def test_family_parameters_out_of_range_are_refused(call, message):
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        call()


def test_a_fixture_with_a_malformed_sidecar_is_a_parse_error(tmp_path):
    path = tmp_path / "bd3.scx"
    write_scx(simplex_boundary(3), path)
    path.with_suffix(".meta.json").write_text('{"g2": 0,')
    with pytest.raises(ParseError, match="bd3.meta.json: invalid JSON"):
        load_fixture(path)


def test_stacked_sphere_smallest_is_simplex_boundary():
    assert stacked_sphere(4, 5) == simplex_boundary(4)


def test_stacked_sphere_counts():
    cx = stacked_sphere(4, 8)
    assert g2(cx) == 0
    assert cx.n_faces(1) == 4 * 8 - 10
    # each stacking step removes one facet and adds four
    assert len(cx.facets) == 5 + 3 * 3


def test_stacked_sphere_matches_the_stepwise_construction():
    for d in range(2, 7):
        cx = simplex_boundary(d)
        last_new = cx.facets
        for n in range(d + 2, 15):
            before = cx.facets
            cx = stack_over_facet(cx, max(last_new, key=sorted))
            last_new = cx.facets - before
            assert stacked_sphere(d, n) == cx


def _stacked_by_labels(d: int, n: int):
    """The stacked sphere as it was built on labelled facets: each step
    stacks over the greatest facet, in sorted-tuple order, of those through
    the last vertex, read off every facet."""
    cx = simplex_boundary(d)
    for w in range(d + 1, n):
        cx = stack_over_facet(cx, max((f for f in cx.facets if w - 1 in f), key=sorted))
    return cx


def test_stacked_sphere_matches_stacking_on_labelled_facets():
    for d in range(3, 8):
        for n in range(d + 1, 61):
            cx, expected = stacked_sphere(d, n), _stacked_by_labels(d, n)
            assert cx == expected and cx.facets == expected.facets, (d, n)


def test_a_stacked_sphere_on_2000_vertices_takes_under_2_seconds():
    # it labelled every facet at every step, which took 1.22 s for n = 600
    start = perf_counter()
    cx = stacked_sphere(4, 2000)
    assert perf_counter() - start < 2
    assert (len(cx.vertices), len(cx._masks[1])) == (2000, 5 + 3 * 1995)


def test_generators_check_the_closure_guard_first(monkeypatch):
    monkeypatch.setattr(complexes, "CLOSURE_GUARD", 2**10)

    def with_ridge(d, n):
        return stacked_sphere_with_ridge(d, n)[0]

    # each first call's closure bound is at most the guard, the next one's over it
    for build, fits, over in (
        (simplex_boundary, (7,), (8,)),
        (cycle, (256,), (257,)),
        (cross_polytope_boundary, (5,), (6,)),
        (stacked_sphere, (3, 66), (3, 67)),
        (with_ridge, (3, 66), (3, 67)),
    ):
        assert build(*fits).faces()
        with pytest.raises(TooLargeError, match="closure bound"):
            build(*over)
    # sizes whose facet lists would not fit in memory are refused at once
    for build, params in (
        (simplex_boundary, (10**9,)),
        (cycle, (10**12,)),
        (cross_polytope_boundary, (10**9,)),
        (stacked_sphere, (3, 10**12)),
        (with_ridge, (3, 10**12)),
    ):
        with pytest.raises(TooLargeError, match="closure bound"):
            build(*params)


def test_stacked_sphere_links_are_stacked():
    cx = stacked_sphere(4, 7)
    for v in sorted(cx.vertices):
        link = cx.link([v])
        assert g2(link) == 0
        assert is_homology_sphere(link)


def test_cross_polytope_counts(oct3):
    octa = cross_polytope_boundary(3)
    assert f_vector(octa).entries == (1, 6, 12, 8)
    assert g2(oct3) == 2
    assert len(oct3.facets) == 16
    assert oct3.is_prime()
    assert octa.is_prime()


def test_octahedral_sphere_links_are_octahedra(oct3):
    octa = cross_polytope_boundary(3)
    for v in sorted(oct3.vertices):
        assert are_isomorphic(oct3.link([v]), octa)


def test_g2_one_family_join():
    entry = g2_one_family(5, "join", 2)
    assert entry.complex.n_faces(0) == 7
    assert g2(entry.complex) == 1
    assert entry.complex.is_prime()
    with pytest.raises(PreconditionError):
        g2_one_family(5, "join", 4)


def test_g2_one_family_cycle():
    entry = g2_one_family(4, "cycle", 5)
    assert g2(entry.complex) == 1
    assert is_homology_sphere(entry.complex)
    with pytest.raises(PreconditionError):
        g2_one_family(4, "cycle", 3)


def test_cycle_join_g2_is_one_for_all_small_parameters():
    for d in (4, 5, 6):
        for n in (4, 5, 6):
            assert g2(join(cycle(n), simplex_boundary(d - 2))) == 1


def test_g2_two_catalog_triple_join():
    entry = g2_two_catalog(6, "triple_join")
    assert g2(entry.complex) == 2


def test_g2_two_catalog_suspension():
    entry = g2_two_catalog(5, "suspension", 2)
    assert g2(entry.complex) == 2
    assert entry.complex == suspension(join(simplex_boundary(2), simplex_boundary(2)))


def test_g2_two_crtr_matches_triple_join():
    # retriangulating a join of simplex boundaries along a factor facet's star
    # produces the two-point suspension family
    d = 5
    base = join(simplex_boundary(2), simplex_boundary(d - 2))
    tau = frozenset(range(3, d + 1))
    out, _ = central_retriangulation(base, base.star(tau))
    assert are_isomorphic(out, g2_two_catalog(d, "triple_join").complex)


def test_g2_two_catalog_validation():
    with pytest.raises(PreconditionError):
        g2_two_catalog(5, "octahedral")
    with pytest.raises(PreconditionError):
        g2_two_catalog(4, "nonsense")
    with pytest.raises(PreconditionError, match="needs PARAM"):
        g2_two_catalog(5, "suspension")
    with pytest.raises(PreconditionError, match="triple_join takes no PARAM, got 7"):
        g2_two_catalog(5, "triple_join", 7)
    with pytest.raises(PreconditionError, match="octahedral takes no PARAM, got 99"):
        g2_two_catalog(4, "octahedral", 99)


def test_stacked_sphere_with_ridge():
    cx, ridge = stacked_sphere_with_ridge(5, 8)
    assert g2(cx) == 0
    assert cx.n_faces(0) == 8
    assert frozenset(ridge) in cx.faces()
    missing = cx.missing_faces(cx.dim)
    assert missing and all(set(ridge) <= set(f) for f in missing)


def test_barnette_fixture():
    entry = barnette_sphere()
    cx = entry.complex
    f = f_vector(cx)
    assert f[0] == 8 and f[3] == 19
    assert g2(cx) == 5
    assert cx.is_prime()
    assert betti(cx).entries == (0, 0, 0, 0, 1)
    assert cx.missing_faces(1) == [(6, 7)]


def test_catalog_entries_verify(tmp_path):
    catalog = standard_catalog(dmax=5, f0max=10, cycle_max=5)
    assert all(e.verify_expected() for e in catalog)
    names = [e.name for e in catalog]
    assert len(names) == len(set(names))


def test_a_missed_expectation_is_an_internal_check_error():
    # a catalog entry that misses its own expected counts is a failed
    # self-check (exit 5), not bad input and not a bare ValueError
    cx = simplex_boundary(4)
    right = {"f_vector": [1, 5, 10, 10, 5], "g2": 0}
    assert CatalogEntry("bd4", (), cx, right).verify_expected().complex is cx
    with pytest.raises(InternalCheckError, match=r"f-vector \[1, 5, 10, 10, 5\] != expected"):
        CatalogEntry("bd4", (), cx, {**right, "f_vector": [1, 5, 10, 10, 6]}).verify_expected()
    with pytest.raises(InternalCheckError, match="g2 0 != expected 1"):
        CatalogEntry("bd4", (), cx, {**right, "g2": 1}).verify_expected()


def test_catalog_has_enough_pseudomanifolds():
    catalog = standard_catalog()
    pms = [e for e in catalog if "normal-pm" in e.tags]
    assert len(pms) >= 30
    dims = {e.complex.dim for e in pms}
    assert {3, 4, 5} <= dims

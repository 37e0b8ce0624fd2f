import random
from itertools import combinations, product

import pytest

import oracle
from scx import (
    SimplicialComplex,
    TooLargeError,
    are_isomorphic,
    barnette_sphere,
    central_retriangulation,
    cross_polytope_boundary,
    cycle,
    f_vector,
    from_facets,
    is_homology_sphere,
    isomorphism,
    join,
    simplex_boundary,
    stack_over_facet,
    stacked_sphere,
    standard_catalog,
    suspension,
)
from scx import complexes
from scx.complexes import _closure_masks, _neighbourhoods
from scx.facevectors import _link_f_vectors
from scx.isomorphism import _vertex_classes

from conftest import CENSUS
from test_homology import RP2, TORUS, _kuhnel


def relabel(cx, mapping):
    return from_facets([[mapping[v] for v in f] for f in cx.facets])


def test_relabelled_simplex_boundary(bd3):
    shuffled = relabel(bd3, {0: 7, 1: 2, 2: 11, 3: 0})
    cert = are_isomorphic(bd3, shuffled)
    assert cert
    image = {frozenset(cert.mapping[v] for v in f) for f in bd3.facets}
    assert image == shuffled.facets


def test_different_f_vectors_short_circuit():
    c44 = join(cycle(4), cycle(4))
    c35 = join(cycle(3), cycle(5))
    assert not are_isomorphic(c44, c35)


def test_same_f_vector_non_isomorphic():
    # two stacked 2-spheres on 7 vertices: a path of stackings vs a star
    path = stacked_sphere(3, 7)
    star = simplex_boundary(3)
    for facet in sorted(simplex_boundary(3).facets, key=sorted)[:3]:
        star = stack_over_facet(star, facet)
    from scx import f_vector

    assert f_vector(path).entries == f_vector(star).entries
    assert not are_isomorphic(path, star)


def test_crtr_of_simplex_boundary_is_join(bd5):
    out, _ = central_retriangulation(bd5, bd5.star([0, 1, 2, 3]))
    target = join(simplex_boundary(3), simplex_boundary(2))
    assert are_isomorphic(out, target)


def maps_facets_onto_facets(cert, cx1, cx2):
    if not cert or set(cert.mapping) != cx1.vertices:
        return False
    if set(cert.mapping.values()) != cx2.vertices:
        return False
    return {frozenset(cert.mapping[v] for v in f) for f in cx1.facets} == cx2.facets


def test_size_guard(monkeypatch):
    # 21 vertices are answered: the guard counts search nodes, not vertices
    path = from_facets([[i, i + 1] for i in range(20)])
    copy = relabel(path, {v: 20 - v for v in path.vertices})
    assert maps_facets_onto_facets(are_isomorphic(path, copy), path, copy)
    monkeypatch.setattr(isomorphism, "ISOMORPHISM_GUARD", 10)
    with pytest.raises(TooLargeError, match="isomorphism guard"):
        are_isomorphic(path, copy)


def test_empty_and_tiny():
    assert are_isomorphic(from_facets([]), from_facets([]))
    assert are_isomorphic(from_facets([[3]]), from_facets([[5]]))
    assert not are_isomorphic(from_facets([[3]]), from_facets([[3], [5]]))


def test_a_search_labels_no_adjacency_and_no_facet(census, monkeypatch):
    # the classes, the order and the search read the facet masks and their
    # neighbourhoods, one pass per complex; labels are read back only for the
    # certificate.  Suspensions are built from masks, so no facet is labelled
    # before the search either
    labelled, adjacencies, passes = [], [], []
    adjacency, label, near = SimplicialComplex.adjacency, complexes._labelled, _neighbourhoods
    monkeypatch.setattr(
        SimplicialComplex, "adjacency", lambda cx: adjacencies.append(cx) or adjacency(cx)
    )
    monkeypatch.setattr(complexes, "_labelled", lambda *a: labelled.append(a) or label(*a))
    monkeypatch.setattr(isomorphism, "_neighbourhoods", lambda m: passes.append(m) or near(m))
    cx = census[0]
    copy = relabel(cx, dict(zip(sorted(cx.vertices), (7, 3, 11, 0, 5, 2, 9, 4))))
    a, b = suspension(cx), suspension(copy)
    cert = are_isomorphic(a, b)
    assert adjacencies == labelled == [] and len(passes) == 2
    assert maps_facets_onto_facets(cert, a, b)


def test_two_fresh_complexes_build_no_closure(census, monkeypatch):
    # the classes and the search read the facet masks alone, on an answer
    # found, one refused by the classes and one refused by the search
    built = []
    monkeypatch.setattr(
        "scx.complexes._closure_masks", lambda masks: built.append(masks) or _closure_masks(masks)
    )
    a, b, c, d = (from_facets(census[k].facets) for k in (0, 1, *WORST_PAIR))
    copy = relabel(a, dict(zip(sorted(a.vertices), (7, 3, 11, 0, 5, 2, 9, 4))))
    assert are_isomorphic(a, copy) and not are_isomorphic(a, b) and not are_isomorphic(c, d)
    assert built == []


def link_f_classes(cx):
    """The vertex classes as first defined: link f-vectors, then the sorted
    link f-vectors of the neighbours."""
    adj, link_f = cx.adjacency(), _link_f_vectors(cx)
    return {v: (link_f[v], tuple(sorted(link_f[u] for u in adj[v]))) for v in cx.vertices}


def test_mask_classes_split_vertices_as_link_f_vectors_do_up_to_dimension_5(census):
    # a vertex link of a sphere of dimension <= 5 is a homology sphere of
    # dimension <= 4, whose f-vector Dehn-Sommerville fixes from f_0 and the
    # facets: so each old class is one new class, across all the complexes,
    # and the search meets the same candidates in the same order
    catalog = [entry.complex for entry in standard_catalog(dmax=7, f0max=16)]
    for group in (census, [cx for cx in catalog if cx.dim <= 5]):
        pairs = set()
        for cx in group:
            old, new = link_f_classes(cx), _vertex_classes(cx)[0]
            pairs.update((old[v], new[v]) for v in cx.vertices)
        old, new = zip(*pairs)
        assert len(pairs) == len(set(old)) == len(set(new))


def test_search_agrees_with_the_adjacency_oracle_on_the_census_and_non_spheres(census):
    # every census pair but those of two 2-neighbourly spheres, on which the
    # oracle prunes nothing and walks up to 8! bijections: the census count
    # alone refuses those (test_census_pairs_with_equal_invariants_are_not_isomorphic).
    # A copy of a complex past 8 vertices (a Kühnel manifold) keeps the order
    # of its labels: the oracle's walk on a random copy of the 11-vertex one
    # takes minutes
    rng = random.Random(2)
    cases = []
    for i, j in combinations(range(len(census)), 2):
        if min(census[i].n_faces(1), census[j].n_faces(1)) < 28:
            cases.append((census[i], census[j]))
    non_spheres = [TORUS, RP2, _kuhnel(3), _kuhnel(4)]
    cases += combinations(non_spheres, 2)
    for cx in census + non_spheres:
        labels = sorted(cx.vertices)
        images = rng.sample(range(3 * len(labels)), len(labels))
        if len(labels) > 8:
            images.sort()
        cases.append((cx, relabel(cx, dict(zip(labels, images)))))
    for a, b in cases:
        expected = oracle.are_isomorphic_adjacency(a.facets, b.facets) is not None
        assert bool(are_isomorphic(a, b)) == bool(are_isomorphic(b, a)) == expected


def equal_invariant_pairs(complexes):
    buckets = {}
    for i, cx in enumerate(complexes):
        buckets.setdefault(tuple(sorted(_vertex_classes(cx)[0].values())), []).append(i)
    return [pair for bucket in buckets.values() for pair in combinations(bucket, 2)]


def test_class_multisets_refuse_every_pair_with_different_f_vectors(census):
    # summed over the vertices, the degrees count 2 f_1 and the facets through
    # a vertex the facets' total size; with f_0, Dehn-Sommerville fixes the
    # f-vector of a sphere of dimension <= 6 from these, as all these are.
    # are_isomorphic itself needs only the facet-size totals
    catalog = [entry.complex for entry in standard_catalog(dmax=7, f0max=16)]
    for complexes in (census, catalog):
        keys = [(f_vector(cx).entries, sorted(_vertex_classes(cx)[0].values())) for cx in complexes]
        refused = [c1 != c2 for (f1, c1), (f2, c2) in product(keys, repeat=2) if f1 != f2]
        assert refused and all(refused)


@pytest.mark.slow
def test_make_census_regenerates_the_census_byte_for_byte(capsys):
    # the census that the fixture reads comes from this search, which reads
    # _vertex_classes to bucket the spheres it has found
    import make_census

    make_census.main()
    assert capsys.readouterr().out.encode() == CENSUS.read_bytes()


def test_census_spheres_find_their_relabelled_copies(census):
    assert len(census) == 39
    rng = random.Random(0)
    for cx in census:
        assert len(cx.vertices) == 8 and cx.dim == 3 and is_homology_sphere(cx)
        copy = relabel(cx, dict(zip(sorted(cx.vertices), rng.sample(range(20), 8))))
        assert maps_facets_onto_facets(are_isomorphic(cx, copy), cx, copy)


def test_census_pairs_with_equal_invariants_are_not_isomorphic(census, monkeypatch):
    # Barnette's census has 39 classes, so its members are pairwise
    # non-isomorphic and every pair here is a true negative.  The costliest
    # pair takes 29,280 search nodes
    monkeypatch.setattr(isomorphism, "ISOMORPHISM_GUARD", 60_000)
    pairs = equal_invariant_pairs(census)
    assert len(pairs) == 31
    for i, j in pairs:
        assert not are_isomorphic(census[i], census[j])


#: the pair the adjacency-pruned search takes longest on (about 1.4 s on a 2-vCPU host)
WORST_PAIR = (36, 38)


@pytest.mark.parametrize(
    "widen",
    [suspension, lambda cx: join(cx, simplex_boundary(2))],
    ids=["suspended", "joined-with-a-triangle"],
)
def test_worst_census_pair_stays_fast_when_widened(census, widen, monkeypatch):
    # 58,386 search nodes suspended, 175,119 joined with a triangle
    monkeypatch.setattr(isomorphism, "ISOMORPHISM_GUARD", 400_000)
    a, b = (widen(census[k]) for k in WORST_PAIR)
    assert not are_isomorphic(a, b)


@pytest.mark.parametrize("d", [5, 6, 7])
def test_cross_polytopes_are_pruned_on_non_edges(d, monkeypatch):
    # no facet closes before the last few vertices are placed, so only the
    # neighbour test rejects an antipodal pair sent to an edge early; without
    # it, d = 6 against itself walks millions of nodes
    monkeypatch.setattr(isomorphism, "ISOMORPHISM_GUARD", 1_000)
    cx = cross_polytope_boundary(d)
    assert maps_facets_onto_facets(are_isomorphic(cx, cx), cx, cx)
    rng = random.Random(d)
    for _ in range(3):
        labels = sorted(cx.vertices)
        copy = relabel(cx, dict(zip(labels, rng.sample(range(3 * len(labels)), len(labels)))))
        assert maps_facets_onto_facets(are_isomorphic(cx, copy), cx, copy)


def stacked_spheres(d, n, count, rng):
    # random stacking orders: equal f-vectors, mostly different trees
    out = []
    for _ in range(count):
        cx = simplex_boundary(d)
        while len(cx.vertices) < n:
            cx = stack_over_facet(cx, rng.choice(sorted(cx.facets, key=sorted)))
        out.append(cx)
    return out


def test_search_agrees_with_the_adjacency_oracle():
    rng = random.Random(1)
    complexes = [entry.complex for entry in standard_catalog(dmax=5, f0max=10)]
    complexes.append(barnette_sphere().complex)
    complexes += [cross_polytope_boundary(d) for d in (5, 6, 7)]
    for d, n in ((3, 8), (4, 9)):
        complexes += stacked_spheres(d, n, 6, rng)
    for cx in complexes:
        labels = sorted(cx.vertices)
        copy = relabel(cx, dict(zip(labels, rng.sample(range(3 * len(labels)), len(labels)))))
        cert = are_isomorphic(cx, copy)
        assert maps_facets_onto_facets(cert, cx, copy)
        assert oracle.are_isomorphic_adjacency(cx.facets, copy.facets) is not None
    by_f = {}
    for i, cx in enumerate(complexes):
        by_f.setdefault(f_vector(cx).entries, []).append(i)
    negatives = 0
    for a, b in (pair for bucket in by_f.values() for pair in combinations(bucket, 2)):
        expected = oracle.are_isomorphic_adjacency(complexes[a].facets, complexes[b].facets)
        cert = are_isomorphic(complexes[a], complexes[b])
        assert bool(cert) == (expected is not None)
        assert not cert or maps_facets_onto_facets(cert, complexes[a], complexes[b])
        negatives += not cert
    assert negatives >= 10


#: 2-complexes on six vertices with equal f-vectors and vertex classes, found
#: by a seeded random search; a search that left the facets through the last
#: vertex it places unchecked would accept each pair
SMALL_NEGATIVES = [
    (
        [[0, 1, 3], [0, 2, 4], [0, 2, 5], [0, 4, 5], [1, 2, 4], [1, 3, 4], [2, 3, 5]],
        [[0, 1, 3], [0, 2, 3], [0, 2, 5], [1, 2, 5], [1, 4, 5], [2, 3, 4], [3, 4, 5]],
    ),
    (
        [[0, 3, 4], [0, 4, 5], [1, 2, 3], [1, 3, 4], [1, 3, 5]],
        [[0, 1, 3], [0, 1, 4], [0, 2, 5], [0, 4, 5], [1, 2, 4]],
    ),
    (
        [[0, 1, 3], [0, 3, 4], [0, 3, 5], [0, 4, 5], [1, 2, 3], [1, 2, 5]],
        [[0, 3, 4], [0, 3, 5], [1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 5]],
    ),
]


@pytest.mark.parametrize("facets1, facets2", SMALL_NEGATIVES)
def test_small_pairs_with_equal_invariants(facets1, facets2):
    cx1, cx2 = from_facets(facets1), from_facets(facets2)
    assert equal_invariant_pairs([cx1, cx2]) == [(0, 1)]
    assert oracle.are_isomorphic_adjacency(cx1.facets, cx2.facets) is None
    assert not are_isomorphic(cx1, cx2)
    assert not are_isomorphic(cx2, cx1)


def ordered_equal_invariant_pairs(group):
    pairs = equal_invariant_pairs(group)
    return [(group[i], group[j]) for a, b in pairs for i, j in ((a, b), (b, a))]


def test_search_on_vertex_bits_returns_the_search_on_labels_certificate(census):
    # the same order, candidates and prunes on vertex bits: the same mapping,
    # in the same placement order, or None, as the search on labels it replaced
    rng = random.Random(3)
    catalog = [entry.complex for entry in standard_catalog(dmax=7, f0max=16)]
    cases = ordered_equal_invariant_pairs(census) + ordered_equal_invariant_pairs(catalog)
    for cx in census + catalog:
        labels = sorted(cx.vertices)
        images = rng.sample(range(3 * len(labels)), len(labels))
        cases.append((cx, relabel(cx, dict(zip(labels, images)))))
    for pair in SMALL_NEGATIVES:
        cases += [(from_facets(a), from_facets(b)) for a, b in (pair, pair[::-1])]
    found = 0
    for a, b in cases:
        got, expected = are_isomorphic(a, b).mapping, oracle.are_isomorphic_by_labels(a, b).mapping
        assert got == expected and (got is None or list(got) == list(expected))
        found += got is not None
    assert (len(cases), found) == (62 + 12 + 39 + 67 + 6, 12 + 39 + 67)


def widened_worst_pair(census, widen):
    return tuple(widen(census[k]) for k in WORST_PAIR)


@pytest.mark.parametrize(
    "pair, nodes",
    [
        (lambda census: (census[36], census[37]), 29_280),
        (lambda census: widened_worst_pair(census, suspension), 58_386),
        (lambda census: widened_worst_pair(census, lambda cx: join(cx, simplex_boundary(2))),
         175_119),
    ],
    ids=["census-pair", "suspended", "joined-with-a-triangle"],
)
@pytest.mark.parametrize("search", ["bits", "labels"])
def test_both_searches_visit_the_same_nodes(census, pair, nodes, search, monkeypatch):
    # each search answers with the guard at its node count and raises one below
    module, run = {
        "bits": (isomorphism, are_isomorphic),
        "labels": (oracle, oracle.are_isomorphic_by_labels),
    }[search]
    a, b = pair(census)
    monkeypatch.setattr(module, "ISOMORPHISM_GUARD", nodes)
    assert not run(a, b)
    monkeypatch.setattr(module, "ISOMORPHISM_GUARD", nodes - 1)
    with pytest.raises(TooLargeError, match="isomorphism guard"):
        run(a, b)

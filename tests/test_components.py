"""Every connectivity question is answered by ``complexes._components`` on
bitmasks; these tests compare it, and the join search and the link split
that sort its components, with the depth-first search of
``tests/oracle.py`` and the references built on it, on random mask
families, the dmax=7 catalog and the links of the Lemma 3.8 instances."""

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from scx import PreconditionError, cycle, detect_join, from_facets, standard_catalog, verify
from scx.complexes import _components
from scx.retriangulate import _split_link_along


@st.composite
def mask_families(draw):
    """Masks on eight bits, with 0 and repeats common."""
    masks = draw(st.lists(st.one_of(st.just(0), st.integers(1, 2**8 - 1)), max_size=12))
    if masks:
        masks += draw(st.lists(st.sampled_from(masks), max_size=4))
    return draw(st.permutations(masks))


@given(mask_families())
@example([])
@example([0, 0, 0b11, 0b11, 0b100])
@settings(max_examples=400, deadline=None)
def test_components_match_the_search(masks):
    assert sorted(_components(masks)) == oracle.components_by_search(masks)


@pytest.fixture(scope="module")
def catalog():
    return [entry.complex for entry in standard_catalog(dmax=7)]


@pytest.fixture(scope="module")
def lemma_3_8_links():
    """The link of every vertex of every Lemma 3.8 instance."""
    return [
        cx.link([v])
        for _, cx, _, _ in verify._swartz_instances(verify.Scale(dmax=7, f0max=16))
        for v in sorted(cx.vertices)
    ]


def test_join_partitions_match_the_search(catalog, lemma_3_8_links):
    complexes = catalog + lemma_3_8_links
    parts = [detect_join(cx) for cx in complexes]
    assert parts == [oracle.detect_join_by_search(cx) for cx in complexes]
    assert sum(part is not None for part in parts) > 100


def split(link, tau):
    """The halves of ``_split_link_along`` and the reference, or the message
    with which each refuses."""
    found = []
    for along in (_split_link_along, oracle.split_link_by_search):
        try:
            found.append(along(link, frozenset(tau)))
        except PreconditionError as exc:
            found.append(str(exc))
    return found


# a cycle cut at one vertex stays whole, and a theta graph cut at its two
# poles falls into three paths
REFUSED = [
    (cycle(5), (0, 7)),
    (from_facets([[0, 2], [2, 1], [0, 3], [3, 1], [0, 4], [4, 1]]), (0, 1)),
]


def test_link_halves_match_the_search(catalog, lemma_3_8_links):
    links = [cx.link([v]) for cx in catalog for v in sorted(cx.vertices)] + lemma_3_8_links
    compared = 0
    for link in links:
        for tau in link.missing_faces(link.dim):
            ours, reference = split(link, tau)
            assert ours == reference and len(ours) == 2, (link, tau)
            compared += 1
    assert compared > 600
    for link, tau in REFUSED:
        ours, reference = split(link, tau)
        assert ours == reference and "not 2" in ours

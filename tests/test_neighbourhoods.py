"""Every vertex neighbourhood is read off facet bitmasks by one routine,
``complexes._neighbourhoods``; this test compares it with the edges of the
powerset closure of ``tests/oracle.py`` on random mask families, lone
vertices, repeats and the empty mask included.  Its labelled view,
``adjacency``, is compared with the same edges in
``tests/test_mask_closure.py``."""

from hypothesis import example, given, settings, strategies as st

import oracle
from scx.complexes import _neighbourhoods

# faces on ten vertices: the empty face and lone vertices are common
FACES = st.one_of(
    st.just(frozenset()),
    st.integers(0, 9).map(lambda v: frozenset({v})),
    st.frozensets(st.integers(0, 9), max_size=5),
)


@given(st.lists(FACES, max_size=10))
@example([])
@example([frozenset()])
@example([frozenset({3})])
@example([frozenset({0, 1}), frozenset({0, 1}), frozenset({1}), frozenset({5}), frozenset()])
@settings(max_examples=400, deadline=None)
def test_neighbourhoods_are_read_off_the_closure_edges(faces):
    edges = [e for e in oracle.closure(faces) if len(e) == 2]
    near = {v: {v}.union(*(e for e in edges if v in e)) for v in set().union(*faces)}
    masks = [sum(1 << v for v in f) for f in faces]
    assert _neighbourhoods(masks) == {1 << v: sum(1 << u for u in us) for v, us in near.items()}

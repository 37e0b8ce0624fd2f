"""Every size guard at its bound.

One rule, ``errors._guard``, trips every guard: a reading equal to its bound
passes, and a reading one over it raises ``TooLargeError`` naming the guard,
the reading and the bound.  Each guard is tested on a fixed input whose
reading is pinned, with its module constant set to that reading and then to
one less, as ``test_detect_join_guard`` does.
"""

from itertools import combinations

import pytest

from conftest import clear_memos
from scx import (
    TooLargeError,
    are_isomorphic,
    betti,
    cross_polytope_boundary,
    detect_join,
    from_facets,
    simplex_boundary,
    skeleton_completion,
    stacked_sphere,
    stress_basis,
)
from scx import complexes, homology, isomorphism, rigidity
from scx.errors import _guard

STACKED = stacked_sphere(4, 7)
MIRRORED = from_facets([[6 - v for v in f] for f in STACKED.facets])
BD3, BD4, OCT4 = simplex_boundary(3), simplex_boundary(4), cross_polytope_boundary(4)


def _betti_of_bd3():
    clear_memos()  # a memo hit reads no guard
    return betti(BD3).entries


#: guard -> (module, the reading of the call, the call, its answer at the bound,
#: the words its message keeps)
GUARDS = {
    # five facets of four vertices: 5 * 2^4, before the closure is built
    "CLOSURE_GUARD": (
        complexes, 80, lambda: len(from_facets(combinations(range(5), 4)).faces()), 31,
        "closure bound",
    ),
    # K5: five non-edge components, so 2^4 sides, times its ten edges
    "JOIN_GUARD": (
        complexes, 160, lambda: detect_join(from_facets(combinations(range(5), 2))), None,
        "join-search guard",
    ),
    # d_1 and d_2 of the tetrahedron boundary, 4 x 6 and 6 x 4 cells
    "BETTI_GUARD": (homology, 24, _betti_of_bd3, (0, 0, 0, 1), "Betti guard"),
    # every vertex set of K5 qualifies: the 4-simplex
    "COMPLETION_GUARD": (
        homology, 16, lambda: skeleton_completion(BD4, 1).facets, {frozenset(range(5))},
        "completion guard",
    ),
    # one candidate image per vertex: the classes leave no choice
    "ISOMORPHISM_GUARD": (
        isomorphism, 7, lambda: bool(are_isomorphic(STACKED, MIRRORED)), True,
        "isomorphism guard",
    ),
    # the octahedral 3-sphere: its rank reaches the bound 22, times its 24 edges
    "RIGIDITY_GUARD": (
        rigidity, 528, lambda: len(stress_basis(OCT4).vectors), 2, "stress guard",
    ),
}


@pytest.mark.parametrize("guard", list(GUARDS))
def test_a_reading_equal_to_its_bound_passes_and_one_over_it_trips(monkeypatch, guard):
    module, reading, call, answer, words = GUARDS[guard]
    monkeypatch.setattr(module, guard, reading)
    assert call() == answer
    monkeypatch.setattr(module, guard, reading - 1)
    with pytest.raises(TooLargeError, match=words) as trip:
        call()
    assert str(trip.value).endswith(f": {reading} exceeds the bound {reading - 1}")


def test_the_guard_rule_names_the_guard_the_reading_and_the_bound():
    _guard(5, 5, "test guard, cells")
    with pytest.raises(TooLargeError) as trip:
        _guard(6, 5, "test guard, cells")
    assert str(trip.value) == "test guard, cells: 6 exceeds the bound 5"


def test_a_clamped_planned_closure_reads_a_lower_bound():
    # the generators' reading stops its shift at the guard's bit length, so
    # 10^9 facets of 10^9 - 1 vertices read as 10^9 * 2^18, "at least"
    with pytest.raises(TooLargeError) as trip:
        simplex_boundary(10**9 - 1)
    bits = complexes.CLOSURE_GUARD.bit_length()
    assert str(trip.value) == (
        "closure guard, closure bound of the planned facets, at least:"
        f" {10**9 << bits} exceeds the bound {complexes.CLOSURE_GUARD}"
    )

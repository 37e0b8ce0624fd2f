import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from scx import cross_polytope_boundary, cycle, homology, join, simplex_boundary


@pytest.fixture(scope="session")
def bd3():
    return simplex_boundary(3)


@pytest.fixture(scope="session")
def bd4():
    return simplex_boundary(4)


@pytest.fixture(scope="session")
def bd5():
    return simplex_boundary(5)


@pytest.fixture(scope="session")
def oct3():
    """Boundary of the 4-dimensional cross polytope."""
    return cross_polytope_boundary(4)


@pytest.fixture(scope="session")
def cycle_join():
    """The 3-sphere C4 * boundary of a triangle, prime with g2 = 1."""
    return join(cycle(4), simplex_boundary(2))


@pytest.fixture
def flipped_d1(monkeypatch):
    """Give one column of every d_1 that ``betti`` builds a wrong sign, on an
    empty memo that is emptied again afterwards."""
    original = homology._boundary_columns

    def flipped(cx, k):
        columns = original(cx, k)
        if k == 1 and columns:
            columns[0][min(columns[0])] *= -1
        return columns

    monkeypatch.setattr(homology, "_boundary_columns", flipped)
    homology._betti.cache_clear()
    yield
    homology._betti.cache_clear()

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from scx import cross_polytope_boundary, cycle, homology, join, read_scx_text, simplex_boundary

CENSUS = Path(__file__).with_name("census_3spheres_8.txt")


@pytest.fixture(scope="session")
def census():
    """Barnette's 39 combinatorial 3-spheres with 8 vertices."""
    blocks = CENSUS.read_text().split("# sphere ")[1:]
    return [read_scx_text(block.split("\n", 1)[1]) for block in blocks]


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


def clear_memos():
    """Empty the four homology memos (Betti numbers, sphere verdicts, ball
    analyses and class keys), so that every homology fact is computed again."""
    homology._betti.cache_clear()
    homology._is_sphere.cache_clear()
    homology._ball.cache_clear()
    homology._class_key.cache_clear()


def shelling_off(monkeypatch):
    """Make every shelling attempt (``homology._shells``) fail, so that each
    sphere and manifold verdict takes the elimination path: the Betti
    numbers, then the vertex links."""
    monkeypatch.setattr(homology, "_shells", lambda masks: False)


@pytest.fixture
def no_shelling(monkeypatch):
    """:func:`shelling_off` for one test."""
    shelling_off(monkeypatch)


@pytest.fixture
def flipped_d1(monkeypatch):
    """Give one column of every d_1 that ``betti`` builds a wrong sign, on
    empty memos that are emptied again afterwards."""
    original = homology._boundary_columns

    def flipped(faces, k):
        columns = original(faces, k)
        if k == 1 and columns:
            columns[0][min(columns[0])] *= -1
        return columns

    monkeypatch.setattr(homology, "_boundary_columns", flipped)
    clear_memos()  # a warm verdict or ball analysis would skip the plant
    yield
    clear_memos()

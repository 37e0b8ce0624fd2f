import ast
import hashlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import scx

sys.path.insert(0, str(Path(__file__).parent))

from scx import (
    Scale,
    cross_polytope_boundary,
    cycle,
    homology,
    join,
    read_scx_text,
    run_all,
    simplex_boundary,
)

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


def digest(reports) -> str:
    """The one rule by which reports are pinned: the first 16 hex digits of
    the sha256 of the JSON of one report, or of a whole run's list of
    reports, ``seconds`` left out."""

    def body(report):
        return {k: v for k, v in report.to_dict().items() if k != "seconds"}

    payload = [body(r) for r in reports] if isinstance(reports, list) else body(reports)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


@pytest.fixture(scope="session")
def reports():
    """The reports of one ``run_all()`` at ``Scale()``, by statement, in
    registry order."""
    return {rep.statement: rep for rep in run_all(Scale())}


def optimized_exit_code(code: str) -> int:
    """The exit code of ``code`` run by ``python -O``, which strips assert
    statements, with the package and these tests importable: 2 if the flag
    did not take."""
    code = "import sys\nif not sys.flags.optimize:\n    raise SystemExit(2)\n" + code
    paths = [str(Path(scx.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([*paths, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=120).returncode


def clear_memos():
    """Empty the three homology memos (Betti numbers, ball analyses and
    shelling searches), so that every homology fact is computed again."""
    homology._betti.cache_clear()
    homology._ball.cache_clear()
    homology._shelling.cache_clear()


def shelling_off(monkeypatch):
    """Make every shelling attempt (``homology._shells``) fail, so that each
    sphere and manifold verdict takes the elimination path (the Betti
    numbers, then the face links), and each ball analysis and normal
    pseudomanifold test its sweep; but a sphere verdict below dimension 3,
    on a complex (``homology.is_homology_sphere``) or a vertex link
    (``homology._vertex_sweep``), which the search alone decides, still
    reads it."""
    original = homology._shells
    verdicts = ("is_homology_sphere", "_vertex_sweep")

    def low_verdicts_only(masks, closure):
        low = max(map(int.bit_count, masks)) < 4 and sys._getframe(1).f_code.co_name in verdicts
        return original(masks, closure) if low else (False, ())

    monkeypatch.setattr(homology, "_shells", low_verdicts_only)


def shells_without_the_s_test():
    """The search ``homology._shelling`` compiled from its source, with an
    empty memo of its own, and with the test that S lies in no placed facet
    dropped: a search that places every facet it meets, so that only the
    h-vector certificate of ``homology._shells`` refuses a complex it
    "shells" by mistake."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(homology._shelling)))
    dropped = []

    class DropTheSTest(ast.NodeTransformer):
        def visit_If(self, node):
            if isinstance(node.body[0], ast.Continue) and "held" in ast.unparse(node.test):
                return dropped.append(node)
            return self.generic_visit(node)

    planted = ast.fix_missing_locations(DropTheSTest().visit(tree))
    assert len(dropped) == 1
    namespace = dict(vars(homology))
    exec(compile(planted, homology.__file__, "exec"), namespace)
    return namespace["_shelling"]


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

"""Checks on the package source itself."""

import ast
from pathlib import Path

import scx

SOURCE = Path(scx.__file__).parent


def test_no_assert_statement_in_the_package():
    # `python -O` strips assert statements, and the certificates must still run
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SOURCE.glob("*.py"))) > 10
    assert found == []


def _uses(name):
    """(module, innermost enclosing function or None) of every reference to
    ``name`` in the package, as a bare name or an attribute."""
    found = []

    def visit(node, where, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Name, ast.Attribute)) and name in (
                getattr(child, "id", None),
                getattr(child, "attr", None),
            ):
                found.append((module, where))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            visit(child, inner, module)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), None, path.name)
    return found


def test_no_rank_falls_back_to_bareiss():
    # every rank is one column reduction: Bareiss serves the nullspaces and
    # the reference rank over Q, which nothing in the package calls
    assert sorted(set(_uses("_bareiss"))) == [
        ("exact.py", "rank_rational"),
        ("exact.py", "right_nullspace"),
    ]
    assert _uses("rank_rational") == []

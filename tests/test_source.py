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

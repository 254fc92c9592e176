"""Properties of the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "barlog"


def test_no_assert_statements():
    # python -O strips assert statements, so an invariant checked by one
    # would silently stop holding; the package raises BarlogError (or a
    # built-in exception) instead.
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []

"""Rules on the package source itself."""

import ast
from pathlib import Path

import fadingdirt

SRC = Path(fadingdirt.__file__).parent


def test_no_assert_statements():
    """`python -O` strips assert statements, so a check written as one
    vanishes; domain checks raise a ToolkitError instead."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []

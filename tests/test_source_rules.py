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


# the quadrature routines; scipy is a test oracle everywhere else
SCIPY_HOSTS = {"entropy_bits_quadrature", "continuous_interval_params", "inner_continuous"}


def _scipy_imports(tree):
    """(line, innermost enclosing function or "<module>") of each scipy import."""
    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if any(name.split(".")[0] == "scipy" for name in names):
            yield node.lineno, owner
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)
    return visit(tree, "<module>")


def test_scipy_imported_only_by_quadrature():
    """A scipy import anywhere else would put its ~0.5 s import back into
    the start-up of commands that never integrate."""
    found = [f"{path.name}:{line} in {owner}"
             for path in sorted(SRC.glob("*.py"))
             for line, owner in _scipy_imports(ast.parse(path.read_text(encoding="utf-8")))
             if owner not in SCIPY_HOSTS]
    assert found == []

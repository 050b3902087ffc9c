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


def _uses(tree, match):
    """(line, innermost enclosing function or "<module>") of each node that
    `match` accepts."""
    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if match(node):
            yield node.lineno, owner
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)
    return visit(tree, "<module>")


def _found(match, allowed):
    """Each use that `allowed(file name, owner)` rejects, as "file:line in owner"."""
    return [f"{path.name}:{line} in {owner}"
            for path in sorted(SRC.glob("*.py"))
            for line, owner in _uses(ast.parse(path.read_text(encoding="utf-8")), match)
            if not allowed(path.name, owner)]


# the quadrature routines; scipy is a test oracle everywhere else
SCIPY_HOSTS = {"entropy_bits_quadrature", "continuous_interval_params", "inner_continuous"}


def _scipy_import(node):
    names = ([a.name for a in node.names] if isinstance(node, ast.Import)
             else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
    return any(name.split(".")[0] == "scipy" for name in names)


def test_scipy_imported_only_by_quadrature():
    """A scipy import anywhere else would put its ~0.5 s import back into
    the start-up of commands that never integrate."""
    assert _found(_scipy_import, lambda name, owner: owner in SCIPY_HOSTS) == []


SEEDING = {"default_rng", "SeedSequence"}


def _seeding_use(node):
    """A numpy seeding name as a bare name, an attribute or an import."""
    names = ([node.attr] if isinstance(node, ast.Attribute)
             else [node.id] if isinstance(node, ast.Name)
             else [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else [])
    return bool(SEEDING.intersection(names))


def test_generators_built_only_by_seeded_rng():
    """One function owns the seeding policy and its seed check; a generator
    built anywhere else could skip the check or collide with another stream."""
    assert _found(_seeding_use,
                  lambda name, owner: (name, owner) == ("fading.py", "seeded_rng")) == []

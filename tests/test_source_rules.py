"""Rules on the package source itself."""

import ast
from pathlib import Path

import fadingdirt
from fadingdirt.harness import THEOREMS

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


def _found(match, allowed, sources=None):
    """Each use that `allowed(file name, owner)` rejects, as "file:line in
    owner", over the (file name, text) pairs of sources, else the package."""
    if sources is None:
        sources = [(path.name, path.read_text(encoding="utf-8"))
                   for path in sorted(SRC.glob("*.py"))]
    return [f"{name}:{line} in {owner}"
            for name, text in sources
            for line, owner in _uses(ast.parse(text), match)
            if not allowed(name, owner)]


# the loader of QUADPACK's extension, which `fading.integrate` calls; scipy
# is a test oracle everywhere else
SCIPY_HOSTS = {"_quadpack"}


def _names_scipy(node):
    """An import of scipy, the name `scipy`, or a string that mentions it."""
    names = ([a.name for a in node.names] if isinstance(node, ast.Import)
             else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
    return (any(name.split(".")[0] == "scipy" for name in names)
            or isinstance(node, ast.Name) and node.id == "scipy"
            or isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "scipy" in node.value)


def test_scipy_imported_only_by_quadrature():
    """A scipy import anywhere else would put its ~0.7 s import back into
    the start-up of commands; the loader of the one compiled extension the
    package uses is the only code that names scipy at all."""
    assert _found(_names_scipy,
                  lambda name, owner: name == "fading.py" and owner in SCIPY_HOSTS) == []


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


def _pdf_read(node):
    """A read of a `pdf` attribute, called or bound to a name."""
    return isinstance(node, ast.Attribute) and node.attr == "pdf"


# the memoized scalar read, and the two vectorized reads over a grid
PDF_OWNERS = {("fading.py", "density"), ("gauss_mi.py", "terms"),
              ("bounds_rcsi.py", "continuous_interval_params")}


def _pdf_allowed(name, owner):
    return (name, owner) in PDF_OWNERS


def test_scalar_density_read_only_through_the_memo():
    """`FadingDistribution.density` evaluates each node once per law; a pdf
    read anywhere else, a scalar one above all, would pay numpy's per-call
    cost again at every quadrature node it revisits."""
    assert _found(_pdf_read, _pdf_allowed) == []


def test_density_rule_flags_attribute_and_alias_reads():
    integrate = """
def integrate(dist, f, lo, hi):
    p = float(dist.pdf(lo))
    pdf = dist.pdf
    return f(hi, float(pdf(hi))) + p
"""
    assert _found(_pdf_read, _pdf_allowed, [("fading.py", integrate)]) == [
        "fading.py:3 in integrate", "fading.py:4 in integrate"]
    owners = [(name, f"def {owner}(dist, x):\n    return dist.pdf(x)\n")
              for name, owner in sorted(PDF_OWNERS)]
    assert _found(_pdf_read, _pdf_allowed, owners) == []


def _called_name(node):
    """The name a call calls, by bare name or as an attribute; "" for any
    other node."""
    func = node.func if isinstance(node, ast.Call) else None
    return (func.attr if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else "")


def _bound_call(node):
    """A call of a bound evaluator (`inner_*`, `outer_*`) or a builder of a
    law's constants (`*_params`)."""
    name = _called_name(node)
    return name.startswith(("inner_", "outer_")) or name.endswith("_params")


def test_cli_evaluates_no_bound():
    """`harness` holds the one evaluation path of each theorem, which both
    `bounds` and `sweep` run; a bound evaluated in the CLI would be a second
    dispatch that can drift from the sweep's."""
    assert _found(_bound_call, lambda name, owner: name != "cli.py") == []


def test_quadrature_only_in_the_continuous_theorem():
    """QUADPACK serves the continuous theorem alone, whose constants and
    inner bound have no closed form; a quadrature on any other path would
    bring scipy's extension, QuadratureWarning and QuadratureFailure back to
    a command that has none of them."""
    assert _found(lambda node: _called_name(node) == "integrate",
                  lambda name, owner: name == "bounds_rcsi.py") == []


def _theorem_or_private_harness_name(node):
    """A theorem's name as a string constant, or a private name of `harness`
    imported from it or read as its attribute."""
    return (isinstance(node, ast.Constant) and node.value in THEOREMS
            or isinstance(node, ast.ImportFrom) and (node.module or "").endswith("harness")
            and any(a.name.startswith("_") for a in node.names)
            or isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and isinstance(node.value, ast.Name) and node.value.id == "harness")


def test_cli_names_no_theorem():
    """`harness` declares each theorem once, with the inputs it reads; a
    theorem named in the CLI, or a private name of `harness` read there, is a
    second declaration that can drift from that table."""
    assert _found(_theorem_or_private_harness_name, lambda name, owner: name != "cli.py") == []


def _numpy_unique(node):
    """`np.unique` or `numpy.unique`, or `unique` imported from numpy."""
    return (isinstance(node, ast.Attribute) and node.attr == "unique"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
            and any(a.name == "unique" for a in node.names))


def test_no_numpy_unique():
    """The first call of `np.unique` in a process imports `numpy.ma`, about
    10 ms; `fading.sorted_distinct` gives the same sorted distinct values."""
    assert _found(_numpy_unique, lambda name, owner: False) == []


# every module each of the two mixture modules imports, anywhere in it:
# the grid and quadrature helpers use math and numpy alone
MIXTURE_IMPORTS = {
    "fading.py": {"__future__", "importlib.machinery", "importlib.util", "json", "math", "os",
                  "sys", "warnings", "dataclasses", "functools", "numpy", ".errors"},
    "gauss_mi.py": {"__future__", "math", "dataclasses", "numpy", ".bounds_norcsi", ".errors",
                    ".fading"},
}


def _imported_modules(tree):
    """The module named by each import statement in the tree, with a leading
    dot per level of a relative import."""
    return ({a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
            | {"." * node.level + (node.module or "") for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)})


def test_mixture_modules_import_nothing_new():
    """`fading` and `gauss_mi` are on the path of every command that reads a
    law; a new import there (a quantile helper's `statistics`, or scipy in
    the grid of `mi --no-rcsi`) would add its import time to the start-up of
    each of them."""
    for name, modules in MIXTURE_IMPORTS.items():
        assert _imported_modules(ast.parse((SRC / name).read_text(encoding="utf-8"))) == modules, name

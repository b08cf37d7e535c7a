"""The runtime needs numpy alone: no module of the package imports scipy or
numpy.random or reads a file out of another package's install, and the
declared runtime dependencies say the same.  Every name a module exports
exists."""

import ast
import importlib
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "eqtoeplitz")
#: modules no package module imports: scipy is a test dependency, the
#: sampler's scramble bits come from the stdlib generator, not numpy.random,
#: and the others are how a foreign install's data files would be found and read
FORBIDDEN = ("scipy", "numpy.random", "zipfile", "importlib.util", "numpy.lib.format")


def imported(tree):
    """Every absolute module name an import in tree binds or reads from,
    with `from m import x` also giving m.x."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_package_imports_no_scipy_or_archive_reader():
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            bad = [m for m in imported(tree)
                   if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)]
            if bad:
                found[name] = bad
    assert not found


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")        # Python >= 3.11
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


@pytest.mark.parametrize("module", ["eqtoeplitz"] + sorted(
    f"eqtoeplitz.{name[:-3]}" for name in os.listdir(PACKAGE)
    if name.endswith(".py") and name != "__init__.py"))
def test_every_export_resolves(module):
    # a deleted function left in `__all__` would break `from m import *` only
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []

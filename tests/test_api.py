"""The public API is consistent: what a module lists in ``__all__`` exists,
and what the package re-exports is listed by the module it comes from, so a
deleted function cannot leave a stale export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sgfem

MODULES = sorted(m.name for m in pkgutil.iter_modules(sgfem.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"sgfem.{name}")
    assert hasattr(module, "__all__")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def package_imports():
    """(module, name) for each ``from .module import name`` of the package."""
    tree = ast.parse(Path(sgfem.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield node.module, alias.name


def test_package_exports_listed_by_their_module():
    imports = list(package_imports())
    assert imports
    unlisted = [
        (module, name) for module, name in imports
        if name not in importlib.import_module(f"sgfem.{module}").__all__
    ]
    assert unlisted == []
    # every public name of the package comes from one of those imports
    public = {n for n in vars(sgfem) if not n.startswith("_")} - set(MODULES)
    assert public == {name for _, name in imports}

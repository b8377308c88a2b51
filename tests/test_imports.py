"""Every name the package and the tests import is used, and no module of
the package imports another module's ``_``-prefixed name: what modules
share, such as the refinement's child layout in ``mesh``, crosses module
boundaries by public name only.

Each module is parsed with ``ast``: a name that an import binds must be
read somewhere in the module, as a name or as an entry of ``__all__``.
Exempt are a name whose line, or whose import statement's first line,
carries ``# noqa: F401`` (``estimators`` keeps ``assemble_stiffness`` for
the benchmark's tracer), and the relative imports of the package's
``__init__``, which are its public names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "sgfem").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str, reexports: bool = False) -> list[tuple[int, str]]:
    """(line, name) of each name that `source` imports and never reads, in
    line order; with `reexports`, relative imports count as read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            read.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and (node.module == "__future__"
                                                 or reexports and node.level > 0):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            marked = any("# noqa: F401" in lines[k - 1] for k in (node.lineno, alias.lineno))
            if name != "*" and name not in read and not marked:
                unused.append((alias.lineno, name))
    return sorted(unused)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), reexports=path.name == "__init__.py") == []


def test_checker_finds_unused_names():
    source = "\n".join([
        "from __future__ import annotations",
        "import os, sys as system",
        "import scipy.sparse",
        "from .galerkin import (",
        "    solve,",
        "    prolong,  # noqa: F401 -- kept",
        ")",
        "from .mesh import (  # noqa: F401",
        "    refine,",
        ")",
        "from .problem import spec, parse",
        "import numpy as np",
        "__all__ = ['spec']",
        "np = scipy.sparse.eye(2)",
    ])
    unused = [(2, "os"), (2, "system"), (11, "parse"), (12, "np")]
    assert unused_imports(source) == unused[:2] + [(5, "solve")] + unused[2:]
    assert unused_imports(source, reexports=True) == [(2, "os"), (2, "system"), (12, "np")]


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each ``_``-prefixed name that `source` imports from
    another module, in line order."""
    return sorted((alias.lineno, alias.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                  for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_private_imports_between_modules(path):
    assert private_imports(path.read_text()) == []


def test_checker_finds_private_names():
    source = "\n".join([
        "from __future__ import annotations",
        "import numpy as np",
        "from .mesh import (",
        "    Mesh,",
        "    _CHILD_SLOTS,",
        ")",
        "from sgfem.galerkin import _pcg as pcg, solve",
        "from . import _helpers",
        "_private = np.zeros(3)",
    ])
    assert private_imports(source) == [(5, "_CHILD_SLOTS"), (7, "_pcg"), (8, "_helpers")]

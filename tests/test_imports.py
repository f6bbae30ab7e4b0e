"""Every name a ``bvq`` module imports is used in that module.

There is no linter in the toolchain, so this test catches imports left
behind when code is deleted.  ``__init__.py`` only re-exports, and
``bridge`` re-exports the process map it documents as living in
``ccsr``; those names are allowed.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bvq"
REEXPORTS = {"bridge.py": {"to_structure", "from_structure"}}


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside string annotations such as ``"Structure | None"``."""
    out: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Constant) and isinstance(n.value, str):
            try:
                expr = ast.parse(n.value, mode="eval")
            except SyntaxError:
                continue
            out |= {m.id for m in ast.walk(expr) if isinstance(m, ast.Name)}
    return out


def unused_imports(source: str) -> set[str]:
    """The names ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return imported - used


def test_unused_imports_are_found():
    src = ("from __future__ import annotations\n"
           "import os, sys\n"
           "from typing import Optional\n"
           "from .m import a, b as c\n"
           "def f(x: 'Optional[int]'): return sys.argv, a\n")
    assert unused_imports(src) == {"os", "c"}


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(module):
    source = (SRC / module).read_text(encoding="utf-8")
    assert unused_imports(source) - REEXPORTS.get(module, set()) == set()

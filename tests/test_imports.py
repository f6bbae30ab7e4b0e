"""Every name a ``bvq`` module imports is used in that module, and every
private module-level name is read by some ``bvq`` module.

There is no linter in the toolchain, so these tests catch imports and
private helpers left behind when code is deleted.  ``__init__.py`` only
re-exports, so it is not checked.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "bvq"


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


def _read_names(node: ast.AST) -> set[str]:
    """The names ``node`` reads, string annotations included."""
    used: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            used.add(n.id)
        elif isinstance(n, ast.arg) and n.annotation is not None:
            used |= _annotation_names(n.annotation)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and n.returns is not None:
            used |= _annotation_names(n.returns)
        elif isinstance(n, ast.AnnAssign):
            used |= _annotation_names(n.annotation)
    return used


def unused_imports(source: str) -> set[str]:
    """The names ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    return imported - _read_names(tree)


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
    assert unused_imports(source) == set()


def _defined_names(stmt: ast.stmt) -> list[str]:
    """The names a module-level statement defines by ``def``, ``class`` or
    assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _sibling_imports(stmt: ast.stmt) -> set[tuple[str, str]]:
    """``(module file, name)`` for each name ``stmt`` imports, at any depth,
    from a sibling module (``from .m import name``)."""
    return {(f"{n.module}.py", a.name) for n in ast.walk(stmt)
            if isinstance(n, ast.ImportFrom) and n.level == 1 for a in n.names}


def unread_private_names(sources: dict[str, str]) -> set[tuple[str, str]]:
    """``(module, name)`` for each private module-level name (one leading
    underscore) that no module reads: neither another statement of its
    own module, so a helper that only calls itself is unread, nor a
    module that imports it."""
    defined: list[tuple[str, str, ast.stmt]] = []
    reads: list[tuple[str, ast.stmt, set[str], set[tuple[str, str]]]] = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            reads.append((module, stmt, _read_names(stmt), _sibling_imports(stmt)))
            defined += [(module, name, stmt) for name in _defined_names(stmt)
                        if name.startswith("_") and not name.startswith("__")]
    return {(module, name) for module, name, stmt in defined
            if not any((reader == module and other is not stmt and name in names)
                       or (module, name) in imports
                       for reader, other, names, imports in reads)}


def test_unread_private_names_are_found():
    sources = {
        "m.py": ("from .n import _used\n"
                 "_DEAD, _LIVE, _SHARED = 1, 2, 3\n"
                 "def _loop(n): return _loop(n - 1)\n"
                 "def f(x: '_Hint') -> int: return _LIVE + _used()\n"
                 "class _Hint: pass\n"),
        "n.py": ("def _used(): return 0\n"
                 "def _unused(): return _DEAD\n"
                 "def g():\n"
                 "    from .m import _SHARED\n"
                 "    return _SHARED\n"),
    }
    assert unread_private_names(sources) == {
        ("m.py", "_DEAD"), ("m.py", "_loop"), ("n.py", "_unused")}


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unread_private_names(sources) == set()

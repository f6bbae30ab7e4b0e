"""Every name a ``bvq`` module imports is used in that module, every
private module-level name is read by some ``bvq`` module, and every
public function and class is read outside the tests.

There is no linter in the toolchain, so these tests catch imports and
helpers left behind when code is deleted, and public code that only
tests still call.  ``__init__.py`` only re-exports, so it is not checked
and its re-exports are no reads.
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


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def _public_reads(tree: ast.AST, modules: set[str]) -> set[tuple[str, str]]:
    """``(module file, name)`` for each name ``tree`` imports from a
    ``bvq`` module (``from .m import name``, ``from bvq.m import name``)
    or reads as an attribute of one (``m.name`` after ``from . import m``,
    ``bvq.m.name`` after ``import bvq.m``)."""
    reads: set[tuple[str, str]] = set()
    bound: dict[str, str] = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom):
            package = n.module is None if n.level == 1 else n.module == "bvq"
            sibling = n.module if n.level == 1 else n.module[4:] \
                if n.level == 0 and n.module.startswith("bvq.") else None
            for a in n.names:
                if package and f"{a.name}.py" in modules:
                    bound[a.asname or a.name] = f"{a.name}.py"
                elif sibling is not None:
                    reads.add((f"{sibling}.py", a.name))
        elif isinstance(n, ast.Import):
            for a in n.names:
                if a.name.startswith("bvq.") and f"{a.name[4:]}.py" in modules:
                    bound[a.asname or a.name] = f"{a.name[4:]}.py"
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and _dotted(n.value) in bound:
            reads.add((bound[_dotted(n.value)], n.attr))
    return reads


def unread_public_names(sources: dict[str, str],
                        readers: list[str]) -> set[tuple[str, str]]:
    """``(module, name)`` for each public module-level ``def`` or
    ``class`` of ``sources`` that nothing reads: neither another statement
    of its own module by name, nor a module of ``sources`` or a file of
    ``readers`` by importing it or reading it as an attribute of its
    module.  A bare attribute name is no read, so ``xs.extend`` does not
    read ``calculus.extend``."""
    defined: list[tuple[str, str, ast.stmt]] = []
    own: list[tuple[str, ast.stmt, set[str]]] = []
    reads: set[tuple[str, str]] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        reads |= _public_reads(tree, set(sources))
        for stmt in tree.body:
            own.append((module, stmt, _read_names(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and not stmt.name.startswith("_"):
                defined.append((module, stmt.name, stmt))
    for source in readers:
        reads |= _public_reads(ast.parse(source), set(sources))
    return {(module, name) for module, name, stmt in defined
            if (module, name) not in reads
            and not any(reader == module and other is not stmt and name in names
                        for reader, other, names in own)}


def test_unread_public_names_are_found():
    sources = {
        "m.py": ("from .n import used\n"
                 "from . import n as other\n"
                 "def dead(): return dead()\n"
                 "def helper(): return 0\n"
                 "def f(xs): xs.extend([]); return used() + helper() + other.g()\n"),
        "n.py": ("def used(): return 0\n"
                 "def g(): return 0\n"
                 "def extend(): return 0\n"
                 "class Tool: pass\n"
                 "def by_attribute(): return 0\n"
                 "def by_path(): return 0\n"),
    }
    readers = ["from bvq.n import Tool\n",
               "from bvq import n\nn.by_attribute()\n",
               "import bvq.n\nbvq.n.by_path()\n"]
    assert unread_public_names(sources, readers) == {
        ("m.py", "dead"), ("m.py", "f"), ("n.py", "extend")}


def test_every_public_name_is_read_outside_the_tests():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")
               if p.name != "__init__.py"}
    root = SRC.parent.parent
    readers = [p.read_text(encoding="utf-8")
               for d in ("bench", "tools") for p in sorted((root / d).glob("*.py"))]
    assert unread_public_names(sources, readers) == set()

"""Every name a package module imports is used in that module.

No linter is a dependency, so this walks the syntax trees with the
standard ``ast`` module.  ``__init__.py`` re-exports by design and is
skipped; names mentioned only in string annotations count as used.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "faceflow"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [f"{name} (line {imported[name]})" for name in sorted(set(imported) - used)]


def test_checker_flags_unused_and_keeps_used():
    src = (
        "from __future__ import annotations\n"
        "import os, json as js\n"
        "from typing import Optional, Callable\n"
        "def f(x: 'Optional[int]') -> Callable:\n"
        "    return os.path\n"
    )
    assert unused_imports(src) == ["js (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []

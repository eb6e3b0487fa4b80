"""Every name a package module imports is used in that module, and no
package function takes a ``config`` parameter.

No linter is a dependency, so this walks the syntax trees with the
standard ``ast`` module.  ``__init__.py`` re-exports by design and is
skipped by the import check; names mentioned only in string annotations
count as used.  The pipeline constants are part of the construction and
are read from ``faceflow.config.DEFAULT_CONFIG``, never passed per call.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "faceflow"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def config_parameters(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
            if "config" in names:
                out.append(f"{getattr(node, 'name', 'lambda')} (line {node.lineno})")
    return out


def test_checker_flags_config_parameters():
    src = (
        "def f(g, config=None):\n"
        "    def inner(*, config):\n"
        "        return config\n"
        "    return DEFAULT_CONFIG.slack_alpha\n"
        "def h(g, cfg):\n"
        "    return g\n"
    )
    assert config_parameters(src) == ["f (line 1)", "inner (line 2)"]


def test_no_config_parameters():
    found = [
        f"{p.name}: {f}" for p in SOURCES for f in config_parameters(p.read_text())
    ]
    assert found == []

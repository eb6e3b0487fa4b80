"""Every name a package module imports is used in that module, no
package function takes a ``config`` parameter, no package code raises a
bare ``RuntimeError``, and every function the benchmark's tracer wraps
by name still exists.

No linter is a dependency, so this walks the syntax trees with the
standard ``ast`` module.  ``__init__.py`` re-exports by design and is
skipped by the import check; names mentioned only in string annotations
count as used.  The pipeline constants are part of the construction and
are read from ``faceflow.config.DEFAULT_CONFIG``, never passed per call.
Failures are typed: each is raised as a ``faceflow.errors`` class that
says what went wrong.
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "faceflow"
TRACER = ROOT / "perfbench" / "tracer.py"
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


def runtime_error_raises(source: str) -> list[int]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                out.append(node.lineno)
    return sorted(out)


def test_checker_flags_runtime_error():
    src = (
        "def f(ok):\n"
        "    if not ok:\n"
        "        raise RuntimeError('bad')\n"
        "    raise RuntimeError\n"
        "def g():\n"
        "    raise Infeasible('typed')\n"
    )
    assert runtime_error_raises(src) == [3, 4]


def test_no_runtime_error():
    found = [
        f"{p.name}: line {n}" for p in SOURCES for n in runtime_error_raises(p.read_text())
    ]
    assert found == []


def tracer_layers(source: str) -> dict[str, tuple[str, ...]]:
    """The ``LAYERS`` literal of the tracer's source, read without
    importing it."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in targets):
                return ast.literal_eval(node.value)
    raise AssertionError("no LAYERS assignment")


def unresolved(layers: dict[str, tuple[str, ...]]) -> list[str]:
    """Names ``module.function`` or ``module.Class.method`` that are not
    a function of that ``faceflow`` module or a method defined on that
    class, as the tracer looks them up."""
    out = []
    for mod_name, names in layers.items():
        mod = importlib.import_module(f"faceflow.{mod_name}")
        for name in names:
            if "." in name:
                cls_name, attr = name.split(".")
                ok = callable(vars(getattr(mod, cls_name, object)).get(attr))
            else:
                ok = callable(getattr(mod, name, None))
            if not ok:
                out.append(f"{mod_name}.{name}")
    return out


def test_checker_flags_unresolved_names():
    layers = tracer_layers(
        "import sys\n"
        "LAYERS: dict = {'graph': ('diameter', 'nope', 'MetricGraph.adjacency',"
        " 'MetricGraph.nope', 'Nope.f')}\n"
    )
    assert unresolved(layers) == [
        "graph.nope", "graph.MetricGraph.nope", "graph.Nope.f",
    ]


def test_traced_names_resolve():
    layers = tracer_layers(TRACER.read_text())
    assert layers and unresolved(layers) == []

"""Behaviour gate: byte-for-byte CLI output on small fixed instances.

Each case runs one ``faceflow`` subcommand through ``cli.main`` and
compares its exit status, stdout and stderr with a golden file under
``tests/golden/``.  The time-dependent ``runtime_s:`` line of ``gap`` is
left out.  A refactor that keeps the RNG draw order, the tree vertex ids
and the LP pivots keeps these files unchanged.

To re-record after an intended change of output:

    FACEFLOW_RECORD_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_cli.py
"""

import itertools
import os
from fractions import Fraction

import pytest

from conftest import slack_cycle
from faceflow.cli import main
from faceflow.graph import MetricGraph, norm_edge
from faceflow.instances import (
    Instance,
    cycle_instance,
    grid_graph,
    random_caps,
    random_demands,
    random_outerplanar,
    save_instance,
)
from faceflow.polyflow import DemandMatrix

pytestmark = pytest.mark.gate

F = Fraction
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SAMPLES = "4"


def _unit(g, face, pairs) -> Instance:
    return Instance(
        g, face=tuple(face), vcaps=(F(1),) * g.n,
        demands=DemandMatrix.from_pairs([(u, v, F(1)) for (u, v) in pairs]),
    )


def _outer6() -> Instance:
    g, face = random_outerplanar(6, 0)
    return Instance(
        g, face=face, vcaps=random_caps(6, 0), demands=random_demands(face, 0)
    )


def _table6() -> Instance:
    """Outerplanar instance with explicit polymatroid tables
    rho_v(A) = min(cap_v, cap_v / 2 * |A|)."""
    g, face = random_outerplanar(6, 1)
    caps = random_caps(6, 1)
    tables = {}
    for v in range(6):
        inc = [norm_edge(a, b) for (a, b, _) in g.edges if v in (a, b)]
        tables[v] = {
            frozenset(c): min(caps[v], caps[v] / 2 * len(c))
            for r in range(len(inc) + 1)
            for c in itertools.combinations(inc, r)
        }
    return Instance(
        g, face=face, polymatroid=tables, demands=random_demands(face, 1)
    )


def _split4() -> Instance:
    """Two components, 0-1 and 2-3; the demand pair (0, 2) is disconnected."""
    g = MetricGraph(4, ((0, 1, F(1)), (2, 3, F(1))))
    return Instance(
        g, vcaps=(F(1),) * 4,
        demands=DemandMatrix.from_pairs([(0, 2, F(1)), (0, 1, F(1))]),
    )


INSTANCES = {
    "cycle6": lambda: _unit(cycle_instance(6), range(6), [(0, 3), (1, 4)]),
    "grid2x3": lambda: _unit(*grid_graph(2, 3), [(0, 5), (2, 3)]),
    "outer6": _outer6,
    "slack6": lambda: _unit(slack_cycle(6), range(6), [(0, 3), (2, 5)]),
    "split4": _split4,
    "table6": _table6,
}

_SAMPLING = ("gap", "embed", "thin", "round", "retract", "flow")
CASES = [
    (name, cmd, ())
    for name in ("cycle6", "grid2x3", "outer6", "slack6")
    for cmd in _SAMPLING
] + [
    (name, "dual", ())
    for name in ("cycle6", "grid2x3", "outer6", "slack6")
] + [
    ("cycle6", "flow", ("--factor", "1", "--float")),
    ("outer6", "dual", ("--factor", "1")),
    ("outer6", "embed", ("--stats",)),
    ("table6", "flow", ()),
    ("table6", "gap", ()),
    ("split4", "dual", ()),
] + [
    (name, "partition", ("--tau", tau))
    for name in ("cycle6", "grid2x3", "outer6")
    for tau in ("3", "2.5", "12", "7.5")
]


def _case_id(name, cmd, extra) -> str:
    return "-".join((name, cmd) + tuple(a.lstrip("-") for a in extra))


@pytest.mark.parametrize(
    "name,cmd,extra", CASES, ids=[_case_id(*c) for c in CASES]
)
def test_cli_output_matches_golden(name, cmd, extra, tmp_path, capsys):
    inst_path = os.path.join(tmp_path, f"{name}.json")
    save_instance(INSTANCES[name](), inst_path)
    rc = main([cmd, inst_path, "--seed", "3", "--samples", SAMPLES, *extra])
    cap = capsys.readouterr()
    lines = [f"exit: {rc}"]
    lines += [l for l in cap.out.splitlines() if not l.startswith("runtime_s:")]
    lines += [f"stderr: {l}" for l in cap.err.splitlines()]
    got = "\n".join(lines) + "\n"
    path = os.path.join(GOLDEN_DIR, _case_id(name, cmd, extra) + ".txt")
    if os.environ.get("FACEFLOW_RECORD_GOLDEN"):
        with open(path, "w") as f:
            f.write(got)
    with open(path) as f:
        assert got == f.read()

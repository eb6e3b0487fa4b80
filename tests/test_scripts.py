"""Smoke test of the command-line scripts under ``scripts/``: each one runs
in its own interpreter at a tiny size and must exit 0."""

import importlib.util
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from faceflow.graph import MetricGraph

ROOT = pathlib.Path(__file__).resolve().parent.parent

RUNS = {
    "gap_corpus.py": ["--samples", "2", "--random-instances", "1"],
    "distortion_report.py": ["--samples", "200", "--random-instances", "2"],
    "find_witness.py": ["--max-n", "9", "--budget", "5"],
}


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *RUNS[script]],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout


@pytest.mark.parametrize(
    "g", [MetricGraph(1, ()), MetricGraph(2, ((0, 1, Fraction(0)),))],
    ids=["one-vertex", "zero-edge"],
)
def test_distortion_report_passes_a_graph_without_pairs(g, capsys):
    # No pair at a positive finite distance: no bound to fall short of.
    spec = importlib.util.spec_from_file_location(
        "distortion_report", ROOT / "scripts" / "distortion_report.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.report("none", g, 5, 0) is True
    assert capsys.readouterr().out.endswith(
        "  min-lcb: none (no pair at a positive finite distance)\n"
    )

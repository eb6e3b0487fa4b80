"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_spec(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    record_file = ROOT / ".perfbench_out" / f"{workload}-seed3-trace{trace}-smoke.json"
    record = json.loads(record_file.read_text())
    assert record["environment"]["seed"] == 3
    assert record["failed_frac"] == 0


def test_workloads_in_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_follow_the_seed():
    # Task names carry the Monte Carlo seed or the tree generator seed.
    def names(name, seed):
        return [t.name for t in workloads.build(name, seed, smoke=True).tasks]

    for name in workloads.WORKLOADS:
        assert names(name, 5) == names(name, 5)
        assert names(name, 5) != names(name, 6)


def test_tracer_patches_aliases_and_restores():
    from faceflow import experiments, polyflow

    original = polyflow.brute_sparsest_edge_cut
    t = tracer.Tracer()
    t.install()
    try:
        assert experiments.brute_sparsest_edge_cut is polyflow.brute_sparsest_edge_cut
        assert experiments.brute_sparsest_edge_cut is not original
        workloads.build("gap-corpus", 0, smoke=True).tasks[0].run()
    finally:
        t.uninstall()
    assert polyflow.brute_sparsest_edge_cut is original
    assert experiments.brute_sparsest_edge_cut is original
    agg = t.aggregate()
    f = agg["functions"]
    assert f["experiments.gap_experiment"]["calls"] == 1
    assert f["polyflow.brute_sparsest_edge_cut"]["calls"] == 1
    assert f["polyflow.nu"]["calls"] > 0
    # Self time never exceeds busy time; the outer call's busy time covers
    # everything below it.
    for v in f.values():
        assert v["self_s"] <= v["busy_s"] + 1e-9
    assert agg["modules"]["experiments"]["busy_s"] >= agg["modules"]["polyflow"]["busy_s"]


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "embed-slack", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

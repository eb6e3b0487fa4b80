"""Smoke test of the command-line scripts under ``scripts/``: each one runs
in its own interpreter at a tiny size and must exit 0."""

import os
import pathlib
import subprocess
import sys

import pytest

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

"""One traced cycle of each benchmark workload, run as the benchmark runs it:
from the repository root, in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def assert_traced_cycle_passes(workload):
    env = {**os.environ, "PYTHONPATH": "src"}
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", "0", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    *_, detail, result = done.stdout.splitlines()
    result = json.loads(result)
    assert result["correct"] is True and result["failed"] == 0
    assert json.loads(detail)["coverage_failures"] == []


def test_oracle_lattice_traced_cycle_passes():
    # The tracer's coverage check catches a moved oracle boundary, for
    # instance slot_apply no longer reading rho or a mat_exp call in toyfock.
    assert_traced_cycle_passes("oracle_lattice")


@pytest.mark.parametrize("workload", ["schur_screen", "evolve_grid"])
def test_engine_traced_cycle_passes(workload):
    # The engine boundaries the tracer wraps, among them the cached lookups
    # of the single-probe Schur check and the P-factors of sliced_element,
    # must stay where the tracer finds them.
    assert_traced_cycle_passes(workload)

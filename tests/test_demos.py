"""The demos run end to end, as a user runs them, and print their headline."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

HEADLINES = {
    "anytime_planning.py": "exhaustive Jensen-problem value:",
    "bound_convergence.py": "exact strictly adaptive value (quadrature oracle):",
    "field_sampling.py": "posterior log-scale variance: prior",
    "policy_comparison.py": "averages over seeds (lower is better):",
}


@pytest.mark.parametrize("demo", sorted(HEADLINES))
def test_demo_runs_and_prints_its_headline(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert HEADLINES[demo] in done.stdout

"""The demos and the README's examples run end to end, as a user runs them."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hotspotplan.cli import main as cli_main
from hotspotplan.harness import load_config

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


def _readme_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_quick_start_runs_and_config_loads(tmp_path, capsys):
    # the library quick start runs as printed, and the config example loads
    exec(compile(_readme_blocks("python")[-1], "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "value bracket:" in out and "posterior map entropy:" in out
    (ini,) = _readme_blocks("ini")
    path = tmp_path / "exp.cfg"
    path.write_text(ini)
    cfg = load_config(path)
    assert (cfg.rows, cfg.cols, cfg.team_size) == (14, 12, 2)


def test_readme_names_only_verbs_the_cli_accepts():
    verbs = [m for block in _readme_blocks("sh")
             for m in re.findall(r"^hotspotplan\s+(\S+)", block, re.M)]
    assert verbs
    for verb in verbs:
        assert cli_main([verb, "--help"]) == 0, verb


def test_package_and_cli_load_without_scipy_stats():
    # importing scipy.stats costs about 0.4 s and 40 MB per process, and the
    # package needs none of it: its normal rules and its t-test read scipy.special
    code = """
import sys
import hotspotplan, hotspotplan.cli
from hotspotplan.discretization import standardized_rule, truncated_quadrature_rule
from hotspotplan.evaluation import paired_ttest
standardized_rule(3, 4.0, "em")
truncated_quadrature_rule(4, 4.0)
paired_ttest([1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 2.5, 1.0, 3.0, 4.5])
loaded = sorted(m for m in sys.modules if m == "scipy.stats" or m.startswith("scipy.stats."))
assert not loaded, loaded
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    done = subprocess.run([sys.executable, "-m", "hotspotplan", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "usage" in done.stdout

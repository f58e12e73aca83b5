"""The benchmark's traced smoke run still measures every layer it names.

``bench/spans.py`` finds the library's layers by name; a rename in the
library would silently zero a per-layer metric. This test reads the
benchmark's output, and checks the library directly where a metric could
only read 0.
"""

import subprocess
import sys
from pathlib import Path

from hotspotplan import field_model

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_run_is_correct_and_traces_the_gp_factor():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    metrics: dict[str, dict[str, float]] = {}
    for line in proc.stdout.splitlines():
        if line.startswith("  "):
            name, _, value = line.strip().partition(" = ")
            metrics[workload][name] = float(value.split()[0])
        elif ": correct=" in line:
            workload, _, status = line.partition(": ")
            assert status.startswith("correct=True"), line
            metrics[workload] = {}
    assert set(metrics) == {"bounds-k1", "run-k2", "run-hires"}
    for name in (
        "field_model.incremental.batch.calls",
        "planners.urtdp.init_children.calls",
    ):
        assert metrics["bounds-k1"][name] > 0, name
    # URTDP extends no factor; MES's branch and bound does
    assert metrics["run-k2"]["field_model.incremental.extend.calls"] > 0
    # the bench reads MES's value, paths, exact flag and node count; a
    # reshaped result would zero these without failing the run
    for workload in ("run-k2", "run-hires"):
        assert metrics[workload]["planners.mes.nodes"] > 0, workload
        assert metrics[workload]["planners.mes.build_ms"] > 0, workload
    hires = metrics["run-hires"]
    assert hires["evaluation.ent_metric.ms_p50"] > 0
    assert hires["evaluation.err_metric.ms_p50"] > 0
    # ENT and ERR never form a dense posterior covariance: the library has no
    # dense posterior or entropy for the bench's spans on those names to count
    assert not hasattr(field_model, "posterior")
    assert not hasattr(field_model, "gaussian_entropy")

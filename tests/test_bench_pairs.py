"""The paired-benchmark summary of ``tools/bench_pairs.py``: its win count,
the interquartile-range rule and pair floor of a claimed gain, its bound
check, the failed-share rule and the toolchain versions. Only ``summarize``
and ``report`` are called, on synthetic runs; no benchmark runs."""

import argparse
import importlib.util
import platform
from pathlib import Path

import numpy
import pytest
import scipy

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

HIGHER = {"name": "urtdp_paths_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "urtdp_decision_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}

PARENT = [100.0 + i for i in range(10)]  # median 104.5, quartiles 102.25 and 106.75: IQR 4.5


def test_a_gain_needs_nine_of_ten_wins():
    change = [p + 10 for p in PARENT]
    out = bench_pairs.summarize(HIGHER, PARENT, change, claimed=True)
    assert out["change_better_pairs"] == "10/10" and out["claim_met"]
    change[0], change[1] = PARENT[0] - 1, PARENT[1]  # a loss and a tie: 8/10
    out = bench_pairs.summarize(HIGHER, PARENT, change, claimed=True)
    assert out["change_better_pairs"] == "8/10" and not out["claim_met"]
    change[1] = PARENT[1] + 1  # 9/10
    assert bench_pairs.summarize(HIGHER, PARENT, change, claimed=True)["claim_met"]


def test_a_gain_must_exceed_the_parents_interquartile_range():
    out = bench_pairs.summarize(HIGHER, PARENT, [p + 4 for p in PARENT], claimed=True)
    assert out["parent_iqr"] == 4.5
    assert out["change_better_pairs"] == "10/10" and not out["claim_met"]
    assert bench_pairs.summarize(HIGHER, PARENT, [p + 5 for p in PARENT], claimed=True)["claim_met"]
    # a lower-is-better metric gains by falling
    out = bench_pairs.summarize(LOWER, PARENT, [p - 5 for p in PARENT], claimed=True)
    assert out["change_better_pairs"] == "10/10" and out["claim_met"]


def test_a_gain_needs_at_least_ten_pairs():
    assert bench_pairs.MIN_CLAIM_PAIRS == 10
    for n in (3, 9):
        out = bench_pairs.summarize(HIGHER, PARENT[:n], [p + 50 for p in PARENT[:n]], claimed=True)
        assert out["change_better_pairs"] == f"{n}/{n}" and not out["claim_met"]
    assert "claim_met" not in bench_pairs.summarize(HIGHER, PARENT, PARENT, claimed=False)


@pytest.mark.parametrize("better, ratio, within", [
    ("higher", 0.76, True), ("higher", 0.74, False), ("higher", 2.0, True),
    ("lower", 1.24, True), ("lower", 1.26, False), ("lower", 0.5, True),
])
def test_within_bound_allows_the_bound_in_the_worse_direction_only(better, ratio, within):
    metric = HIGHER if better == "higher" else LOWER
    out = bench_pairs.summarize(metric, PARENT, [p * ratio for p in PARENT], claimed=False)
    assert out["within_bound"] is within


def _run(attempted, failed, value=100.0):
    return {"attempted": attempted, "failed": failed, "correct": True,
            "metrics": {"urtdp_paths_per_s": {"value": value}}}


@pytest.mark.parametrize("parent, change, not_worse", [
    ([(25, 5), (25, 5)], [(25, 5), (25, 5)], True),  # 10/50 on both sides
    ([(25, 5), (25, 5)], [(25, 5), (25, 6)], False),  # 11/50: one more failure
    ([(25, 5), (25, 5)], [(30, 6), (20, 4)], True),  # 10/50 split differently
    ([(25, 5), (25, 5)], [(50, 5), (50, 5)], True),  # 10/100: more attempted
    ([(63, 0), (63, 0)], [(63, 0), (62, 1)], False),  # 1/125 against none
    ([(0, 0), (0, 0)], [(0, 0), (0, 0)], True),  # nothing attempted
])
def test_report_compares_the_failed_shares_over_all_runs(parent, change, not_worse):
    args = argparse.Namespace(pr=0, change="synthetic", parent="abc", gain=None)
    spec = {"run_seconds": 25, "end_to_end": [HIGHER]}
    pairs = [(seed, _run(*p), _run(*c)) for seed, (p, c) in enumerate(zip(parent, change))]
    out = bench_pairs.report(args, spec, [0, 1], {"w": pairs, "empty": []}, {})
    assert out["toolchain"] == {"python": platform.python_version(),
                                "numpy": numpy.__version__, "scipy": scipy.__version__}
    entry = out["workloads"]
    assert list(entry) == ["w"]
    entry = entry["w"]
    for side, runs in (("parent", parent), ("change", change)):
        attempted, failed = (sum(r[i] for r in runs) for i in (0, 1))
        assert entry[f"{side}_failed_share"] == f"{failed}/{attempted}"
    assert entry["failed_share_not_worse"] is not_worse
    assert entry["parent_all_correct"] and entry["change_all_correct"]


@pytest.mark.parametrize("gain", ["urtdp_paths_per_s on run_k2", "paths_per_s on run-k2",
                                  "urtdp_paths_per_s", "urtdp_paths_per_s on run-k2 "])
def test_a_gain_naming_no_metric_and_workload_is_a_usage_error_before_any_run(
        gain, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("ran before checking --gain")

    for name in ("export", "bench_run", "tree_state"):
        monkeypatch.setattr(bench_pairs, name, no_run)
    argv = ["--parent", "HEAD", "--pr", "0", "--seeds", "0-1", "--change", "c", "--gain", gain]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--gain" in err and "urtdp_paths_per_s on run-k2" in err
    assert not (bench_pairs.ROOT / "BENCH_0.json").exists()
    argv[-1] = "urtdp_paths_per_s on run-k2"  # a named one goes on to the runs
    with pytest.raises(AssertionError, match="ran before"):
        bench_pairs.main(argv)

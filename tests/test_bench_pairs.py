"""The paired-benchmark summary of ``tools/bench_pairs.py``: its win count,
the interquartile-range rule and pair floor of a claimed gain, and its bound
check. Only ``summarize`` is called; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

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

"""A speed gauge for the shared machine the benchmark runs on.

The machine's speed drifts by 10-25% over seconds to minutes, CPU time
tracks wall time through it, and the drift swamps what a run can average
out. So each timed call is bracketed by two short bursts of a fixed
reference computation, made of the benchmark's own code and nothing of
hotspotplan: Python dict and tuple work like URTDP's bound tables, and
small Cholesky factors and solves like its incremental GP updates. A call's
``scale`` is the bursts' mean time over ``REF_SECONDS``; its time divided by
``scale`` is its time at the reference speed. A URTDP decision, milliseconds
long, is scaled by one burst right before it instead. A change to hotspotplan
moves the call and never the bursts.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of one ``kernel`` call on the reference machine (a shared 2-core
# x86-64 VM, numpy 2.4 with one OpenBLAS thread). It only sets the unit: a
# run's times are divided by (its bursts' time / REF_SECONDS).
REF_SECONDS = 1.2e-3
BURST_CALLS = 15

_pts = np.random.default_rng(0).uniform(0.0, 6.0, size=(40, 2))
_DIST = ((_pts[:, None, :] - _pts[None, :, :]) ** 2).sum(-1) / 8.0
_ONES = np.ones(40)


def kernel() -> float:
    """The reference computation: about a millisecond of work."""
    table = {}
    for i in range(2000):
        table[(i % 97, i % 13, i)] = [i * 0.5, i * 0.25]
    total = sum(v[0] - v[1] for v in table.values())
    for n in (10, 20, 30, 40):
        chol = np.linalg.cholesky(np.exp(-_DIST[:n, :n]) + 0.05 * np.eye(n))
        total += float(np.linalg.solve(chol, _ONES[:n]).sum())
    return total


def burst() -> float:
    """Median seconds of one ``kernel`` call over a short burst."""
    times = []
    for _ in range(BURST_CALLS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Slowdown over the reference speed, from the bursts that bracket a call."""
    return (before + after) / (2.0 * REF_SECONDS)

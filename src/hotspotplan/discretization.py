"""Discretize a Gaussian measurement outcome into bounded-support points.

The outcome distribution is a normal truncated at ``mean +/- m * sd`` and
renormalized; its support is partitioned into intervals. Interval conditional
means with interval probabilities give the generalized Jensen (lower) points;
spreading each interval's mass onto its endpoints by the lever rule gives the
Edmundson-Madansky (upper) points. For any convex function of the outcome,
the Jensen weighted sum under-estimates the truncated expectation and the EM
sum over-estimates it, and refining the partition tightens both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.stats import norm

from .errors import VanishingInterval

WEIGHT_FLOOR = 1e-300


@dataclass(frozen=True)
class Partition:
    """Interval boundaries (log scale) over a truncated normal outcome."""

    boundaries: np.ndarray
    mean: float
    variance: float

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        if b.ndim != 1 or b.shape[0] < 2:
            raise ValueError("need at least two boundaries")
        if np.any(np.diff(b) <= 0):
            raise ValueError("boundaries must be strictly increasing")
        if self.variance <= 0:
            raise ValueError("variance must be positive")
        object.__setattr__(self, "boundaries", b)

    @property
    def nu(self) -> int:
        return self.boundaries.shape[0] - 1

    def split(self, index: int, at: float) -> "Partition":
        """New partition with interval ``index`` split at an interior point."""
        lo, hi = self.boundaries[index], self.boundaries[index + 1]
        if not (lo < at < hi):
            raise ValueError("split point must be interior to the interval")
        b = np.insert(self.boundaries, index + 1, at)
        return Partition(b, self.mean, self.variance)


@dataclass(frozen=True)
class OutcomePoints:
    """Jensen and EM weights/points for one partitioned outcome."""

    jensen_weights: np.ndarray
    jensen_points: np.ndarray
    em_weights: np.ndarray
    em_points: np.ndarray


def make_partition(mean: float, variance: float, nu: int, m: float) -> Partition:
    """Equal-probability partition of the truncated normal into ``nu`` intervals."""
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if m <= 0:
        raise ValueError("truncation width must be positive")
    sd = math.sqrt(variance)
    lo_cdf = norm.cdf(-m)
    hi_cdf = norm.cdf(m)
    fractions = np.arange(1, nu) / nu
    inner = norm.ppf(lo_cdf + fractions * (hi_cdf - lo_cdf))
    std_bounds = np.concatenate(([-m], inner, [m]))
    return Partition(mean + sd * std_bounds, mean, variance)


def jensen_points(p: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Interval probabilities and interval conditional means.

    Probabilities are taken against the renormalized truncated density, so
    they sum to one exactly; the points are the conditional means computed
    from the phi/Phi closed forms and lie strictly inside their intervals.
    """
    sd = math.sqrt(p.variance)
    std = (p.boundaries - p.mean) / sd
    cdf = norm.cdf(std)
    pdf = norm.pdf(std)
    total = cdf[-1] - cdf[0]
    mass = np.diff(cdf)
    if np.any(mass < WEIGHT_FLOOR * total):
        raise VanishingInterval("partition interval carries no probability mass")
    weights = mass / total
    points = p.mean + sd * (pdf[:-1] - pdf[1:]) / mass
    return weights, points


def em_points(p: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Boundary weights of the Edmundson-Madansky upper construction.

    Each interval's probability is split between its two endpoints by the
    reversed lever rule about the interval conditional mean. Weights are
    non-negative and sum to one, and the weighted boundary mean equals the
    truncated mean.
    """
    jw, jp = jensen_points(p)
    b = p.boundaries
    width = b[1:] - b[:-1]
    weights = np.zeros(p.nu + 1)
    weights[1:] += jw * (jp - b[:-1]) / width  # each interval's share at its right end
    weights[:-1] += jw * (b[1:] - jp) / width  # and at its left end
    return weights, b.copy()


def outcome_points(mean: float, variance: float, nu: int, m: float) -> OutcomePoints:
    """Convenience bundle of both constructions for one outcome."""
    p = make_partition(mean, variance, nu, m)
    jw, jp = jensen_points(p)
    ew, ep = em_points(p)
    return OutcomePoints(jw, jp, ew, ep)


@lru_cache(maxsize=256)
def standardized_rule(nu: int, m: float, side: str) -> tuple[np.ndarray, np.ndarray]:
    """Weights and points for the standard normal truncated at ``+/- m``.

    For an outcome with mean ``mu`` and variance ``s2`` the actual points are
    ``mu + sqrt(s2) * points``; weights are scale invariant. ``side`` is
    ``"jensen"`` or ``"em"``.
    """
    p = make_partition(0.0, 1.0, nu, m)
    if side == "jensen":
        w, z = jensen_points(p)
    elif side == "em":
        w, z = em_points(p)
    else:
        raise ValueError(f"unknown side {side!r}")
    w = w.copy()
    z = z.copy()
    w.setflags(write=False)
    z.setflags(write=False)
    return w, z


@lru_cache(maxsize=64)
def truncated_quadrature_rule(order: int, m: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule for expectations under the truncated standard normal.

    ``order`` equal-probability panels each carry a 4-point Gauss-Legendre
    rule (4 * order nodes total). The composite layout keeps the error small
    for integrands with isolated kinks, which the adaptive value functions
    have (they are convex piecewise-affine in each measurement, so a single
    global polynomial rule converges poorly). Weights are renormalized to sum
    to one and the node set is symmetric, so affine integrands are integrated
    to round-off.
    """
    per_panel = 4
    lo_c, hi_c = norm.cdf(-m), norm.cdf(m)
    bounds = norm.ppf(lo_c + np.arange(order + 1) / order * (hi_c - lo_c))
    bounds[0], bounds[-1] = -m, m
    x, gw = np.polynomial.legendre.leggauss(per_panel)
    mid = 0.5 * (bounds[:-1] + bounds[1:])
    half = 0.5 * (bounds[1:] - bounds[:-1])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    w = (half[:, None] * gw[None, :] * norm.pdf(pts).reshape(order, per_panel)).ravel()
    w = w / w.sum()
    w.setflags(write=False)
    pts.setflags(write=False)
    return w, pts

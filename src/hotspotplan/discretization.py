"""Discretize a truncated-normal measurement outcome into bounded-support points.

The outcome distribution is a normal truncated at ``mean +/- m * sd`` and
renormalized. Every rule here works on the standard normal: a strictly
increasing array of standardized boundaries partitions the support, the
standard normal truncated at its first and last entries. Interval conditional
means with interval probabilities give the generalized Jensen (lower) points;
spreading each interval's mass onto its endpoints by the lever rule gives the
Edmundson-Madansky (upper) points. For any convex function of the outcome,
the Jensen weighted sum under-estimates the truncated expectation and the EM
sum over-estimates it, and refining the partition, which inserts a boundary,
tightens both sides. An outcome of mean ``mu`` and deviation ``sigma`` has the
points ``mu + sigma * zeta``, with the same weights.

The standard normal's cdf, quantile and density are ``scipy.special.ndtr``,
``scipy.special.ndtri`` and ``exp(-z**2 / 2) / sqrt(2 pi)``: the functions
and the formula that ``scipy.stats.norm`` evaluates, so every weight and
point is the one ``norm.cdf``/``norm.ppf``/``norm.pdf`` give, without the
cost of importing ``scipy.stats``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import VanishingInterval

WEIGHT_FLOOR = 1e-300
_SQRT_2PI = np.sqrt(2 * np.pi)


def _pdf(z):
    """Standard normal density, in ``scipy.stats.norm.pdf``'s own formula."""
    return np.exp(-z**2 / 2.0) / _SQRT_2PI


def equal_probability_boundaries(nu: int, m: float) -> np.ndarray:
    """Boundaries of ``nu`` equal-probability intervals of the standard normal
    truncated at ``+/- m``; the end boundaries are exactly ``-m`` and ``m``."""
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if m <= 0:
        raise ValueError("truncation width must be positive")
    lo_cdf, hi_cdf = ndtr(-m), ndtr(m)
    b = ndtri(lo_cdf + np.arange(nu + 1) / nu * (hi_cdf - lo_cdf))
    b[0], b[-1] = -m, m
    return b


def jensen_points(boundaries) -> tuple[np.ndarray, np.ndarray]:
    """Interval probabilities and interval conditional means.

    Probabilities are taken against the standard normal renormalized over
    ``[boundaries[0], boundaries[-1]]``, so they sum to one exactly; the
    points are the conditional means computed from the phi/Phi closed forms
    and lie strictly inside their intervals.
    """
    b = np.asarray(boundaries, dtype=float)
    if b.ndim != 1 or b.shape[0] < 2:
        raise ValueError("need at least two boundaries")
    if not np.all(np.diff(b) > 0):  # a NaN fails this too
        raise ValueError("boundaries must be strictly increasing")
    cdf = ndtr(b)
    pdf = _pdf(b)
    total = cdf[-1] - cdf[0]
    mass = np.diff(cdf)
    if np.any(mass < WEIGHT_FLOOR * total):
        raise VanishingInterval("partition interval carries no probability mass")
    return mass / total, (pdf[:-1] - pdf[1:]) / mass


def em_points(boundaries) -> tuple[np.ndarray, np.ndarray]:
    """Boundary weights of the Edmundson-Madansky upper construction.

    Each interval's probability is split between its two endpoints by the
    reversed lever rule about the interval conditional mean. Weights are
    non-negative and sum to one, and the weighted boundary mean equals the
    truncated mean.
    """
    jw, jp = jensen_points(boundaries)
    b = np.array(boundaries, dtype=float)
    width = b[1:] - b[:-1]
    weights = np.zeros(b.shape[0])
    weights[1:] += jw * (jp - b[:-1]) / width  # each interval's share at its right end
    weights[:-1] += jw * (b[1:] - jp) / width  # and at its left end
    return weights, b


@lru_cache(maxsize=256)
def standardized_rule(nu: int, m: float, side: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only weights and points of ``nu`` equal-probability intervals of
    the standard normal truncated at ``+/- m``; ``side`` is ``"jensen"`` or
    ``"em"``."""
    if side not in ("jensen", "em"):
        raise ValueError(f"unknown side {side!r}")
    b = equal_probability_boundaries(nu, m)
    w, z = jensen_points(b) if side == "jensen" else em_points(b)
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
    bounds = equal_probability_boundaries(order, m)
    x, gw = np.polynomial.legendre.leggauss(per_panel)
    mid = 0.5 * (bounds[:-1] + bounds[1:])
    half = 0.5 * (bounds[1:] - bounds[:-1])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    w = (half[:, None] * gw[None, :] * _pdf(pts).reshape(order, per_panel)).ravel()
    w = w / w.sum()
    w.setflags(write=False)
    pts.setflags(write=False)
    return w, pts

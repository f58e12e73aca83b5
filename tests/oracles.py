"""Dense reference computations of the GP posterior, for the tests to compare against.

The library forms no map-sized posterior covariance: a stage reward needs
one cell's posterior mean and variance, and the map entropy comes from the
map's spectrum. These oracles factorize from scratch over the whole target
set, so the tests can check the library's incremental and spectral paths
against the textbook formulas. They share the library's kernel
(:func:`hotspotplan.field_model.cov_matrix`) and Gram factor, so a changed
``JITTER_FRACTION`` reaches them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dpotrf

from hotspotplan.errors import DegenerateCovariance, SingularGram
from hotspotplan.field_model import LOG_2PI_E, Hyperparams, PosteriorData, _gram_factor, cov_matrix


@dataclass(frozen=True)
class PosteriorGaussian:
    """Joint Gaussian over target cells: mean vector and covariance matrix."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=float)
        c = np.asarray(self.covariance, dtype=float)
        if c.shape != (m.shape[0], m.shape[0]):
            raise ValueError("covariance shape must match target count")
        if not np.allclose(c, c.T, atol=1e-10 * (1.0 + np.abs(c).max(initial=0.0))):
            raise ValueError("covariance must be symmetric")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "covariance", 0.5 * (c + c.T))


def posterior(d: PosteriorData, targets, h: Hyperparams) -> PosteriorGaussian:
    """Posterior mean vector and covariance matrix at the target cells.

    The covariance depends only on the observed locations, never on the
    measurement values; only the mean depends on ``d.z``.
    """
    targets = [tuple(t) for t in targets]
    if not targets:
        raise ValueError("need at least one target cell")
    k_tt = cov_matrix(targets, targets, h)
    if len(d) == 0:
        return PosteriorGaussian(np.full(len(targets), h.mean), k_tt)
    L = _gram_factor(cov_matrix(d.locations, d.locations, h), h)
    k_ot = cov_matrix(d.locations, targets, h)
    solved = cho_solve((L, True), k_ot)
    mean = h.mean + solved.T @ (d.z - h.mean)
    cov = k_tt - k_ot.T @ solved
    return PosteriorGaussian(mean, 0.5 * (cov + cov.T))


def gaussian_entropy(g: PosteriorGaussian) -> float:
    """Differential entropy ``log sqrt((2 pi e)^k det cov)`` in nats."""
    k = g.mean.shape[0]
    try:
        L = cholesky(g.covariance, lower=True)
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovariance(f"covariance not positive definite: {exc}") from exc
    diag = np.diag(L)
    if np.any(diag <= 0):
        raise DegenerateCovariance("non-positive pivot in factorization")
    logdet = 2.0 * float(np.sum(np.log(diag)))
    return 0.5 * (k * LOG_2PI_E + logdet)


def lgp_entropy(d: PosteriorData, targets, h: Hyperparams) -> float:
    """Joint entropy of the original-scale measurements at the targets.

    Equals the Gaussian entropy of the log-scale posterior plus the sum of
    the posterior log-scale means. With targets = all unobserved cells this
    is the posterior map entropy (the ENT metric integrand).

    One Cholesky factor of the joint Gram matrix over the ``m`` observed
    cells followed by the ``N`` targets gives both terms: the target block
    ``L_TT`` factors the posterior covariance, so its diagonal gives the
    log-determinant, and the cross block ``L_TO`` times ``L_OO^-1 (z - mean)``
    gives the posterior means. Cost O((m + N)^3) time and O((m + N)^2)
    memory, with no posterior covariance formed. Raises
    :class:`SingularGram` if the observed block is not positive definite and
    :class:`DegenerateCovariance` if the posterior covariance is not.
    """
    m = len(d)
    cells = list(d.locations) + [tuple(t) for t in targets]
    n = len(cells) - m
    if n == 0:
        raise ValueError("need at least one target cell")
    gram = cov_matrix(cells, cells, h)
    # the Gram is symmetric, so its transpose is the same matrix in Fortran
    # order and LAPACK factors it in place
    L, info = dpotrf(gram.T, lower=1, clean=0, overwrite_a=1)
    if info > m:
        raise DegenerateCovariance(f"posterior covariance not positive definite (pivot {info})")
    if info > 0:
        raise SingularGram(f"gram matrix not positive definite (pivot {info})")
    logdet = 2.0 * float(np.sum(np.log(np.diag(L)[m:])))
    mean_sum = n * h.mean
    if m:
        resid = dtrsv(L[:m, :m], d.z - h.mean, lower=1)
        mean_sum += float(np.sum(L[m:, :m] @ resid))
    return 0.5 * (n * LOG_2PI_E + logdet) + mean_sum


def log_marginal_likelihood(d: PosteriorData, h: Hyperparams) -> float:
    """Gaussian log marginal likelihood of the log measurements."""
    L = _gram_factor(cov_matrix(d.locations, d.locations, h), h)
    half = solve_triangular(L, d.z - h.mean, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return -0.5 * (half @ half + logdet + len(d) * math.log(2.0 * math.pi))

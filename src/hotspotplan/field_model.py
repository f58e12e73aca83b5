"""Gaussian-process machinery for log-scale field measurements.

The field of positive measurements ``y`` is modelled through its logs
``z = log y``, which form a GP with constant mean and an isotropic
squared-exponential covariance plus a nugget, a small jitter when the noise
variance is zero (:attr:`Hyperparams.nugget`). Everything downstream
(entropies, predictors, samplers) is built on the posterior of that GP.
All entropies are in nats.

The kernel has one definition here, :func:`_se`, which the grid's
:class:`KernelTable` tabulates by cell offset: every Gram matrix and
cross-covariance that conditions data is gathered from that table. Observed
data are conditioned on through :class:`IncrementalPosterior` (URTDP's
window, one joint of it per decision, takes rank-1 updates down its tree),
but for :func:`map_entropy`'s own factor (below). The planners walk it down
a branch by appending each outcome as its standardized point, not its
value, and back up by dropping rows, and a window of cells gets its joint
posterior from it; the predictor's means and variances
(:func:`posterior_marginals`) are one batch of it. Nothing map-sized is
factored: the map's Gram matrix is separable, and its cached
:class:`MapSpectrum` (two 1-D eigendecompositions of :func:`_se` factors, not
read off the table) gives the map entropy by the chain rule with one factor
over the observed cells, which :func:`map_entropy` builds and solves itself
(:func:`_gram_factor`, ``cho_solve``), the MI baseline's leave-one-out
variances and field draws (:func:`sample_field`). The set-up factors nothing
per candidate: :func:`fit_hyperparams` builds its correlations from
:func:`_sq_dists` and :func:`_se`, not from the table, and scores its whole
grid from one stacked eigendecomposition of every length scale's correlations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.blas import dtrsm, dtrsv

from .errors import InsufficientData, SingularGram
from .world import Cell, GridDomain

LOG_2PI_E = math.log(2.0 * math.pi * math.e)

# The nugget, relative to the signal variance, of a prior without noise; keeps
# every factorization stable and sits far below all test tolerances.
JITTER_FRACTION = 1e-10


@dataclass(frozen=True)
class Hyperparams:
    """Constant prior mean (log scale) and covariance structure; every Gram
    matrix, factor and reported variance uses its :attr:`nugget`."""

    mean: float
    signal_variance: float
    length_scale: float
    noise_variance: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError("mean must be finite")
        if not 0 < self.signal_variance < math.inf:
            raise ValueError("signal_variance must be positive and finite")
        if not 0 < self.length_scale < math.inf:
            raise ValueError("length_scale must be positive and finite")
        if not 0 <= self.noise_variance < math.inf:
            raise ValueError("noise_variance must be non-negative and finite")

    @property
    def nugget(self) -> float:
        """The variance added at coincident cells: the noise variance, or when
        that is zero a jitter of ``JITTER_FRACTION`` (read at call time) times
        the signal variance, so that the prior stays positive definite."""
        return self.noise_variance or JITTER_FRACTION * self.signal_variance

    @property
    def prior_variance(self) -> float:
        """Variance of a single measurement under the prior."""
        return self.signal_variance + self.nugget


class PosteriorData:
    """Ordered observation history: locations and finite log measurements.

    Instances are immutable; ``extended`` returns a new history.
    """

    __slots__ = ("locations", "z")

    def __init__(self, locations, z):
        locations = tuple(tuple(c) for c in locations)
        z = np.asarray(z, dtype=float)
        if z.ndim != 1 or len(locations) != z.shape[0]:
            raise ValueError("locations and measurements must have equal length")
        if not np.isfinite(z).all():
            raise ValueError("measurements must be finite")
        if len(set(locations)) != len(locations):
            raise ValueError("duplicate observed locations")
        self.locations = locations
        self.z = z
        self.z.setflags(write=False)

    def __len__(self) -> int:
        return len(self.locations)

    def extended(self, cell: Cell, z_value: float) -> "PosteriorData":
        if tuple(cell) in self.locations:
            raise ValueError(f"cell {cell} already observed")
        return PosteriorData(self.locations + (tuple(cell),), np.append(self.z, float(z_value)))

    def observed_set(self) -> frozenset:
        return frozenset(self.locations)

    def __repr__(self):
        return f"PosteriorData({len(self)} obs)"


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of two ``(n, 2)`` integer cell arrays (exact)."""
    sq = a @ (-2.0 * b.T)
    sq += np.einsum("ij,ij->i", a, a)[:, None]
    sq += np.einsum("ij,ij->i", b, b)
    return sq


def _se(sq: np.ndarray, h: Hyperparams) -> np.ndarray:
    """Squared-exponential kernel of squared distances, without the nugget.

    Works in place, so a map-sized Gram matrix needs no temporaries: ``sq``
    is overwritten with the kernel values and returned.
    """
    np.negative(sq, out=sq)
    sq /= 2.0 * h.length_scale**2
    np.exp(sq, out=sq)
    sq *= h.signal_variance
    return sq


def _gram_factor(gram: np.ndarray, h: Hyperparams) -> np.ndarray:
    """Lower Cholesky factor of a Gram matrix of distinct cells, its diagonal the prior variance."""
    np.fill_diagonal(gram, h.prior_variance)
    try:
        return cholesky(gram, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularGram(f"gram matrix not positive definite: {exc}") from exc


class KernelTable:
    """The kernel at every cell offset of one grid: the squared-exponential
    kernel, plus the nugget at the zero offset.

    Two cells of a ``rows x cols`` grid differ by one of
    ``(2 rows - 1)(2 cols - 1)`` offsets. With ``width = 2 cols - 1`` and the
    code ``r * width + c`` of a cell ``(r, c)``, the kernel between cells
    ``a`` and ``b`` is ``values[center + code(a) - code(b)]``: an integer
    subtract and a gather (:meth:`matrix`). A 42 x 36 grid needs 5,893
    floats. The nugget is read when the table is built; every factor puts the
    prior variance of its own call on its diagonal.
    """

    def __init__(self, h: Hyperparams, domain: GridDomain):
        rows, cols = domain.rows, domain.cols
        self.h, self.domain = h, domain
        self.width = 2 * cols - 1
        self.center = (rows - 1) * self.width + cols - 1
        dr, dc = np.divmod(np.arange((2 * rows - 1) * self.width), self.width)
        self.values = _se(((dr - rows + 1) ** 2 + (dc - cols + 1) ** 2).astype(float), h)
        self.values[self.center] += h.nugget

    def codes(self, cells) -> np.ndarray:
        """The codes of a list of cells."""
        return np.array([r * self.width + c for r, c in cells], dtype=np.intp)

    def matrix(self, cells_a, cells_b) -> np.ndarray:
        """The kernel matrix between two lists of cells."""
        a = self.codes(cells_a)
        b = a if cells_b is cells_a else self.codes(cells_b)
        return self.values[self.center + a[:, None] - b]


class IncrementalPosterior:
    """Posterior evaluator over one observation sequence that grows and shrinks.

    This is the library's one GP factor: the planners and
    :func:`posterior_marginals` condition on it. It keeps the Cholesky factor
    of the Gram matrix and the whitened residual ``y = L^-1 (z - mean)`` in
    preallocated buffers, so appending one observation costs one triangular
    solve, dropping the last ones costs nothing, and target means/variances
    cost a single batched solve. Results are the exact GP posterior at any
    target. The factor depends on the locations only, so the outcome
    branches of a move share it. :meth:`extend` can take
    column ``j`` of the last :meth:`batch`'s whitened ``columns`` as its row.
    Measured values enter through the constructor only: an appended entry of
    ``y`` is ``(z - mu) / sd`` for an outcome of mean ``mu`` and deviation
    ``sd`` (GPML, Alg. 2.1), so a branch outcome ``mu + sd * zeta`` enters
    as ``zeta`` and a certainty-equivalent one as 0.
    """

    def __init__(self, table: KernelTable, locs, z, capacity: int):
        self.table = table
        self.h = h = table.h
        m = len(locs)
        cap = max(capacity, m)
        self._L = np.zeros((cap, cap))
        self._y = np.zeros(cap)
        self._offsets = np.zeros(cap, dtype=np.intp)  # table.center + code of each cell
        self.columns = None  # the whitened block of the last batch
        self.m = m
        if not all(map(table.domain.contains, locs)):
            raise ValueError("observed cells must lie on the kernel table's grid")
        if m:
            self._offsets[:m] = table.codes(locs) + table.center
            self._L[:m, :m] = _gram_factor(table.matrix(locs, locs), h)
            self._y[:m] = dtrsv(self._L[:m, :m], np.asarray(z, dtype=float) - h.mean, lower=1)

    def batch(self, targets) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and variances at the target cells, the exact GP
        posterior also at a cell already in the sequence: the table's zero
        offset carries the nugget."""
        h = self.h
        half = self.columns = self.whitened(targets)
        mu = h.mean + half.T @ self._y[: self.m]
        var = h.prior_variance - np.einsum("ij,ij->j", half, half)
        return mu, var

    def joint(self, cells) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and covariance of distinct cells not in the sequence:
        one :meth:`batch`, its variances on the diagonal, ``K - C^T C`` off it,
        ``K`` the table's :meth:`~KernelTable.matrix` of the cells."""
        mu, var = self.batch(cells)
        cov = self.table.matrix(cells, cells) - self.columns.T @ self.columns
        np.fill_diagonal(cov, var)
        return mu, cov

    def whitened(self, targets) -> np.ndarray:
        """``L^-1 K(cells, targets)`` over the current sequence: column ``j``
        holds the whitened regression weights of ``targets[j]``."""
        k = self.table.values[self._offsets[: self.m, None] - self.table.codes(targets)]
        return dtrsm(1.0, self._L[: self.m, : self.m], k, lower=1)

    def extend(self, cell, innovation: float, row=None) -> float:
        """Append one observation in place by its standardized residual
        ``innovation``; return its variance given the sequence before it (the
        Schur complement), whose square root is the new pivot of the factor.
        ``row`` is the cell's whitened column from :attr:`columns`, solved
        here when not given."""
        L, m, t = self._L, self.m, self.table
        code = cell[0] * t.width + cell[1]
        var = self.h.prior_variance
        if m:
            if row is None:
                row = dtrsv(L[:m, :m], t.values[self._offsets[:m] - code], lower=1)
            L[m, :m] = row
            var -= row @ row
        if var <= 0:
            raise SingularGram("gram extension lost positive definiteness")
        L[m, m] = math.sqrt(var)
        self._offsets[m] = code + t.center
        self._y[m] = innovation
        self.m = m + 1
        return var

    def pop(self, count: int) -> None:
        """Drop the last ``count`` observations."""
        self.m -= count


def posterior_marginals(d: PosteriorData, targets, h: Hyperparams) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and variances at the target cells: the mean and the
    covariance diagonal of the exact GP posterior, without the covariance.

    One :meth:`IncrementalPosterior.batch` of ``N`` targets given the ``m``
    observed cells, on the kernel table of the smallest grid at the origin
    that holds them all: O(m^2 N) time and O(m N) memory. A target that is
    also observed gets the exact GP posterior variance. Raises ``ValueError``
    for a cell with a negative coordinate.
    """
    rows, cols = zip((0, 0), *d.locations, *targets)
    if min(rows) < 0 or min(cols) < 0:
        raise ValueError("cells must have non-negative coordinates")
    table = KernelTable(h, GridDomain(max(rows) + 1, max(cols) + 1))
    return IncrementalPosterior(table, d.locations, d.z, len(d)).batch(targets)


class MapSpectrum:
    """The eigendecomposition of the Gram matrix over every cell of one grid.

    The squared-exponential kernel is a product of a row and a column factor,
    so over the cells in row-major order the map's Gram matrix is
    ``s (A kron B) + tau I``: ``s`` is the signal variance, ``A`` and ``B``
    the rows x rows and cols x cols correlation matrices, and ``tau`` the
    nugget. With ``A = Q_A diag(a) Q_A^T`` and ``B = Q_B diag(b) Q_B^T`` its
    eigenvalues are ``lam[i, j] = s a_i b_j + tau`` and its eigenvectors
    ``Q_A kron Q_B`` (Kronecker GP methods, Saatci 2011): two small ``eigh``
    calls, O(rows^3 + cols^3) time and O(N) memory for a map of ``N`` cells.
    A Gram matrix that is not positive definite raises :class:`SingularGram`.
    """

    def __init__(self, h: Hyperparams, domain: GridDomain, prior_variance: float):
        unit = Hyperparams(h.mean, 1.0, h.length_scale)
        corr = [_se(np.subtract.outer(x, x) ** 2, unit)
                for x in (np.arange(domain.rows, dtype=float), np.arange(domain.cols, dtype=float))]
        (a, self.qa), (b, self.qb) = (np.linalg.eigh(c) for c in corr)
        tau = prior_variance - h.signal_variance
        self.lam = h.signal_variance * np.outer(a, b) + tau
        if not (self.lam > 0).all():
            raise SingularGram("map gram matrix not positive definite")
        # the Gram's row sums, s (A 1)_r (B 1)_c + tau, indexed by cell
        self.row_sums = h.signal_variance * np.outer(corr[0].sum(1), corr[1].sum(1)) + tau
        for array in (self.qa, self.qb, self.lam, self.row_sums):
            array.setflags(write=False)  # one cached spectrum serves every caller

    @functools.cached_property
    def logdet(self) -> float:
        """``log det`` of the map's Gram matrix."""
        return float(np.sum(np.log(self.lam)))

    def leave_one_out(self, targets, removed) -> np.ndarray:
        """Posterior variance of each target cell given every other cell of the
        map but the ``removed`` ones: the exact GP posterior variance.

        With ``P = K^-1`` and ``S`` the removed cells, the precision of the
        map without ``S`` is the Schur complement ``P_UU - P_US P_SS^-1 P_SU``,
        whose diagonal entry at a target ``y`` is the reciprocal of ``y``'s
        leave-one-out variance (Krause, Singh & Guestrin, JMLR 2008). The
        entries of ``P`` over the targets and ``S`` are gathered from the
        spectrum: O((t + |S|)^2 N) time.
        """
        t = len(targets)
        r, c = np.asarray(list(targets) + list(removed), dtype=np.intp).reshape(-1, 2).T
        rows = (self.qa[r][:, :, None] * self.qb[c][:, None, :]).reshape(len(r), -1)
        p = (rows / self.lam.ravel()) @ rows.T
        precision = np.diag(p)[:t]
        if len(r) > t:
            half = solve_triangular(cholesky(p[t:, t:], lower=True), p[t:, :t], lower=True)
            precision = precision - np.einsum("ij,ij->j", half, half)
        return 1.0 / precision


_map_spectrum = functools.lru_cache(maxsize=4)(MapSpectrum)


def map_spectrum(h: Hyperparams, domain: GridDomain) -> MapSpectrum:
    """The :class:`MapSpectrum` of ``(h, domain)``, cached; the prior variance
    is in the key, so a changed ``JITTER_FRACTION`` recomputes it."""
    return _map_spectrum(h, domain, h.prior_variance)


def map_entropy(d: PosteriorData, domain: GridDomain, h: Hyperparams) -> float:
    """The posterior map entropy: the joint entropy of the original-scale
    measurements at every cell of ``domain`` that ``d`` leaves unobserved, 0.0
    when it leaves none (the joint entropy of no cells).

    By the chain rule, the log-scale part is the joint entropy of the map
    less that of the ``m`` observed cells, ``0.5 (n log 2 pi e + log det K -
    log det K_oo)`` for ``n`` unobserved cells, with ``log det K`` from the
    cached :class:`MapSpectrum`. The unobserved posterior means sum to
    ``n mean + (K_ou 1)^T K_oo^-1 (z - mean)``, where ``K_ou 1`` is the map
    Gram's row sums less ``K_oo 1``. So beyond the spectrum the cost is one
    ``m x m`` factor, independent of the map size. Raises
    :class:`SingularGram` if the map's Gram matrix or its observed block is
    not positive definite.
    At a zero noise variance the jitter floor sets much of the value: -371.34,
    -369.24, -357.03 at ``JITTER_FRACTION`` 1e-12, 1e-10, 1e-8 on the README
    config's seed-0 prior data, noise set to 0. Fitted noise is positive.
    """
    if not all(map(domain.contains, d.locations)):
        raise ValueError("observed cells must lie on the map")
    m = len(d)
    n = domain.size - m
    if n == 0:
        return 0.0
    spec = map_spectrum(h, domain)
    value = 0.5 * (n * LOG_2PI_E + spec.logdet) + n * h.mean
    if m:
        gram = KernelTable(h, domain).matrix(d.locations, d.locations)
        L = _gram_factor(gram, h)
        r, c = np.array(d.locations).T
        k_ou1 = spec.row_sums[r, c] - gram.sum(axis=1)
        value += float(k_ou1 @ cho_solve((L, True), d.z - h.mean) - np.sum(np.log(np.diag(L))))
    return value


def sample_field(h: Hyperparams, domain: GridDomain, seed: int) -> np.ndarray:
    """Draw one field realization: exp of a joint GP sample over all cells.

    Returns a positive array of shape ``(rows, cols)``; deterministic in
    ``seed``. The sample is ``mean + Q_A (sqrt(lam) E) Q_B^T`` for a
    ``rows x cols`` standard normal ``E``, from the cached
    :class:`MapSpectrum`: its covariance is the map's Gram matrix, and nothing
    map-sized is factored. Raises :class:`SingularGram` if that Gram matrix is
    not positive definite.
    """
    spec = map_spectrum(h, domain)
    e = np.random.default_rng(seed).standard_normal((domain.rows, domain.cols))
    return np.exp(h.mean + spec.qa @ (np.sqrt(spec.lam) * e) @ spec.qb.T)


def lognormal_predictor(d: PosteriorData, x: Cell, h: Hyperparams) -> float:
    """Posterior mean of the original-scale measurement at ``x``."""
    mean, var = posterior_marginals(d, [x], h)
    return float(np.exp(mean[0] + 0.5 * var[0]))


def default_grids(d: PosteriorData, domain: GridDomain, points: int = 20):
    """Log-spaced hyperparameter grids scaled to the sample variance.

    Length scales beyond half the domain extent are unidentifiable from
    in-domain data and drive wild extrapolation; signal variances far above
    the sample variance inflate the lognormal mean correction; and a nugget
    below one percent of the sample variance is indistinguishable from zero
    on small samples while letting interpolation weights blow up on
    clustered designs. The grids stay within those bounds.
    """
    var_z = max(float(np.var(d.z)), 1e-8)
    signal = np.geomspace(1e-2 * var_z, 4.0 * var_z, points)
    length = np.geomspace(0.5, max(domain.rows, domain.cols) / 2.0, points)
    noise = np.geomspace(1e-2 * var_z, var_z, points)
    return signal, length, noise


def fit_hyperparams(
    observations: PosteriorData,
    domain: GridDomain,
    signal_grid=None,
    length_grid=None,
    noise_grid=None,
    grid_points: int = 20,
) -> Hyperparams:
    """Maximum-likelihood hyperparameters over a log-spaced grid.

    The mean is fixed at the sample mean of the log measurements; the grid
    search is exhaustive, so the returned candidate has likelihood at least
    that of every other grid point. Each candidate's Gram is ``signal * C +
    prior variance * I``, ``C`` its length scale's correlations less the
    identity, so one stacked eigendecomposition of every ``C`` scores the
    whole grid. A candidate whose smallest eigenvalue is not positive is
    skipped, like a failed Cholesky. Ties go to the first maximum in
    (length, signal, noise) order. Raises ``ValueError`` for ``grid_points <
    1``, a grid that is empty or not 1-D, or a grid value that
    :class:`Hyperparams` refuses, and :class:`SingularGram` when no candidate
    is positive definite.
    """
    if len(observations) < 5:
        raise InsufficientData(f"need >= 5 observations, got {len(observations)}")
    if grid_points < 1:
        raise ValueError(f"grid_points must be at least 1, got {grid_points}")
    given = {"signal_grid": signal_grid, "length_grid": length_grid, "noise_grid": noise_grid}
    sg, lg, ng = grids = [d if g is None else np.asarray(g, dtype=float)
                          for g, d in zip(given.values(), default_grids(observations, domain, grid_points))]
    for name, grid in zip(given, grids):
        if grid.ndim != 1 or not grid.size:
            raise ValueError(f"{name} must be a non-empty 1-D grid, got shape {grid.shape}")
    mean = float(np.mean(observations.z))
    for extreme in (np.min, np.max):  # every grid value lies between these two candidates
        Hyperparams(mean, extreme(sg), extreme(lg), extreme(ng))
    resid = observations.z - mean
    cells = np.asarray(observations.locations, dtype=float)
    sq = _sq_dists(cells, cells)
    n = len(resid)
    # every Gram is signal * off + prior variance * I, off the correlations less the identity
    off = np.stack([_se(sq.copy(), Hyperparams(mean, 1.0, ell)) for ell in lg])
    off.reshape(len(lg), -1)[:, :: n + 1] = 0.0
    mu, q = np.linalg.eigh(off)
    # Hyperparams.prior_variance of every (signal, noise) pair
    diag = sg[:, None] + np.where(ng == 0, JITTER_FRACTION * sg[:, None], ng)
    ok = sg[:, None] * mu[:, :1, None] + diag > 0  # eigh's eigenvalues ascend
    quad, logdet = np.empty((2, len(lg), len(sg), len(ng)))
    for k in range(len(lg)):
        ev = sg[:, None, None] * mu[k] + diag[:, :, None]
        ev[~ok[k]] = 1.0  # a finite placeholder; ll masks the skipped candidates
        np.sum((resid @ q[k]) ** 2 / ev, axis=2, out=quad[k])
        np.sum(np.log(ev), axis=2, out=logdet[k])
    ll = -0.5 * (quad + logdet + n * math.log(2.0 * math.pi))
    ll[~ok] = -np.inf
    k, i, j = np.unravel_index(np.argmax(ll), ll.shape)
    if ll[k, i, j] == -np.inf:
        raise SingularGram("no grid candidate yielded a positive definite gram")
    return Hyperparams(mean, sg[i], lg[k], ng[j])

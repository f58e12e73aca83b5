"""Policy rollout against ground-truth fields and the two map-quality metrics.

ENT is the posterior joint entropy of the original-scale measurements at the
still-unobserved cells; ERR is the mean-squared relative error of the
lognormal posterior-mean predictor over every cell of the domain, normalized
by the true field mean.

With ``m`` observations on a map of ``N`` cells, ENT is the map's joint
entropy, read off the map Gram's spectrum (two 1-D eigendecompositions,
cached per hyperparameters and grid), less that of the observed cells: one
``m x m`` factor per call (:func:`~hotspotplan.field_model.map_entropy`).
ERR needs only each cell's posterior mean and variance
(:func:`~hotspotplan.field_model.posterior_marginals`), one batch of the
planners' incremental factor: O(m N) memory and O(m^2 N) time. Both gather
their kernel entries from the grid's kernel table. Neither forms the
posterior covariance matrix, and neither factors anything map-sized.

:func:`paired_ttest` reads its critical value off
``scipy.special.stdtrit``, the Student t quantile that
``scipy.stats.t.ppf`` evaluates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from .errors import DeadEnd, InsufficientData
from .field_model import PosteriorData, map_entropy, posterior_marginals
from .planners import Policy, Problem
from .world import TeamState, transition


@dataclass
class RolloutResult:
    final_data: PosteriorData
    path_cells: list
    ent: float
    err: float
    wall_time: float
    dead_ended: bool = False


def rollout(
    problem: Problem,
    policy: Policy,
    field: np.ndarray,
    d0: PosteriorData,
    s0: TeamState,
    stages: int,
) -> RolloutResult:
    """Execute a policy for ``stages`` single-observation stages.

    After each move the true log measurement at the new cell is revealed and
    appended to the history. ``wall_time`` covers planning (policy.act) only.
    A dead end truncates the rollout and is flagged on the result.
    """
    if field.shape != (problem.domain.rows, problem.domain.cols):
        raise ValueError("field shape must match the domain")
    s = s0
    d = d0
    paths = [[p.cell] for p in s0.poses]
    plan_time = 0.0
    dead = False
    for stage in range(stages):
        t0 = time.perf_counter()
        try:
            a = policy.act(s, d, stage)
        except DeadEnd:
            dead = True
            break
        finally:
            plan_time += time.perf_counter() - t0
        s = transition(s, a, problem.domain)
        cell = s.poses[a.robot_index].cell
        d = d.extended(cell, math.log(field[cell]))
        paths[a.robot_index].append(cell)
    ent = ent_metric(problem, d)
    err = err_metric(problem, d, field)
    return RolloutResult(d, paths, ent, err, plan_time, dead)


def ent_metric(problem: Problem, d: PosteriorData) -> float:
    """Posterior map entropy: joint log-GP entropy of all unobserved cells (0.0 if none)."""
    return map_entropy(d, problem.domain, problem.hyper)


def err_metric(problem: Problem, d: PosteriorData, field: np.ndarray) -> float:
    """Mean-squared relative prediction error over every domain cell."""
    return float(np.mean(error_map(problem, d, field) ** 2))


def error_map(problem: Problem, d: PosteriorData, field: np.ndarray) -> np.ndarray:
    """Per-cell absolute relative prediction error grid."""
    mean, var = posterior_marginals(d, problem.domain.cells(), problem.hyper)
    pred = np.exp(mean + 0.5 * var).reshape(problem.domain.rows, problem.domain.cols)
    mu_bar = float(field.mean())
    return np.abs(field - pred) / mu_bar


def paired_ttest(a, b, alpha_sig: float = 0.1) -> tuple[float, bool]:
    """Two-sided paired t statistic and significance flag.

    Zero-variance differences degenerate to a statistic of 0 (identical
    lists, not significant) or +/-inf (constant nonzero difference,
    significant). ``alpha_sig`` must lie strictly between 0 and 1.
    """
    if not 0.0 < alpha_sig < 1.0:  # a NaN fails this too
        raise ValueError(f"alpha_sig must lie in (0, 1), got {alpha_sig}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("need two equal-length 1-d samples")
    n = a.shape[0]
    if n < 5:
        raise InsufficientData(f"paired t-test needs >= 5 pairs, got {n}")
    diff = a - b
    mean = float(diff.mean())
    sd = float(diff.std(ddof=1))
    if sd == 0.0:
        stat = 0.0 if mean == 0.0 else math.copysign(math.inf, mean)
    else:
        stat = mean / (sd / math.sqrt(n))
    crit = float(stdtrit(n - 1, 1.0 - alpha_sig / 2.0))
    return stat, abs(stat) > crit

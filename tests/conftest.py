"""Shared fixtures: instance builders and quadrature policy evaluators."""

import math
import os

# One BLAS thread, set before numpy loads (pytest imports this file before
# the test modules). An idle OpenBLAS worker thread spins, so CPU-time
# measurements (criterion 8) would count it, and on a shared machine a small
# factorization can wait for a descheduled worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from hotspotplan.discretization import truncated_quadrature_rule
from hotspotplan.errors import DeadEnd
from hotspotplan.field_model import (
    Hyperparams,
    PosteriorData,
    gaussian_entropy,
    posterior,
)
from hotspotplan.planners import Problem, stagewise_reward
from hotspotplan.world import (
    GridDomain,
    RobotPose,
    TeamState,
    action_target,
    constrained_actions,
    interior_heading,
    transition,
)


def make_instance(
    seed=0,
    rows=4,
    cols=4,
    k=1,
    model="lgp",
    mean=0.3,
    signal_variance=0.8,
    length_scale=1.3,
    noise_variance=0.01,
    n_prior=3,
    budget=None,
):
    """Random tiny instance: problem, prior data, start state."""
    rng = np.random.default_rng(seed)
    domain = GridDomain(rows, cols)
    h = Hyperparams(mean, signal_variance, length_scale, noise_variance)
    cells = domain.cells()
    starts = [(0, 0)] if k == 1 else [(0, 0), (rows - 1, cols - 1)][:k]
    candidates = [c for c in cells if c not in starts]
    idx = rng.choice(len(candidates), size=n_prior, replace=False)
    prior = [candidates[i] for i in sorted(idx)]
    locs = prior + starts
    z = mean + math.sqrt(h.prior_variance) * rng.standard_normal(len(locs))
    d0 = PosteriorData(locs, z)
    poses = tuple(RobotPose(c, interior_heading(c, domain)) for c in starts)
    s0 = TeamState(poses, frozenset(locs), budget=budget)
    problem = Problem(domain, h, model)
    return problem, d0, s0


def quadrature_policy_reward(problem, policy, d, s, stage, horizon, order=16, m=4.0):
    """Expected total reward of a policy under truncated-quadrature outcomes.

    Recursively follows the policy's decisions and integrates the outcome of
    each observation with a Gauss-Legendre rule on the truncated support
    (test-side evaluator for policy values).
    """
    if stage > horizon:
        return 0.0
    try:
        a = policy.act(s, d, stage)
    except DeadEnd:
        return 0.0
    reward = stagewise_reward(problem, s, a, d)
    if stage == horizon:
        return reward
    cell = action_target(s, a).cell
    g = posterior(d, [cell], problem.hyper)
    mu, sd = float(g.mean[0]), math.sqrt(float(g.covariance[0, 0]))
    w, zeta = truncated_quadrature_rule(order, m)
    s2 = transition(s, a, problem.domain)
    total = 0.0
    for wq, zq in zip(w, zeta):
        d2 = d.extended(cell, mu + sd * zq)
        total += wq * quadrature_policy_reward(
            problem, policy, d2, s2, stage + 1, horizon, order, m
        )
    return reward + total


def quadrature_policy_map_entropy(problem, policy, d, s, stage, horizon, order=16, m=4.0):
    """Expected posterior map entropy (log scale) after following a policy.

    The leaf value is the joint Gaussian entropy of all still-unobserved
    cells given the final history; outcomes are integrated by quadrature.
    """
    domain = problem.domain

    def final_entropy(dd):
        unobs = [c for c in domain.cells() if c not in dd.observed_set()]
        if not unobs:
            return 0.0
        return gaussian_entropy(posterior(dd, unobs, problem.hyper))

    if stage > horizon:
        return final_entropy(d)
    try:
        a = policy.act(s, d, stage)
    except DeadEnd:
        return final_entropy(d)
    cell = action_target(s, a).cell
    g = posterior(d, [cell], problem.hyper)
    mu, sd = float(g.mean[0]), math.sqrt(float(g.covariance[0, 0]))
    w, zeta = truncated_quadrature_rule(order, m)
    s2 = transition(s, a, problem.domain)
    total = 0.0
    for wq, zq in zip(w, zeta):
        d2 = d.extended(cell, mu + sd * zq)
        total += wq * quadrature_policy_map_entropy(
            problem, policy, d2, s2, stage + 1, horizon, order, m
        )
    return total


def make_field_instance(
    seed=0,
    rows=4,
    cols=4,
    k=1,
    model="lgp",
    mean=0.3,
    signal_variance=0.8,
    length_scale=1.3,
    noise_variance=0.01,
    n_prior=3,
    budget=None,
):
    """Like make_instance, but the prior data come from a sampled field."""
    from hotspotplan.field_model import sample_field

    rng = np.random.default_rng(seed)
    domain = GridDomain(rows, cols)
    h = Hyperparams(mean, signal_variance, length_scale, noise_variance)
    field = sample_field(h, domain, seed=seed + 777)
    cells = domain.cells()
    starts = [(0, 0)] if k == 1 else [(0, 0), (rows - 1, cols - 1)][:k]
    candidates = [c for c in cells if c not in starts]
    idx = rng.choice(len(candidates), size=n_prior, replace=False)
    prior = [candidates[i] for i in sorted(idx)]
    locs = prior + starts
    z = [math.log(field[c]) for c in locs]
    d0 = PosteriorData(locs, z)
    poses = tuple(RobotPose(c, interior_heading(c, domain)) for c in starts)
    s0 = TeamState(poses, frozenset(locs), budget=budget)
    problem = Problem(domain, h, model)
    return problem, d0, s0, field


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """After each test the process has no child, running or unreaped
    (``urtdp`` forks one per call and must reap it before it returns)."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process: {f'pid {pid}, now reaped' if pid else 'running'}")

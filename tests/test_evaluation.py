import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import stdtrit
from scipy.stats import nct, t as student_t

from conftest import make_field_instance, make_instance
from oracles import gaussian_entropy, lgp_entropy, posterior
from hotspotplan import evaluation
from hotspotplan.errors import InsufficientData
from hotspotplan.evaluation import (
    ent_metric,
    err_metric,
    error_map,
    paired_ttest,
    rollout,
)
from hotspotplan.field_model import (
    Hyperparams,
    PosteriorData,
    sample_field,
)
from hotspotplan.planners import (
    GreedyPolicy,
    NonAdaptivePolicy,
    PlannerConfig,
    Problem,
    bounded_dp,
    mes_nonadaptive,
    mi_greedy,
    stagewise_reward,
)
from hotspotplan.world import (
    GridDomain,
    RobotPose,
    TeamState,
    action_target,
    constrained_actions,
    interior_heading,
    transition,
)


# -- rollout -----------------------------------------------------------------


def test_zero_stage_rollout_scores_the_prior():
    problem, d0, s0, field = make_field_instance(seed=1, rows=4, cols=4)
    res = rollout(problem, GreedyPolicy(problem), field, d0, replace(s0, budget=0))
    assert res.final_data is d0 or res.final_data.locations == d0.locations
    assert res.ent == pytest.approx(ent_metric(problem, d0))
    assert res.err == pytest.approx(err_metric(problem, d0, field))
    assert [p[0] for p in res.path_cells] == [p.cell for p in s0.poses]


def test_adaptive_rollout_depends_only_on_visited_cells():
    problem, d0, s0, field = make_field_instance(seed=2, rows=4, cols=4)
    policy = GreedyPolicy(problem)
    res1 = rollout(problem, policy, field, d0, replace(s0, budget=4))
    field2 = field.copy()
    touched = res1.final_data.observed_set()
    for cell in problem.domain.cells():
        if cell not in touched:
            field2[cell] *= 2.5
    res2 = rollout(problem, policy, field2, d0, replace(s0, budget=4))
    assert res1.path_cells == res2.path_cells


def test_greedy_rollout_path_matches_direct_simulation():
    # oracle: simulate the greedy decision rule by hand and recompute the
    # stagewise rewards along the way
    problem, d0, s0, field = make_field_instance(seed=3, rows=4, cols=4)
    s, d = s0, d0
    expected_cells = []
    expected_rewards = []
    for stage in range(3):
        acts = constrained_actions(s, problem.domain)
        best = max(acts, key=lambda a: stagewise_reward(problem, s, a, d))
        expected_rewards.append(stagewise_reward(problem, s, best, d))
        cell = action_target(s, best).cell
        expected_cells.append(cell)
        s = transition(s, best, problem.domain)
        d = d.extended(cell, math.log(field[cell]))
    res = rollout(problem, GreedyPolicy(problem), field, d0, replace(s0, budget=3))
    assert list(res.final_data.locations[len(d0):]) == expected_cells
    # the recorded history carries exactly the simulated measurements
    for cell, z in zip(expected_cells, res.final_data.z[len(d0):]):
        assert z == pytest.approx(math.log(field[cell]), abs=1e-12)


def test_rollout_respects_budget_and_counts_stages():
    problem, d0, s0, field = make_field_instance(seed=4, rows=5, cols=5, k=2, budget=2)
    res = rollout(problem, GreedyPolicy(problem), field, d0, s0)
    assert not res.dead_ended
    for path in res.path_cells:
        assert len(path) - 1 <= 2
    assert len(res.final_data) == len(d0) + 4


def test_nonadaptive_policy_replays_identically():
    problem, d0, s0, field = make_field_instance(seed=5, rows=4, cols=4, model="gp", budget=3)
    mes = mes_nonadaptive(problem, d0, s0)
    res1 = rollout(problem, mes.policy, field, d0, s0)
    field2 = field * 1.9  # different field entirely; paths must not move
    res2 = rollout(problem, mes.policy, field2, d0, s0)
    assert res1.path_cells == res2.path_cells


@pytest.mark.parametrize("seed, size, steps", [
    (5, 4, (1,)),
    (0, 5, (1, 0)), (0, 5, (2, 0)), (0, 5, (3, 0)), (0, 5, (0, 3)), (0, 5, (2, 1)),
], ids=["k1-steps1", "k2-steps1-0", "k2-steps2-0", "k2-steps3-0", "k2-steps0-3", "k2-steps2-1"])
def test_mes_mi_and_rollout_take_their_length_from_the_state(seed, size, steps):
    # robots that have taken some of their three steps, one robot or two with
    # shares that differ: both baselines plan each robot's moves left, MES
    # exactly, at the gp bounded-DP value (Theorem 2), and a rollout of their
    # plans or of greedy ends after those stages, none of them at a dead end
    problem, d0, s0, field = make_field_instance(seed=seed, rows=size, cols=size, k=len(steps),
                                                 model="gp", budget=3)
    s1 = replace(s0, steps=steps)
    left = [3 - n for n in steps]
    assert s1.moves_left == sum(left)
    mes, mi = mes_nonadaptive(problem, d0, s1), mi_greedy(problem, d0, s1)
    assert [len(p) - 1 for p in mes.paths] == [len(p) - 1 for p in mi.paths] == left
    assert len(mes.policy.actions) == len(mi.policy.actions) == sum(left)
    assert mes.exact
    cfg = PlannerConfig(horizon=s1.moves_left - 1, nu=1)
    assert mes.value == pytest.approx(bounded_dp(problem, d0, s1, cfg, "lower")[0], abs=1e-9)
    for policy in (mes.policy, mi.policy, GreedyPolicy(problem)):
        res = rollout(problem, policy, field, d0, s1)
        assert not res.dead_ended and [len(p) - 1 for p in res.path_cells] == left


@pytest.mark.parametrize("budget, shape, message", [
    (None, (4, 4), "without a budget"),
    (2, (4, 5), "field shape must match the domain"),
], ids=["no-budget", "field-shape"])
def test_rollout_refuses_a_state_without_a_budget_or_a_field_of_another_shape(budget, shape,
                                                                              message):
    problem, d0, s0, _ = make_field_instance(seed=1, rows=4, cols=4, budget=budget)
    with pytest.raises(ValueError, match=message):
        rollout(problem, GreedyPolicy(problem), np.ones(shape), d0, s0)


# -- ent_metric --------------------------------------------------------------


def test_ent_metric_single_unobserved_cell():
    problem, d0, s0 = make_instance(seed=6, rows=2, cols=2, n_prior=2)
    d = d0
    missing = [c for c in problem.domain.cells() if c not in d.observed_set()]
    for cell in missing[:-1]:
        d = d.extended(cell, 0.3)
    assert ent_metric(problem, d) == pytest.approx(
        lgp_entropy(d, [missing[-1]], problem.hyper), abs=1e-12
    )


def test_ent_metric_matches_lgp_entropy_over_unobserved():
    problem, d0, s0 = make_instance(seed=7, rows=4, cols=4)
    unobs = [c for c in problem.domain.cells() if c not in d0.observed_set()]
    assert ent_metric(problem, d0) == pytest.approx(
        lgp_entropy(d0, unobs, problem.hyper), abs=1e-12
    )


def test_ent_and_err_match_the_dense_posterior_on_a_two_robot_map(rng):
    problem, d0, s0, field = make_field_instance(
        seed=14, rows=14, cols=12, k=2, n_prior=20, length_scale=2.0, noise_variance=0.05
    )
    d = d0
    free = [c for c in problem.domain.cells() if c not in d.observed_set()]
    for i in rng.choice(len(free), size=10, replace=False):
        d = d.extended(free[i], math.log(field[free[i]]))
    unobs = [c for c in problem.domain.cells() if c not in d.observed_set()]
    g = posterior(d, unobs, problem.hyper)
    expected = gaussian_entropy(g) + float(np.sum(g.mean))
    assert lgp_entropy(d, unobs, problem.hyper) == pytest.approx(expected, rel=1e-12)
    assert ent_metric(problem, d) == pytest.approx(expected, rel=1e-12)
    full = posterior(d, problem.domain.cells(), problem.hyper)
    pred = np.exp(full.mean + 0.5 * np.diag(full.covariance)).reshape(field.shape)
    expected_err = float(np.mean(((field - pred) / field.mean()) ** 2))
    assert err_metric(problem, d, field) == pytest.approx(expected_err, rel=1e-12)


def test_ent_metric_two_cell_monte_carlo_oracle(rng):
    problem, d0, s0 = make_instance(seed=8, rows=2, cols=3, n_prior=1, noise_variance=0.02)
    d = d0
    free = [c for c in problem.domain.cells() if c not in d.observed_set()]
    for cell in free[:-2]:
        d = d.extended(cell, float(rng.normal(0.3, 0.5)))
    remaining = [c for c in problem.domain.cells() if c not in d.observed_set()]
    assert len(remaining) == 2
    g = posterior(d, remaining, problem.hyper)
    n = 1_000_000
    L = np.linalg.cholesky(g.covariance)
    zs = g.mean + (L @ rng.standard_normal((2, n))).T
    # -log joint density of (Y1, Y2) = -log f_Z(z) + z1 + z2
    resid = zs - g.mean
    quad = np.einsum("ij,ij->i", resid @ np.linalg.inv(g.covariance), resid)
    neglog = (
        math.log(2 * math.pi)
        + 0.5 * math.log(np.linalg.det(g.covariance))
        + 0.5 * quad
        + zs.sum(axis=1)
    )
    estimate = float(neglog.mean())
    se = float(neglog.std(ddof=1)) / math.sqrt(n)
    assert abs(ent_metric(problem, d) - estimate) < 3 * se


def test_ent_decreases_with_more_observations():
    # mean ENT after 6 stages < mean ENT after 2 stages over 20 seeds
    deltas = []
    for seed in range(20):
        problem, d0, s0, field = make_field_instance(seed=200 + seed, rows=5, cols=5)
        policy = GreedyPolicy(problem)
        short = rollout(problem, policy, field, d0, replace(s0, budget=2))
        long = rollout(problem, policy, field, d0, replace(s0, budget=6))
        deltas.append(long.ent - short.ent)
    assert float(np.mean(deltas)) < 0


# -- err_metric and error_map --------------------------------------------------


def test_err_zero_when_everything_observed():
    problem, d0, s0 = make_instance(seed=9, rows=3, cols=3, noise_variance=0.0)
    h = problem.hyper
    field = sample_field(h, problem.domain, seed=17)
    cells = problem.domain.cells()
    d = PosteriorData(cells, [math.log(field[c]) for c in cells])
    assert err_metric(problem, d, field) < 1e-18
    emap = error_map(problem, d, field)
    assert np.all(emap < 1e-9)


def test_err_toy_hand_computed():
    # two cells observed on a 1x3 strip with a huge nugget: prediction is a
    # known closed form; check the displayed formula by hand arithmetic
    dom = GridDomain(1, 3)
    h = Hyperparams(0.0, 1e-9, 1.0, 0.0)  # predictor collapses to exp(0) = 1
    problem = Problem(dom, h, "lgp")
    d = PosteriorData([], [])
    field = np.array([[1.0, 2.0, 4.0]])
    mu_bar = (1.0 + 2.0 + 4.0) / 3.0
    expected = ((0.0 / mu_bar) ** 2 + (1.0 / mu_bar) ** 2 + (3.0 / mu_bar) ** 2) / 3.0
    assert err_metric(problem, d, field) == pytest.approx(expected, abs=1e-6)
    emap = error_map(problem, d, field)
    assert emap[0, 2] == pytest.approx(3.0 / mu_bar, abs=1e-6)


def test_error_map_squares_average_to_err():
    problem, d0, s0, field = make_field_instance(seed=10, rows=4, cols=4)
    emap = error_map(problem, d0, field)
    assert float(np.mean(emap**2)) == pytest.approx(
        err_metric(problem, d0, field), abs=1e-12
    )


def test_error_map_zero_at_observed_cells():
    problem, d0, s0, field = make_field_instance(seed=11, rows=4, cols=4, noise_variance=0.0)
    emap = error_map(problem, d0, field)
    for cell in d0.locations:
        assert emap[cell] < 1e-6


# -- paired_ttest --------------------------------------------------------------


def test_ttest_identical_lists():
    stat, sig = paired_ttest([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0])
    assert stat == 0.0 and not sig


def test_ttest_constant_difference_is_significant():
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    b = [x - 0.5 for x in a]
    stat, sig = paired_ttest(a, b, 0.1)
    assert math.isinf(stat) and stat > 0 and sig


def test_ttest_requires_five_pairs():
    with pytest.raises(InsufficientData):
        paired_ttest([1.0, 2.0], [0.5, 1.5])


@pytest.mark.parametrize("alpha", [0.0, -0.1, 1.0, 1.5, 2.0, 2.5, math.inf, -math.inf, math.nan])
def test_ttest_rejects_a_level_outside_the_unit_interval(alpha):
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    with pytest.raises(ValueError, match="alpha_sig"):
        paired_ttest(a, [x - 0.5 for x in a], alpha)


def test_ttest_agrees_with_scipy_on_random_data(rng, monkeypatch):
    a = rng.normal(size=12)
    b = rng.normal(size=12)
    stat, _ = paired_ttest(a, b, 0.1)
    from scipy.stats import ttest_rel

    assert stat == pytest.approx(float(ttest_rel(a, b).statistic), abs=1e-10)
    # the critical value is scipy.stats.t.ppf's, bit for bit
    calls = []

    def recording_stdtrit(df, q):
        calls.append((df, q, float(stdtrit(df, q))))
        return calls[-1][2]

    monkeypatch.setattr(evaluation, "stdtrit", recording_stdtrit)
    for alpha in (0.01, 0.05, 0.1, 0.5, 0.99):
        for n in (5, 12, 60):
            stat, sig = paired_ttest(rng.normal(size=n) + 0.5, rng.normal(size=n), alpha)
            crit = float(student_t.ppf(1 - alpha / 2, n - 1))
            df, q, got = calls[-1]
            assert (df, q) == (n - 1, 1 - alpha / 2) and got.hex() == crit.hex(), (alpha, n)
            assert sig == (abs(stat) > crit)
    assert len(calls) == 15


def test_ttest_rejects_samples_of_unequal_length():
    with pytest.raises(ValueError, match="need two equal-length 1-d samples"):
        paired_ttest([1.0] * 5, [1.0] * 6)


def test_ttest_rejection_rate_matches_closed_form_power(rng):
    # oracle: closed-form power of the paired two-sided t-test
    n, effect, alpha = 10, 0.8, 0.1
    crit = float(student_t.ppf(1 - alpha / 2, n - 1))
    delta = effect * math.sqrt(n)
    power = 1 - nct.cdf(crit, n - 1, delta) + nct.cdf(-crit, n - 1, delta)
    trials = 10_000
    rejections = 0
    for _ in range(trials):
        diff = rng.normal(effect, 1.0, size=n)
        base = rng.normal(size=n)
        stat, sig = paired_ttest(base + diff, base, alpha)
        rejections += bool(sig)
    rate = rejections / trials
    se = math.sqrt(power * (1 - power) / trials)
    assert abs(rate - power) < 4 * se

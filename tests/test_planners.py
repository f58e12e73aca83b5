import math
import os
import signal
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    make_field_instance,
    make_instance,
    quadrature_policy_map_entropy,
    quadrature_policy_reward,
)
from oracles import gaussian_entropy, posterior
import hotspotplan.field_model as fm
from hotspotplan import planners
from hotspotplan.discretization import standardized_rule
from hotspotplan.errors import (
    DeadEnd,
    DegenerateCovariance,
    HotspotPlanError,
    IllegalAction,
    InstanceTooLarge,
    SingularGram,
)
from hotspotplan.field_model import Hyperparams, IncrementalPosterior, PosteriorData
from hotspotplan.evaluation import ent_metric
from hotspotplan.harness import ExperimentConfig, _build_instance, run_seed, validate_config
from hotspotplan.planners import (
    BoundedLowerPolicy,
    PlannerConfig,
    Problem,
    UrtdpPolicy,
    ValueBounds,
    _UrtdpInstance,
    bounded_dp,
    exact_dp,
    greedy_adaptive,
    mes_nonadaptive,
    mi_greedy,
    stagewise_reward,
    state_key,
    urtdp,
    urtdp_policy,
)
from hotspotplan.world import (
    HEADINGS,
    MOVES,
    ConstrainedJointAction,
    GridDomain,
    RobotPose,
    TeamState,
    Walk,
    action_target,
    constrained_actions,
    full_joint_actions,
    interior_heading,
    move_target,
    transition,
)

LOG_2PI_E = math.log(2 * math.pi * math.e)


def cfg_for(horizon, nu=4, alpha=1e-3, paths=1000, seed=0, m=4.0):
    return PlannerConfig(
        horizon=horizon, nu=nu, truncation_m=m, alpha=alpha,
        max_simulated_paths=paths, seed=seed,
    )


# -- stagewise_reward --------------------------------------------------------


def test_gp_reward_ignores_measurement_values(rng):
    problem, d0, s0 = make_instance(seed=1, model="gp")
    a = constrained_actions(s0, problem.domain)[0]
    base = stagewise_reward(problem, s0, a, d0)
    other = PosteriorData(d0.locations, rng.normal(size=len(d0)) * 5)
    assert stagewise_reward(problem, s0, a, other) == base


def test_lgp_reward_single_cell_closed_form():
    problem, d0, s0 = make_instance(seed=2, model="lgp")
    a = constrained_actions(s0, problem.domain)[0]
    cell = action_target(s0, a).cell
    g = posterior(d0, [cell], problem.hyper)
    expected = 0.5 * math.log(2 * math.pi * math.e * g.covariance[0, 0]) + g.mean[0]
    assert stagewise_reward(problem, s0, a, d0) == pytest.approx(expected, abs=1e-12)


def test_lgp_reward_shifts_affinely_with_data():
    problem, d0, s0 = make_instance(seed=3, model="lgp")
    a = constrained_actions(s0, problem.domain)[0]
    base = stagewise_reward(problem, s0, a, d0)
    delta = 0.9
    h = problem.hyper
    shifted = Problem(
        problem.domain,
        Hyperparams(h.mean + delta, h.signal_variance, h.length_scale, h.noise_variance),
        "lgp",
    )
    d_shift = PosteriorData(d0.locations, d0.z + delta)
    assert stagewise_reward(shifted, s0, a, d_shift) == pytest.approx(base + delta, abs=1e-9)


@pytest.mark.parametrize("pose, action", [
    (RobotPose((0, 0), "N"), ConstrainedJointAction(0, "left")),  # off the grid to (0, -1)
    (RobotPose((0, 0), "N"), ConstrainedJointAction(0, "front")),  # off the grid to (-1, 0)
    (RobotPose((1, 2), "S"), ConstrainedJointAction(0, "front")),  # onto visited (2, 2)
    (RobotPose((0, 0), "N"), ConstrainedJointAction(3, "right")),  # no robot 3
])
def test_stagewise_reward_refuses_an_illegal_action(pose, action):
    # an off-grid target must not alias a kernel-table code, nor a visited
    # cell score as new: the reward takes only the moves a transition takes
    problem = Problem(GridDomain(4, 4), Hyperparams(0.2, 1.0, 1.5, 0.02), "lgp")
    visited = sorted({pose.cell, (2, 2)})
    s = TeamState((pose,), frozenset(visited), budget=3)
    d = PosteriorData(visited, np.linspace(-0.5, 0.5, len(visited)))
    with pytest.raises(IllegalAction):
        stagewise_reward(problem, s, action, d)


# -- exact_dp ----------------------------------------------------------------


def test_exact_dp_base_case_is_max_reward():
    problem, d0, s0 = make_instance(seed=4, rows=3, cols=3, model="lgp")
    cfg = cfg_for(horizon=0)
    best = max(
        stagewise_reward(problem, s0, a, d0)
        for a in constrained_actions(s0, problem.domain)
    )
    assert exact_dp(problem, d0, s0, cfg) == pytest.approx(best, abs=1e-12)


def test_exact_dp_degenerate_outcomes_follow_deterministic_path():
    problem, d0, s0 = make_instance(
        seed=5, rows=3, cols=3, model="lgp", signal_variance=1e-10, noise_variance=0.0
    )
    cfg = cfg_for(horizon=2, nu=1)
    value = exact_dp(problem, d0, s0, cfg)
    lower, _ = bounded_dp(problem, d0, s0, cfg, "lower")
    assert value == pytest.approx(lower, abs=1e-6)


def test_exact_dp_bracketed_by_fine_bounds():
    problem, d0, s0 = make_instance(seed=6, rows=3, cols=3, model="lgp")
    cfg = cfg_for(horizon=2, nu=64)
    value = exact_dp(problem, d0, s0, cfg)
    lower, _ = bounded_dp(problem, d0, s0, cfg, "lower")
    upper, _ = bounded_dp(problem, d0, s0, cfg, "upper")
    assert lower - 1e-9 <= value <= upper + 1e-9
    assert upper - lower < 1e-3


def test_exact_dp_guards_instance_size():
    problem, d0, s0 = make_instance(seed=7, rows=6, cols=6)
    with pytest.raises(InstanceTooLarge, match="cells"):
        exact_dp(problem, d0, s0, cfg_for(horizon=2))
    # one cell over the limit
    problem, d0, s0 = make_instance(seed=7, rows=1, cols=17)
    with pytest.raises(InstanceTooLarge, match="cells"):
        exact_dp(problem, d0, s0, cfg_for(horizon=2))
    problem, d0, s0 = make_instance(seed=7, rows=3, cols=3)
    with pytest.raises(InstanceTooLarge, match="horizon"):
        exact_dp(problem, d0, s0, cfg_for(horizon=5))
    # 22 panels of four nodes: 88**4 > 5e7 outcome branches at horizon 4
    with pytest.raises(InstanceTooLarge, match="quadrature"):
        exact_dp(problem, d0, s0, cfg_for(horizon=4), quadrature_order=22)


# -- bounded_dp --------------------------------------------------------------


def test_bounded_dp_base_case_matches_exact():
    problem, d0, s0 = make_instance(seed=8, rows=3, cols=3, model="lgp")
    cfg = cfg_for(horizon=0, nu=3)
    value = exact_dp(problem, d0, s0, cfg)
    lower, policy = bounded_dp(problem, d0, s0, cfg, "lower")
    upper, none = bounded_dp(problem, d0, s0, cfg, "upper")
    assert lower == pytest.approx(value, abs=1e-12)
    assert upper == pytest.approx(value, abs=1e-12)
    assert isinstance(policy, BoundedLowerPolicy) and none is None


@pytest.mark.parametrize("model", ["gp", "lgp"])
@pytest.mark.parametrize("side", ["lower", "upper"])
@pytest.mark.parametrize("nu", [1, 2, 3])
def test_bounded_dp_equals_an_independent_branch_recursion(nu, side, model):
    # independent scalar recursion: branch j of a move observes the outcome
    # mu + sd * zeta_j, conditioned from scratch with posterior(), and weighs
    # it by w_j (for nu=1 Jensen, the posterior mean with weight 1)
    problem, d0, s0 = make_instance(seed=9, rows=3, cols=3, model=model)
    cfg = cfg_for(horizon=2, nu=nu)
    w, zeta = standardized_rule(nu, cfg.truncation_m, "jensen" if side == "lower" else "em")

    def value(d, s, stage):
        acts = constrained_actions(s, problem.domain)
        if not acts:
            return 0.0
        best = -math.inf
        for a in acts:
            cell = action_target(s, a).cell
            g = posterior(d, [cell], problem.hyper)
            mu, var = float(g.mean[0]), float(g.covariance[0, 0])
            r = 0.5 * math.log(2 * math.pi * math.e * var) + (mu if model == "lgp" else 0.0)
            if stage < cfg.horizon:
                s2 = transition(s, a, problem.domain)
                r += sum(wj * value(d.extended(cell, mu + math.sqrt(var) * zj), s2, stage + 1)
                         for wj, zj in zip(w, zeta))
            best = max(best, r)
        return best

    got, _ = bounded_dp(problem, d0, s0, cfg, side)
    assert got == pytest.approx(value(d0, s0, 0), abs=1e-9)


def test_theorem9_monotone_refinement_chain():
    # doubling nu tightens both sides around the exact value
    for seed in range(3):
        problem, d0, s0 = make_instance(seed=20 + seed, rows=4, cols=4, model="lgp")
        cfg0 = cfg_for(horizon=2)
        exact = exact_dp(problem, d0, s0, cfg0)
        lowers, uppers = [], []
        for nu in (1, 2, 4, 8):
            cfg = cfg_for(horizon=2, nu=nu)
            lowers.append(bounded_dp(problem, d0, s0, cfg, "lower")[0])
            uppers.append(bounded_dp(problem, d0, s0, cfg, "upper")[0])
        for a, b in zip(lowers, lowers[1:]):
            assert b >= a - 1e-9
        for a, b in zip(uppers, uppers[1:]):
            assert b <= a + 1e-9
        assert all(lo <= exact + 1e-8 for lo in lowers)
        assert all(up >= exact - 1e-8 for up in uppers)


def test_bounded_dp_guards_instance_size():
    problem, d0, s0 = make_instance(seed=10, rows=4, cols=4)
    with pytest.raises(InstanceTooLarge):
        bounded_dp(problem, d0, s0, cfg_for(horizon=9, nu=8), "lower")
    # 14x12 at horizon 17: the first full-length sequence alone ends in
    # 4**17 branches, so the leaf walk stops there
    problem, d0, s0 = make_instance(seed=10, rows=14, cols=12)
    t0 = time.process_time()
    with pytest.raises(InstanceTooLarge, match="branches"):
        bounded_dp(problem, d0, s0, cfg_for(horizon=17), "lower")
    assert time.process_time() - t0 < 1.0


def test_bounded_dp_solves_a_boxed_in_instance_urtdp_closes():
    # 14x12, budget 10: prior cells leave the robot two move sequences, so
    # the exhaustive solve is small although the horizon is 9
    cfg = validate_config(ExperimentConfig(
        rows=14, cols=12, team_size=1, budget_per_robot=10, prior_units=20,
        policies=("urtdp",), models=("lgp",), seeds=(25007,), nu=2,
        field_mean=0.4, field_signal_variance=1.3, field_length_scale=2.0,
        field_noise_variance=0.05,
    ))
    _, d0, s0, fitted = _build_instance(cfg, 25007)
    problem = Problem(cfg.domain, fitted, "lgp")
    pcfg = cfg_for(horizon=9, nu=2, alpha=1e-12, paths=50)
    res = urtdp(problem, d0, s0, pcfg)
    assert res.bounds.gap == pytest.approx(0.0, abs=1e-12) and not res.exhausted
    assert bounded_dp(problem, d0, s0, pcfg, "lower")[0] == pytest.approx(
        res.bounds.lower, abs=1e-12)
    assert bounded_dp(problem, d0, s0, pcfg, "upper")[0] == pytest.approx(
        res.bounds.upper, abs=1e-12)


# recorded at d484319, before the exhaustive solver stepped a walk: bounded_dp
# at horizon 3, nu 3 and exact_dp at horizon 2 with three quadrature panels
_EXHAUSTIVE_PINS = [
    (0, 1, "gp", "0x1.9f085a9d6c56bp+1", "0x1.9f085a9d6c56ap+1", "0x1.2eb4a6967114ep+1"),
    (0, 1, "lgp", "0x1.47e2a6d944d92p+2", "0x1.55a4dcb8cde61p+2", "0x1.0bb10c256cc62p+2"),
    (0, 2, "gp", "0x1.780f02d344765p+1", "0x1.780f02d344765p+1", "0x1.24fc32d96456ep+1"),
    (0, 2, "lgp", "0x1.53a23e76ca2fep+2", "0x1.626483d14ad0ap+2", "0x1.182d5ee4c1a74p+2"),
    (1, 1, "lgp", "0x1.06c063f6d7557p+2", "0x1.07adfdc3472acp+2", "0x1.912f1f6ac11d6p+1"),
    (1, 2, "lgp", "0x1.a443e059436dep+1", "0x1.b85b406f35062p+1", "0x1.4761e9c2817f6p+1"),
]


@pytest.mark.parametrize("seed, k, model, lower, upper, exact", _EXHAUSTIVE_PINS)
def test_exhaustive_values_are_pinned(seed, k, model, lower, upper, exact):
    problem, d0, s0 = make_instance(seed=seed, rows=4, cols=4, k=k, model=model)
    cfg = cfg_for(horizon=3, nu=3)
    assert bounded_dp(problem, d0, s0, cfg, "lower")[0].hex() == lower
    assert bounded_dp(problem, d0, s0, cfg, "upper")[0].hex() == upper
    assert exact_dp(problem, d0, s0, cfg_for(horizon=2), quadrature_order=3).hex() == exact


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_bounded_dp_refuses_an_open_instance_quickly(side):
    domain = GridDomain(14, 12)
    problem = Problem(domain, Hyperparams(0.3, 1.0, 2.0, 0.05), "lgp")
    s0 = TeamState((RobotPose((7, 6), "N"),), frozenset({(7, 6)}), budget=10)
    d0 = PosteriorData([(7, 6)], [0.0])
    t0 = time.process_time()
    with pytest.raises(InstanceTooLarge):
        bounded_dp(problem, d0, s0, cfg_for(horizon=9), side)
    assert time.process_time() - t0 < 1.0


# -- urtdp -------------------------------------------------------------------


def test_urtdp_horizon_zero_closes_without_a_path():
    # at horizon 0 the root's bound is the best window reward, here the best
    # one-step reward, so the seeded root is closed and no path runs
    problem, d0, s0 = make_instance(seed=11, rows=3, cols=3, model="lgp")
    cfg = cfg_for(horizon=0, nu=2, alpha=1e-9, paths=10)
    res = urtdp(problem, d0, s0, cfg)
    best = max(
        stagewise_reward(problem, s0, a, d0)
        for a in constrained_actions(s0, problem.domain)
    )
    assert res.bounds.lower == pytest.approx(best, abs=1e-12)
    assert res.bounds.upper == pytest.approx(best, abs=1e-12)
    assert (res.bounds.lower, res.bounds.upper) == (1.3010144313193193, 1.3010144313193193)
    assert res.lower_paths == 0 and res.upper_paths == 0
    assert not res.exhausted


def test_urtdp_matches_exhaustive_bounds():
    problem, d0, s0 = make_instance(seed=12, rows=3, cols=3, model="lgp")
    cfg = cfg_for(horizon=2, nu=2, alpha=1e-6, paths=100_000, seed=5)
    lower, _ = bounded_dp(problem, d0, s0, cfg, "lower")
    upper, _ = bounded_dp(problem, d0, s0, cfg, "upper")
    res = urtdp(problem, d0, s0, cfg)
    assert res.bounds.lower == pytest.approx(lower, abs=1e-6)
    assert res.bounds.upper == pytest.approx(upper, abs=1e-6)
    assert not res.exhausted


def test_urtdp_budget_exhaustion_is_flagged():
    problem, d0, s0 = make_instance(seed=13, rows=4, cols=4, model="lgp")
    cfg = cfg_for(horizon=3, nu=4, alpha=1e-12, paths=5)
    res = urtdp(problem, d0, s0, cfg)
    assert res.exhausted
    assert res.bounds.lower <= res.bounds.upper


def test_crossed_bounds_raise_a_library_error():
    with pytest.raises(HotspotPlanError):
        ValueBounds(1.0, 0.0)


def test_urtdp_bracket_and_leaf_rule_along_paths(monkeypatch):
    problem, d0, s0 = make_instance(seed=14, rows=3, cols=3, model="lgp")
    cfg = cfg_for(horizon=2, nu=3, alpha=1e-9, paths=2000, seed=3)
    inst = _UrtdpInstance(problem, cfg, "jensen", np.random.default_rng(0))
    violations = []
    write = _UrtdpInstance._set

    def audit(obj, node, lo, hi):  # every bound write goes through _set
        if lo > hi + 1e-9:
            violations.append((lo, hi))
        write(obj, node, lo, hi)

    monkeypatch.setattr(_UrtdpInstance, "_set", audit)
    for _ in range(200):
        inst.simulated_path(d0, s0, 0)
    assert violations == []
    # leaf rule: terminal states carry the max stagewise reward on both sides
    root = state_key(0, s0, d0)
    assert inst.tables[root][0] <= inst.tables[root][1] + 1e-12


def test_urtdp_tables_bracket_exhaustive_values_at_visited_states():
    problem, d0, s0 = make_instance(seed=15, rows=3, cols=3, model="lgp")
    cfg = cfg_for(horizon=2, nu=2, alpha=1e-8, paths=100_000, seed=9)
    inst = _UrtdpInstance(problem, cfg, "jensen", np.random.default_rng(1))
    inst.run(d0, s0, 0, cfg.alpha, cfg.max_simulated_paths)
    # walk the tree, rebuilding each expanded node's (state, data) from its
    # edges' cells and outcome points
    expanded = []
    stack = [(inst.tables[state_key(0, s0, d0)], s0, d0, 0)]
    while stack:
        node, s, d, stage = stack.pop()
        if len(node) == 2:
            continue
        expanded.append((node, s, d, stage))
        for (i, mv, x, _), _, children in node[2]:
            if children is None:
                continue
            s2 = transition(s, ConstrainedJointAction(i, mv), problem.domain)
            g = posterior(d, [x], problem.hyper)
            mu, sd = float(g.mean[0]), math.sqrt(g.covariance[0, 0])
            for zj, child in zip(mu + sd * np.asarray(inst.zeta), children):
                stack.append((child, s2, d.extended(x, zj), stage + 1))
    checked = 0
    for node, s, d, stage in expanded:
        lo, hi = node[:2]
        sub_cfg = cfg_for(horizon=cfg.horizon - stage, nu=cfg.nu)
        truth, _ = bounded_dp(problem, d, s, sub_cfg, "lower")
        assert lo <= truth + 1e-8 <= hi + 2e-8
        checked += 1
    assert checked >= 5


@pytest.mark.slow
def test_urtdp_full_path_budget_runs_to_completion():
    # a 14x12 instance with an unreachable gap target exhausts the full
    # 120000 simulated-path budget per problem instance and returns normally
    rng = np.random.default_rng(7)
    dom = GridDomain(14, 12)
    h = Hyperparams(0.4, 1.3, 2.0, 0.05)
    cells = dom.cells()
    idx = rng.choice(len(cells), 21, replace=False)
    locs = [cells[i] for i in idx if cells[i] != (7, 6)][:20] + [(7, 6)]
    z = 0.4 + rng.standard_normal(len(locs))
    d0 = PosteriorData(locs, z)
    s0 = TeamState((RobotPose((7, 6), "N"),), frozenset(locs), budget=10)
    problem = Problem(dom, h, "lgp")
    # the reachable tree (~10M histories) dwarfs the budget, so the gap
    # target stays out of reach and the full budget is spent
    cfg = PlannerConfig(horizon=9, nu=2, truncation_m=4.0, alpha=1e-12,
                        max_simulated_paths=120_000, seed=0)
    res = urtdp(problem, d0, s0, cfg)
    assert res.exhausted
    assert res.lower_paths == 120_000
    assert res.upper_paths == 120_000
    assert res.bounds.lower <= res.bounds.upper


def test_urtdp_policy_matches_bounded_lower_policy():
    problem, d0, s0, field = make_field_instance(seed=16, rows=3, cols=3, model="lgp")
    cfg = cfg_for(horizon=2, nu=2, alpha=1e-6, paths=100_000, seed=2)
    res = urtdp(problem, d0, s0, cfg)
    ref_policy = BoundedLowerPolicy(problem, cfg)
    s, d = s0, d0
    for stage in range(cfg.horizon + 1):
        a_ref = ref_policy.act(s, d, stage)
        a_urtdp = res.policy.act(s, d, stage)
        assert a_urtdp == a_ref
        cell = action_target(s, a_ref).cell
        s = transition(s, a_ref, problem.domain)
        d = d.extended(cell, math.log(field[cell]))


def test_urtdp_trials_walk_one_factor_and_store_no_histories(monkeypatch):
    # below the root the tree keeps no per-child history: no PosteriorData is
    # extended, and each root builds one factor, for its window
    problem, d0, s0 = make_instance(seed=13, rows=4, cols=4, model="lgp")
    cfg = cfg_for(horizon=3, nu=3, alpha=1e-12, paths=50)
    calls = {"extended": 0, "factor": 0}
    extended, init = PosteriorData.extended, IncrementalPosterior.__init__

    def count_extended(*args):
        calls["extended"] += 1
        return extended(*args)

    def count_init(*args, **kwargs):
        calls["factor"] += 1
        init(*args, **kwargs)

    monkeypatch.setattr(PosteriorData, "extended", count_extended)
    monkeypatch.setattr(IncrementalPosterior, "__init__", count_init)
    res = urtdp(problem, d0, s0, cfg)
    # urtdp's EM half ran in a forked child, which counted for itself: run it here too
    up = _UrtdpInstance(problem, cfg, "em", planners._trial_rng(cfg, 1))
    up.run(d0, s0, 0, cfg.alpha, cfg.max_simulated_paths)
    assert res.lower_paths == res.upper_paths == up.paths_run == 50
    assert calls["extended"] == 0
    assert calls["factor"] == 2  # the two in-process roots: urtdp's Jensen half and up


@pytest.mark.parametrize("model", ["lgp", "gp"])
def test_child_lower_bound_is_the_certainty_equivalent_continuation(model, monkeypatch):
    # each child's seeded lower bound is the certainty-equivalent value of the
    # greedy continuation recorded at the mean outcome, evaluated at the
    # child's own outcome; recomputed here from scratch with posterior(). The
    # root's records are rolled out when it is seeded, any other record when
    # a trial first enters it, on the window the trial carries: at a node
    # expanded in that trial, or at one an earlier trial expanded
    problem, d0, s0 = make_instance(seed=22, rows=4, cols=4, model=model)
    cfg = cfg_for(horizon=4, nu=3)
    seqs = []
    rollout = planners._greedy_ce_rollout

    def recording(*args):
        total, seq = rollout(*args)
        seqs.append(seq)
        return total, seq

    monkeypatch.setattr(planners, "_greedy_ce_rollout", recording)
    inst = urtdp_policy(problem, cfg).instance

    def checked_children(d, x, children, seq):
        """Check each child of the record at ``x`` observed from data ``d``;
        return how many were not capped at their upper bound."""
        g = posterior(d, [x], problem.hyper)
        mean, sd = float(g.mean[0]), math.sqrt(g.covariance[0, 0])
        checked = 0
        for zj, (lower, upper) in zip(mean + sd * np.asarray(inst.zeta), children):
            dj, value = d.extended(x, zj), 0.0
            for c in seq:
                g = posterior(dj, [c], problem.hyper)
                mu, var = float(g.mean[0]), float(g.covariance[0, 0])
                value += 0.5 * (LOG_2PI_E + math.log(var)) + (mu if model == "lgp" else 0.0)
                dj = dj.extended(c, mu)
            if value > upper:
                assert lower == upper
                continue
            assert lower == pytest.approx(value, rel=1e-9)
            checked += 1
        return checked

    root = inst._root(d0, s0, 0)[0]
    del seqs[0]  # the root's own initial rollout
    entries = root[2]
    assert len(seqs) == len(entries) > 1
    checked = 0
    for ((_, _, x, _), _, children), seq in zip(entries, seqs):
        assert len(seq) == cfg.horizon
        checked += checked_children(d0, x, children, seq)
    # every root child is checked: three per record (lgp, nu = 3) or one (gp)
    assert checked == len(entries) * len(inst.zeta)

    # below the root: a record is entered at the node the trial last
    # expanded, whose history is read off the tree
    expanded, lazy = [], {"expanded": 0, "earlier": 0}
    expand, init_children = _UrtdpInstance.expand, _UrtdpInstance._init_children

    def spy_expand(obj, node, window, walk, stage):
        expanded.append((node, len(node) == 2))
        return expand(obj, node, window, walk, stage)

    def spy_init_children(obj, window, walk, move, stage, children):
        assert walk.trail and [child[0] for child in children] == [-math.inf] * len(children)
        seqs.clear()
        init_children(obj, window, walk, move, stage, children)
        x = move[2]
        node, fresh = expanded[-1]
        d = d0
        for cell, zeta in _history(_tree_parents(root, inst.zeta), node):
            g = posterior(d, [cell], problem.hyper)
            d = d.extended(cell, float(g.mean[0]) + math.sqrt(g.covariance[0, 0]) * zeta)
        # the node was expanded in this step when its expand built the records
        lazy["expanded" if fresh else "earlier"] += checked_children(d, x, children, seqs[0])

    monkeypatch.setattr(_UrtdpInstance, "expand", spy_expand)
    monkeypatch.setattr(_UrtdpInstance, "_init_children", spy_init_children)
    for _ in range(30):
        inst.simulated_path(d0, s0, 0)
    assert lazy["expanded"] >= 6 and lazy["earlier"] >= 6


def _tree_parents(root, zeta):
    """``id(child) -> (node, cell, outcome point)`` for every child node under ``root``."""
    parent, stack = {}, [root]
    while stack:
        node = stack.pop()
        for (_, _, x, _), _, children in node[2] if len(node) > 2 else ():
            for child, z in zip(children or (), zeta):
                parent[id(child)] = (node, x, z)
                stack.append(child)
    return parent


def _history(parent, node):
    """The cell and outcome point of each record and child from the root down to ``node``."""
    history = []
    while id(node) in parent:
        node, x, zeta = parent[id(node)]
        history.append((x, zeta))
    return history[::-1]


def test_a_trial_conditions_once_per_descent_step_child_seeding_and_rollout_step(monkeypatch):
    # every conditioning below the root steps to a trie node's child
    # (_Cov.child): one per descent step, one per _init_children (its
    # record's cell at the mean outcome) and one per cell a rollout chose,
    # except the last cell of a rollout that ran its full length, whose node
    # nothing reads
    problem, d0, s0 = make_instance(seed=21, rows=4, cols=4, k=2, model="lgp")
    cfg = cfg_for(horizon=5, nu=3)
    inst = _UrtdpInstance(problem, cfg, "jensen", np.random.default_rng(2))
    counts, totals = {}, {"init_children": 0, "rollout": 0}
    child, expand = planners._Cov.child, _UrtdpInstance.expand
    init_children, rollout = _UrtdpInstance._init_children, planners._greedy_ce_rollout

    def spy_child(node, j):
        counts["child"] += 1
        return child(node, j)

    def spy_expand(obj, *args):
        counts["expand"] += 1
        return expand(obj, *args)

    def spy_init_children(obj, *args):
        counts["init_children"] += 1
        return init_children(obj, *args)

    def spy_rollout(problem, window, walk, steps_count):
        total, seq = rollout(problem, window, walk, steps_count)
        counts["rollout"] += len(seq) - (0 < len(seq) == steps_count)
        return total, seq

    monkeypatch.setattr(planners._Cov, "child", spy_child)
    monkeypatch.setattr(_UrtdpInstance, "expand", spy_expand)
    monkeypatch.setattr(_UrtdpInstance, "_init_children", spy_init_children)
    monkeypatch.setattr(planners, "_greedy_ce_rollout", spy_rollout)
    # seeding the root conditions once per _init_children and rollout step too
    counts.update(dict.fromkeys(("child", "expand", "init_children", "rollout"), 0))
    root = inst._root(d0, s0, 0)[0]
    assert counts["child"] == counts["init_children"] + counts["rollout"]
    for key in totals:
        totals[key] += counts[key]
    for _ in range(20):
        counts.update(dict.fromkeys(("child", "expand", "init_children", "rollout"), 0))
        inst.simulated_path(d0, s0, 0)
        descents = counts["expand"] - 1  # the last expand is the leaf's or a dead end's
        assert descents >= 1
        assert counts["child"] == descents + counts["init_children"] + counts["rollout"]
        for key in totals:
            totals[key] += counts[key]
    assert root is inst.tables[state_key(0, s0, d0)]
    assert totals["init_children"] > len(root[2]) and totals["rollout"] > totals["init_children"]


def _stage_upper_oracle(problem, cfg, inc, cells, stage):
    """The per-stage upper bound of a root at ``stage`` from each cell's
    posterior on the factor ``inc``: the largest entropy, plus (lgp) mean and
    ``m sqrt(T v)`` drift over ``T = horizon - stage`` observations, clipped at 0."""
    mus, variances = inc.batch(cells)
    best = 0.0
    for mu, var in zip(mus.tolist(), variances.tolist()):
        value = 0.5 * (LOG_2PI_E + math.log(var))
        if problem.is_lgp:
            value += mu + cfg.truncation_m * math.sqrt((cfg.horizon - stage) * var)
        best = max(best, value)
    return best


def _factor_ce_rollout(problem, inc, s, steps_count):
    """Reference greedy CE rollout on the factor: one batch and one extend per
    step, the rollout the window replaced."""
    walk = Walk(s, problem.domain)
    total, seq = 0.0, []
    for _ in range(steps_count):
        moves = list(walk.moves())
        if not moves:
            break
        mus, variances = inc.batch([m[2] for m in moves])
        rewards = planners._reward(problem, mus, variances)
        b = int(np.argmax(rewards))
        i, _, cell, nh = moves[b]
        total += float(rewards[b])
        inc.extend(cell, 0.0)
        walk.step(i, cell, nh)
        seq.append(cell)
    inc.pop(len(seq))
    return total, seq


@pytest.mark.parametrize("model", ["lgp", "gp"])
@pytest.mark.parametrize("k", [1, 2])
def test_window_rollouts_equal_factor_rollouts(model, k, monkeypatch):
    # every child rollout of a root's seeding, and the root's initial rollout,
    # take the reference's cells, total and lgp slope; every upper bound is
    # the remaining stages times the root window's stage bound
    rollouts = []
    rollout = planners._greedy_ce_rollout

    def recording(*args):
        rollouts.append(rollout(*args))
        return rollouts[-1]

    monkeypatch.setattr(planners, "_greedy_ce_rollout", recording)
    checked = 0
    for seed in range(6):
        problem, d0, s0 = make_instance(seed=40 + seed, rows=5, cols=5, k=k, model=model,
                                        n_prior=4, budget=3)
        cfg = cfg_for(horizon=3 * k - 1, nu=3)
        inc = IncrementalPosterior(problem.kernel_table, d0.locations, d0.z, len(d0) + 3 * k)
        rollouts.clear()
        lower = ValueBounds(*urtdp_policy(problem, cfg).instance._root(d0, s0, 0)[0][:2]).lower
        ref_total, ref_seq = _factor_ce_rollout(problem, inc, s0, cfg.horizon + 1)
        assert rollouts[0][1] == ref_seq
        assert rollouts[0][0] == pytest.approx(ref_total, rel=1e-12, abs=0)
        inst = _UrtdpInstance(problem, cfg, "jensen", np.random.default_rng(0))
        rollouts.clear()
        root, window = inst._root(d0, s0, 0)
        stage_upper = _stage_upper_oracle(problem, cfg, inc, list(window.index), 0)
        assert lower == pytest.approx(min(ref_total, 3 * k * stage_upper), rel=1e-12, abs=0)
        del rollouts[0]  # the root's own; one per record follows
        records = root[2]
        assert len(rollouts) == len(records)
        for ((i, mv, x, _), _, children), (total, seq) in zip(records, rollouts):
            j = window.index[x]
            mu, sd = window.mean.item(j), math.sqrt(window.node.cov.item(j, j))
            var = inc.extend(x, 0.0)
            ref_total, ref_seq = _factor_ce_rollout(
                problem, inc, transition(s0, ConstrainedJointAction(i, mv), problem.domain),
                cfg.horizon)
            slope = 0.0
            if model == "lgp" and ref_seq:
                slope = float(inc.whitened(ref_seq)[-1].sum()) / math.sqrt(var)
            inc.pop(1)
            assert seq == ref_seq
            assert total == pytest.approx(ref_total, rel=1e-12, abs=0)
            upper = cfg.horizon * stage_upper
            for zj, (lo, hi) in zip(mu + sd * np.asarray(inst.zeta), children):
                assert hi == pytest.approx(upper, rel=1e-12, abs=0)
                assert lo == pytest.approx(min(ref_total + slope * (zj - mu), upper),
                                           rel=1e-12, abs=1e-12)
            checked += 1
    assert checked >= 8


@st.composite
def _window_cases(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(2, 5))
    k = draw(st.integers(1, 2))
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    picked = draw(st.lists(st.sampled_from(cells), min_size=k, max_size=k + 4, unique=True))
    budget = draw(st.integers(1, 4))
    poses = tuple(RobotPose(c, draw(st.sampled_from(HEADINGS))) for c in picked[:k])
    steps = tuple(draw(st.integers(0, budget)) for _ in range(k))
    s = TeamState(poses, frozenset(picked), steps, budget)
    horizon = draw(st.integers(0, 4))
    return GridDomain(rows, cols), s, horizon, draw(st.integers(0, horizon))


@settings(max_examples=150, deadline=None)
@given(_window_cases(), st.sampled_from(["lgp", "gp"]))
def test_node_window_holds_every_cell_its_actions_and_rollouts_can_enter(case, model):
    domain, s, horizon, stage = case
    problem = Problem(domain, Hyperparams(0.2, 1.0, 1.5, 0.02), model)
    d = PosteriorData(sorted(s.visited), np.linspace(-0.5, 0.5, len(s.visited)))
    inst = _UrtdpInstance(problem, cfg_for(horizon=horizon, nu=2), "jensen",
                          np.random.default_rng(0))
    window = inst._root(d, s, stage)[1]
    records = inst.expand([0.0, 0.0], window, Walk(s, problem.domain), stage)
    # every cell that some run of at most horizon - stage + 1 legal moves enters
    entered, walker = set(), Walk(s, domain)

    def walk(moves):
        if moves == 0:
            return
        for i, _, cell, heading in list(walker.moves()):
            entered.add(cell)
            walker.step(i, cell, heading)
            walk(moves - 1)
            walker.undo()

    walk(horizon - stage + 1)
    assert bool(records) == bool(entered)
    if entered:
        assert entered <= set(window.index)


@st.composite
def _team_cases(draw):
    domain = GridDomain(draw(st.sampled_from([3, 4])), 4)
    k = draw(st.integers(1, 3))
    picked = draw(st.lists(st.sampled_from(domain.cells()), min_size=k + 1, max_size=k + 4,
                           unique=True))
    budget = draw(st.sampled_from([None, 1, 2, 3]))
    poses = tuple(RobotPose(c, draw(st.sampled_from(HEADINGS))) for c in picked[:k])
    s = TeamState(poses, frozenset(picked), budget=budget)
    return domain, s, draw(st.integers(0, 2))


def _walk_state(walk):
    return list(walk.poses), list(walk.steps), set(walk.visited), walk.budget, walk.trail


def _bits(window):
    """A window's means and covariance, byte for byte."""
    return window.mean.tobytes(), window.node.cov.tobytes()


@settings(max_examples=120, deadline=None)
@given(_team_cases(), st.sampled_from(["lgp", "gp"]))
def test_every_search_hands_back_its_walk_unchanged(case, model):
    # the rollout, an expansion with its child seeding and the exhaustive
    # solver step one walk in place; each must undo every step before it returns
    domain, s, horizon = case
    problem = Problem(domain, Hyperparams(0.2, 1.0, 1.5, 0.02), model)
    d = PosteriorData(sorted(s.visited), np.linspace(-0.5, 0.5, len(s.visited)))
    cfg = cfg_for(horizon=horizon, nu=2)
    fresh = _walk_state(Walk(s, domain))
    walk = Walk(s, domain)
    window = planners._Window.over(problem, d, walk, horizon + 1)
    before = _bits(window)
    planners._greedy_ce_rollout(problem, window, walk, horizon + 1)
    assert _walk_state(walk) == fresh and _bits(window) == before
    inst = _UrtdpInstance(problem, cfg, "jensen", np.random.default_rng(0))
    for move, _, children in inst.expand([0.0, 0.0], window, walk, 0):
        if children:  # seeded as _root seeds a root's records
            inst._init_children(window, walk, move, 0, children)
    assert _walk_state(walk) == fresh and _bits(window) == before
    w, zeta = standardized_rule(2, cfg.truncation_m, "jensen")
    solver = planners._TreeSolver(problem, w, zeta, horizon + 1)
    solver.solve(s, d)
    assert _walk_state(solver._walk) == fresh


@pytest.mark.parametrize("pivot", [0.0, -1e-12])
def test_conditioning_a_window_on_a_non_positive_variance_is_a_singular_gram(pivot):
    window = planners._Window({(0, 0): 0, (0, 1): 1}, np.zeros(2),
                              planners._Cov(np.array([[pivot, 0.0], [0.0, 1.0]])))
    with pytest.raises(SingularGram):
        window.conditioned(0, 0.0)


@pytest.mark.parametrize("variance", [-1e-12, 0.0])
def test_a_rollout_scoring_a_non_positive_variance_raises_as_expand_does(variance):
    # the robot at (1, 1) heading N enters (0, 1), (1, 0) or (1, 2); the first
    # has a non-positive variance, which neither search may score
    problem = Problem(GridDomain(3, 3), Hyperparams(0.2, 1.0, 1.5, 0.02), "lgp")
    s = TeamState((RobotPose((1, 1), "N"),), frozenset({(1, 1)}))
    window = planners._Window({(0, 1): 0, (1, 0): 1, (1, 2): 2}, np.zeros(3),
                              planners._Cov(np.diag([variance, 1.0, 1.0])))
    walk = Walk(s, problem.domain)
    with pytest.raises(DegenerateCovariance):
        planners._greedy_ce_rollout(problem, window, walk, 1)
    inst = _UrtdpInstance(problem, cfg_for(horizon=1, nu=2), "jensen", np.random.default_rng(0))
    with pytest.raises(DegenerateCovariance):
        inst.expand([0.0, 0.0], window, Walk(s, problem.domain), 0)


@pytest.mark.parametrize("model", ["gp", "lgp"])
def test_a_rollout_takes_the_first_of_equal_moves(model):
    # the robot at (1, 1) heading N enters (0, 1), (1, 0) or (1, 2), in that
    # order; all three score the same, and the rollout takes the first
    problem = Problem(GridDomain(3, 3), Hyperparams(0.2, 1.0, 1.5, 0.02), model)
    s = TeamState((RobotPose((1, 1), "N"),), frozenset({(1, 1)}))
    window = planners._Window({(0, 1): 0, (1, 0): 1, (1, 2): 2}, np.full(3, 0.5),
                              planners._Cov(np.eye(3)))
    mean = window.mean.tolist() if problem.is_lgp else None
    scored = list(planners._scored(window.index, mean, window.node,
                                   Walk(s, problem.domain).moves()))
    assert len({reward for reward, _ in scored}) == 1
    total, seq = planners._greedy_ce_rollout(problem, window, Walk(s, problem.domain), 1)
    assert seq == [(0, 1)] and total == scored[0][0]


def _spy_trial_windows(monkeypatch):
    """Record, for every window ``_Window.conditioned`` returns, its window
    indices from the trial's root and its (cell, outcome point) history, in
    ``windows``; and for every trie node ``_Cov.child`` returns, rollouts'
    included, its window indices from the trie's root, in ``nodes``. Both
    are cleared per trial by the caller; count the rank-1 updates."""
    windows, nodes, history, path, updates = [], [], {}, {}, [0]
    conditioned, child, dger = planners._Window.conditioned, planners._Cov.child, planners.dger

    def spy_conditioned(window, j, zeta):
        out = conditioned(window, j, zeta)
        cell = next(x for x, i in window.index.items() if i == j)
        history[id(out)] = history.get(id(window), ()) + ((j, cell, float(zeta)),)
        windows.append((out, history[id(out)]))  # live, so ids stay unique
        return out

    def spy_child(node, j):
        out = child(node, j)
        path[id(out)] = path.get(id(node), ()) + (j,)
        nodes.append((out, path[id(out)]))
        return out

    def spy_dger(*args, **kwargs):
        updates[0] += 1
        return dger(*args, **kwargs)

    monkeypatch.setattr(planners._Window, "conditioned", spy_conditioned)
    monkeypatch.setattr(planners._Cov, "child", spy_child)
    monkeypatch.setattr(planners, "dger", spy_dger)

    def clear():
        for recorded in (windows, nodes, history, path):
            recorded.clear()
        updates[0] = 0

    return windows, nodes, updates, clear


def test_a_trial_builds_one_covariance_per_location_sequence(monkeypatch):
    # a covariance depends on the cells conditioned on and their order, not
    # on the outcomes: a trial runs one rank-1 update per distinct sequence
    # of window indices it conditions on, however often it conditions on it
    problem, d0, s0 = make_instance(seed=21, rows=4, cols=4, k=2, model="lgp")
    inst = _UrtdpInstance(problem, cfg_for(horizon=5, nu=3), "jensen", np.random.default_rng(2))
    inst._root(d0, s0, 0)  # the root's own rollout conditions on a trie of its own
    _, nodes, updates, clear = _spy_trial_windows(monkeypatch)
    conditionings = rank1 = 0
    for _ in range(20):
        clear()
        inst.simulated_path(d0, s0, 0)
        sequences = {sequence for _, sequence in nodes}
        assert updates[0] == len(sequences) >= 1
        conditionings += len(nodes)
        rank1 += updates[0]
    assert rank1 < conditionings


def _joint_after(problem, d0, cells, taken):
    """``joint()`` of ``cells`` other than ``taken`` given ``d0`` and the
    ``(cell, zeta)`` pairs of ``taken``, in order: the cells and their
    posterior means and covariance."""
    inc = IncrementalPosterior(problem.kernel_table, d0.locations, d0.z, len(d0) + len(taken))
    for cell, zeta in taken:
        inc.extend(cell, zeta)
    left = [x for x in cells if x not in {cell for cell, _ in taken}]
    return (left, *inc.joint(left))


def test_windows_of_one_trial_on_one_sequence_share_their_covariance(monkeypatch):
    # two windows of a trial conditioned on the same cells in the same order
    # at different outcome points hold one covariance object, and each
    # window's means and covariance equal a fresh joint() on its history, as
    # does the covariance of every trie node a rollout stepped to
    problem, d0, s0 = make_instance(seed=23, rows=14, cols=12, k=2, model="lgp",
                                    n_prior=20, budget=4)
    cfg = PlannerConfig(horizon=7, nu=3, alpha=1e-12, max_simulated_paths=10, seed=3)
    inst = _UrtdpInstance(problem, cfg, "jensen", planners._trial_rng(cfg, 0))
    index = inst._root(d0, s0, 0)[1].index  # its rollout conditions on a trie of its own
    cell_at = {i: x for x, i in index.items()}
    windows, nodes, _, clear = _spy_trial_windows(monkeypatch)
    scale, pairs, rollout_nodes = problem.hyper.prior_variance, 0, 0
    for _ in range(6):
        clear()
        inst.simulated_path(d0, s0, 0)
        by_sequence = {}
        for window, history in windows:
            by_sequence.setdefault(tuple(j for j, _, _ in history), []).append((window, history))
        for group in by_sequence.values():
            outcomes = {history for _, history in group}
            if len(outcomes) < 2:
                continue
            pairs += 1
            assert all(window.node.cov is group[0][0].node.cov for window, _ in group)
            for window, history in group:
                cells, mean, cov = _joint_after(problem, d0, window.index,
                                                [(cell, zeta) for _, cell, zeta in history])
                rows = [window.index[x] for x in cells]
                assert window.mean[rows] == pytest.approx(mean, rel=1e-9,
                                                          abs=1e-9 * math.sqrt(scale))
                assert window.node.cov[np.ix_(rows, rows)] == pytest.approx(
                    cov, rel=1e-9, abs=1e-9 * scale)
        seen = {id(window.node) for window, _ in windows}
        for node, sequence in nodes:
            if id(node) in seen:
                continue
            rollout_nodes += 1
            cells, _, cov = _joint_after(problem, d0, index, [(cell_at[j], 0.0) for j in sequence])
            rows = [index[x] for x in cells]
            assert node.cov[np.ix_(rows, rows)] == pytest.approx(cov, rel=1e-9, abs=1e-9 * scale)
    assert pairs >= 6 and rollout_nodes >= 6


def test_nothing_a_trial_conditions_outlives_it(monkeypatch):
    # each trial conditions on a trie of its own: once it returns, every
    # window and covariance it conditioned is freed (no cycle holds them),
    # and the root's window has no child
    problem, d0, s0 = make_instance(seed=16, rows=14, cols=12, k=2, model="lgp",
                                    n_prior=20, budget=5)
    cfg = PlannerConfig(horizon=9, nu=3, alpha=1e-12, max_simulated_paths=10, seed=5)
    inst = _UrtdpInstance(problem, cfg, "jensen", planners._trial_rng(cfg, 0))
    refs, covs = [], []
    conditioned, child = planners._Window.conditioned, planners._Cov.child

    def spy_conditioned(window, j, zeta):
        out = conditioned(window, j, zeta)
        refs.append((weakref.ref(out), weakref.ref(out.node.cov)))
        return out

    def spy_child(node, j):  # rollouts step on trie nodes, with no window
        out = child(node, j)
        covs.append(weakref.ref(out.cov))
        return out

    monkeypatch.setattr(planners._Window, "conditioned", spy_conditioned)
    monkeypatch.setattr(planners._Cov, "child", spy_child)
    for _ in range(4):
        refs.clear()
        covs.clear()
        inst.simulated_path(d0, s0, 0)
        assert len(refs) > cfg.horizon and len(covs) > len(refs)
        assert all(window() is None and cov() is None for window, cov in refs)
        assert all(cov() is None for cov in covs)
    window = inst._root(d0, s0, 0)[1]
    UrtdpPolicy(inst).act(s0, d0, 0)
    assert window.node.children == {}


def test_outcome_draw_matches_generator_choice():
    # the descent hands the draw its raw weighted gaps; normalized by _total,
    # or uniform when they total 0, the draw consumes the stream as
    # Generator.choice does and picks the same index, zero gaps included
    gen = np.random.default_rng(2024)
    vectors = [[0.0] * n for n in range(1, 10)]
    vectors += [[1.0 / n] * n for n in range(1, 6)]
    vectors += [[0.0, 0.25, 0.75], [1.0, 0.0], [0.0, 1.0]]
    while len(vectors) < 1200:
        n = int(gen.integers(1, 10))
        gaps = gen.random(n) * 10.0 ** gen.uniform(-8, 2, n)
        gaps[gen.random(n) < 0.2] = 0.0
        vectors.append(gaps.tolist())
    for seed, gaps in enumerate(vectors):
        n, total = len(gaps), planners._total(gaps)
        p = np.asarray(gaps) / total if total > 0 else np.full(n, 1 / n)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert planners._draw(ours, gaps) == theirs.choice(n, p=p)
        assert ours.random() == theirs.random()


@pytest.mark.parametrize("model", ["lgp", "gp"])
@pytest.mark.parametrize("rule", ["jensen", "em"])
@pytest.mark.parametrize("nu", [1, 2, 3, 4])
def test_instance_points_are_the_rules_points_as_python_floats(model, rule, nu):
    # expand, child seeding and the descent read the outcome points as one
    # list of Python floats, bit for bit the rule's; gp has one point, 0.0
    problem = make_instance(seed=0, model=model)[0]
    cfg = cfg_for(horizon=2, nu=nu)
    zeta = _UrtdpInstance(problem, cfg, rule, np.random.default_rng(0)).zeta
    expected = ([0.0] if model == "gp"
                else standardized_rule(nu, cfg.truncation_m, rule)[1].tolist())
    assert [z.hex() for z in zeta] == [z.hex() for z in expected]
    assert all(type(z) is float for z in zeta)


def test_gap_total_rounds_as_numpy_sums():
    # the descent normalizes its gap weights by this total, as the numpy
    # array sum did; one ulp apart could move the draw across the uniform
    gen = np.random.default_rng(7)
    for n in range(2, 10):
        for _ in range(2000):
            gaps = gen.random(n) * 10.0 ** gen.uniform(-8, 2, n)
            gaps[gen.random(n) < 0.2] = 0.0
            assert planners._total(gaps.tolist()) == gaps.sum()


@pytest.mark.parametrize("model", ["lgp", "gp"])
@pytest.mark.parametrize("k", [1, 2])
def test_carried_window_equals_a_fresh_joint_at_every_node(model, k, monkeypatch):
    # each trial carries the root's window down the tree by rank-1 updates;
    # at every node it reaches, the window's means and covariance over its
    # unvisited cells equal one fresh joint() on a factor over the node's
    # history, read off the tree: the cell and outcome point of each record
    # and child on the path from the root
    problem, d0, s0 = make_instance(seed=23 + k, rows=14, cols=12, k=k, model=model,
                                    n_prior=20, budget=5)
    cfg = PlannerConfig(horizon=5 * k - 1, nu=3, alpha=1e-12, max_simulated_paths=10, seed=3)
    inst = _UrtdpInstance(problem, cfg, "jensen", planners._trial_rng(cfg, 0))
    seen = []
    expand = _UrtdpInstance.expand

    def spy_expand(obj, node, window, walk, stage):
        seen.append((node, window, set(walk.visited)))
        return expand(obj, node, window, walk, stage)

    monkeypatch.setattr(_UrtdpInstance, "expand", spy_expand)
    for _ in range(8):
        inst.simulated_path(d0, s0, 0)
    parent = _tree_parents(inst.tables[state_key(0, s0, d0)], inst.zeta)
    assert len(seen) >= 8 * cfg.horizon
    scale = problem.hyper.prior_variance
    for node, window, visited in seen:
        history = _history(parent, node)
        assert len(visited) == len(s0.visited) + len(history)
        inc = IncrementalPosterior(problem.kernel_table, d0.locations, d0.z,
                                   len(d0) + len(history))
        for cell, zeta in history:
            inc.extend(cell, zeta)
        cells = [x for x in window.index if x not in visited]
        rows = [window.index[x] for x in cells]
        mean, cov = inc.joint(cells)
        assert window.mean[rows] == pytest.approx(mean, rel=1e-9, abs=1e-9 * math.sqrt(scale))
        assert window.node.cov[np.ix_(rows, rows)] == pytest.approx(cov, rel=1e-9,
                                                                    abs=1e-9 * scale)


def test_root_keeps_one_window_across_trials_and_q_values(monkeypatch):
    # a root's node and window live under its one state key: every trial and
    # every q-value read from that root gets the same window, bit-equal to
    # its first sight, so no trial, rollout or q-value read changed it
    problem, d0, s0 = make_instance(seed=24, rows=4, cols=4, model="lgp")
    inst = _UrtdpInstance(problem, cfg_for(horizon=3, nu=2), "jensen", np.random.default_rng(1))
    seen, first = [], {}
    root = _UrtdpInstance._root

    def spy(obj, d, s, stage):
        seen.append(root(obj, d, s, stage))
        window = seen[-1][1]
        assert first.setdefault(id(window), _bits(window)) == _bits(window)
        return seen[-1]

    monkeypatch.setattr(_UrtdpInstance, "_root", spy)
    for _ in range(5):
        inst.simulated_path(d0, s0, 0)
    UrtdpPolicy(inst).act(s0, d0, 0)
    inst.run(d0, s0, 0, 1e-12, 3)
    node, window = inst._root(d0, s0, 0)
    assert len(seen) >= 8
    assert all(n is node and w is window for n, w in seen)
    assert list(inst.tables) == [state_key(0, s0, d0)]
    # another root gets its own node and window, in place of the first
    a = constrained_actions(s0, problem.domain)[0]
    cell = action_target(s0, a).cell
    s1, d1 = transition(s0, a, problem.domain), d0.extended(cell, 0.1)
    node1, window1 = inst._root(d1, s1, 1)
    assert node1 is not node and window1 is not window
    assert cell in window.index and cell not in window1.index
    assert list(inst.tables) == [state_key(1, s1, d1)]
    for _ in range(3):
        inst.simulated_path(d1, s1, 1)
    assert _bits(window1) == first[id(window1)] and _bits(window) == first[id(window)]


def test_child_rollouts_run_at_the_root_and_where_trials_go(monkeypatch):
    # one rollout seeds the root, one per root record, and one per record below
    # the root that a trial entered (one of its children was expanded); the
    # records no trial entered are never rolled out
    calls = [0]
    rollout = planners._greedy_ce_rollout

    def counting(*args):
        calls[0] += 1
        return rollout(*args)

    monkeypatch.setattr(planners, "_greedy_ce_rollout", counting)
    problem, d0, s0 = make_instance(seed=16, rows=14, cols=12, k=2, model="lgp", n_prior=20,
                                    budget=5)
    cfg = PlannerConfig(horizon=9, nu=3, alpha=1e-12, max_simulated_paths=10, seed=5)
    inst = _UrtdpInstance(problem, cfg, "jensen", planners._trial_rng(cfg, 0))
    root, _ = inst.run(d0, s0, 0, cfg.alpha, cfg.max_simulated_paths)
    assert root[1] - root[0] > cfg.alpha  # the budget ran out with the gap open
    assert root is inst.tables[state_key(0, s0, d0)]
    built = entered = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if len(node) == 2:
            continue
        for _, _, children in node[2]:
            if children is None:
                continue
            built += 1
            entered += node is not root and any(len(child) > 2 for child in children)
            stack.extend(children)
    assert calls[0] == 1 + len(root[2]) + entered
    assert calls[0] < built


def test_urtdp_policy_runs_one_joint_per_decision_and_extends_no_factor(monkeypatch):
    # README config, k = 2: a decision's root gathers and solves its window
    # once, and every window below it is a rank-1 update of its parent's, so
    # the search never extends a factor
    cfg = validate_config(ExperimentConfig(
        rows=14, cols=12, team_size=2, budget_per_robot=9, prior_units=20,
        policies=("urtdp",), models=("lgp",), seeds=(0,), nu=3, truncation_m=4.0, alpha=0.05,
        max_simulated_paths=100, field_mean=0.4, field_signal_variance=1.3,
        field_length_scale=2.0, field_noise_variance=0.05))
    counts, deciding = {"act": 0, "joint": 0, "extend": 0}, [False]
    act, joint, extend = UrtdpPolicy.act, IncrementalPosterior.joint, IncrementalPosterior.extend

    def spy_act(policy, *args):
        counts["act"] += 1
        deciding[0] = True
        try:
            return act(policy, *args)
        finally:
            deciding[0] = False

    def spy_joint(inc, cells):
        counts["joint"] += 1
        return joint(inc, cells)

    def spy_extend(inc, *args):
        counts["extend"] += deciding[0]
        return extend(inc, *args)

    monkeypatch.setattr(UrtdpPolicy, "act", spy_act)
    monkeypatch.setattr(IncrementalPosterior, "joint", spy_joint)
    monkeypatch.setattr(IncrementalPosterior, "extend", spy_extend)
    (record,) = run_seed(cfg, 0)
    assert not record.dead_ended
    assert counts == {"act": cfg.stages, "joint": cfg.stages, "extend": 0}


@st.composite
def _lazy_cases(draw):
    k = draw(st.integers(1, 2))
    return dict(seed=draw(st.integers(0, 10_000)), rows=draw(st.integers(3, 4)),
                cols=draw(st.integers(3, 4)), k=k, model=draw(st.sampled_from(["gp", "lgp"])),
                n_prior=draw(st.integers(1, 3))), draw(st.integers(1, 4 - k))


@settings(max_examples=80, deadline=None)
@given(_lazy_cases(), st.sampled_from(["jensen", "em"]), st.integers(2, 3))
def test_lazy_lower_bounds_stay_admissible(case, rule, nu):
    # after every trial, every expanded node has a finite lower bound, no more
    # than its own rule's exhaustive value from the node's state, and a
    # rolled-out record; every record a trial entered is rolled out (the upper
    # bounds: test_upper_bounds_stay_admissible)
    instance, horizon = case
    problem, d0, s0 = make_instance(**instance)
    cfg = cfg_for(horizon=horizon, nu=nu)
    inst = _UrtdpInstance(problem, cfg, rule, np.random.default_rng(instance["seed"]))
    side = "lower" if rule == "jensen" else "upper"
    truths = {}
    for _ in range(6):
        inst.simulated_path(d0, s0, 0)
        stack = [(inst.tables[state_key(0, s0, d0)], s0, d0, 0)]
        while stack:
            node, s, d, stage = stack.pop()
            if len(node) == 2:
                continue
            assert math.isfinite(node[0])
            if id(node) not in truths:
                sub_cfg = cfg_for(horizon=horizon - stage, nu=nu)
                truths[id(node)] = bounded_dp(problem, d, s, sub_cfg, side)[0]
            assert node[0] <= truths[id(node)] + 1e-8
            records = [r for r in node[2] if r[2] is not None]
            if records:
                assert any(children[0][0] > -math.inf for _, _, children in records)
            for (i, mv, x, _), _, children in records:
                if any(len(child) > 2 for child in children):
                    assert all(math.isfinite(child[0]) for child in children)
                g = posterior(d, [x], problem.hyper)
                mu, sd = float(g.mean[0]), math.sqrt(g.covariance[0, 0])
                s2 = transition(s, ConstrainedJointAction(i, mv), problem.domain)
                stack.extend((child, s2, d.extended(x, zj), stage + 1)
                             for zj, child in zip(mu + sd * np.asarray(inst.zeta), children))


@settings(max_examples=80, deadline=None)
@given(_lazy_cases(), st.sampled_from(["jensen", "em"]), st.integers(1, 3),
       st.sampled_from([1.3, 3.0]), st.sampled_from([0.0, 2.0, 4.0]))
def test_upper_bounds_stay_admissible(case, rule, nu, length_scale, shift):
    # after every trial, every expanded node's upper bound is at least its own
    # rule's exhaustive value from the node's state, for both models; data up
    # to four prior deviations high let chained outcomes drift the mean past
    # the prior's truncated support, where a prior-variance bound fails
    instance, horizon = case
    problem, d0, s0 = make_instance(**instance, length_scale=length_scale)
    d0 = PosteriorData(d0.locations, d0.z + shift * math.sqrt(problem.hyper.prior_variance))
    cfg = cfg_for(horizon=horizon, nu=nu)
    inst = _UrtdpInstance(problem, cfg, rule, np.random.default_rng(instance["seed"]))
    side = "lower" if rule == "jensen" else "upper"
    truths = {}
    for _ in range(6):
        inst.simulated_path(d0, s0, 0)
        stack = [(inst.tables[state_key(0, s0, d0)], s0, d0, 0)]
        while stack:
            node, s, d, stage = stack.pop()
            if len(node) == 2:
                continue
            if id(node) not in truths:
                sub_cfg = cfg_for(horizon=horizon - stage, nu=nu)
                truths[id(node)] = bounded_dp(problem, d, s, sub_cfg, side)[0]
            assert node[1] >= truths[id(node)] - 1e-8
            for (i, mv, x, _), _, children in node[2]:
                g = posterior(d, [x], problem.hyper)
                mu, sd = float(g.mean[0]), math.sqrt(g.covariance[0, 0])
                s2 = transition(s, ConstrainedJointAction(i, mv), problem.domain)
                stack.extend((child, s2, d.extended(x, zj), stage + 1)
                             for zj, child in zip(mu + sd * np.asarray(inst.zeta), children or ()))


def test_urtdp_brackets_the_one_by_twelve_corridor():
    # a corridor whose chained lgp outcomes drift the mean past the prior's
    # truncated support: a prior-variance stage bound closed the EM search
    # below bounded_dp's EM value there, and urtdp() raised BoundsCrossed
    domain = GridDomain(1, 12)
    d0 = PosteriorData([(0, 0)], [0.0])
    s0 = TeamState((RobotPose((0, 0), "E"),), frozenset({(0, 0)}))
    problem = Problem(domain, Hyperparams(0.0, 2.0, 3.0, 0.01), "lgp")
    cfg = PlannerConfig(horizon=9, nu=1, truncation_m=4.0, alpha=1e-12,
                        max_simulated_paths=400, seed=0)
    res = urtdp(problem, d0, s0, cfg)
    lower, upper = (bounded_dp(problem, d0, s0, cfg, side)[0] for side in ("lower", "upper"))
    assert res.bounds.lower <= lower + 1e-9
    assert res.bounds.upper >= upper - 1e-9


def _closure_instance(seed):
    """The 4x4, horizon-3 instance of the benchmark's closure check for ``seed``."""
    domain = GridDomain(4, 4)
    h = Hyperparams(0.4, 1.3, 2.0, 0.05)
    truth = fm.sample_field(h, domain, seed)
    rng = np.random.default_rng([seed, 2])
    cells = [c for c in domain.cells() if c not in {(0, 0), (1, 0), (0, 1)}]
    prior = [cells[i] for i in sorted(rng.choice(len(cells), size=3, replace=False))]
    locations = prior + [(0, 0)]
    d0 = PosteriorData(locations, [math.log(truth[c]) for c in locations])
    s0 = TeamState((RobotPose((0, 0), "S"),), frozenset(locations))
    cfg = PlannerConfig(horizon=3, nu=2, truncation_m=4.0, alpha=1e-9,
                        max_simulated_paths=100_000, seed=seed)
    return Problem(domain, h, "lgp"), d0, s0, cfg


@pytest.mark.parametrize("seed", [7000, 82000])
def test_urtdp_closes_on_the_exhaustive_em_value(seed):
    # the lgp EM search closed 9.7e-4 (7000) and 4.5e-4 (82000) below
    # bounded_dp's EM value while its stage bound ignored the mean's drift
    problem, d0, s0, cfg = _closure_instance(seed)
    res = urtdp(problem, d0, s0, cfg)
    assert not res.exhausted
    for value, side in ((res.bounds.lower, "lower"), (res.bounds.upper, "upper")):
        exact = bounded_dp(problem, d0, s0, cfg, side)[0]
        assert value == pytest.approx(exact, rel=1e-9, abs=1e-9)


# root brackets and first actions recorded once every upper bound came from
# the root window's admissible stage bound, and gp searched once, at the mean
# outcome (k = 1 closes at MES's certified 7.043044382979995); exact equality
_PINNED_BRACKETS = {
    ("gp", 1): (7.043044382979994, 7.043044382979994, (0, "left")),
    ("gp", 2): (7.496886734476967, 10.268347287273476, (1, "left")),
    ("lgp", 1): (15.033487357750982, 72.98365015131071, (0, "left")),
    ("lgp", 2): (13.037022555382274, 90.71141622306119, (1, "front")),
}


@pytest.mark.parametrize("model, k", sorted(_PINNED_BRACKETS))
def test_urtdp_root_bracket_and_first_action_are_pinned(model, k):
    budget = 10 // k
    problem, d0, s0 = make_instance(seed=16, rows=14, cols=12, k=k, model=model,
                                    n_prior=20, budget=budget)
    cfg = PlannerConfig(horizon=k * budget - 1, nu=3, alpha=1e-12,
                        max_simulated_paths=200, seed=5)
    res = urtdp(problem, d0, s0, cfg)
    lower, upper, (robot, move) = _PINNED_BRACKETS[model, k]
    assert (res.bounds.lower, res.bounds.upper) == (lower, upper)
    assert res.policy.act(s0, d0, 0) == ConstrainedJointAction(robot, move)


# -- gp: adaptivity has no benefit, so one search at the mean outcome ---------


@pytest.mark.parametrize("k, budget", [(1, 3), (2, 2)])
def test_gp_urtdp_closes_at_the_bounded_and_mes_values(k, budget):
    # no gp reward reads an outcome, so the exhaustive Jensen and EM values
    # and MES's non-adaptive one are one number, where the one search closes
    for seed in range(104, 108):
        problem, d0, s0 = make_instance(seed=seed, rows=4, cols=4, k=k, model="gp",
                                        budget=budget)
        cfg = cfg_for(horizon=k * budget - 1, nu=3, alpha=1e-12, paths=2000, seed=seed)
        res = urtdp(problem, d0, s0, cfg)
        assert not res.exhausted and res.upper_paths == 0
        mes = mes_nonadaptive(problem, d0, s0)
        assert mes.exact
        for value in (bounded_dp(problem, d0, s0, cfg, "lower")[0],
                      bounded_dp(problem, d0, s0, cfg, "upper")[0], mes.value):
            assert res.bounds.lower == pytest.approx(value, rel=0, abs=1e-9)
            assert res.bounds.upper == pytest.approx(value, rel=0, abs=1e-9)


def test_gp_urtdp_starts_no_child(monkeypatch):
    def no_fork(fn):
        raise AssertionError("urtdp() forked a child")

    monkeypatch.setattr(planners, "_forked", no_fork)
    problem, d0, s0 = make_instance(seed=13, rows=4, cols=4, model="gp")
    assert urtdp(problem, d0, s0, cfg_for(horizon=3, nu=3, paths=20)).upper_paths == 0
    problem, d0, s0 = make_instance(seed=13, rows=4, cols=4, model="lgp")
    with pytest.raises(AssertionError, match="forked a child"):
        urtdp(problem, d0, s0, cfg_for(horizon=3, nu=3, paths=20))


def test_gp_urtdp_does_not_depend_on_nu_or_truncation():
    problem, d0, s0 = make_instance(seed=16, rows=6, cols=6, k=2, model="gp", n_prior=6,
                                    budget=3)
    outputs = set()
    for nu in (1, 2, 3, 4):
        for m in (2.0, 4.0):
            res = urtdp(problem, d0, s0, cfg_for(horizon=5, nu=nu, m=m, alpha=1e-12, paths=40,
                                                 seed=3))
            outputs.add((res.bounds.lower.hex(), res.bounds.upper.hex(), res.lower_paths,
                         res.upper_paths, res.exhausted, res.policy.act(s0, d0, 0)))
    assert len(outputs) == 1


# -- the two-process bracket: the EM half runs in a forked child --------------


@pytest.mark.parametrize("model, k, rows, cols, n_prior, budget, alpha", [
    ("gp", 1, 14, 12, 20, 10, 1e-12), ("gp", 2, 14, 12, 20, 5, 1e-12),
    ("lgp", 1, 14, 12, 20, 10, 1e-12), ("lgp", 2, 14, 12, 20, 5, 1e-12),
    ("lgp", 1, 3, 3, 3, 2, 1e-6),  # both halves close their gaps
])
def test_urtdp_equals_its_two_instances_run_in_process(model, k, rows, cols, n_prior, budget,
                                                       alpha):
    problem, d0, s0 = make_instance(seed=16, rows=rows, cols=cols, k=k, model=model,
                                    n_prior=n_prior, budget=budget)
    cfg = PlannerConfig(horizon=k * budget - 1, nu=3, alpha=alpha, max_simulated_paths=60,
                        seed=7)
    res = urtdp(problem, d0, s0, cfg)
    # gp runs no EM search: the Jensen instance's own root brackets its value
    instances = [_UrtdpInstance(problem, cfg, "jensen", planners._trial_rng(cfg, 0))]
    if model == "lgp":
        instances.append(_UrtdpInstance(problem, cfg, "em", planners._trial_rng(cfg, 1)))
    roots = [inst.run(d0, s0, 0, alpha, cfg.max_simulated_paths)[0] for inst in instances]
    closed = [not node[1] - node[0] > alpha for node in roots]
    low, up = instances[0], instances[-1]
    assert all(closed) == (alpha > 1e-9)
    assert res.bounds.lower.hex() == roots[0][0].hex()
    assert res.bounds.upper.hex() == roots[-1][1].hex()
    upper_paths = up.paths_run if model == "lgp" else 0
    assert (res.lower_paths, res.upper_paths) == (low.paths_run, upper_paths)
    assert res.exhausted == (not all(closed))
    assert res.policy.act(s0, d0, 0) == UrtdpPolicy(low).act(s0, d0, 0)


def _fail_in(monkeypatch, rule, error, paths_first=0):
    """Make the ``rule`` instance's ``run`` raise ``error`` after ``paths_first`` trials."""
    run = _UrtdpInstance.run

    def failing(inst, d, s, stage, alpha, budget):
        if inst.rule != rule:
            return run(inst, d, s, stage, alpha, budget)
        run(inst, d, s, stage, alpha, paths_first)
        raise error

    monkeypatch.setattr(_UrtdpInstance, "run", failing)


def test_an_error_in_the_em_search_reaches_the_caller(monkeypatch):
    # the forked child inherits the patch, so its EM run raises
    _fail_in(monkeypatch, "em", SingularGram("EM search: gram matrix not positive definite"))
    problem, d0, s0 = make_instance(seed=13, rows=4, cols=4, model="lgp")
    with pytest.raises(SingularGram) as caught:
        urtdp(problem, d0, s0, cfg_for(horizon=3, nu=3, paths=20))
    assert type(caught.value) is SingularGram
    assert str(caught.value) == "EM search: gram matrix not positive definite"


@pytest.mark.parametrize("error", [SingularGram("Jensen search failed"), KeyboardInterrupt()],
                         ids=["library-error", "keyboard-interrupt"])
def test_an_error_in_the_jensen_search_stops_the_em_search_at_once(monkeypatch, error):
    _fail_in(monkeypatch, "jensen", error, paths_first=5)
    problem, d0, s0 = make_instance(seed=16, rows=14, cols=12, model="lgp", n_prior=20,
                                    budget=10)
    cfg = PlannerConfig(horizon=9, nu=3, alpha=1e-12, max_simulated_paths=1_000_000, seed=0)
    t0 = time.perf_counter()
    with pytest.raises(type(error)):
        urtdp(problem, d0, s0, cfg)
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(ChildProcessError):  # the child is gone and reaped
        os.waitpid(-1, os.WNOHANG)


class _Unpicklable(Exception):
    """An error the child cannot send back: pickling it raises."""

    def __reduce__(self):
        raise TypeError("this error cannot be pickled")


def _exit_3(inst, *args):
    os._exit(3)


def _raise_unpicklable(inst, *args):
    raise _Unpicklable("EM search failed")


@pytest.mark.parametrize("em_run, code", [(_exit_3, 3), (_raise_unpicklable, 1)],
                         ids=["exit-3", "unpicklable-error"])
def test_an_em_search_that_ends_without_a_result_is_a_runtime_error(monkeypatch, em_run, code):
    # the forked child inherits the patch; the caller's Jensen run is the real one
    run = _UrtdpInstance.run
    monkeypatch.setattr(_UrtdpInstance, "run",
                        lambda inst, *args: (em_run if inst.rule == "em" else run)(inst, *args))
    problem, d0, s0 = make_instance(seed=13, rows=4, cols=4, model="lgp")
    with pytest.raises(RuntimeError, match=rf"ended without a result \(exit code {code}\)$"):
        urtdp(problem, d0, s0, cfg_for(horizon=3, nu=3, paths=20))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_forked_calls_leave_no_file_descriptor_open():
    before = sorted(os.listdir("/proc/self/fd"))
    for _ in range(20):
        with planners._forked(lambda: 42) as result:
            assert result() == 42
    assert sorted(os.listdir("/proc/self/fd")) == before


def _cpu():
    """The CPU this process runs on, from ``/proc/self/stat`` (field 39)."""
    with open("/proc/self/stat") as f:
        return int(f.read().rsplit(")", 1)[1].split()[36])


def _placement():
    """Where ``fn`` first runs: its CPU and its affinity mask."""
    return _cpu(), os.sched_getaffinity(0)


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                    reason="reads /proc; needs two CPUs")
def test_the_forked_child_starts_off_the_callers_cpu_with_the_callers_mask():
    # a fork may leave the child on its caller's CPU while another one idles;
    # once its mask is given back the kernel may balance it, which on a
    # saturated machine sent a few children in a thousand back before fn ran
    beside = 0
    for _ in range(10):
        caller = _cpu()
        with planners._forked(_placement) as result:
            cpu, mask = result()
        beside += cpu == caller
        assert mask == os.sched_getaffinity(0)
    assert beside <= 1


_PINNED_URTDP = """
import os
import sys
sys.path[:0] = sys.argv[1:3]
cpu = int(sys.argv[3])
os.sched_setaffinity(0, {cpu})
from conftest import make_instance
from hotspotplan import planners
from hotspotplan.planners import PlannerConfig, urtdp
def placement():
    with open("/proc/self/stat") as f:
        return int(f.read().rsplit(")", 1)[1].split()[36]), os.sched_getaffinity(0)
for _ in range(5):
    with planners._forked(placement) as result:
        assert result() == (cpu, {cpu}), result()
problem, d0, s0 = make_instance(seed=16, rows=14, cols=12, model="lgp", n_prior=20, budget=10)
res = urtdp(problem, d0, s0, PlannerConfig(horizon=9, nu=3, alpha=1e-12,
                                           max_simulated_paths=60, seed=7))
print(res.bounds.lower.hex(), res.bounds.upper.hex(), res.lower_paths, res.upper_paths,
      res.exhausted, res.policy.act(s0, d0, 0))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_a_caller_pinned_to_one_cpu_gets_the_same_bracket():
    # one CPU allowed: the child stays beside its caller and still reports back
    tests = Path(__file__).resolve().parent
    cpu = max(os.sched_getaffinity(0))
    out = subprocess.run([sys.executable, "-c", _PINNED_URTDP, str(tests),
                          str(tests.parent / "src"), str(cpu)],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    problem, d0, s0 = make_instance(seed=16, rows=14, cols=12, model="lgp", n_prior=20, budget=10)
    res = urtdp(problem, d0, s0, cfg_for(horizon=9, nu=3, alpha=1e-12, paths=60, seed=7))
    assert out.stdout == (f"{res.bounds.lower.hex()} {res.bounds.upper.hex()} {res.lower_paths} "
                          f"{res.upper_paths} {res.exhausted} {res.policy.act(s0, d0, 0)}\n")


_MID_URTDP = """
import sys
sys.path[:0] = sys.argv[1:3]
from conftest import make_instance
from hotspotplan.planners import PlannerConfig, urtdp
problem, d0, s0 = make_instance(seed=16, rows=14, cols=12, model="lgp", n_prior=20, budget=10)
urtdp(problem, d0, s0, PlannerConfig(horizon=9, nu=3, alpha=1e-12,
                                     max_simulated_paths=1_000_000, seed=0))
"""


def _live_parent(pid):
    """The parent pid of a live process, from ``/proc/<pid>/stat``; None once it
    is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state, ppid = f.read().rsplit(")", 1)[1].split()[:2]
    except (FileNotFoundError, ProcessLookupError):
        return None
    return None if state in "ZX" else int(ppid)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_killing_the_caller_mid_urtdp_ends_the_em_search(tmp_path):
    tests = Path(__file__).resolve().parent
    proc = subprocess.Popen([sys.executable, "-c", _MID_URTDP, str(tests), str(tests.parent / "src")],
                            cwd=tmp_path, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    forked = []
    try:
        deadline = time.monotonic() + 60
        while not forked and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            forked = [int(p) for p in os.listdir("/proc")
                      if p.isdigit() and _live_parent(p) == proc.pid]
        assert len(forked) == 1, proc.stderr.read().decode() if proc.poll() is not None else ""
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 2
        while _live_parent(forked[0]) is not None and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _live_parent(forked[0]) is None
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stderr.close()
        for pid in forked:
            if _live_parent(pid) is not None:  # the assertion failed: do not leave it running
                os.kill(pid, signal.SIGKILL)


def _reference_qs(inst, records):
    """(q_lower, q_upper) per record: its reward plus its children's lower
    and upper bounds weighted by the instance's ``w``, summed in order."""
    out = []
    for _, reward, children in records:
        lo = hi = 0.0
        for wj, child in zip(inst.w, children or ()):
            lo += wj * child[0]
            hi += wj * child[1]
        out.append((reward + lo, reward + hi))
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["gp", "lgp"]), st.integers(1, 2),
       st.integers(1, 4), st.integers(1, 3))
def test_cached_descent_index_and_bounds_follow_the_q_values(seed, model, k, horizon, nu):
    # after every trial, each expanded node's cached index is the first
    # record with the largest upper q, and its bounds are the largest q's;
    # the scan's pick is the first record with the largest lower q
    problem, d0, s0 = make_instance(seed=seed, rows=3, cols=4, k=k, model=model, n_prior=2)
    inst = _UrtdpInstance(problem, cfg_for(horizon=horizon, nu=nu), "jensen",
                          np.random.default_rng(seed))
    for _ in range(8):
        inst.simulated_path(d0, s0, 0)
        stack = [inst.tables[state_key(0, s0, d0)]]
        while stack:
            node = stack.pop()
            if len(node) == 2 or not node[2]:
                continue
            lowers, uppers = map(list, zip(*_reference_qs(inst, node[2])))
            assert node[3] == uppers.index(max(uppers))
            assert node[:2] == [max(lowers), max(uppers)]
            assert inst._scan(node[2])[3] == lowers.index(max(lowers))
            stack.extend(c for _, _, children in node[2] for c in children or ())


# -- root bounds -------------------------------------------------------------


def test_init_bounds_empty_horizon():
    problem, d0, s0 = make_instance(seed=17, rows=3, cols=3)
    vb = ValueBounds(*urtdp_policy(problem, cfg_for(horizon=2)).instance._root(d0, s0, 3)[0][:2])
    assert (vb.lower, vb.upper) == (0.0, 0.0)


def test_init_bounds_gp_upper_has_no_mean_term():
    # three stages times the largest posterior entropy among the unvisited
    # cells within three moves of the robot
    problem, d0, s0 = make_instance(seed=18, rows=3, cols=3, model="gp")
    cfg = cfg_for(horizon=2)
    vb = ValueBounds(*urtdp_policy(problem, cfg).instance._root(d0, s0, 0)[0][:2])
    (r, c), = (pose.cell for pose in s0.poses)
    cells = [x for x in problem.domain.cells()
             if x not in s0.visited and abs(x[0] - r) + abs(x[1] - c) <= 3]
    g = posterior(d0, cells, problem.hyper)
    expected = 3 * max(0.5 * (LOG_2PI_E + math.log(v)) for v in np.diag(g.covariance))
    assert vb.upper == pytest.approx(expected, abs=1e-12)


def test_init_bounds_bracket_exact_value():
    for seed in range(4):
        problem, d0, s0 = make_instance(seed=30 + seed, rows=3, cols=3, model="lgp")
        cfg = cfg_for(horizon=2, nu=4)
        vb = ValueBounds(*urtdp_policy(problem, cfg).instance._root(d0, s0, 0)[0][:2])
        value = exact_dp(problem, d0, s0, cfg)
        assert vb.lower - 1e-8 <= value <= vb.upper + 1e-8


# -- greedy ------------------------------------------------------------------


def test_greedy_single_action():
    dom = GridDomain(1, 3)
    h = Hyperparams(0.0, 1.0, 1.0, 0.01)
    problem = Problem(dom, h, "lgp")
    d0 = PosteriorData([(0, 0)], [0.2])
    s0 = TeamState((RobotPose((0, 0), "E"),), frozenset({(0, 0)}))
    a = greedy_adaptive(problem, d0, s0)
    assert action_target(s0, a).cell == (0, 1)


def test_greedy_tie_breaks_to_first_action():
    # symmetric GP state: front/left/right all equivalent by symmetry
    dom = GridDomain(5, 5)
    h = Hyperparams(0.0, 1.0, 1.0, 0.0)
    problem = Problem(dom, h, "gp")
    d0 = PosteriorData([(2, 2)], [0.0])
    s0 = TeamState((RobotPose((2, 2), "N"),), frozenset({(2, 2)}))
    a = greedy_adaptive(problem, d0, s0)
    assert (a.robot_index, a.move) == (0, "front")


@pytest.mark.parametrize("make_policy", [BoundedLowerPolicy, urtdp_policy])
def test_policy_refuses_to_act_past_its_horizon(make_policy):
    problem, d0, s0 = make_instance(seed=13, rows=4, cols=4, model="lgp")
    policy = make_policy(problem, cfg_for(horizon=1, nu=2, paths=20))
    policy.act(s0, d0, 1)
    for stage in (2, 5):
        with pytest.raises(ValueError, match="beyond its horizon"):
            policy.act(s0, d0, stage)


def test_planner_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        cfg_for(horizon=1, seed=-1)
    assert cfg_for(horizon=1, seed=0).seed == 0


@pytest.mark.parametrize("make, message", [
    (lambda: cfg_for(horizon=-1), "horizon must be >= 0"),
    (lambda: Problem(GridDomain(2, 2), Hyperparams(0.0, 1.0, 1.0, 0.1), "log"),
     "model must be one of"),
    (lambda: bounded_dp(*make_instance(seed=1), cfg_for(horizon=1), "middle"),
     "side must be 'lower' or 'upper'"),
    (lambda: mes_nonadaptive(*make_instance(seed=1, model="gp")), "without a budget"),
    (lambda: mi_greedy(*make_instance(seed=1, model="gp")), "without a budget"),
], ids=["negative-horizon", "unknown-model", "unknown-side", "mes-without-budget",
        "mi-without-budget"])
def test_planner_inputs_refuse_what_they_cannot_mean(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_greedy_dead_end_raises():
    dom = GridDomain(1, 2)
    h = Hyperparams(0.0, 1.0, 1.0, 0.01)
    problem = Problem(dom, h, "lgp")
    d0 = PosteriorData([(0, 0), (0, 1)], [0.1, 0.2])
    s0 = TeamState((RobotPose((0, 0), "E"),), frozenset({(0, 0), (0, 1)}))
    with pytest.raises(DeadEnd):
        greedy_adaptive(problem, d0, s0)


def test_lgp_greedy_moves_toward_high_mean_region():
    # symmetric variances left/right of the robot, asymmetric means
    dom = GridDomain(5, 5)
    h = Hyperparams(0.0, 1.0, 1.5, 0.01)
    problem = Problem(dom, h, "lgp")
    d0 = PosteriorData([(2, 0), (2, 4)], [2.0, -2.0])  # hot west, cold east
    s0 = TeamState((RobotPose((2, 2), "N"),), frozenset({(2, 0), (2, 4), (2, 2)}))
    a = greedy_adaptive(problem, d0, s0)
    target = action_target(s0, a).cell
    assert target == (2, 1)  # the left (west) move, toward the hot observation
    # sanity: the mirror GP problem is indifferent (ties to front)
    gp = Problem(dom, h, "gp")
    a_gp = greedy_adaptive(gp, d0, s0)
    assert a_gp.move == "front"


# -- mes ---------------------------------------------------------------------


def enumerate_mes_oracle(problem, d0, s0, n):
    """Exhaustive oracle for MES over the simultaneous joint moves (MASP's
    action set); each joint move is applied one robot at a time."""
    best = (-math.inf, None)

    def joint_entropy(cells):
        return gaussian_entropy(posterior(d0, cells, problem.hyper))

    def rec(s, depth, chosen, seq):
        nonlocal best
        if depth == n:
            val = joint_entropy(chosen)
            if val > best[0] + 1e-15:
                best = (val, list(seq))
            return
        for combo in full_joint_actions(s, problem.domain):
            s2, cells = s, []
            for i, m in enumerate(combo):
                a = ConstrainedJointAction(i, m)
                cells.append(action_target(s2, a).cell)
                s2 = transition(s2, a, problem.domain)
            seq.append(combo)
            rec(s2, depth + 1, chosen + cells, seq)
            seq.pop()

    rec(s0, 0, [], [])
    return best


def enumerate_share_oracle(problem, d0, s0):
    """Exhaustive oracle for MES on any split of the moves left, robot-major:
    each robot in turn walks every self-avoiding path of its own ``budget -
    steps[i]`` moves. Returns the best dense joint entropy, or None if no
    complete plan exists."""
    best = None

    def rec(i, pose, left, visited, chosen):
        nonlocal best
        if left == 0:
            if i + 1 < s0.k:
                rec(i + 1, s0.poses[i + 1], s0.budget - s0.steps[i + 1], visited, chosen)
                return
            val = gaussian_entropy(posterior(d0, chosen, problem.hyper)) if chosen else 0.0
            best = val if best is None else max(best, val)
            return
        for mv in MOVES:
            to = move_target(pose, mv)
            if problem.domain.contains(to.cell) and to.cell not in visited:
                rec(i, to, left - 1, visited | {to.cell}, chosen + [to.cell])

    rec(0, s0.poses[0], s0.budget - s0.steps[0], s0.visited, [])
    return best


def test_mes_single_step_picks_max_entropy_cell():
    problem, d0, s0 = make_instance(seed=40, rows=4, cols=4, model="gp", budget=1)
    res = mes_nonadaptive(problem, d0, s0)
    combos = full_joint_actions(s0, problem.domain)
    vals = []
    for combo in combos:
        cell = move_target(s0.poses[0], combo[0]).cell
        vals.append(gaussian_entropy(posterior(d0, [cell], problem.hyper)))
    assert res.value == pytest.approx(max(vals), abs=1e-12)
    assert res.exact


def test_mes_independent_cells_tie_break_lexicographic():
    # length scale -> 0 makes all cells carry equal entropy; the committed
    # sequence must be the lexicographically first feasible one (all front,
    # robots in turn), for one robot and for two
    dom = GridDomain(4, 4)
    h = Hyperparams(0.0, 1.0, 1e-3, 0.0)
    problem = Problem(dom, h, "gp")
    for starts in ([((0, 0), "S")], [((0, 0), "S"), ((3, 3), "N")]):
        cells = [c for c, _ in starts]
        d0 = PosteriorData(cells, [0.1] * len(cells))
        s0 = TeamState(tuple(RobotPose(c, hd) for c, hd in starts), frozenset(cells), budget=3)
        res = mes_nonadaptive(problem, d0, s0)
        assert [(a.robot_index, a.move) for a in res.policy.actions] == [
            (i, "front") for _ in range(3) for i in range(len(starts))]


def test_mes_tie_with_the_greedy_incumbent_goes_to_the_first_sequence():
    # the prior cells mirror each other across the diagonal through the
    # robot's corner, so front-right and right-left observe mirror-image
    # pairs; the greedy incumbent takes right first (its batch variances
    # differ in the last bit), and an equal value reached earlier in
    # lexicographic order must still win. Values are summed the way the
    # search sums them, over one factor.
    problem, d0, s0 = make_instance(seed=37, rows=3, cols=4, model="gp", n_prior=2)
    s0 = TeamState(s0.poses, s0.visited, budget=2)
    res = mes_nonadaptive(problem, d0, s0)
    inc = IncrementalPosterior(problem.kernel_table, d0.locations, d0.z, len(d0) + 2)
    values = {}

    def rec(s, seq, val):
        if len(seq) == 2:
            values[tuple(seq)] = val
            return
        for a in constrained_actions(s, problem.domain):
            v = val + planners._entropy(inc.extend(action_target(s, a).cell, 0.0))
            rec(transition(s, a, problem.domain), seq + [a.move], v)
            inc.pop(1)

    rec(s0, [], 0.0)
    first = next(seq for seq, v in values.items() if v == max(values.values()))
    assert [a.move for a in res.policy.actions] == list(first)
    assert res.value == max(values.values())


def test_mes_matches_enumeration_oracle():
    for seed in (41, 42, 43):
        problem, d0, s0 = make_instance(seed=seed, rows=4, cols=4, model="gp")
        s0 = TeamState(s0.poses, s0.visited, budget=3)
        res = mes_nonadaptive(problem, d0, s0)
        oracle_val, _ = enumerate_mes_oracle(problem, d0, s0, 3)
        assert res.value == pytest.approx(oracle_val, abs=1e-10)
        assert res.exact
        # the reported value equals the joint entropy of the reported paths
        cells = [c for path in res.paths for c in path[1:]]
        assert res.value == pytest.approx(
            gaussian_entropy(posterior(d0, cells, problem.hyper)), abs=1e-9
        )


@pytest.mark.parametrize("steps", [(1, 0), (2, 0), (3, 0), (0, 3), (2, 1)],
                         ids=["steps1-0", "steps2-0", "steps3-0", "steps0-3", "steps2-1"])
def test_share_oracle_meets_bounded_dp_on_uneven_shares(steps):
    # the robot-major oracle against gp bounded_dp (Theorem 2) on fixed states
    # whose robots have taken different numbers of steps; not on random ones,
    # where bounded_dp values a dead end at 0 and may beat a complete plan whose
    # rewards are negative
    problem, d0, s0, _ = make_field_instance(seed=0, rows=5, cols=5, k=2, model="gp", budget=3)
    s1 = replace(s0, steps=steps)
    cfg = PlannerConfig(horizon=s1.moves_left - 1, nu=1)
    assert enumerate_share_oracle(problem, d0, s1) == pytest.approx(
        bounded_dp(problem, d0, s1, cfg, "lower")[0], abs=1e-9)


@pytest.mark.parametrize("rows,n,n_prior,seed", [
    (3, 1, 1, 44), (3, 2, 1, 45), (3, 2, 2, 47), (3, 3, 1, 46), (3, 3, 1, 50),
    (4, 1, 3, 47), (4, 2, 3, 44), (4, 3, 1, 45), (4, 3, 2, 44),
])
def test_mes_two_robots_matches_enumeration(rows, n, n_prior, seed):
    # one-robot moves in robot order reach every cell set the joint moves do
    problem, d0, s0 = make_instance(seed=seed, rows=rows, cols=rows, k=2, model="gp",
                                    n_prior=n_prior)
    s0 = TeamState(s0.poses, s0.visited, budget=n)
    res = mes_nonadaptive(problem, d0, s0)
    oracle_val, _ = enumerate_mes_oracle(problem, d0, s0, n)
    assert res.value == pytest.approx(oracle_val, abs=1e-10)
    assert res.exact
    cells = [c for path in res.paths for c in path[1:]]
    assert res.value == pytest.approx(
        gaussian_entropy(posterior(d0, cells, problem.hyper)), abs=1e-10
    )
    # serialized actions respect both per-robot budgets
    counts = [0, 0]
    for a in res.policy.actions:
        counts[a.robot_index] += 1
    assert counts == [n, n]


def test_mes_node_budget_falls_back_to_incumbent():
    for k, n_prior in ((1, 3), (2, 1)):
        problem, d0, s0 = make_instance(seed=45, rows=4, cols=4, k=k, model="gp",
                                        n_prior=n_prior)
        s0 = TeamState(s0.poses, s0.visited, budget=3)
        full = mes_nonadaptive(problem, d0, s0)
        capped = mes_nonadaptive(problem, d0, s0, node_budget=3)
        assert not capped.exact
        assert capped.value <= full.value + 1e-12
        # the capped value is the joint entropy of its own paths
        cells = [c for path in capped.paths for c in path[1:]]
        assert capped.value == pytest.approx(
            gaussian_entropy(posterior(d0, cells, problem.hyper)), abs=1e-10
        )


def _replayed_paths(s0, domain, actions, n):
    """Per-robot cells of ``actions`` stepped through ``transition`` from ``s0``
    with per-robot budget ``n``."""
    s = TeamState(s0.poses, s0.visited, s0.steps, n)
    paths = [[p.cell] for p in s.poses]
    for a in actions:
        s = transition(s, a, domain)
        paths[a.robot_index].append(s.poses[a.robot_index].cell)
    return paths


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mes_and_mi_paths_are_their_actions_replayed(k, n):
    # the searches record each chosen cell; stepping the committed actions
    # through the world model must give the same paths
    domain = GridDomain(4, 4)
    problem = Problem(domain, Hyperparams(0.2, 1.0, 1.5, 0.02), "lgp")
    starts = [(0, 0), (3, 3), (0, 3)][:k]
    poses = tuple(RobotPose(c, interior_heading(c, domain)) for c in starts)
    s0 = TeamState(poses, frozenset(starts + [(2, 1)]), budget=n)
    d0 = PosteriorData(sorted(s0.visited), np.linspace(-0.5, 0.5, k + 1))
    mes = mes_nonadaptive(problem, d0, s0, node_budget=2000)
    mi = mi_greedy(problem, d0, s0)
    for res in (mes, mi):
        assert len(res.policy.actions) == k * n
        assert res.paths == _replayed_paths(s0, domain, res.policy.actions, n)


@st.composite
def _mes_cases(draw):
    """Tiny MES instances: 3x3 to 4x4 maps, k = 1 or 2, random hyperparameters
    (the 1e-3 length scale and the zero-noise jitter prior among them); each
    robot has taken 0 to ``n`` of its ``n`` steps, and some robots' start cells
    are visited but hold no datum."""
    domain = GridDomain(draw(st.integers(3, 4)), draw(st.integers(3, 4)))
    k = draw(st.integers(1, 2))
    n = draw(st.integers(2, 4) if k == 1 else st.integers(1, 3))
    picked = draw(st.lists(st.sampled_from(domain.cells()), min_size=k, max_size=k + 3,
                           unique=True))
    poses = tuple(RobotPose(c, draw(st.sampled_from(HEADINGS))) for c in picked[:k])
    bare = {picked[i] for i in draw(st.sets(st.integers(0, k - 1)))}
    held = [c for c in picked if c not in bare]
    z = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(held), max_size=len(held)))
    h = Hyperparams(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.1, 4.0)),
                    draw(st.one_of(st.just(1e-3), st.floats(0.3, 3.0))),
                    draw(st.one_of(st.just(0.0), st.floats(1e-4, 1.0))))
    steps = tuple(draw(st.integers(0, n)) for _ in range(k))
    s0 = TeamState(poses, frozenset(picked), steps, budget=n)
    return Problem(domain, h, "gp"), PosteriorData(held, z), s0


def _bare_start_case(steps=(0, 0)):
    # robot 1's start cell is visited but holds no datum, so its first move,
    # taken below robot 0's, may reach the prior variance
    poses = (RobotPose((0, 0), "S"), RobotPose((2, 3), "N"))
    s0 = TeamState(poses, frozenset({(0, 0), (2, 3)}), steps, budget=2)
    problem = Problem(GridDomain(3, 4), Hyperparams(0.1, 1.2, 1.4, 0.0), "gp")
    return problem, PosteriorData([(0, 0)], [0.4]), s0


@settings(max_examples=200, deadline=None)
@given(_mes_cases())
@example(_bare_start_case())
@example(_bare_start_case(steps=(0, 1)))  # robots [0, 0, 1]: robot 1 first moves at depth 2
def test_mes_tail_bounds_every_completion(case):
    # at every node of the search tree, the running value plus the search's
    # tail is at least the best completion through that node; so the search
    # returns the lexicographically first best sequence, scored as it scores
    problem, d0, s0 = case
    total, order = s0.moves_left, planners._mes_order(s0)
    tails = planners._mes_tails(problem, d0, s0)
    inc = IncrementalPosterior(problem.kernel_table, d0.locations, d0.z, len(d0) + total)
    walk = Walk(s0, problem.domain)
    leaves = {}  # one-robot-move sequence -> value, in the search's order

    def best_below(j, seq, val):
        if j == total:
            leaves[tuple(seq)] = val
            return val
        best = -math.inf
        for i, mv, cell, heading in list(walk.moves(order[j])):
            walk.step(i, cell, heading)
            child_val = val + planners._entropy(inc.extend(cell, 0.0))
            below = best_below(j + 1, seq + [(i, mv)], child_val)
            assert child_val + tails[j] >= below
            best = max(best, below)
            inc.pop(1)
            walk.undo()
        return best

    best_below(0, [], 0.0)
    # the robot-major dense oracle finds a plan exactly when the search does
    share_val = enumerate_share_oracle(problem, d0, s0)
    assert (share_val is None) == (not leaves)
    if not leaves:
        with pytest.raises(DeadEnd):
            mes_nonadaptive(problem, d0, s0)
        return
    res = mes_nonadaptive(problem, d0, s0)
    best = max(leaves.values())
    first = next(seq for seq, v in leaves.items() if v == best)
    assert res.exact
    assert res.value == best
    assert [(a.robot_index, a.move) for a in res.policy.actions] == list(first)
    assert share_val == pytest.approx(best, abs=1e-9)
    if len(set(s0.steps)) > 1 or not total:
        return
    # with equal shares, the dense oracle over the joint moves: the same value,
    # and the same sequence unless another one ties with it to within rounding
    oracle_val, combos = enumerate_mes_oracle(problem, d0, s0, s0.budget - s0.steps[0])
    oracle_seq = tuple((i, mv) for combo in combos for i, mv in enumerate(combo))
    assert oracle_val == pytest.approx(best, abs=1e-9)
    assert leaves[oracle_seq] == pytest.approx(best, abs=1e-9)
    if sum(v >= best - 1e-9 for v in leaves.values()) == 1:
        assert oracle_seq == first


def test_mes_work_does_not_grow_with_the_map(monkeypatch):
    # a reach that stays inside 14 x 12: on a map 16 times larger the search
    # visits the same nodes, and no posterior batch is wider than one
    # robot's moves
    h = Hyperparams(0.4, 1.3, 2.0, 0.05)
    starts = [(6, 4), (7, 7)]
    locs = [(2, 3), (4, 9), (9, 5), (11, 2), (5, 6), (10, 9)] + starts
    d0 = PosteriorData(locs, np.linspace(-0.6, 0.9, len(locs)))
    s0 = TeamState((RobotPose(starts[0], "N"), RobotPose(starts[1], "S")), frozenset(locs),
                   budget=4)
    widths = []
    batch = IncrementalPosterior.batch

    def spy(self, targets):
        widths.append(len(targets))
        return batch(self, targets)

    monkeypatch.setattr(IncrementalPosterior, "batch", spy)
    small, large = (mes_nonadaptive(Problem(GridDomain(rows, cols), h, "gp"), d0, s0)
                    for rows, cols in ((14, 12), (56, 48)))
    assert small.exact and small.nodes > 100
    assert (large.value, large.paths, large.nodes, large.exact) == (
        small.value, small.paths, small.nodes, small.exact)
    assert widths and max(widths) <= 3 * s0.k


def test_mes_closes_the_readme_row_a_map_wide_bound_cut():
    # README config, k = 2, seed 2: a bound from the map's best prior
    # entropies stopped at 200,001 nodes with the incumbent below
    cfg = validate_config(ExperimentConfig(
        rows=14, cols=12, team_size=2, budget_per_robot=9, prior_units=20,
        policies=("mes",), models=("gp",), seeds=(2,), field_mean=0.4,
        field_signal_variance=1.3, field_length_scale=2.0, field_noise_variance=0.05))
    _, d0, s0, fitted = _build_instance(cfg, 2)
    res = mes_nonadaptive(Problem(cfg.domain, fitted, "gp"), d0, s0,
                          node_budget=cfg.mes_node_budget)
    assert res.exact
    assert res.value >= float.fromhex("0x1.fa3248f30dcedp+3")


# -- mi_greedy ---------------------------------------------------------------


def test_mi_two_cell_domain_picks_the_other_cell():
    dom = GridDomain(1, 2)
    h = Hyperparams(0.0, 1.0, 1.0, 0.01)
    problem = Problem(dom, h, "gp")
    d0 = PosteriorData([(0, 0)], [0.5])
    s0 = TeamState((RobotPose((0, 0), "E"),), frozenset({(0, 0)}), budget=1)
    res = mi_greedy(problem, d0, s0)
    assert res.paths == [[(0, 0), (0, 1)]]


def test_mi_independent_cells_reduce_to_variance_greedy():
    dom = GridDomain(4, 4)
    h = Hyperparams(0.0, 1.0, 1e-3, 0.0)
    problem = Problem(dom, h, "gp")
    d0 = PosteriorData([(0, 0)], [0.1])
    s0 = TeamState((RobotPose((0, 0), "S"),), frozenset({(0, 0)}), budget=3)
    res = mi_greedy(problem, d0, s0)
    assert np.allclose(res.scores, 0.0, atol=1e-6)  # second term cancels
    moves = [a.move for a in res.policy.actions]
    assert moves == ["front", "front", "front"]  # ties resolve canonically


def test_mi_matches_brute_force_increment():
    # the default instance, a zero-nugget one (the jitter path) and two robots
    for kwargs in ({}, {"noise_variance": 0.0}, {"k": 2, "rows": 4, "cols": 4}):
        problem, d0, s0 = make_instance(**{"seed": 46, "rows": 3, "cols": 3, **kwargs},
                                        model="gp")
        s0 = TeamState(s0.poses, s0.visited, budget=2)
        res = mi_greedy(problem, d0, s0)
        # replay: at each step recompute every candidate's score directly
        h = problem.hyper
        unobs0 = [c for c in problem.domain.cells() if c not in d0.observed_set()]
        s = s0
        selected = []
        for step, chosen_action in enumerate(res.policy.actions):
            acts = constrained_actions(s, problem.domain)
            scores = {}
            for a in acts:
                y = action_target(s, a).cell
                d_sel = PosteriorData(
                    list(d0.locations) + selected, list(d0.z) + [0.0] * len(selected)
                )
                var_sel = posterior(d_sel, [y], h).covariance[0, 0]
                rest = [c for c in unobs0 if c != y and c not in selected]
                d_rest = PosteriorData(
                    list(d0.locations) + rest, list(d0.z) + [0.0] * len(rest)
                )
                var_rest = posterior(d_rest, [y], h).covariance[0, 0]
                scores[(a.robot_index, a.move)] = 0.5 * (
                    math.log(var_sel) - math.log(var_rest)
                )
            chosen_key = (chosen_action.robot_index, chosen_action.move)
            assert scores[chosen_key] == pytest.approx(max(scores.values()), abs=1e-9)
            assert scores[chosen_key] == pytest.approx(res.scores[step], abs=1e-8)
            selected.append(action_target(s, chosen_action).cell)
            s = transition(s, chosen_action, problem.domain)
        assert len(res.policy.actions) == s0.k * 2


def test_ent_and_mi_never_factor_a_map_sized_matrix(monkeypatch):
    # counted work, not time: on a 56 x 48 map no kernel matrix, factor,
    # solve or inverse that ent_metric, mi_greedy or sample_field asks for has
    # N = 2,688 rows or columns
    problem, d0, s0 = make_instance(seed=3, rows=56, cols=48, k=2, model="gp", n_prior=20,
                                    length_scale=2.0, noise_variance=0.05, budget=9)
    n_cells = problem.domain.size
    calls = []

    def shape(arg):
        if isinstance(arg, tuple) and len(arg) == 2 and isinstance(arg[1], bool):
            arg = arg[0]  # cho_solve's (factor, lower)
        return np.shape(arg)

    def record(owner, name):
        fn = getattr(owner, name)

        def recorded(*args, **kwargs):
            calls.append((name, [shape(a) for a in args if isinstance(a, (np.ndarray, list, tuple))]))
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)

    for name in ("_gram_factor", "cholesky", "cho_solve", "solve_triangular", "dtrsm", "dtrsv"):
        record(fm, name)
    for name in ("eigh", "inv", "cholesky", "solve", "slogdet", "det"):
        record(np.linalg, name)
    fm._map_spectrum.cache_clear()
    res = mi_greedy(problem, d0, s0)
    d = d0
    for path in res.paths:
        for cell in path[1:]:
            d = d.extended(cell, 0.1)
    ent_metric(problem, d)
    fm.sample_field(problem.hyper, problem.domain, seed=3)
    assert ("eigh", [(56, 56)]) in calls and ("eigh", [(48, 48)]) in calls
    assert ("_gram_factor", [(len(d), len(d))]) in calls
    assert [c for c in calls if any(n_cells in dims for dims in c[1])] == []


# -- cross-cutting theorems --------------------------------------------------


def test_theorem2_gp_reduction_and_value_equivalence():
    for seed in range(3):
        problem, d0, s0, field = make_field_instance(
            seed=60 + seed, rows=4, cols=4, model="gp", budget=3
        )
        cfg1 = cfg_for(horizon=2, nu=1)
        cfg4 = cfg_for(horizon=2, nu=4)
        values = [
            exact_dp(problem, d0, s0, cfg4),
            bounded_dp(problem, d0, s0, cfg1, "lower")[0],
            bounded_dp(problem, d0, s0, cfg1, "upper")[0],
            bounded_dp(problem, d0, s0, cfg4, "lower")[0],
            bounded_dp(problem, d0, s0, cfg4, "upper")[0],
        ]
        mes = mes_nonadaptive(problem, d0, s0)
        for v in values:
            assert v == pytest.approx(mes.value, abs=1e-8)
        # the adaptive policy's realized path carries the same joint entropy
        policy = BoundedLowerPolicy(problem, cfg4)
        s, d = s0, d0
        new_cells = []
        for stage in range(3):
            a = policy.act(s, d, stage)
            cell = action_target(s, a).cell
            new_cells.append(cell)
            s = transition(s, a, problem.domain)
            d = d.extended(cell, math.log(field[cell]))
        realized = gaussian_entropy(posterior(d0, new_cells, problem.hyper))
        assert realized == pytest.approx(mes.value, abs=1e-8)


def test_theorem1_identity_on_gp_instances():
    for seed in range(2):
        problem, d0, s0 = make_instance(seed=70 + seed, rows=3, cols=3, model="gp")
        cfg = cfg_for(horizon=2, nu=2)
        policy = BoundedLowerPolicy(problem, cfg)
        u_pi = quadrature_policy_reward(problem, policy, d0, s0, 0, 2, order=8)
        v_pi = quadrature_policy_map_entropy(problem, policy, d0, s0, 0, 2, order=8)
        unobs = [c for c in problem.domain.cells() if c not in d0.observed_set()]
        prior_entropy = gaussian_entropy(posterior(d0, unobs, problem.hyper))
        assert prior_entropy - u_pi == pytest.approx(v_pi, abs=1e-6)


def test_lemma3_midpoint_convexity_spot():
    rng = np.random.default_rng(80)
    problem, d0, s0 = make_instance(seed=80, rows=3, cols=3, model="lgp")
    cfg = cfg_for(horizon=2, nu=4)
    idx = 1
    violations = 0
    for _ in range(20):
        z1, z2 = rng.normal(scale=1.5, size=2)
        vals = []
        for zv in (z1, z2, 0.5 * (z1 + z2)):
            z = d0.z.copy()
            z[idx] = zv
            d = PosteriorData(d0.locations, z)
            vals.append(bounded_dp(problem, d, s0, cfg, "lower")[0])
        if vals[2] > 0.5 * (vals[0] + vals[1]) + 1e-8:
            violations += 1
    assert violations == 0


def test_corollary2_policy_value_within_gap():
    problem, d0, s0 = make_instance(seed=90, rows=3, cols=3, model="lgp")
    cfg = cfg_for(horizon=1, nu=3)
    lower, policy = bounded_dp(problem, d0, s0, cfg, "lower")
    upper, _ = bounded_dp(problem, d0, s0, cfg, "upper")
    exact = exact_dp(problem, d0, s0, cfg)
    realized = quadrature_policy_reward(problem, policy, d0, s0, 0, 1, order=32)
    assert realized >= lower - 1e-6
    assert realized <= exact + 1e-6
    assert exact - realized <= (upper - lower) + 1e-6


def test_adaptive_policy_replay_contract():
    problem, d0, s0, field = make_field_instance(seed=95, rows=4, cols=4, model="lgp")
    cfg = cfg_for(horizon=2, nu=3)
    policy = BoundedLowerPolicy(problem, cfg)

    def run(fld):
        s, d, actions = s0, d0, []
        for stage in range(3):
            a = policy.act(s, d, stage)
            actions.append(a)
            cell = action_target(s, a).cell
            s = transition(s, a, problem.domain)
            d = d.extended(cell, math.log(fld[cell]))
        return actions, d

    actions1, d_final = run(field)
    field2 = field.copy()
    for cell in problem.domain.cells():
        if cell not in d_final.observed_set():
            field2[cell] *= 3.7  # perturb only never-touched cells
    actions2, _ = run(field2)
    assert actions1 == actions2

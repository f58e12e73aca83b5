"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them
live). The experiment-scale criteria carry their own wall-clock guards.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import test_field_model as fm_tests
from conftest import (
    make_field_instance,
    make_instance,
    quadrature_policy_map_entropy,
    quadrature_policy_reward,
)
from oracles import gaussian_entropy, lgp_entropy, posterior
from hotspotplan.discretization import em_points, equal_probability_boundaries, jensen_points
from hotspotplan.evaluation import paired_ttest, rollout
from hotspotplan.field_model import PosteriorData
from hotspotplan.harness import ExperimentConfig, run_seed, validate_config
from hotspotplan.planners import (
    BoundedLowerPolicy,
    PlannerConfig,
    Problem,
    _UrtdpInstance,
    bounded_dp,
    exact_dp,
    stagewise_reward,
    state_key,
    urtdp,
)
from hotspotplan.world import (
    GridDomain,
    RobotPose,
    TeamState,
    action_target,
    constrained_actions,
    transition,
)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({label}): PASS")


def cfg_for(horizon, nu=4, m=4.0, alpha=1e-3, paths=1000, seed=0):
    return PlannerConfig(
        horizon=horizon, nu=nu, truncation_m=m, alpha=alpha,
        max_simulated_paths=paths, seed=seed,
    )


# -- criterion 1: monotone Jensen/EM sandwich around the exact value ---------


def test_criterion_1_bound_sandwich():
    with criterion(1, "bound sandwich"):
        start = time.time()
        accepted = 0
        seed = 0
        while accepted < 10:
            seed += 1
            problem, d0, s0 = make_instance(
                seed=1000 + seed, rows=4, cols=4, model="lgp",
                signal_variance=1.0, length_scale=1.5, noise_variance=0.01,
            )
            values = {}
            for nu in (1, 2, 4, 8, 16, 32):
                cfg = cfg_for(horizon=3, nu=nu)
                values[("lo", nu)] = bounded_dp(problem, d0, s0, cfg, "lower")[0]
                values[("up", nu)] = bounded_dp(problem, d0, s0, cfg, "upper")[0]
            # screen instances by certified quadrature-free margins so the
            # numerical oracle's accuracy cannot produce false violations;
            # degenerate (forced-path) instances stay in: everything is equal
            gap16 = values[("up", 16)] - values[("lo", 16)]
            margin_lo = values[("lo", 32)] - values[("lo", 16)]
            margin_up = values[("up", 16)] - values[("up", 32)]
            if gap16 > 1e-9 and min(margin_lo, margin_up) < 2e-4:
                continue
            accepted += 1
            exact = exact_dp(problem, d0, s0, cfg_for(horizon=3), quadrature_order=32)
            for nu in (1, 2, 4, 8):
                lo, lo2 = values[("lo", nu)], values[("lo", 2 * nu)]
                up, up2 = values[("up", nu)], values[("up", 2 * nu)]
                assert lo <= lo2 + 1e-8
                assert lo2 <= exact + 1e-8
                assert exact <= up2 + 1e-8
                assert up2 <= up + 1e-8
        assert time.time() - start < 300


# -- criterion 2: GP reduction (adaptive = non-adaptive MES) -----------------


def test_criterion_2_gp_reduction():
    with criterion(2, "GP reduction to MES"):
        from hotspotplan.planners import mes_nonadaptive

        for seed in range(10):
            problem, d0, s0, field = make_field_instance(
                seed=1100 + seed, rows=4, cols=4, model="gp", budget=3
            )
            mes = mes_nonadaptive(problem, d0, s0)
            assert mes.exact
            cfg1, cfg4 = cfg_for(horizon=2, nu=1), cfg_for(horizon=2, nu=4)
            for value in (
                exact_dp(problem, d0, s0, cfg4),
                bounded_dp(problem, d0, s0, cfg1, "lower")[0],
                bounded_dp(problem, d0, s0, cfg1, "upper")[0],
                bounded_dp(problem, d0, s0, cfg4, "lower")[0],
                bounded_dp(problem, d0, s0, cfg4, "upper")[0],
            ):
                assert abs(value - mes.value) <= 1e-8
            # the realized adaptive path is value-equivalent to the MES path
            policy = BoundedLowerPolicy(problem, cfg4)
            s, d, cells = s0, d0, []
            for stage in range(3):
                a = policy.act(s, d, stage)
                cells.append(action_target(s, a).cell)
                s = transition(s, a, problem.domain)
                d = d.extended(cells[-1], math.log(field[cells[-1]]))
            realized = gaussian_entropy(posterior(d0, cells, problem.hyper))
            assert abs(realized - mes.value) <= 1e-8


# -- criterion 3: cost/reward duality under a fixed policy -------------------


def test_criterion_3_duality_identity():
    with criterion(3, "entropy duality identity"):
        for seed in range(5):
            problem, d0, s0 = make_instance(seed=1200 + seed, rows=3, cols=3, model="gp")
            cfg = cfg_for(horizon=2, nu=2)
            policy = BoundedLowerPolicy(problem, cfg)
            u_pi = quadrature_policy_reward(problem, policy, d0, s0, 0, 2, order=8)
            v_pi = quadrature_policy_map_entropy(problem, policy, d0, s0, 0, 2, order=8)
            unobs = [c for c in problem.domain.cells() if c not in d0.observed_set()]
            prior_entropy = gaussian_entropy(posterior(d0, unobs, problem.hyper))
            assert abs((prior_entropy - u_pi) - v_pi) <= 1e-6


# -- criterion 4: value convexity in a single measurement --------------------


def test_criterion_4_value_convexity():
    with criterion(4, "lower-value midpoint convexity"):
        rng = np.random.default_rng(77)
        checks = 0
        for seed in range(5):
            problem, d0, s0 = make_instance(seed=1300 + seed, rows=3, cols=3, model="lgp")
            cfg = cfg_for(horizon=2, nu=4)
            for _ in range(20):
                idx = int(rng.integers(len(d0)))
                z1, z2 = rng.normal(scale=1.4, size=2)
                vals = []
                for zv in (z1, z2, 0.5 * (z1 + z2)):
                    z = d0.z.copy()
                    z[idx] = zv
                    d = PosteriorData(d0.locations, z)
                    vals.append(bounded_dp(problem, d, s0, cfg, "lower")[0])
                assert vals[2] <= 0.5 * (vals[0] + vals[1]) + 1e-8
                checks += 1
        assert checks >= 100


# -- criterion 5: URTDP correctness -------------------------------------------


def test_criterion_5_urtdp_correctness(monkeypatch):
    with criterion(5, "URTDP bounds and policy"):
        # seed chosen for clear action-value separation (>.1 nat) at every
        # state the reference policy visits: action-for-action equality is
        # only well defined when the argmax is unique beyond alpha
        problem, d0, s0, field = make_field_instance(seed=1402, rows=3, cols=3, model="lgp")
        cfg = cfg_for(horizon=2, nu=2, alpha=1e-6, paths=100_000, seed=4)
        lower, _ = bounded_dp(problem, d0, s0, cfg, "lower")
        upper, _ = bounded_dp(problem, d0, s0, cfg, "upper")
        res = urtdp(problem, d0, s0, cfg)
        assert abs(res.bounds.lower - lower) <= 1e-6
        assert abs(res.bounds.upper - upper) <= 1e-6
        # induced policy equals the exhaustive lower-problem policy
        ref = BoundedLowerPolicy(problem, cfg)
        for field_seed in (0, 1):
            fld = field if field_seed == 0 else field * 1.6
            s, d = s0, d0
            for stage in range(cfg.horizon + 1):
                a_ref = ref.act(s, d, stage)
                assert res.policy.act(s, d, stage) == a_ref
                cell = action_target(s, a_ref).cell
                s = transition(s, a_ref, problem.domain)
                d = d.extended(cell, math.log(fld[cell]))
        # bracket invariant after every backup across a 1e4-path fuzz run
        problem2, d2, s2 = make_instance(seed=1440, rows=4, cols=4, model="lgp")
        fuzz_cfg = cfg_for(horizon=3, nu=3, alpha=1e-12, paths=10_000, seed=8)
        inst = _UrtdpInstance(problem2, fuzz_cfg, "jensen", np.random.default_rng(11))
        backups = 0
        crossings = []
        write = _UrtdpInstance._set

        def audit(obj, node, lo, hi):  # every bound write goes through _set
            nonlocal backups
            backups += 1
            if lo > hi + 1e-9:
                crossings.append((node, lo, hi))
            write(obj, node, lo, hi)

        monkeypatch.setattr(_UrtdpInstance, "_set", audit)
        for _ in range(10_000):
            inst.simulated_path(d2, s2, 0)
        assert crossings == []
        assert backups >= 10_000


# -- criterion 6: outcome-discretization engine -------------------------------


def test_criterion_6_outcome_engine():
    with criterion(6, "Jensen/EM outcome engine"):
        from scipy.integrate import quad
        from scipy.stats import norm

        rng = np.random.default_rng(99)
        for _ in range(100):
            mean = float(rng.normal(scale=1.5))
            var = float(rng.uniform(0.05, 2.5))
            nu = int(rng.integers(1, 12))
            sd = math.sqrt(var)
            b = equal_probability_boundaries(nu, 4.0)
            jw, jz = jensen_points(b)
            ew, ez = em_points(b)
            jz, ez = mean + sd * jz, mean + sd * ez
            # mean preservation
            assert abs(jw @ jz - ew @ ez) <= 1e-10
            # convex sandwich against adaptive quadrature
            lo, hi = mean + sd * b[0], mean + sd * b[-1]
            mass = norm.cdf(hi, mean, sd) - norm.cdf(lo, mean, sd)
            for fn in (
                np.exp,
                lambda z: 0.7 * (z - mean) ** 2 + 0.1 * z,
                lambda z: np.maximum(0.8 * z + 0.2, -1.1 * z + 0.05),
            ):
                expect, _ = quad(
                    lambda z: fn(z) * norm.pdf(z, mean, sd) / mass, lo, hi,
                    epsabs=1e-11, epsrel=1e-11, limit=300,
                )
                assert jw @ fn(jz) <= expect + 1e-8
                assert ew @ fn(ez) >= expect - 1e-8


# -- criterion 8: reward evaluation is map-resolution independent -------------


def _median_time(fn, reps, rounds=5):
    # CPU time of this process, so another process sharing the cores does
    # not skew the ratios
    times = []
    for _ in range(rounds):
        t0 = time.process_time()
        for _ in range(reps):
            fn()
        times.append((time.process_time() - t0) / reps)
    return float(np.median(times))


def test_criterion_8_complexity_claim():
    with criterion(8, "map-resolution independence"):
        rng = np.random.default_rng(5)
        history = [(int(r), int(c)) for r, c in zip(
            rng.integers(0, 14, size=40), rng.integers(0, 12, size=40)
        )]
        history = list(dict.fromkeys(history))[:30]
        z = rng.normal(size=len(history))
        small = GridDomain(14, 12)
        big = GridDomain(28, 24)
        from hotspotplan.field_model import Hyperparams

        h = Hyperparams(0.3, 1.0, 2.0, 0.02)
        d = PosteriorData(history, z)
        results = {}
        for name, dom in (("small", small), ("big", big)):
            problem = Problem(dom, h, "lgp")
            pose = RobotPose((5, 5), "N")
            s = TeamState((pose,), frozenset(history) | {(5, 5)})
            a = constrained_actions(s, dom)[0]
            # the map-sized control: the map entropy as one joint factor over
            # every unobserved cell
            unobserved = [c for c in dom.cells() if c not in d.observed_set()]
            results[name] = {
                "reward": _median_time(lambda: stagewise_reward(problem, s, a, d), reps=30),
                "ent": _median_time(lambda: lgp_entropy(d, unobserved, h), reps=3),
            }
        reward_ratio = results["big"]["reward"] / results["small"]["reward"]
        ent_ratio = results["big"]["ent"] / results["small"]["ent"]
        cell_ratio = (28 * 24 - 30) / (14 * 12 - 30)
        assert reward_ratio < 2.0
        assert ent_ratio > cell_ratio  # superlinear growth in the cell count
        print(
            f"  [criterion 8] reward ratio {reward_ratio:.2f} (< 2), "
            f"joint ENT factor ratio {ent_ratio:.1f} (> {cell_ratio:.2f})"
        )


# -- criterion 9: field-model oracles -----------------------------------------


def test_criterion_9_field_model_oracles():
    with criterion(9, "field-model oracles"):
        rng = np.random.default_rng(424242)
        fm_tests.test_kernel_direct_formula_value()
        fm_tests.test_posterior_matches_explicit_two_by_two_inverse()
        fm_tests.test_entropy_correlated_pair_determinant()
        fm_tests.test_lgp_entropy_monte_carlo_oracle(rng)
        fm_tests.test_predictor_monte_carlo_oracle(rng)
        fm_tests.test_sample_field_moments_match_kernel()
        fm_tests.test_fit_recovers_length_scale()

"""Command-line front end.

Verbs:
  generate  - sample synthetic fields for each seed and write field CSVs
  run       - run the configured experiment and persist results
  bounds    - print root lower/upper value bounds and the gap per seed
  selftest  - run a quick built-in invariant suite

Exit codes: 0 success (``--help`` too), 1 configuration or usage error
(argparse prints the usage), 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, HotspotPlanError
from .harness import (
    compute_bounds,
    emit_results,
    load_config,
    make_output_dir,
    run_experiment,
    save_field_csv,
)
from .field_model import sample_field


def _cmd_generate(args) -> int:
    cfg = load_config(args.config)
    if cfg.field_csv is not None:
        raise ConfigError("generate needs synthetic field keys, not field_csv")
    seeds = cfg.offset_seeds(args.seed_offset)
    out = make_output_dir(args.out)
    h = cfg.synthetic_hyperparams()
    for seed in seeds:
        field = sample_field(h, cfg.domain, seed)
        path = out / f"field_{seed}.csv"
        save_field_csv(field, path)
        print(f"wrote {path}")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    records = run_experiment(cfg, seed_offset=args.seed_offset, threads=args.threads)
    csv_path, summary_path = emit_results(records, args.out)
    print(f"wrote {csv_path}")
    print(f"wrote {summary_path}")
    for line in Path(summary_path).read_text().splitlines():
        print(line)
    for r in records:
        if r.mes_exact is False:
            print(f"note: the mes search of seed {r.seed} stopped at {r.mes_nodes} nodes "
                  "(mes_node_budget): its path is the best found, not a certified optimum",
                  file=sys.stderr)
    return 0


def _cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    for seed in cfg.offset_seeds(args.seed_offset):
        res = compute_bounds(cfg, seed)
        b = res.bounds
        print(
            f"seed={seed} lower={b.lower:.6g} upper={b.upper:.6g} "
            f"gap={b.gap:.6g} paths={res.lower_paths}+{res.upper_paths}"
            + (" (budget exhausted)" if res.exhausted else "")
        )
    return 0


def _cmd_selftest(args) -> int:
    failures = 0

    def check(name, fn):
        nonlocal failures
        try:
            fn()
        except Exception as exc:  # report, keep going
            failures += 1
            print(f"selftest {name}: FAIL ({exc})")
        else:
            print(f"selftest {name}: ok")

    check("kernel", _selftest_kernel)
    check("posterior", _selftest_posterior)
    check("entropy-chain-rule", _selftest_chain_rule)
    check("outcome-points", _selftest_outcomes)
    check("world", _selftest_world)
    check("bound-sandwich", _selftest_sandwich)
    if failures:
        print(f"{failures} selftest(s) failed")
        return 2
    print("all selftests passed")
    return 0


def _selftest_kernel():
    from .field_model import Hyperparams, covariance

    h = Hyperparams(0.0, 2.0, 1.5, 0.1)
    assert abs(covariance((0, 0), (0, 0), h) - 2.1) < 1e-12
    assert abs(covariance((0, 0), (2, 3), h) - covariance((2, 3), (0, 0), h)) < 1e-15
    assert covariance((0, 0), (0, 9), h) < covariance((0, 0), (0, 1), h)


def _selftest_posterior():
    from .field_model import Hyperparams, PosteriorData, posterior

    h = Hyperparams(0.5, 1.0, 1.0, 0.0)
    d = PosteriorData([(0, 0), (2, 1)], [1.0, -0.3])
    g1 = posterior(d, [(1, 1)], h)
    d2 = PosteriorData([(0, 0), (2, 1)], [5.0, 2.0])
    g2 = posterior(d2, [(1, 1)], h)
    assert np.allclose(g1.covariance, g2.covariance)
    g_obs = posterior(d, [(0, 0)], h)
    assert abs(g_obs.mean[0] - 1.0) < 1e-6
    assert abs(g_obs.covariance[0, 0]) < 1e-6


def _selftest_chain_rule():
    from .field_model import Hyperparams, PosteriorData, gaussian_entropy, posterior

    h = Hyperparams(0.0, 1.0, 1.2, 0.05)
    d = PosteriorData([(0, 0)], [0.7])
    a = [(1, 0), (0, 1)]
    b = [(2, 2)]
    joint = gaussian_entropy(posterior(d, a + b, h))
    ha = gaussian_entropy(posterior(d, a, h))
    d_ext = d.extended(a[0], 0.0).extended(a[1], 0.0)
    hb = gaussian_entropy(posterior(d_ext, b, h))
    assert abs(joint - (ha + hb)) < 1e-9


def _selftest_outcomes():
    from .discretization import em_points, equal_probability_boundaries, jensen_points

    # an outcome of mean 1 and variance 0.5 has the points 1 + sd * zeta
    sd = np.sqrt(0.5)
    b = equal_probability_boundaries(5, 4.0)
    jw, jz = jensen_points(b)
    ew, ez = em_points(b)
    jp, ep = 1.0 + sd * jz, 1.0 + sd * ez
    assert abs(jw.sum() - 1.0) < 1e-12 and abs(ew.sum() - 1.0) < 1e-12
    assert abs(jw @ jp - ew @ ep) < 1e-10
    quad = np.polynomial.legendre.leggauss(200)
    lo, hi = 1.0 + sd * b[0], 1.0 + sd * b[-1]
    zs = 0.5 * (hi - lo) * quad[0] + 0.5 * (hi + lo)
    from scipy.stats import norm

    dens = norm.pdf(zs, 1.0, sd)
    dens /= (norm.cdf(hi, 1.0, sd) - norm.cdf(lo, 1.0, sd))
    exact = 0.5 * (hi - lo) * (quad[1] * dens) @ np.exp(zs)
    assert jw @ np.exp(jp) <= exact + 1e-8
    assert ew @ np.exp(ep) >= exact - 1e-8


def _selftest_world():
    from .world import GridDomain, RobotPose, TeamState, constrained_actions

    dom = GridDomain(3, 3)
    s = TeamState((RobotPose((1, 1), "N"),), frozenset({(1, 1)}))
    acts = constrained_actions(s, dom)
    assert len(acts) == 3 <= 3 * s.k


def _selftest_sandwich():
    from .field_model import Hyperparams, PosteriorData
    from .planners import PlannerConfig, Problem, bounded_dp, exact_dp
    from .world import GridDomain, RobotPose, TeamState

    dom = GridDomain(3, 3)
    h = Hyperparams(0.3, 0.8, 1.2, 0.01)
    d0 = PosteriorData([(0, 0)], [0.4])
    s0 = TeamState((RobotPose((0, 0), "S"),), frozenset({(0, 0)}))
    prob = Problem(dom, h, "lgp")
    cfg = PlannerConfig(horizon=2, nu=2, truncation_m=4.0)
    lo, _ = bounded_dp(prob, d0, s0, cfg, "lower")
    hi, _ = bounded_dp(prob, d0, s0, cfg, "upper")
    mid = exact_dp(prob, d0, s0, cfg)
    assert lo <= mid + 1e-8 and mid <= hi + 1e-8


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hotspotplan",
        description="Multi-robot informative exploration planning over hotspot fields",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    flags = {
        "--config": dict(required=True, help="path to the config file"),
        "--out": dict(default="results", help="output directory"),
        "--seed-offset": dict(type=int, default=0),
        "--threads": dict(type=int, default=1),
    }
    # each verb takes only the flags its command reads
    for verb, fn, names in (
        ("generate", _cmd_generate, ("--config", "--out", "--seed-offset")),
        ("run", _cmd_run, ("--config", "--out", "--seed-offset", "--threads")),
        ("bounds", _cmd_bounds, ("--config", "--seed-offset")),
        ("selftest", _cmd_selftest, ()),
    ):
        p = sub.add_parser(verb)
        for name in names:
            p.add_argument(name, **flags[name])
        p.set_defaults(fn=fn)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the usage error
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except HotspotPlanError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

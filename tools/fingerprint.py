"""Bit-level fingerprint of the library's outputs, and a key-by-key compare.

    PYTHONPATH=src python3 tools/fingerprint.py --out fp.json [--long]
    python3 tools/fingerprint.py --compare A.json B.json

The first form writes one JSON object of flat keys. Every float is written
with ``float.hex``, so two files are equal only where the outputs are equal
to the bit; paths and actions are written as lists and strings. A call that
raises is recorded as ``"raises <type>: <message>"``, not stopped on. The keys:

* ``tiny/<instance>/...``: the explicit-data test instances of
  ``tests/conftest.make_instance`` on a grid of 4x4 and 3x4 maps, k = 1 and
  2, ``gp`` and ``lgp``, budget none or 2, nu = 2 and 3 and seeds 0-3. Per
  instance: ``bounded_dp`` both sides (horizon 3), ``exact_dp`` (horizon 2,
  quadrature order 3), ``urtdp``'s root bracket, path counts and first
  action after 60 paths (horizon 3), MES's value, paths, ``exact`` and node
  count and MI's paths and scores (the state's budget set to 2 moves per
  robot); and ``tiny/<rows>x<cols>/k2/gp/steps1-0/seed<s>/{mes,mi}``, the same
  two baselines on the k = 2 ``gp`` instances of both maps, seeds 0-3, with
  budget 2 and robot 0 one step in, so the robots' shares differ;
* ``slow/<model>/<paths>``: ``urtdp`` on the instance of
  ``test_urtdp_full_path_budget_runs_to_completion`` for both models, at
  2,000 paths per search (and at 120,000 with ``--long``): two searches for
  ``lgp``, one for ``gp``, whose EM path count is 0;
* ``closure/<seed>``: the problems ``check_closure`` of ``bench/workloads.py``
  lists for seeds 0, 1000 and 2000, recorded as they are;
* ``readme/k<k>/...``: the README's config at k = 1 and 2, seeds 0-4:
  ``compute_bounds`` (the ``bounds`` verb) and ``run_seed``'s records (the
  ``run`` verb) without their wall times;
* ``field/<i>``: the field model on its own, on 40 seeded instances (grids
  2-39 cells a side, 0-39 data with every eighth history empty, noise 0,
  1e-4, 0.05 or 0.5, length scales 1e-3 to 30): a sha256 of
  ``posterior_marginals``' means and variances over every cell, observed
  cells included, ``map_entropy`` and one ``lognormal_predictor``;
* ``fit/<i>``: ``fit_hyperparams`` on its own, on 40 seeded instances (grids
  2-39 cells a side, 3-60 data: logs of a ``sample_field`` draw plus normal
  noise of deviation 0.1, so a few histories are too short to fit): the mean, signal variance, length scale and noise
  variance fitted on the default grids of 12 and 20 points, and on one
  explicit 3 x 3 x 3 grid whose noise values include 0.0.

The library is whichever ``hotspotplan`` the interpreter imports, so
``PYTHONPATH=<checkout>/src`` fingerprints another checkout with this
script. The second form prints every key whose value differs or that only one
file has, with both values, and exits 1 on any difference, 0 otherwise.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, as in the tests and the benchmark.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def encode(value):
    """``value`` as JSON data, floats as ``float.hex``."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, str) or value is None:
        return value
    if isinstance(value, np.ndarray):
        return encode(value.tolist())
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return repr(value)


def record(out: dict, key: str, fn) -> None:
    """``out[key]`` is ``fn()`` encoded, or the exception it raised."""
    try:
        out[key] = encode(fn())
    except Exception as exc:  # a raise is an output too
        out[key] = f"raises {type(exc).__name__}: {exc}"


def _tiny(out: dict) -> None:
    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import make_instance

    from hotspotplan.planners import PlannerConfig, bounded_dp, exact_dp, mes_nonadaptive, mi_greedy, urtdp

    def baselines(key, problem, d0, s):
        def mes():
            res = mes_nonadaptive(problem, d0, s)
            return res.value, res.paths, res.exact, res.nodes

        def mi():
            res = mi_greedy(problem, d0, s)
            return res.paths, res.scores

        record(out, f"{key}/mes", mes)
        record(out, f"{key}/mi", mi)

    grid = itertools.product(((4, 4), (3, 4)), (1, 2), ("gp", "lgp"), (None, 2), (2, 3), range(4))
    for (rows, cols), k, model, budget, nu, seed in grid:
        key = f"tiny/{rows}x{cols}/k{k}/{model}/budget{budget}/nu{nu}/seed{seed}"
        problem, d0, s0 = make_instance(seed=seed, rows=rows, cols=cols, k=k, model=model, budget=budget)

        def cfg(horizon, paths=1000):
            return PlannerConfig(horizon=horizon, nu=nu, truncation_m=4.0, alpha=1e-3,
                                 max_simulated_paths=paths, seed=seed)

        for side in ("lower", "upper"):
            record(out, f"{key}/bounded_dp/{side}", lambda: bounded_dp(problem, d0, s0, cfg(3), side)[0])
        record(out, f"{key}/exact_dp", lambda: exact_dp(problem, d0, s0, cfg(2), quadrature_order=3))

        def root():
            res = urtdp(problem, d0, s0, cfg(3, paths=60))
            return (res.bounds.lower, res.bounds.upper, res.lower_paths, res.upper_paths,
                    res.exhausted, repr(res.policy.act(s0, d0, 0)))

        record(out, f"{key}/urtdp", root)
        baselines(key, problem, d0, replace(s0, budget=2))
    for (rows, cols), seed in itertools.product(((4, 4), (3, 4)), range(4)):
        problem, d0, s0 = make_instance(seed=seed, rows=rows, cols=cols, k=2, model="gp")
        baselines(f"tiny/{rows}x{cols}/k2/gp/steps1-0/seed{seed}", problem, d0,
                  replace(s0, budget=2, steps=(1, 0)))


def _slow(out: dict, paths: int) -> None:
    from hotspotplan.field_model import Hyperparams, PosteriorData
    from hotspotplan.planners import PlannerConfig, Problem, urtdp
    from hotspotplan.world import GridDomain, RobotPose, TeamState

    rng = np.random.default_rng(7)
    dom = GridDomain(14, 12)
    h = Hyperparams(0.4, 1.3, 2.0, 0.05)
    cells = dom.cells()
    idx = rng.choice(len(cells), 21, replace=False)
    locs = [cells[i] for i in idx if cells[i] != (7, 6)][:20] + [(7, 6)]
    d0 = PosteriorData(locs, 0.4 + rng.standard_normal(len(locs)))
    s0 = TeamState((RobotPose((7, 6), "N"),), frozenset(locs), budget=10)
    cfg = PlannerConfig(horizon=9, nu=2, truncation_m=4.0, alpha=1e-12,
                        max_simulated_paths=paths, seed=0)
    for model in ("lgp", "gp"):
        def run():
            res = urtdp(Problem(dom, h, model), d0, s0, cfg)
            return (res.bounds.lower, res.bounds.upper, res.lower_paths, res.upper_paths,
                    res.exhausted, repr(res.policy.act(s0, d0, 0)))

        record(out, f"slow/{model}/{paths}", run)


def _closure(out: dict) -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import check_closure

    import hotspotplan.field_model
    import hotspotplan.planners
    import hotspotplan.world

    lib = SimpleNamespace(field_model=hotspotplan.field_model, world=hotspotplan.world,
                          planners=hotspotplan.planners)
    for seed in (0, 1000, 2000):
        record(out, f"closure/{seed}", lambda: check_closure(lib, seed))


def readme_config(k: int):
    """The README's example config with a team of ``k`` robots."""
    from hotspotplan.harness import ExperimentConfig, validate_config

    return validate_config(ExperimentConfig(
        rows=14, cols=12, team_size=k, budget_per_robot=9, prior_units=20,
        policies=("urtdp", "greedy", "mes", "mi"), models=("lgp", "lgp", "gp", "gp"),
        seeds=(0, 1, 2, 3, 4), nu=3, truncation_m=4.0, alpha=0.05, max_simulated_paths=100,
        field_mean=0.4, field_signal_variance=1.3, field_length_scale=2.0,
        field_noise_variance=0.05))


def _readme(out: dict) -> None:
    from hotspotplan.harness import compute_bounds, run_seed

    for k in (1, 2):
        cfg = readme_config(k)
        for seed in cfg.seeds:
            def bounds():
                res = compute_bounds(cfg, seed)
                return res.bounds.lower, res.bounds.upper, res.lower_paths, res.upper_paths, res.exhausted

            record(out, f"readme/k{k}/bounds/{seed}", bounds)
            try:
                records = run_seed(cfg, seed)
            except Exception as exc:
                out[f"readme/k{k}/run/{seed}"] = f"raises {type(exc).__name__}: {exc}"
                continue
            for r in records:
                fields = {name: value for name, value in vars(r).items() if name != "wall_time_s"}
                out[f"readme/k{k}/run/{seed}/{r.policy}/{r.model}"] = encode(
                    [[name, value] for name, value in fields.items()])


def _field(out: dict) -> None:
    from hotspotplan.field_model import (Hyperparams, PosteriorData, lognormal_predictor, map_entropy,
                                         posterior_marginals)
    from hotspotplan.world import GridDomain

    rng = np.random.default_rng(24)
    for i in range(40):
        dom = GridDomain(*(int(n) for n in rng.integers(2, 40, size=2)))
        ell = float(np.exp(rng.uniform(math.log(1e-3), math.log(30.0))))
        h = Hyperparams(float(rng.normal()), float(rng.uniform(0.2, 3.0)), ell,
                        float(rng.choice([0.0, 1e-4, 0.05, 0.5])))
        cells = dom.cells()
        m = 0 if i % 8 == 0 else int(rng.integers(0, min(40, dom.size)))
        locs = [cells[j] for j in rng.choice(dom.size, m, replace=False)]
        d = PosteriorData(locs, h.mean + rng.standard_normal(m))
        x = locs[0] if m and i % 2 else cells[int(rng.integers(dom.size))]  # odd: an observed cell
        key = f"field/{i}/{dom.rows}x{dom.cols}/m{m}"

        def marginals():
            mean, var = posterior_marginals(d, cells, h)
            return hashlib.sha256(np.concatenate([mean, var]).astype(np.float64).tobytes()).hexdigest()

        record(out, f"{key}/marginals", marginals)
        record(out, f"{key}/map_entropy", lambda: map_entropy(d, dom, h))
        record(out, f"{key}/predictor", lambda: lognormal_predictor(d, x, h))


def _fit(out: dict) -> None:
    from hotspotplan.field_model import Hyperparams, PosteriorData, fit_hyperparams, sample_field
    from hotspotplan.world import GridDomain

    rng = np.random.default_rng(40)
    for i in range(40):
        dom = GridDomain(*(int(n) for n in rng.integers(2, 40, size=2)))
        h = Hyperparams(float(rng.normal()), float(rng.uniform(0.2, 3.0)),
                        float(np.exp(rng.uniform(math.log(0.3), math.log(20.0)))), 0.0)
        field = sample_field(h, dom, seed=int(rng.integers(2**31)))
        cells = dom.cells()
        m = int(rng.integers(3, min(60, dom.size) + 1))
        locs = [cells[j] for j in rng.choice(dom.size, m, replace=False)]
        d = PosteriorData(locs, [math.log(field[c]) + float(rng.normal(0.0, 0.1)) for c in locs])
        key = f"fit/{i}/{dom.rows}x{dom.cols}/m{m}"

        def fitted(**grids):
            fit = fit_hyperparams(d, dom, **grids)
            return fit.mean, fit.signal_variance, fit.length_scale, fit.noise_variance

        for points in (12, 20):
            record(out, f"{key}/points{points}", lambda: fitted(grid_points=points))
        record(out, f"{key}/explicit", lambda: fitted(signal_grid=[0.3, 1.0, 3.0], length_grid=[0.7, 1.5, 4.0],
                                                      noise_grid=[0.0, 0.01, 0.1]))


def fingerprint(long: bool = False) -> dict:
    """Every key of the fingerprint, in a fixed order."""
    out: dict = {}
    steps = [("tiny", _tiny), ("slow", lambda o: _slow(o, 2_000)), ("closure", _closure),
             ("readme", _readme), ("field", _field), ("fit", _fit)]
    if long:
        steps.append(("long", lambda o: _slow(o, 120_000)))
    for name, step in steps:
        t0 = time.perf_counter()
        step(out)
        print(f"{name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr, flush=True)
    return out


def compare(a: dict, b: dict) -> list[str]:
    """One line per key whose value differs between ``a`` and ``b`` or that
    only one of them has, in ``a``'s key order and then ``b``'s."""
    missing = object()
    lines = []
    for key in list(a) + [key for key in b if key not in a]:
        va, vb = a.get(key, missing), b.get(key, missing)
        if va != vb:
            show = ["(absent)" if v is missing else json.dumps(v) for v in (va, vb)]
            lines.append(f"{key}: {show[0]} -> {show[1]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", help="write the fingerprint to this JSON file")
    action.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two fingerprints")
    parser.add_argument("--long", action="store_true", help="add the 120,000-path brackets")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        lines = compare(a, b)
        print("\n".join(lines) if lines else f"identical: {len(a)} keys")
        if lines:
            print(f"{len(lines)} of {len(set(a) | set(b))} keys differ", file=sys.stderr)
        return 1 if lines else 0
    Path(args.out).write_text(json.dumps(fingerprint(args.long), indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Comparing exploration policies on synthetic hotspot fields.

Rolls out the anytime adaptive planner (log-scale field model), adaptive
greedy, maximum entropy sampling and the MI-based baseline on the same
fields, then reports posterior map entropy (ENT) and mean-squared relative
error (ERR). Lower is better on both.

Run:  python3 demos/policy_comparison.py   (a few seconds)
"""

import numpy as np

from hotspotplan.harness import ExperimentConfig, run_seed, validate_config

cfg = validate_config(
    ExperimentConfig(
        rows=8,
        cols=8,
        team_size=1,
        budget_per_robot=8,
        prior_units=10,
        policies=("urtdp", "greedy", "mes", "mi"),
        models=("lgp", "lgp", "gp", "gp"),
        seeds=(0, 1, 2),
        nu=3,
        alpha=0.05,
        max_simulated_paths=60,
        mes_node_budget=30_000,
        fit_grid_points=8,
        field_mean=0.4,
        field_signal_variance=1.3,
        field_length_scale=1.8,
        field_noise_variance=0.05,
    )
)

rows = {}
for seed in cfg.seeds:
    for rec in run_seed(cfg, seed):
        rows.setdefault((rec.policy, rec.model), []).append(rec)
        print(
            f"seed {seed}: {rec.policy:6s}/{rec.model:3s} ent={rec.ent:8.3f} "
            f"err={rec.err:7.4f} plan={rec.wall_time_s:5.2f}s"
            + ("  [dead end]" if rec.dead_ended else "")
        )

means = {arm: (np.mean([r.ent for r in recs]), np.mean([r.err for r in recs]))
         for arm, recs in rows.items()}
print("\naverages over seeds (lower is better):")
print(f"{'policy':>8} {'model':>6} {'ENT':>10} {'ERR':>10}")
for (policy, model), (ent, err) in means.items():
    print(f"{policy:>8} {model:>6} {ent:>10.3f} {err:>10.4f}")

best_ent = min(means, key=lambda arm: means[arm][0])
best_err = min(means, key=lambda arm: means[arm][1])
print(
    f"\nLowest mean ENT: {'/'.join(best_ent)}; lowest mean ERR: {'/'.join(best_err)}."
    f"\n{len(cfg.seeds)} seeds on one {cfg.rows}x{cfg.cols} config are a data point, not a verdict."
)

"""Anytime planning: URTDP bounds narrowing with simulated paths.

The trial-based solver grows a search tree of lower and upper bounds for the
bounded problems and tightens them along outcome-sampled paths, so planning
can stop any time with a certified bracket. This demo snapshots the root
bracket as trials accumulate, then extracts the greedy-on-lower-bound policy.

Run:  python3 demos/anytime_planning.py
"""

from hotspotplan import (
    GridDomain,
    Hyperparams,
    PlannerConfig,
    PosteriorData,
    Problem,
    RobotPose,
    TeamState,
    bounded_dp,
    urtdp_policy,
)
from hotspotplan.world import action_target

domain = GridDomain(4, 4)
h = Hyperparams(mean=0.3, signal_variance=1.0, length_scale=1.5, noise_variance=0.01)
problem = Problem(domain, h, "lgp")
d0 = PosteriorData([(1, 2), (3, 0), (0, 0)], [0.9, -0.2, 0.4])
s0 = TeamState((RobotPose((0, 0), "S"),), frozenset(d0.locations))
cfg = PlannerConfig(horizon=3, nu=4, alpha=1e-9, max_simulated_paths=100_000, seed=0)

# the replanning policy's Jensen-problem instance; its trials draw child 0 of
# SeedSequence(cfg.seed)
inst = urtdp_policy(problem, cfg).instance
print(f"{'paths':>6} {'lower':>12} {'upper':>12} {'gap':>12}")
for batch in (0, 1, 3, 10, 30, 100, 300, 1000):
    while inst.paths_run < batch:
        inst.simulated_path(d0, s0, 0)
    b = inst.root_bounds(d0, s0, 0)
    print(f"{inst.paths_run:>6} {b.lower:>12.6f} {b.upper:>12.6f} {b.gap:>12.6f}")

truth, _ = bounded_dp(problem, d0, s0, cfg, "lower")
print(f"\nexhaustive lower-problem value: {truth:.6f} (the bounds close onto it)")

# greedy-on-lower-bound action at the root
best = max(inst.root_q_values(d0, s0, 0), key=lambda t: t[1])
print(f"chosen first move: robot {best[0].robot_index} goes {best[0].move} "
      f"-> cell {action_target(s0, best[0]).cell}")

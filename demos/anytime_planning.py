"""Anytime planning: URTDP bounds narrowing with simulated paths.

The trial-based solver grows a search tree of lower and upper bounds for the
bounded problems and tightens them along outcome-sampled paths, so planning
can stop any time with a certified bracket. This demo runs ``urtdp`` with a
growing path budget, prints the certified root bracket (Jensen-problem lower
bound, EM-problem upper bound) after each, compares it with the exhaustive
values of both bounded problems, and takes the policy's first move.

Run:  python3 demos/anytime_planning.py
"""

from dataclasses import replace

from hotspotplan import (
    GridDomain,
    Hyperparams,
    PlannerConfig,
    PosteriorData,
    Problem,
    RobotPose,
    TeamState,
    bounded_dp,
    urtdp,
)
from hotspotplan.world import action_target

domain = GridDomain(4, 4)
h = Hyperparams(mean=0.3, signal_variance=1.0, length_scale=1.5, noise_variance=0.01)
problem = Problem(domain, h, "lgp")
d0 = PosteriorData([(1, 2), (3, 0), (0, 0)], [0.9, -0.2, 0.4])
s0 = TeamState((RobotPose((0, 0), "S"),), frozenset(d0.locations))
cfg = PlannerConfig(horizon=3, nu=4, alpha=1e-9, max_simulated_paths=100_000, seed=0)

print(f"{'budget':>6} {'paths (J/EM)':>13} {'lower':>12} {'upper':>12} {'gap':>12}")
for budget in (1, 3, 10, 30, 100, 300, 1000):
    result = urtdp(problem, d0, s0, replace(cfg, max_simulated_paths=budget))
    b = result.bounds
    paths = f"{result.lower_paths}/{result.upper_paths}"
    print(f"{budget:>6} {paths:>13} {b.lower:>12.6f} {b.upper:>12.6f} {b.gap:>12.6f}")

lower, _ = bounded_dp(problem, d0, s0, cfg, "lower")
upper, _ = bounded_dp(problem, d0, s0, cfg, "upper")
print(f"\nexhaustive Jensen-problem value: {lower:.6f}")
print(f"exhaustive EM-problem value:     {upper:.6f} (the bracket closes onto both)")

# the policy is greedy on the Jensen-problem lower bounds; it replans from s0
a = result.policy.act(s0, d0, 0)
print(f"chosen first move: robot {a.robot_index} goes {a.move} "
      f"-> cell {action_target(s0, a).cell}")

"""Sampling hotspot fields and watching the posterior sharpen.

A hotspot field is a positive, spatially correlated field whose log is a
Gaussian process. Sampling the joint GP and exponentiating produces fields
with a few extreme patches; conditioning on a handful of observations pulls
the predictive map toward the truth.

Run:  python3 demos/field_sampling.py
"""

import math

import numpy as np

from hotspotplan import (
    GridDomain,
    Hyperparams,
    PosteriorData,
    lognormal_predictor,
    posterior_marginals,
    sample_field,
)


def ascii_heat(grid, levels=" .:-=+*#%@"):
    lo, hi = grid.min(), grid.max()
    span = (hi - lo) or 1.0
    rows = []
    for r in range(grid.shape[0]):
        idx = ((grid[r] - lo) / span * (len(levels) - 1)).astype(int)
        rows.append("".join(levels[i] for i in idx))
    return "\n".join(rows)


domain = GridDomain(14, 12)
h = Hyperparams(mean=0.4, signal_variance=1.5, length_scale=2.0, noise_variance=0.01)

field = sample_field(h, domain, seed=7)
print("One hotspot field realization (darker = larger):")
print(ascii_heat(field))
values = field.ravel()
print(
    f"\npositive skew: mean={values.mean():.2f} median={np.median(values):.2f} "
    f"max={values.max():.2f} (mean > median is the lognormal signature)"
)

# observe a scattered handful of cells and predict the rest
rng = np.random.default_rng(3)
cells = domain.cells()
obs = [cells[i] for i in rng.choice(len(cells), size=25, replace=False)]
d = PosteriorData(obs, [math.log(field[c]) for c in obs])

pred = np.array([[lognormal_predictor(d, (r, c), h) for c in range(domain.cols)]
                 for r in range(domain.rows)])
rel_err = np.abs(field - pred) / field.mean()
print("\nAbsolute relative error of the lognormal predictor after 25 observations:")
print(ascii_heat(rel_err))

var = posterior_marginals(d, [c for c in cells if c not in set(obs)], h)[1]
print(
    f"\nposterior log-scale variance: prior {h.prior_variance:.3f} -> "
    f"mean over unobserved cells {var.mean():.3f}"
)

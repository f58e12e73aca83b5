"""Output checks, computed apart from the program.

Every check here uses the benchmark's own Gaussian-process arithmetic: a
squared-exponential kernel plus the nugget wherever two cells coincide (so a
repeated cell is the same noisy measurement, as in hotspotplan), solved with
numpy. Nothing here calls hotspotplan's field model. A check returns a list
of failure messages; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

LOG_2PI_E = math.log(2.0 * math.pi * math.e)
REL = 1e-9  # relative tolerance of every comparison with the program's outputs

_STEP = {"N": (-1, 0), "E": (0, 1), "S": (1, 0), "W": (0, -1)}
_TURNS = {
    "N": ("N", "W", "E"),
    "E": ("E", "N", "S"),
    "S": ("S", "E", "W"),
    "W": ("W", "S", "N"),
}


def close(a: float, b: float) -> bool:
    """Agreement to ``REL * (1 + |b|)``."""
    return abs(a - b) <= REL * (1.0 + abs(b))


def at_most(a: float, b: float) -> bool:
    """``a <= b`` up to ``REL * (1 + |b|)``."""
    return a <= b + REL * (1.0 + abs(b))


def kernel(cells_a, cells_b, h) -> np.ndarray:
    """Measurement covariance between two cell lists."""
    a = np.asarray(cells_a, dtype=float).reshape(-1, 2)
    b = np.asarray(cells_b, dtype=float).reshape(-1, 2)
    d2 = (a[:, None, 0] - b[None, :, 0]) ** 2
    d2 += (a[:, None, 1] - b[None, :, 1]) ** 2
    k = np.exp(d2 / (-2.0 * h.length_scale**2))
    k *= h.signal_variance
    k += h.noise_variance * (d2 == 0.0)
    return k


def posterior_moments(h, obs_cells, obs_z, targets):
    """Posterior means and marginal variances at ``targets``."""
    k_oo = kernel(obs_cells, obs_cells, h)
    k_ot = kernel(obs_cells, targets, h)
    weights = np.linalg.solve(k_oo, k_ot)
    mean = h.mean + weights.T @ (np.asarray(obs_z, dtype=float) - h.mean)
    var = h.signal_variance + h.noise_variance - np.einsum("ot,ot->t", k_ot, weights)
    return mean, var


def joint_entropy(h, obs_cells, targets) -> float:
    """Gaussian (log-scale) joint entropy of ``targets`` given ``obs_cells``."""
    k_oo = kernel(obs_cells, obs_cells, h)
    k_ot = kernel(obs_cells, targets, h)
    cov = kernel(targets, targets, h) - k_ot.T @ np.linalg.solve(k_oo, k_ot)
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        return math.nan
    return 0.5 * (len(targets) * LOG_2PI_E + logdet)


def prior_entropy(h, cells) -> float:
    """Gaussian joint entropy of ``cells`` under the prior."""
    sign, logdet = np.linalg.slogdet(kernel(cells, cells, h))
    if sign <= 0:
        return math.nan
    return 0.5 * (len(cells) * LOG_2PI_E + logdet)


def ent_err(h, field, all_cells, all_entropy, obs_cells, obs_z):
    """ENT and ERR of a final observation set.

    ENT is H(unobserved | observed) plus the posterior means of the
    unobserved cells, with the conditional entropy taken by the chain rule
    as H(all cells) - H(observed cells); ``all_entropy`` is H(all cells).
    ERR is the mean squared error of the lognormal predictor over every
    cell, relative to the field mean.
    """
    mean, var = posterior_moments(h, obs_cells, obs_z, all_cells)
    observed = set(obs_cells)
    unobserved = np.array([c not in observed for c in all_cells])
    ent = all_entropy - prior_entropy(h, obs_cells) + float(mean[unobserved].sum())
    truth = field.ravel()
    pred = np.exp(mean + 0.5 * var)
    err = float(np.mean(((truth - pred) / truth.mean()) ** 2))
    return ent, err


def path_problems(rows, cols, starts, headings, blocked, paths, budget) -> list[str]:
    """Legality of per-robot paths: each starts at its robot's start, moves
    front/left/right of its heading inside the grid, and no cell is entered
    twice or after it was observed (prior data or another robot)."""
    out = []
    if len(paths) != len(starts):
        return [f"{len(paths)} paths for {len(starts)} robots"]
    entered = set()
    for i, (path, start, heading) in enumerate(zip(paths, starts, headings)):
        if tuple(path[0]) != tuple(start):
            out.append(f"robot {i} starts at {path[0]}, not {start}")
            continue
        if len(path) - 1 > budget:
            out.append(f"robot {i} takes {len(path) - 1} steps, budget {budget}")
        for a, b in zip(path, path[1:]):
            step = (b[0] - a[0], b[1] - a[1])
            turned = [hd for hd in _TURNS[heading] if _STEP[hd] == step]
            if not turned:
                out.append(f"robot {i} moves {a}->{b} against heading {heading}")
                break
            heading = turned[0]
            if not (0 <= b[0] < rows and 0 <= b[1] < cols):
                out.append(f"robot {i} leaves the grid at {b}")
            if tuple(b) in blocked or tuple(b) in entered:
                out.append(f"robot {i} re-enters observed cell {b}")
            entered.add(tuple(b))
    return out


def move_sequences(rows, cols, start, heading, blocked, steps, cap, boxed_in=True) -> int:
    """Legal move sequences of one robot that run ``steps`` moves or, if
    ``boxed_in``, end boxed in before that; counted up to ``cap``."""
    taken = set(blocked) | {tuple(start)}
    count = 0

    def walk(cell, heading, left):
        nonlocal count
        if count >= cap:
            return
        if left == 0:
            count += 1
            return
        moved = False
        for nh in _TURNS[heading]:
            nxt = (cell[0] + _STEP[nh][0], cell[1] + _STEP[nh][1])
            if 0 <= nxt[0] < rows and 0 <= nxt[1] < cols and nxt not in taken:
                taken.add(nxt)
                walk(nxt, nh, left - 1)
                taken.discard(nxt)
                moved = True
        if not moved and boxed_in:
            count += 1

    walk(tuple(start), heading, steps)
    return min(count, cap)


def greedy_problems(h, lgp, rows, cols, budget, d_cells, d_z, starts, headings, paths, z_of):
    """Replays the paths stage by stage: the move taken at each stage must
    be an argmax of the one-step reward over every robot's legal moves."""
    cells, zs = list(d_cells), list(d_z)
    taken = set(cells)
    pos, hd = list(starts), list(headings)
    steps = [0] * len(starts)
    for stage in range(sum(len(p) - 1 for p in paths)):
        moves = []
        for i, (cell, heading) in enumerate(zip(pos, hd)):
            if steps[i] >= budget:
                continue
            for nh in _TURNS[heading]:
                nxt = (cell[0] + _STEP[nh][0], cell[1] + _STEP[nh][1])
                if 0 <= nxt[0] < rows and 0 <= nxt[1] < cols and nxt not in taken:
                    moves.append((i, nxt, nh))
        followed = [j for j, (i, nxt, _) in enumerate(moves)
                    if steps[i] + 1 < len(paths[i]) and tuple(paths[i][steps[i] + 1]) == nxt]
        if not followed:
            return [f"stage {stage}: no robot's next cell is a legal move"]
        mean, var = posterior_moments(h, cells, zs, [m[1] for m in moves])
        reward = 0.5 * (LOG_2PI_E + np.log(var)) + (mean if lgp else 0.0)
        j = max(followed, key=lambda j: reward[j])
        best = float(reward.max())
        if not at_most(best, reward[j]):
            return [f"stage {stage}: moved to {moves[j][1]} (reward {reward[j]}), best {best}"]
        i, nxt, nh = moves[j]
        pos[i], hd[i] = nxt, nh
        steps[i] += 1
        cells.append(nxt)
        zs.append(z_of[nxt])
        taken.add(nxt)
    return []

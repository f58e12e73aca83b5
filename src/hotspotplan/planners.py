"""Exploration planners over the grid world and GP/log-GP field models.

The strictly adaptive problem takes one new observation per stage over
stages ``0..t`` (so ``t + 1`` observations total, ``t = k*n - 1`` for ``k``
robots with per-robot budget ``n``). Expectations over the continuous
measurement outcome are handled three ways:

* ``exact_dp``     - Gauss-Legendre quadrature over the truncated outcome;
* ``bounded_dp``   - generalized Jensen (lower) or Edmundson-Madansky
                     (upper) weighted sums, solved exhaustively;
* ``urtdp``        - anytime trial-based solver that grows a search tree of
                     lower/upper bounds for the Jensen and EM problems and
                     tightens them along simulated paths; the two searches
                     run side by side, the EM one in a forked child process.

The exhaustive solvers (``exact_dp`` and ``bounded_dp``) share one
vectorized tree recursion parameterized by the standardized outcome points,
and every planner maximizes one stage reward
(:func:`_reward`): the entropy ``0.5 * log(2 pi e v)`` of the revealed log
measurement (:func:`_entropy`, which MES sums as well), plus its posterior
log-mean for the log-GP model (the original-scale entropy). Its one
per-stage upper bound is :func:`_stage_max`. Every conditioning goes through
one GP factor, ``field_model.IncrementalPosterior``, extended (by a branch
outcome's standardized point ``zeta``, never its value) and popped along
each search: the exhaustive solver's depth-first recursion, URTDP's
trials and windows, MES's branch and bound, MI's selected set and the
greedy planner's candidate batch. Each factor gathers its kernel entries
from the problem's one ``kernel_table``, so its cost never grows with the map.
MI's other variance, each candidate's given every unselected cell, comes from
the map's spectrum (``field_model.MapSpectrum``), with no map-sized factor.

Below its root, URTDP's state space is a tree: a history holds every
location and outcome in order, so two branches never meet. A node is its
``[lower, upper]`` pair; once expanded it also holds one record per action
with the reward, the observed cell and the child nodes, one per outcome
point. A trial walks the root's one factor down the tree, extending it by
each observed cell and outcome point, so no history, state or key is
stored below the root.

URTDP seeds a child's lower bound with a certainty-equivalent rollout: the
greedy continuation that feeds each posterior mean back as the observation.
That feedback has zero innovation, so it leaves every posterior mean
unchanged; the rollout's value is therefore affine in the child's outcome.
A node's first visit builds one window, the joint posterior of the cells
its actions and their children's rollouts can enter; the rollouts run on it
in Python floats, and each slope is read off its covariance
(:meth:`_UrtdpInstance._init_children`). Non-adaptive baselines (maximum
entropy sampling, MI-based greedy) commit their paths from the prior data.

Every planner steps the constrained joint actions, one robot move per
stage (MES's branch and bound one per node, robots in turn). Policies act
at a ``TeamState``; every search steps one :class:`_Walk` and undoes it.
"""

from __future__ import annotations

import math
import multiprocessing
import operator
import os
import threading
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import accumulate
from multiprocessing.connection import wait

import numpy as np

from .discretization import standardized_rule, truncated_quadrature_rule
from .errors import BoundsCrossed, DeadEnd, DegenerateCovariance, InstanceTooLarge, SingularGram
from .field_model import (
    LOG_2PI_E,
    Hyperparams,
    IncrementalPosterior,
    KernelTable,
    PosteriorData,
    map_spectrum,
)
from .world import (
    MOVE_DELTA,
    ConstrainedJointAction,
    GridDomain,
    TeamState,
    action_target,
    constrained_actions,
    legal_moves,
)

MODELS = ("gp", "lgp")

# exhaustive-solver tractability guards
EXACT_MAX_HORIZON = 4
EXACT_MAX_CELLS = 16
BOUNDED_MAX_LEAVES = 5e8


@dataclass(frozen=True)
class Problem:
    """A planning instance: grid, fitted hyperparameters, measurement model."""

    domain: GridDomain
    hyper: Hyperparams
    model: str = "lgp"

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")

    @property
    def is_lgp(self) -> bool:
        return self.model == "lgp"

    @cached_property
    def kernel_table(self) -> KernelTable:
        """The kernel table every factor of this problem reads."""
        return KernelTable(self.hyper, self.domain)

    @cached_property
    def _diamonds(self) -> dict:
        return {}

    def diamond(self, cell, reach: int) -> tuple:
        """The grid cells within ``reach`` moves of ``cell``, row-major; kept."""
        cells = self._diamonds.get((cell, reach))
        if cells is None:
            (r, c), rows, cols, cells = cell, self.domain.rows, self.domain.cols, []
            for r2 in range(max(r - reach, 0), min(r + reach + 1, rows)):
                span = reach - abs(r2 - r)
                cells += [(r2, c2) for c2 in range(max(c - span, 0), min(c + span + 1, cols))]
            cells = self._diamonds[cell, reach] = tuple(cells)
        return cells


@dataclass(frozen=True)
class PlannerConfig:
    """Common planner knobs. ``horizon`` is the last stage index t."""

    horizon: int
    nu: int = 4
    truncation_m: float = 4.0
    alpha: float = 1e-3
    max_simulated_paths: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.nu < 1 or not 0 < self.truncation_m < math.inf or not 0 < self.alpha < math.inf:
            raise ValueError("nu, truncation_m and alpha must be positive and finite")
        if self.max_simulated_paths < 1:
            raise ValueError("max_simulated_paths must be positive")


@dataclass
class ValueBounds:
    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper + 1e-9:
            raise BoundsCrossed(f"bounds crossed: {self.lower} > {self.upper}")

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def state_key(stage: int, s: TeamState, d: PosteriorData) -> tuple:
    """Canonical hashable encoding of a planning state; URTDP keys its roots
    by it.

    Measurement values enter at full precision: adaptive values genuinely
    depend on them. The visited set is implied by the location tuple.
    """
    return (stage, s.poses, s.steps, d.locations, d.z.tobytes())


def _entropy(var):
    """Gaussian entropy (nats) of a measurement with variance ``var`` (vectorized)."""
    return 0.5 * (LOG_2PI_E + np.log(var))


def _reward(problem: Problem, mu, var):
    """Stage reward of revealing measurements with posterior log-means ``mu``
    and variances ``var`` (vectorized): the log-scale entropy, plus the
    log-mean for the log-GP model (original-scale entropy)."""
    return _entropy(var) + mu if problem.is_lgp else _entropy(var)


def _stage_max(problem: Problem, config: PlannerConfig) -> float:
    """Upper bound on one stage's reward: the prior-variance entropy, plus
    (log-GP) the largest mean inside the truncated support."""
    h = problem.hyper
    sd = math.sqrt(h.prior_variance)
    return float(_reward(problem, h.mean + config.truncation_m * sd, h.prior_variance))


def stagewise_reward(problem: Problem, s: TeamState, a, d: PosteriorData) -> float:
    """Entropy of the measurement revealed by taking the constrained action
    ``a`` in ``s``.

    Log-scale Gaussian entropy for the GP model; plus the posterior mean for
    the log-GP model (original-scale entropy). The cost depends on the
    history length only, never on the domain size.
    """
    inc = IncrementalPosterior(problem.kernel_table, d.locations, d.z, len(d))
    mu, var = inc.batch([action_target(s, a).cell])
    return float(_reward(problem, mu[0], var[0]))


class _Walk:
    """A team state walked in place on ``domain``: ``(cell, heading)`` poses, step
    counts, visited set, per-robot ``budget`` (the state's unless given), the
    ``trail`` of steps to undo, and :meth:`moves`, every search's move enumeration."""

    def __init__(self, s: TeamState, domain: GridDomain, budget: int | None = None):
        self.poses = [(p.cell, p.heading) for p in s.poses]
        self.steps, self.visited, self.domain = list(s.steps), set(s.visited), domain
        self.budget = s.budget if budget is None else budget
        self.trail = []

    def moves(self, robot: int | None = None):
        """Yield the legal ``(robot, move, cell, heading)`` (of ``robot`` alone, if
        given) in :func:`legal_moves`' order; a step taken while they are read is
        undone before the next."""
        return legal_moves(self.poses, self.visited, self.steps, self.budget, self.domain, robot)

    def step(self, i: int, cell, heading: str) -> None:
        self.trail.append((i, self.poses[i]))
        self.poses[i] = (cell, heading)
        self.steps[i] += 1
        self.visited.add(cell)

    def undo(self, count: int = 1) -> None:
        """Take back the last ``count`` steps."""
        for _ in range(count):
            i, pose = self.trail.pop()
            self.visited.discard(self.poses[i][0])
            self.poses[i] = pose
            self.steps[i] -= 1


# ---------------------------------------------------------------------------
# Exhaustive tree solver (exact quadrature / Jensen lower / EM upper)
# ---------------------------------------------------------------------------


class _TreeSolver:
    """Exhaustive strictly-adaptive DP with a fixed standardized outcome rule.

    The measurement branches are vectorized: at recursion depth ``j`` values
    are arrays of shape ``(B,)**j`` where ``B`` is the number of outcome
    points. Posterior covariances never depend on measurement values, so one
    factor, extended by innovation 0 and popped along the depth-first
    recursion, serves every branch: a target's mean on branch axis ``j``
    adds ``zeta`` times its whitened column's entry for tree observation ``j``.
    """

    def __init__(self, problem, weights, points, n_actions):
        self.problem = problem
        self.w = np.asarray(weights, dtype=float)
        self.zeta = np.asarray(points, dtype=float)
        self.n_actions = n_actions
        self._inc = self._walk = None

    def solve(self, s: TeamState, d: PosteriorData):
        """Return (value, [(action, q)]) at the root state."""
        self._inc = IncrementalPosterior(
            self.problem.kernel_table, d.locations, d.z, len(d) + self.n_actions
        )
        self._walk = _Walk(s, self.problem.domain)
        q_list = [(ConstrainedJointAction(i, mv), float(self._q(0, i, x, heading)))
                  for i, mv, x, heading in list(self._walk.moves())]
        value = max((q for _, q in q_list), default=0.0)
        return value, q_list

    def _q(self, depth, i, x, heading):
        inc, b = self._inc, self.zeta.shape[0]
        (mu,), (var,) = inc.batch([x])
        if var <= 0:
            raise DegenerateCovariance(f"non-positive posterior variance at {x}")
        for j, c in enumerate(inc.columns[inc.m - depth:, 0]):
            mu = mu + c * self.zeta.reshape((b,) + (1,) * (depth - j - 1))
        reward = _reward(self.problem, mu, var)
        if depth == self.n_actions - 1:
            return np.broadcast_to(np.asarray(reward, dtype=float), (b,) * depth)
        inc.extend(x, 0.0, inc.columns[:, 0])
        self._walk.step(i, x, heading)
        child = self._value(depth + 1)
        self._walk.undo()
        inc.pop(1)
        return reward + np.tensordot(child, self.w, axes=(-1, 0))

    def _value(self, depth):
        shape = (self.zeta.shape[0],) * depth
        moves = list(self._walk.moves())
        if not moves:
            # dead end: remaining stages contribute nothing
            return np.zeros(shape)
        best = reduce(np.maximum, (self._q(depth, i, x, hd) for i, _, x, hd in moves))
        return np.broadcast_to(best, shape)


def _check_bounded_size(problem: Problem, s0: TeamState, config: PlannerConfig, points: int):
    """Refuse an exhaustive solve that would touch more than
    ``BOUNDED_MAX_LEAVES`` outcome branches.

    A move sequence from ``s0`` that ends after ``j`` moves ends in a branch
    array of ``points**(j - 1)`` elements (``points**horizon`` at full
    length). The sequences are walked on one :class:`_Walk`, stepped and
    undone, and the walk stops as soon as their total passes the limit.
    """
    length, walk, leaves = config.horizon + 1, _Walk(s0, problem.domain), 0.0

    def over(depth):
        nonlocal leaves
        moves = [] if depth == length else list(walk.moves())
        if not moves:
            leaves += float(points) ** max(depth - 1, 0)
            return leaves > BOUNDED_MAX_LEAVES
        for i, _, cell, heading in moves:
            walk.step(i, cell, heading)
            stop = over(depth + 1)
            walk.undo()
            if stop:
                return True
        return False

    if over(0):
        raise InstanceTooLarge(
            f"exhaustive bounded solve would touch more than {BOUNDED_MAX_LEAVES:.0e} branches"
        )


def exact_dp(
    problem: Problem,
    d0: PosteriorData,
    s0: TeamState,
    config: PlannerConfig,
    quadrature_order: int = 32,
) -> float:
    """Optimal strictly adaptive value with quadrature expectations.

    Each outcome expectation uses a composite quantile-panel rule on the same
    truncated support the bounded solvers use (``quadrature_order`` panels,
    four Gauss-Legendre nodes each), so the Jensen/EM values honor the
    sandwich around this oracle to quadrature accuracy. Restricted to tiny
    instances.
    """
    if config.horizon > EXACT_MAX_HORIZON or problem.domain.size > EXACT_MAX_CELLS:
        raise InstanceTooLarge(
            f"exact_dp limited to horizon <= {EXACT_MAX_HORIZON} and "
            f"<= {EXACT_MAX_CELLS} cells"
        )
    w, zeta = truncated_quadrature_rule(quadrature_order, config.truncation_m)
    if float(len(zeta)) ** config.horizon > 5e7:
        raise InstanceTooLarge(
            "quadrature branching exceeds memory budget; lower quadrature_order"
        )
    solver = _TreeSolver(problem, w, zeta, config.horizon + 1)
    value, _ = solver.solve(s0, d0)
    return value


def bounded_dp(
    problem: Problem,
    d0: PosteriorData,
    s0: TeamState,
    config: PlannerConfig,
    side: str = "lower",
):
    """Exhaustive solve of the Jensen-lower or EM-upper approximate problem.

    ``side="lower"`` also returns the induced greedy policy, which re-solves
    the lower problem from whatever state it is asked to act in.
    """
    if side not in ("lower", "upper"):
        raise ValueError("side must be 'lower' or 'upper'")
    rule = "jensen" if side == "lower" else "em"
    w, zeta = standardized_rule(config.nu, config.truncation_m, rule)
    _check_bounded_size(problem, s0, config, len(zeta))
    solver = _TreeSolver(problem, w, zeta, config.horizon + 1)
    value, _ = solver.solve(s0, d0)
    if side == "lower":
        return value, BoundedLowerPolicy(problem, config)
    return value, None


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class Policy:
    """Maps (team state, history, stage) to a constrained joint action.

    Adaptive policies consult the history; non-adaptive ones replay a path
    committed from the prior data alone.
    """

    def act(self, s: TeamState, d: PosteriorData, stage: int) -> ConstrainedJointAction:
        raise NotImplementedError


class BoundedLowerPolicy(Policy):
    """Greedy policy induced by the Jensen-lower problem, solved exhaustively
    from the current state each time it acts."""

    def __init__(self, problem: Problem, config: PlannerConfig):
        self.problem = problem
        self.config = config
        self._w, self._zeta = standardized_rule(config.nu, config.truncation_m, "jensen")

    def act(self, s, d, stage):
        remaining = self.config.horizon - stage + 1
        if remaining < 1:
            raise ValueError("policy asked to act beyond its horizon")
        solver = _TreeSolver(self.problem, self._w, self._zeta, remaining)
        _, q_list = solver.solve(s, d)
        if not q_list:
            raise DeadEnd("no legal action")
        return max(q_list, key=lambda aq: aq[1])[0]


class GreedyPolicy(Policy):
    """Repeatedly takes the reward-maximizing action (zero-lookahead)."""

    def __init__(self, problem: Problem):
        self.problem = problem

    def act(self, s, d, stage):
        return greedy_adaptive(self.problem, d, s)


class NonAdaptivePolicy(Policy):
    """Replays a pre-committed sequence of constrained actions."""

    def __init__(self, actions):
        self.actions = list(actions)

    def act(self, s, d, stage):
        if stage >= len(self.actions):
            raise DeadEnd("pre-committed path exhausted")
        return self.actions[stage]


def greedy_adaptive(problem: Problem, d: PosteriorData, s: TeamState) -> ConstrainedJointAction:
    """Reward-maximizing single action; ties go to canonical action order."""
    acts = constrained_actions(s, problem.domain)
    if not acts:
        raise DeadEnd("no legal action")
    inc = IncrementalPosterior(problem.kernel_table, d.locations, d.z, len(d))
    rewards = _reward(problem, *inc.batch([action_target(s, a).cell for a in acts]))
    return acts[int(np.argmax(rewards))]


# ---------------------------------------------------------------------------
# URTDP: anytime solver over a search tree of lower/upper bounds
# ---------------------------------------------------------------------------


class _Window:
    """The joint posterior, from the factor ``inc`` over the history of ``walk``,
    of the unvisited cells within ``moves`` steps of a robot that can still
    move. ``chosen`` conditions it on cells in turn: a Cholesky factor in
    Python floats, ``(cell index, whitened column, pivot)`` per cell."""

    def __init__(self, problem: Problem, inc: IncrementalPosterior, walk: _Walk, moves: int):
        cells = {}
        for (cell, _), steps in zip(walk.poses, walk.steps):
            reach = moves if walk.budget is None else min(moves, walk.budget - steps)
            cells.update(dict.fromkeys(problem.diamond(cell, reach)))
        self.index = {x: i for i, x in enumerate(x for x in cells if x not in walk.visited)}
        mean, self.cov = inc.joint(list(self.index))
        self.mean, self.columns = mean.tolist(), inc.columns
        self.chosen = []

    def push(self, j: int, w, var: float) -> float:
        """Choose cell ``j`` by its column and variance; return its pivot variance."""
        if var <= 0:
            raise SingularGram("gram extension lost positive definiteness")
        self.chosen.append((j, w, math.sqrt(var)))
        return var


def _greedy_ce_rollout(problem, window, walk, steps_count):
    """Greedy certainty-equivalent rollout from ``walk`` (stepped, then undone)
    on a :class:`_Window` that holds every cell it can enter; returns the
    total reward and the cells.

    Each step takes the reward-maximizing move and feeds the posterior mean
    back as the observation, which leaves every mean unchanged: a move scores
    its window mean and its variance given the cells chosen so far.
    """
    total, seq, base, cov, chosen = 0.0, [], len(window.chosen), window.cov, window.chosen
    whitened = [None] * len(window.mean)  # a cell's column over the first len(w) chosen cells
    for _ in range(steps_count):
        best = None
        for i, _, cell, nh in walk.moves():
            j = window.index[cell]
            w = whitened[j]
            if w is None:
                w = whitened[j] = []
            # a fresh column reads every chosen cell without copying the list
            for k, row, pivot in chosen[len(w):] if w else chosen:
                w.append((cov.item(k, j) - sum(map(operator.mul, row, w))) / pivot)
            var = cov.item(j, j) - sum(map(operator.mul, w, w))
            reward = float(_reward(problem, window.mean[j], var))
            if best is None or reward > best[0]:
                best = (reward, i, cell, nh, j, w, var)
        if best is None:
            break
        reward, i, cell, nh, j, w, var = best
        total += reward
        window.push(j, w, var)
        walk.step(i, cell, nh)
        seq.append(cell)
    walk.undo(len(seq))
    del window.chosen[base:]
    return total, seq


def init_bounds(
    problem: Problem,
    d: PosteriorData,
    s: TeamState,
    stage: int,
    config: PlannerConfig,
) -> ValueBounds:
    """Informed initial heuristic bounds for the remaining stages.

    Upper: :func:`_stage_max` per remaining stage. Lower: the reward
    actually collected by a greedy certainty-equivalent rollout (outcomes
    replaced by their posterior means, the truncated mean), which
    lower-bounds the Jensen-problem value at the state.
    """
    return _init_bounds(problem, IncrementalPosterior(problem.kernel_table, d.locations, d.z, len(d)),
                        s, stage, config)


def _init_bounds(problem, inc, s, stage, config) -> ValueBounds:
    """:func:`init_bounds` on the factor ``inc`` over the history of ``s``."""
    if stage > config.horizon:
        return ValueBounds(0.0, 0.0)
    remaining, walk = config.horizon - stage + 1, _Walk(s, problem.domain)
    upper = remaining * _stage_max(problem, config)
    lower, _ = _greedy_ce_rollout(problem, _Window(problem, inc, walk, remaining), walk, remaining)
    return ValueBounds(min(lower, upper), upper)


class _UrtdpInstance:
    """Trial-based search tree of bounds for one bounded approximate problem.

    ``rule="jensen"`` solves the lower (Jensen) problem; ``rule="em"`` the
    upper (EM) problem. Every node's ``[lower, upper]`` pair brackets that
    problem's exhaustive value at the node's state. ``tables`` maps the state
    key of the root the instance last planned from to its node, and
    ``_inc`` is that root's factor; the nodes below the root hang off its
    action records (see the module docstring). A decision never returns to
    an earlier root, so a new root replaces the old one and its tree.
    """

    def __init__(self, problem, config, rule, rng):
        self.problem = problem
        self.config = config
        self.rule = rule
        self.rng = rng
        w, self.zeta = standardized_rule(config.nu, config.truncation_m, rule)
        self.w = w.tolist()
        self.stage_max = _stage_max(problem, config)
        self._action = cache(ConstrainedJointAction)  # one per (robot, move), shared by records
        self.tables: dict[tuple, list] = {}
        self._inc = None
        self.window = None  # the last expansion's window
        self.paths_run = 0
        self.on_backup = None  # test hook: called with (node, lower, upper)

    # -- the tree --------------------------------------------------------------

    def _root(self, d, s, stage) -> tuple[list, IncrementalPosterior]:
        """The root node of ``(s, d)`` and its factor over ``d``, built together
        when new, in place of the last root (the factor seeds the node's
        :func:`init_bounds`), and popped back to ``d`` for each use, with room
        for one trial's walk from ``stage``."""
        key = state_key(stage, s, d)
        node = self.tables.get(key)
        if node is None:
            inc = IncrementalPosterior(
                self.problem.kernel_table, d.locations, d.z, len(d) + self.config.horizon - stage)
            vb = _init_bounds(self.problem, inc, s, stage, self.config)
            node, self._inc = [vb.lower, vb.upper], inc
            self.tables = {key: node}
        inc = self._inc
        inc.pop(inc.m - len(d))
        return node, inc

    def expand(self, node, inc, walk, stage):
        """The node's action records, built on its first visit from one
        :class:`_Window` on the factor ``inc`` over the history of ``walk`` (kept
        in :attr:`window` until the next expansion); the children get bounds.

        A record is ``(action, reward, cell, children)``; child ``j``
        observes the outcome point ``zeta[j]`` at ``cell``, and the children
        are ``None`` at the last stage. ``node[3]``, the index of the largest
        upper q, picks the descent's action.
        """
        if len(node) > 2:
            return node[2]
        problem = self.problem
        window = self.window = _Window(problem, inc, walk, max(self.config.horizon - stage, 0) + 1)
        records = []
        for i, mv, x, heading in walk.moves():
            j = window.index[x]
            var = window.cov.item(j, j)
            if var <= 0:
                raise DegenerateCovariance(f"non-positive posterior variance at {x}")
            children = None if stage >= self.config.horizon else self._init_children(
                window, walk, i, x, heading, stage)
            reward = float(_reward(problem, window.mean[j], var))
            records.append((self._action(i, mv), reward, x, children))
        node += [records, _best_upper(self.q_values(records))]
        return records

    def _init_children(self, window, walk, i, x, heading, stage):
        """Initial ``[lower, upper]`` pairs of the children at ``x``, one per ``zeta``.

        All children share locations, so one greedy rollout (at the mean
        outcome), on the parent's ``window`` with ``x`` chosen, fixes a
        feasible continuation ``seq`` for all of them; its certainty-equivalent
        value at each child point is an admissible lower bound. It is affine
        in the outcome, since fed-back means leave every mean unchanged, with
        slope ``sum_i cov[x, seq_i] / pivot(x)^2`` read off the window: child
        ``j`` gets ``v_ref + slope * sd * zeta[j]``. The upper bound is outcome
        independent.
        """
        problem = self.problem
        remaining = self.config.horizon - stage  # actions from stage + 1 on
        upper = remaining * self.stage_max
        j = window.index[x]
        pivot_var = window.push(j, [], window.cov.item(j, j))
        walk.step(i, x, heading)
        v_ref, seq = _greedy_ce_rollout(problem, window, walk, remaining)
        walk.undo()
        slope = 0.0 if not problem.is_lgp else (
            sum(window.cov.item(j, window.index[c]) for c in seq) / pivot_var)
        window.chosen.pop()
        sd = math.sqrt(pivot_var)
        return [[min(v_ref + slope * sd * float(zj), upper), upper] for zj in self.zeta]

    # -- bound arithmetic ----------------------------------------------------

    def q_values(self, records):
        """(action, q_lower, q_upper) per action from the current child bounds."""
        out = []
        for a, reward, _, children in records:
            lo = hi = 0.0
            for wj, child in zip(self.w, children or ()):
                lo += wj * child[0]
                hi += wj * child[1]
            out.append((a, reward + lo, reward + hi))
        return out

    def _set(self, node, lower, upper):
        node[0] = lower
        node[1] = upper
        if self.on_backup is not None:
            self.on_backup(node, lower, upper)

    def _backup(self, node, records):
        qs = self.q_values(records)
        node[3] = _best_upper(qs)
        self._set(node, max(q for _, q, _ in qs), max(q for _, _, q in qs))

    # -- the simulated path --------------------------------------------------

    def simulated_path(self, d0: PosteriorData, s0: TeamState, stage0: int = 0, root=None):
        """One descent/backtrack trial; tightens bounds along the path.

        The root's factor walks the trial: each descent step extends it by
        the chosen action's cell and the sampled outcome point, popped at the
        end. ``root`` is ``_root(d0, s0, stage0)`` if the caller has it.
        """
        node, inc = root or self._root(d0, s0, stage0)
        walk, stage, trail = _Walk(s0, self.problem.domain), stage0, []
        while True:
            fresh = len(node) == 2
            records = self.expand(node, inc, walk, stage)
            if not records or stage >= self.config.horizon:  # a dead end or a leaf
                leaf = max((r[1] for r in records), default=0.0)
                self._set(node, leaf, leaf)
                break
            a, _, x, children = records[node[3]]
            gaps = [wj * max(c[1] - c[0], 0.0) for wj, c in zip(self.w, children)]
            total = _total(gaps)
            probs = [g / total for g in gaps] if total > 0 else [1.0 / len(gaps)] * len(gaps)
            j = _draw(self.rng, probs)
            trail.append((node, records))
            # a node expanded in this step has the cell's row in its window
            row = self.window.columns[:, self.window.index[x]] if fresh else None
            inc.extend(x, self.zeta[j], row)
            walk.step(a.robot_index, x, MOVE_DELTA[walk.poses[a.robot_index][1], a.move][2])
            node = children[j]
            stage += 1
        for node, records in reversed(trail):
            self._backup(node, records)
        inc.pop(len(trail))
        self.paths_run += 1

    def run(self, d, s, stage, alpha, budget):
        """Run trials until the root gap closes or the path budget is spent.

        Returns True if the gap criterion was met.
        """
        root = self._root(d, s, stage)
        node, start = root[0], self.paths_run
        while node[1] - node[0] > alpha:
            if self.paths_run - start >= budget:
                return False
            self.simulated_path(d, s, stage, root)
        return True

    def root_bounds(self, d, s, stage) -> ValueBounds:
        root = self._root(d, s, stage)[0]
        return ValueBounds(root[0], root[1])

    def root_q_values(self, d, s, stage):
        """(action, q_lower, q_upper) per action at the root of ``(s, d)``."""
        root, inc = self._root(d, s, stage)
        return self.q_values(self.expand(root, inc, _Walk(s, self.problem.domain), stage))


def _best_upper(qs) -> int:
    """Index of the first action with the largest upper q (0 when there is none)."""
    return max(range(len(qs)), key=lambda i: qs[i][2], default=0)


def _total(xs) -> float:
    """``np.sum(xs)`` with numpy's rounding: fewer than eight terms are added
    in order from zero (builtin ``sum`` compensates from Python 3.12 on),
    eight or more by numpy's own pairwise sum."""
    return reduce(operator.add, xs, 0.0) if len(xs) < 8 else float(np.sum(xs))


def _draw(rng: np.random.Generator, probs) -> int:
    """``rng.choice(len(probs), p=probs)``: its arithmetic and stream, not its checks."""
    cdf = list(accumulate(probs))
    return bisect_right([c / cdf[-1] for c in cdf], rng.random())


class UrtdpPolicy(Policy):
    """Greedy-on-lower-bound policy; replans anytime from the current state."""

    def __init__(self, instance: _UrtdpInstance, config: PlannerConfig):
        self.instance = instance
        self.config = config

    def act(self, s, d, stage):
        acts = constrained_actions(s, self.instance.problem.domain)
        if not acts:
            raise DeadEnd("no legal action")
        self.instance.run(d, s, stage, self.config.alpha, self.config.max_simulated_paths)
        return max(self.instance.root_q_values(d, s, stage), key=lambda q: q[1])[0]


def _trial_rng(config: PlannerConfig, child: int) -> np.random.Generator:
    """Trial stream of an URTDP instance: child 0 (Jensen) or 1 (EM) of the
    seed sequence of ``config.seed``."""
    return np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[child])


def urtdp_policy(problem: Problem, config: PlannerConfig) -> UrtdpPolicy:
    """The replanning URTDP policy on a fresh Jensen-problem instance.

    Its trials draw the same stream as the lower instance of :func:`urtdp`.
    """
    return UrtdpPolicy(_UrtdpInstance(problem, config, "jensen", _trial_rng(config, 0)), config)


@dataclass
class UrtdpResult:
    bounds: ValueBounds
    policy: UrtdpPolicy
    lower_paths: int
    upper_paths: int
    exhausted: bool


def urtdp(problem: Problem, d0: PosteriorData, s0: TeamState, config: PlannerConfig) -> UrtdpResult:
    """Anytime bracketing of the strictly adaptive value plus a policy.

    Two trial-based instances run side by side, in two processes: the
    caller runs the one on the Jensen (lower) problem while a child, a
    ``multiprocessing`` fork-context process (:func:`_forked`), runs the one
    on the EM (upper) problem, each until its own root gap falls under
    ``alpha`` or it spends ``max_simulated_paths`` trials. Both are built
    here and draw their own streams, so the result does not depend on the
    split. The returned root bounds are the Jensen instance's lower bound
    and the EM instance's upper bound, which bracket the exhaustive
    lower/upper problem values (and hence the true optimum) at all times.
    The policy is greedy on the lower-problem bounds and keeps the Jensen
    tree. POSIX only; do not call it from a multi-threaded process or from
    a daemonic one, such as a ``multiprocessing.Pool`` worker.
    """
    policy = urtdp_policy(problem, config)
    low = policy.instance
    up = _UrtdpInstance(problem, config, "em", _trial_rng(config, 1))
    args = (d0, s0, 0, config.alpha, config.max_simulated_paths)

    def em_half():
        closed = up.run(*args)
        return closed, up.root_bounds(d0, s0, 0).upper, up.paths_run

    with _forked(em_half) as em_result:
        ok_low = low.run(*args)
        ok_up, upper, upper_paths = em_result()
    bounds = ValueBounds(low.root_bounds(d0, s0, 0).lower, upper)
    return UrtdpResult(bounds, policy, low.paths_run, upper_paths, not (ok_low and ok_up))


@contextmanager
def _forked(fn):
    """Run ``fn()`` in a forked child while the ``with`` block runs.

    Yields a function that waits for the child and returns ``fn``'s result
    or raises its exception. The child is a ``multiprocessing`` fork-context
    process: it sends only that, as ``(ok, value)``, through a one-way pipe,
    and it ends, within milliseconds, once its caller is gone. A child that
    ends without sending raises ``RuntimeError`` with its exit code. Leaving
    the block kills a child not yet waited for, so an error or an interrupt
    in the caller does not wait for ``fn``; the child is reaped either way.
    Not from a daemonic process, which ``multiprocessing`` lets start none.
    """
    ctx = multiprocessing.get_context("fork")
    recv_end, send_end = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_run_in_child, args=(fn, send_end))
    with recv_end:
        with send_end:  # only the child keeps a send end, so its exit is end of file
            child.start()

        def result():
            try:
                ok, value = recv_end.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"the forked search ended without a result "
                                   f"(exit code {child.exitcode})") from None
            child.join()
            if not ok:
                raise value
            return value

        try:
            yield result
        finally:
            child.kill()
            child.join()
            child.close()


def _run_in_child(fn, send_end) -> None:
    """The body of :func:`_forked`'s child: send ``(ok, value)`` for ``fn()``."""

    def exit_with_parent():
        wait([multiprocessing.parent_process().sentinel])
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()
    try:
        out = (True, fn())
    except BaseException as exc:  # sent to the caller, which raises it
        out = (False, exc)
    send_end.send(out)


# ---------------------------------------------------------------------------
# Non-adaptive baselines
# ---------------------------------------------------------------------------


@dataclass
class MesResult:
    value: float
    paths: list
    policy: NonAdaptivePolicy
    exact: bool
    nodes: int


class _BudgetExhausted(Exception):
    pass


def mes_nonadaptive(
    problem: Problem,
    d0: PosteriorData,
    s0: TeamState,
    n: int,
    node_budget: int | None = None,
) -> MesResult:
    """Maximum entropy sampling: joint paths maximizing H of the selected cells.

    Depth-first branch and bound over the constrained actions in robot order:
    at depth ``j`` robot ``j % k`` takes a legal move, so a node is one robot
    move and the leaves come in lexicographic order. The objective depends
    only on the cells a sequence observes, and these sequences reach every
    cell set the simultaneous joint moves reach. The admissible bound adds
    the largest prior entropy terms of the cells a continuation could still
    pick up (conditioning on more data never increases variance). The first
    incumbent is the greedy one-robot-move path; among equal values the
    lexicographically first sequence wins. Exceeding ``node_budget`` falls
    back to the best complete path found so far (``exact=False``);
    exhausting the tree certifies optimality. Joint entropies use the GP
    (log-scale) model.
    """
    k, total = s0.k, s0.k * n
    # one factor over the prior cells: the search extends it along the path it
    # scores and pops back
    inc = IncrementalPosterior(problem.kernel_table, d0.locations, d0.z, len(d0) + total)
    walk = _Walk(s0, problem.domain, n)
    visited = walk.visited
    seq = []  # (robot, move, cell) along the path

    # every prior gain in one batch
    free = [c for c in problem.domain.cells() if c not in visited]
    _, var = inc.batch(free)
    gain_sorted = sorted(zip(free, _entropy(var).tolist()), key=lambda kv: -kv[1])

    def optimistic_tail(need):
        tail = 0.0
        for c, gval in gain_sorted:
            if need <= 0:
                break
            if c not in visited:
                tail += gval
                need -= 1
        return tail

    def push(val, i, mv, cell, hd):
        """Take a move; return the running value plus the new cell's entropy."""
        seq.append((i, mv, cell))
        walk.step(i, cell, hd)
        return val + _entropy(inc.extend(cell, 0.0))

    def pop():
        seq.pop()
        walk.undo()
        inc.pop(1)

    def greedy():
        """Each move takes the largest variance of one batch; the value is the
        running sum the search forms along the same path."""
        val = 0.0
        for j in range(total):
            opts = list(walk.moves(j % k))
            if not opts:
                return -math.inf, None
            _, var = inc.batch([cell for _, _, cell, _ in opts])
            val = push(val, *opts[int(np.argmax(var))])
        return val, seq[:]

    best_val, best_seq = greedy()
    while seq:
        pop()
    found = False
    nodes = 0
    budget = math.inf if node_budget is None else node_budget

    def keeps(val):
        # the search meets leaves in lexicographic order, so until it reaches
        # one as good as the greedy incumbent, an equal value still wins
        return val > best_val or (val == best_val and not found)

    def dfs(j, val):
        nonlocal nodes, best_val, best_seq, found
        if j == total:
            if keeps(val):
                best_val, best_seq, found = val, seq[:], True
            return
        for move in walk.moves(j % k):
            nodes += 1
            if nodes > budget:
                raise _BudgetExhausted
            child_val = push(val, *move)
            if keeps(child_val + optimistic_tail(total - j - 1)):
                dfs(j + 1, child_val)
            pop()

    exact = True
    try:
        dfs(0, 0.0)
    except _BudgetExhausted:
        exact = False
    if best_seq is None:
        raise DeadEnd("no complete joint path of the requested length exists")
    paths = [[p.cell] for p in s0.poses]
    for i, _, cell in best_seq:
        paths[i].append(cell)
    actions = [ConstrainedJointAction(i, mv) for i, mv, _ in best_seq]
    return MesResult(best_val, paths, NonAdaptivePolicy(actions), exact, nodes)


@dataclass
class MiResult:
    paths: list
    policy: NonAdaptivePolicy
    scores: list


def mi_greedy(problem: Problem, d0: PosteriorData, s0: TeamState, n: int) -> MiResult:
    """Non-adaptive mutual-information greedy path construction.

    Each step appends the reachable cell maximizing the entropy of that cell
    given the data selected so far minus its entropy given all the remaining
    unobserved cells. Only prior-data covariances enter, never measurement
    values, so the paths commit before exploration. The first variance comes
    from one factor that grows with each selected cell, the second from the
    map's spectrum (:meth:`~hotspotplan.field_model.MapSpectrum.leave_one_out`),
    so no step factors anything map-sized.
    """
    total = s0.k * n
    inc = IncrementalPosterior(problem.kernel_table, d0.locations, d0.z, len(d0) + total)
    spectrum = map_spectrum(problem.hyper, problem.domain)
    if not spectrum.positive:
        raise SingularGram("map gram matrix not positive definite")
    walk = _Walk(s0, problem.domain, n)
    paths = [[p.cell] for p in s0.poses]
    selected = []
    actions = []
    scores = []
    for _ in range(total):
        moves = list(walk.moves())
        if not moves:
            raise DeadEnd("mi_greedy path construction blocked")
        ys = [cell for _, _, cell, _ in moves]
        _, var_sel = inc.batch(ys)
        var_rest = spectrum.leave_one_out(ys, selected)
        mi = 0.5 * (np.log(var_sel) - np.log(var_rest))
        b = int(np.argmax(mi))
        i, mv, cell, heading = moves[b]
        inc.extend(cell, 0.0)
        selected.append(cell)
        actions.append(ConstrainedJointAction(i, mv))
        scores.append(float(mi[b]))
        paths[i].append(cell)
        walk.step(i, cell, heading)
    return MiResult(paths, NonAdaptivePolicy(actions), scores)

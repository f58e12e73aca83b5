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
                     tightens them along simulated paths; for the log-GP
                     model the two run side by side, the EM one in a forked
                     child process. Under the GP model adaptivity has no
                     benefit, and one search at the mean outcome suffices.

The exhaustive solvers (``exact_dp`` and ``bounded_dp``) share one
vectorized tree recursion parameterized by the standardized outcome points,
and every planner maximizes one stage reward
(:func:`_reward`): the entropy ``0.5 * log(2 pi e v)`` of the revealed log
measurement (:func:`_entropy`, which MES sums as well), plus its posterior
log-mean for the log-GP model (the original-scale entropy). Every
conditioning goes through one GP factor, ``field_model.IncrementalPosterior``,
extended (by a branch outcome's standardized point ``zeta``, never its
value) and popped along each search: the exhaustive solver's depth-first
recursion, MES's branch and bound, MI's selected set and the greedy
planner's candidate batch. URTDP reads it once per decision, for its root's
window (below). Each factor gathers its kernel entries from the problem's
one ``kernel_table``, so its cost never grows with the map.
MI's other variance, each candidate's given every unselected cell, comes from
the map's spectrum (``field_model.MapSpectrum``), with no map-sized factor.

Below its root, URTDP's state space is a tree: a history holds every
location and outcome in order, so two branches never meet. A node is its
``[lower, upper]`` pair; once expanded it also holds one record per action
with the reward, the observed cell and the child nodes, one per outcome
point. The root holds one window, the joint posterior of the unvisited
cells within its remaining moves; a child's cells are among its parent's,
and its posterior is the parent's conditioned on one cell, a rank-1 update.
A trial carries the root's window down the tree that way, so no history,
state, key or posterior is stored below the root. A covariance depends on
the cells conditioned on and their order, never on the outcomes, so the
windows of one trial share a covariance trie (:class:`_Cov`): conditioning
on a cell sequence the trial already took reuses its covariance and only
shifts the mean. The trie lives for one trial.

URTDP seeds a child's lower bound with a certainty-equivalent rollout: the
greedy continuation that feeds each posterior mean back as the observation.
That feedback has zero innovation, so it leaves every posterior mean
unchanged; the rollout's value is therefore affine in the child's outcome. A
rollout reads the means of the window a trial carries to its record's node
once and steps down its trie, to the child (:meth:`_Cov.child`, the one
rank-1 update) of each cell it chooses, and scores its moves as an expansion
does, by :func:`_scored`; its slope is read off the covariance
(:meth:`_UrtdpInstance._init_children`). Rollouts are lazy: the
root's records are rolled out when it is expanded, since the policy reads
their lower q-values, and any other record when a trial first enters it.
Until then its children hold only their upper bounds and a lower bound of
``-inf``, which keeps the record out of its node's lower max; the record a
trial enters is rolled out first, so every node's lower bound is a rollout
value. Non-adaptive baselines (maximum entropy sampling, MI-based greedy)
commit their paths from the prior data.

Every planner steps the constrained joint actions, one robot move per
stage (MES's branch and bound one per node, robots in turn), and reads them
from one enumeration, :meth:`hotspotplan.world.Walk.moves`. Policies act at a
``TeamState`` and read a fresh walk of it; every search steps one walk and
undoes it.
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
from scipy.linalg.blas import dger

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
from .world import MOVE_DELTA, ConstrainedJointAction, GridDomain, TeamState, Walk, transition

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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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


def stagewise_reward(problem: Problem, s: TeamState, a, d: PosteriorData) -> float:
    """Entropy of the measurement revealed by taking the constrained action
    ``a`` in ``s``.

    Log-scale Gaussian entropy for the GP model; plus the posterior mean for
    the log-GP model (original-scale entropy). The cost depends on the
    history length only, never on the domain size. An action that
    :func:`~hotspotplan.world.transition` refuses raises ``IllegalAction``.
    """
    cell = transition(s, a, problem.domain).poses[a.robot_index].cell
    inc = IncrementalPosterior(problem.kernel_table, d.locations, d.z, len(d))
    mu, var = inc.batch([cell])
    return float(_reward(problem, mu[0], var[0]))


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
        self._walk = Walk(s, self.problem.domain)
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
    length). The sequences are walked on one :class:`Walk`, stepped and
    undone, and the walk stops as soon as their total passes the limit.
    """
    length, walk, leaves = config.horizon + 1, Walk(s0, problem.domain), 0.0

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
    moves = list(Walk(s, problem.domain).moves())
    if not moves:
        raise DeadEnd("no legal action")
    inc = IncrementalPosterior(problem.kernel_table, d.locations, d.z, len(d))
    rewards = _reward(problem, *inc.batch([cell for _, _, cell, _ in moves]))
    i, mv, _, _ = moves[int(np.argmax(rewards))]
    return ConstrainedJointAction(i, mv)


# ---------------------------------------------------------------------------
# URTDP: anytime solver over a search tree of lower/upper bounds
# ---------------------------------------------------------------------------


class _Cov:
    """A node of a trial's covariance trie: the covariance ``cov`` of a window,
    its conditioned ``children`` keyed by window index, the column ``c`` that
    conditioned it out of its parent (``None`` at the trie's root), and the
    entropies of its variances, computed on first use."""

    __slots__ = ("cov", "c", "children", "_entropy")

    def __init__(self, cov: np.ndarray, c: np.ndarray | None = None):
        self.cov, self.c, self.children, self._entropy = cov, c, {}, None

    @property
    def entropy(self) -> np.ndarray:
        """Entropies of ``diag(cov)``; a conditioned-out cell's (variance ~0) is never read."""
        if self._entropy is None:
            self._entropy = _entropy(np.maximum(self.cov.diagonal(), 5e-324))
        return self._entropy

    def child(self, j: int) -> _Cov:
        """This node given window index ``j``, built on first use: ``cov - c c^T``
        with ``c = cov[:, j] / sqrt(cov[j, j])``, a BLAS rank-1 update of a copy."""
        child = self.children.get(j)
        if child is None:
            cov, var = self.cov, self.cov.item(j, j)
            if var <= 0:
                raise SingularGram("gram extension lost positive definiteness")
            c = cov[:, j] / math.sqrt(var)
            child = self.children[j] = _Cov(dger(-1.0, c, c, a=cov.copy("F"), overwrite_a=1), c)
        return child


class _Window:
    """The joint posterior (``mean``, ``node.cov``) of the cells in ``index``,
    which :func:`_scored` scores moves on; conditioning gives a new window.

    A covariance depends on where and in what order cells were measured,
    never on what was measured, so windows conditioned on one cell sequence
    share one covariance: ``node``, a node of a covariance trie (:class:`_Cov`).
    """

    def __init__(self, index: dict, mean: np.ndarray, node: _Cov):
        self.index, self.mean, self.node = index, mean, node

    @property
    def cov(self) -> np.ndarray:
        return self.node.cov

    @classmethod
    def over(cls, problem: Problem, d: PosteriorData, walk: Walk, moves: int):
        """The window given ``d`` of the unvisited cells within ``moves`` steps
        of a robot of ``walk`` that can move: one :meth:`~IncrementalPosterior.joint`."""
        cells = {}
        for (cell, _), steps in zip(walk.poses, walk.steps):
            reach = moves if walk.budget is None else min(moves, walk.budget - steps)
            cells.update(dict.fromkeys(problem.diamond(cell, reach)))
        index = {x: i for i, x in enumerate(x for x in cells if x not in walk.visited)}
        inc = IncrementalPosterior(problem.kernel_table, d.locations, d.z, len(d))
        mean, cov = inc.joint(list(index))
        return cls(index, mean, _Cov(cov))

    def fresh(self) -> _Window:
        """This window on the root of a new trie, which keeps what it is
        conditioned on from here: dropping the window drops them all. The
        root shares this node's covariance and entropies."""
        node = _Cov(self.node.cov)
        node._entropy = self.node.entropy
        return _Window(self.index, self.mean, node)

    def conditioned(self, j: int, zeta: float) -> _Window:
        """This window given cell ``j`` at the standardized point ``zeta``: the
        node's child ``j`` (:meth:`_Cov.child`) and ``mean + zeta c`` (GPML,
        A.3), sharing the index; at ``zeta = 0`` it shares the mean too."""
        child = self.node.child(j)
        return _Window(self.index, self.mean if zeta == 0 else self.mean + zeta * child.c, child)


def _scored(index: dict, mean: list | None, node: _Cov, moves):
    """``(reward, move)`` per move ``(robot, move, cell, heading)``: :func:`_reward`
    of its cell, off ``node``'s entropies plus ``mean`` (a list; ``None`` under
    GP). A non-positive variance raises :class:`DegenerateCovariance`."""
    cov, entropy = node.cov, node.entropy
    for move in moves:
        j = index[move[2]]
        if cov.item(j, j) <= 0:
            raise DegenerateCovariance(f"non-positive posterior variance at {move[2]}")
        yield (entropy.item(j) + mean[j] if mean is not None else entropy.item(j)), move


def _stage_upper(problem: Problem, config: PlannerConfig, window: _Window, stage: int) -> float:
    """A bound on every stage reward below a root at ``stage`` with ``window``,
    clipped at 0 (a dead end earns 0): the largest entropy among its cells,
    plus (log-GP) ``mu + m sqrt(T v)``. Conditioning never raises a variance,
    and the ``T = horizon - stage`` observations move ``mu`` by ``sum zeta
    c``, with ``|zeta| <= m`` and ``sum c^2 <= v``: by at most ``m sqrt(T v)``
    (Cauchy-Schwarz)."""
    v, t = np.diagonal(window.cov), max(config.horizon - stage, 0)
    bound = window.node.entropy
    if problem.is_lgp:
        bound = bound + window.mean + config.truncation_m * np.sqrt(t * v)
    return float(np.max(bound, initial=0.0))


def _greedy_ce_rollout(problem, window, walk, steps_count):
    """Greedy certainty-equivalent rollout from ``walk`` (stepped, then undone)
    on a :class:`_Window` that holds every cell it can enter; returns the
    total reward and the cells.

    Each step takes the reward-maximizing move (the first of equals) and
    feeds the posterior mean back as the observation (``zeta = 0``), which
    leaves every mean unchanged: a move scores its cell's window mean and
    its entropy on the trie node (:meth:`_Cov.child`) of the cells chosen so
    far, by :func:`_scored`, as :meth:`_UrtdpInstance.expand` does. The last
    step conditions nothing.
    """
    index, node, total, seq = window.index, window.node, 0.0, []
    mean = window.mean.tolist() if problem.is_lgp else None
    for _ in range(steps_count):
        best = None
        for reward, move in _scored(index, mean, node, walk.moves()):
            if best is None or reward > best:
                best, chosen = reward, move
        if best is None:
            break
        i, _, cell, nh = chosen
        total += best
        walk.step(i, cell, nh)
        seq.append(cell)
        if len(seq) < steps_count:
            node = node.child(index[cell])
    walk.undo(len(seq))
    return total, seq


class _UrtdpInstance:
    """Trial-based search tree of bounds for one bounded approximate problem.

    ``rule="jensen"`` solves the lower (Jensen) problem; ``rule="em"`` the
    upper (EM) problem; for the GP model, whose rewards read no outcome,
    either solves the problem at the one outcome point at the mean. Every
    node's ``[lower, upper]`` pair brackets that problem's exhaustive value at
    the node's state. ``tables`` maps the state key of the root the instance
    last planned from to its node, which holds the tree, and ``_window`` is
    its window. A decision never returns to an earlier root, so a new root
    replaces the old one and its tree. :meth:`run` returns the root it
    searched; :meth:`_scan` sums its q-values.
    """

    def __init__(self, problem, config, rule, rng):
        self.problem = problem
        self.config = config
        self.rule = rule
        self.rng = rng
        nu, side = (config.nu, rule) if problem.is_lgp else (1, "jensen")
        w, self.zeta = standardized_rule(nu, config.truncation_m, side)
        self.w = w.tolist()
        self._action = cache(ConstrainedJointAction)  # one per (robot, move), shared by records
        self.tables: dict[tuple, list] = {}
        self._window, self.stage_upper = None, 0.0  # the root's window and stage bound
        self.paths_run = 0

    # -- the tree --------------------------------------------------------------

    def _root(self, d, s, stage) -> tuple[list, _Window]:
        """The root node of ``(s, d)`` and its window over the cells within
        ``horizon - stage + 1`` moves (at least one), built together when new,
        in place of the last root; a root is seeded here and nowhere else.

        Its upper bound is :func:`_stage_upper` of the window per remaining
        stage (none past the horizon), kept for the nodes below it. Its lower
        bound, a lower bound on the Jensen-problem value, is the reward that a
        greedy certainty-equivalent rollout (outcomes replaced by their
        posterior means) collects on the window, capped at the upper bound.
        """
        key = state_key(stage, s, d)
        node = self.tables.get(key)
        if node is None:
            problem, remaining = self.problem, max(self.config.horizon - stage + 1, 0)
            walk = Walk(s, problem.domain)
            window = _Window.over(problem, d, walk, max(remaining, 1))
            self.stage_upper = _stage_upper(problem, self.config, window, stage)
            upper = remaining * self.stage_upper
            lower, _ = _greedy_ce_rollout(problem, window.fresh(), walk, remaining)
            node = [min(lower, upper), upper]
            self.tables, self._window = {key: node}, window
        return node, self._window

    def expand(self, node, window, walk, stage):
        """The node's action records, built on its first visit from its ``window``.

        A record is ``(action, reward, cell, children)``, scored by :func:`_scored`;
        child ``j`` observes the outcome point ``zeta[j]`` at ``cell``; the children
        are ``None`` at the last stage. Every child gets its upper bound
        here. Only at the decision's root (the start of the walk) does every
        record get its children's lower bounds (:meth:`_init_children`);
        elsewhere they stay ``-inf`` until a trial enters the record.
        ``node[3]``, the index of the largest upper q, picks the descent.
        """
        if len(node) > 2:
            return node[2]
        problem, remaining = self.problem, self.config.horizon - stage  # actions from stage + 1 on
        upper, root = remaining * self.stage_upper, not walk.trail
        mean, records = window.mean.tolist() if problem.is_lgp else None, []
        for reward, (i, mv, x, heading) in _scored(window.index, mean, window.node, walk.moves()):
            children = None
            if remaining > 0:
                children = [[-math.inf, upper] for _ in self.zeta]
                if root:
                    self._init_children(window, walk, i, x, heading, stage, children)
            records.append((self._action(i, mv), reward, x, children))
        node += [records, self._scan(records)[0]]
        return records

    def _init_children(self, window, walk, i, x, heading, stage, children):
        """Set the lower bounds of ``children``, the record's child nodes at
        ``x`` (one per ``zeta``), each capped at the child's upper bound.

        All children share locations, so one greedy rollout (at the mean
        outcome), on the ``window`` of their parent conditioned on ``x`` at
        ``zeta = 0``, fixes a feasible continuation ``seq`` for all of them;
        its certainty-equivalent value at each child point is an admissible
        lower bound. It is affine in the outcome, since fed-back means leave
        every mean unchanged, with slope ``sum_i cov[x, seq_i] / cov[x, x]``
        read off the parent's window: child ``j`` gets
        ``v_ref + slope * sd * zeta[j]``.
        """
        j = window.index[x]
        pivot_var = window.cov.item(j, j)
        walk.step(i, x, heading)
        v_ref, seq = _greedy_ce_rollout(self.problem, window.conditioned(j, 0.0), walk,
                                        self.config.horizon - stage)
        walk.undo()
        slope = sum(window.cov.item(j, window.index[c]) for c in seq) / pivot_var
        sd = math.sqrt(pivot_var)
        for child, zj in zip(children, self.zeta):
            child[0] = min(v_ref + slope * sd * float(zj), child[1])

    # -- bound arithmetic ----------------------------------------------------

    def _scan(self, records) -> tuple[int, float, float, int]:
        """The one q-value sum: a record's q is its reward plus its children's
        bounds weighted by ``w``. Returns the index of the first record with
        the largest upper q (the descent), the largest lower and upper q, and
        the index of the first with the largest lower q (the policy's pick),
        each kept as ``max`` keeps it (0 or ``-inf`` when there is none)."""
        best, lower, upper, pick, w = 0, -math.inf, -math.inf, 0, self.w
        for i, (_, reward, _, children) in enumerate(records):
            lo = hi = 0.0
            for wj, child in zip(w, children or ()):
                lo += wj * child[0]
                hi += wj * child[1]
            lo, hi = reward + lo, reward + hi
            if not i or lo > lower:
                pick, lower = i, lo
            if not i or hi > upper:
                best, upper = i, hi
        return best, lower, upper, pick

    def _set(self, node, lower, upper):  # the one writer of a node's bounds
        node[0] = lower
        node[1] = upper

    def _backup(self, node, records):
        node[3], lower, upper, _ = self._scan(records)
        self._set(node, lower, upper)

    # -- the simulated path --------------------------------------------------

    def simulated_path(self, d0: PosteriorData, s0: TeamState, stage0: int = 0, root=None):
        """One descent/backtrack trial; tightens bounds along the path. Each
        descent step conditions the carried window on the chosen cell at the
        sampled outcome point, a new window per level. A record entered for
        the first time gets its children's lower bounds on its node's window
        before the outcome draw. ``root`` is ``_root(d0, s0, stage0)`` if the
        caller has it.

        The trial carries the root's window on a fresh covariance trie
        (:meth:`_Window.fresh`), so its descent, child seeding and rollouts
        build each covariance once per cell sequence, and the trie goes when
        the trial ends.
        """
        node, window = root or self._root(d0, s0, stage0)
        window = window.fresh()
        problem, horizon = self.problem, self.config.horizon
        walk, stage, trail = Walk(s0, problem.domain), stage0, []
        while True:
            records = self.expand(node, window, walk, stage)
            if not records or stage >= horizon:  # a dead end or a leaf
                leaf = max((r[1] for r in records), default=0.0)
                self._set(node, leaf, leaf)
                break
            a, _, x, children = records[node[3]]
            heading = MOVE_DELTA[walk.poses[a.robot_index][1], a.move][2]
            if children[0][0] == -math.inf:  # entered for the first time
                self._init_children(window, walk, a.robot_index, x, heading, stage, children)
            gaps = [wj * max(c[1] - c[0], 0.0) for wj, c in zip(self.w, children)]
            total = _total(gaps)
            probs = [g / total for g in gaps] if total > 0 else [1.0 / len(gaps)] * len(gaps)
            j = _draw(self.rng, probs)
            trail.append((node, records))
            window = window.conditioned(window.index[x], self.zeta[j])
            walk.step(a.robot_index, x, heading)
            node = children[j]
            stage += 1
        for node, records in reversed(trail):
            self._backup(node, records)
        self.paths_run += 1

    def run(self, d, s, stage, alpha, budget):
        """Run trials from the root of ``(s, d)`` until its gap is at most
        ``alpha`` or ``budget`` trials are spent; return :meth:`_root`'s
        ``(node, window)``, whose gap is over ``alpha`` if the budget ran out."""
        root = self._root(d, s, stage)
        node, start = root[0], self.paths_run
        while node[1] - node[0] > alpha and self.paths_run - start < budget:
            self.simulated_path(d, s, stage, root)
        return root


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
    """Greedy-on-lower-bound policy: each decision runs trials from its state's
    root, then takes the root's first action with the largest lower q."""

    def __init__(self, instance: _UrtdpInstance):
        self.instance = instance

    def act(self, s, d, stage):
        inst, config = self.instance, self.instance.config
        if stage > config.horizon:
            raise ValueError("policy asked to act beyond its horizon")
        walk = Walk(s, inst.problem.domain)
        if next(walk.moves(), None) is None:
            raise DeadEnd("no legal action")
        node, window = inst.run(d, s, stage, config.alpha, config.max_simulated_paths)
        records = inst.expand(node, window.fresh(), walk, stage)
        return records[inst._scan(records)[3]][0]


def _trial_rng(config: PlannerConfig, child: int) -> np.random.Generator:
    """Trial stream of an URTDP instance: child 0 (Jensen) or 1 (EM) of the
    seed sequence of ``config.seed``."""
    return np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[child])


def urtdp_policy(problem: Problem, config: PlannerConfig) -> UrtdpPolicy:
    """The replanning URTDP policy on a fresh Jensen-problem instance.

    Its trials draw the same stream as the lower instance of :func:`urtdp`.
    """
    return UrtdpPolicy(_UrtdpInstance(problem, config, "jensen", _trial_rng(config, 0)))


@dataclass
class UrtdpResult:
    """:func:`urtdp`'s root bracket, policy, trials per search and whether a
    search spent its budget with its root gap over ``alpha``; ``upper_paths``
    is 0 for the GP model, which runs no EM search."""

    bounds: ValueBounds
    policy: UrtdpPolicy
    lower_paths: int
    upper_paths: int
    exhausted: bool


def urtdp(problem: Problem, d0: PosteriorData, s0: TeamState, config: PlannerConfig) -> UrtdpResult:
    """Anytime bracketing of the strictly adaptive value plus a policy.

    For the log-GP model two trial-based instances run side by side, in two
    processes: the caller runs the one on the Jensen (lower) problem while a
    child, a ``multiprocessing`` fork-context process (:func:`_forked`),
    runs the one on the EM (upper) problem, each until its own root gap
    falls under ``alpha`` or it spends ``max_simulated_paths`` trials. Both
    are built here and draw their own streams, so the result does not depend
    on the split. The returned bounds are the Jensen root's lower bound and
    the EM root's upper bound, which bracket the exhaustive lower/upper
    problem values (and hence the true optimum) at all times; ``exhausted``
    is whether either root's gap is still over ``alpha``. That call is POSIX
    only (on Linux the child starts off the caller's CPU); do not make it
    from a multi-threaded process or from a daemonic one, such as a
    ``multiprocessing.Pool`` worker.

    For the GP model no stage reward reads an outcome, a sufficient
    condition for adaptivity to have no benefit: the exact, Jensen and EM
    values are one number. The Jensen instance alone, on the one outcome
    point at the mean whatever ``nu`` and ``truncation_m``, brackets it by
    its own root bounds, and no child is started. Either way the policy is
    greedy on the lower-problem bounds and keeps the Jensen tree.
    """
    policy = urtdp_policy(problem, config)
    low = policy.instance
    args = (d0, s0, 0, config.alpha, config.max_simulated_paths)
    if not problem.is_lgp:
        bounds = ValueBounds(*low.run(*args)[0][:2])
        return UrtdpResult(bounds, policy, low.paths_run, 0, bounds.gap > config.alpha)
    up = _UrtdpInstance(problem, config, "em", _trial_rng(config, 1))

    def em_half():
        return ValueBounds(*up.run(*args)[0][:2]), up.paths_run

    with _forked(em_half) as em_result:
        jensen = ValueBounds(*low.run(*args)[0][:2])
        em, upper_paths = em_result()
    return UrtdpResult(ValueBounds(jensen.lower, em.upper), policy, low.paths_run, upper_paths,
                       jensen.gap > config.alpha or em.gap > config.alpha)


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
    A fork can leave the child on its caller's CPU for hundreds of
    milliseconds while another idles, so on Linux the child moves off it.
    """
    try:  # the caller's CPU just before the fork: /proc/self/stat field 39
        with open("/proc/self/stat") as f:
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])
    except OSError:
        cpu = None
    ctx = multiprocessing.get_context("fork")
    recv_end, send_end = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_run_in_child, args=(fn, send_end, cpu))
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


def _run_in_child(fn, send_end, caller_cpu) -> None:
    """The body of :func:`_forked`'s child: send ``(ok, value)`` for ``fn()``.
    It first moves off ``caller_cpu`` where it can, if more than one CPU is
    allowed, and gives its mask back, so the kernel may balance it later."""
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    if len(allowed) > 1 and caller_cpu in allowed:
        os.sched_setaffinity(0, allowed - {caller_cpu})
        os.sched_setaffinity(0, allowed)

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


def _mes_tails(problem: Problem, d0: PosteriorData, s0: TeamState, n: int) -> list[float]:
    """``tails[j]``: MES's bound on the entropy that the ``k n - j - 1`` moves
    after depth ``j`` add. Each cell lands next to its robot's last cell, which
    the factor holds, and conditioning never raises a Gaussian variance, so
    its variance is at most ``v1 = p - k1^2 / p``, given that neighbour alone.
    A robot whose start cell holds no datum gets the prior variance for its
    first move. Variances are padded by ``1e-9 p``, far above rounding."""
    h, a = problem.hyper, 0.5 / problem.hyper.length_scale**2
    p, s = h.prior_variance, h.signal_variance
    v1 = (s * -math.expm1(-a) + h.nugget) * (p + s * math.exp(-a)) / p  # without cancellation
    h1, h0 = (0.5 * (LOG_2PI_E + math.log(v + 1e-9 * p)) for v in (v1, p))
    bare = [i for i, pose in enumerate(s0.poses) if pose.cell not in d0.locations]
    return [(s0.k * n - j - 1) * h1 + (h0 - h1) * sum(i > j for i in bare) for j in range(s0.k * n)]


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
    cell set the simultaneous joint moves reach. The admissible bound gives
    each remaining move the entropy of a cell given one neighbour, its
    robot's last cell (:func:`_mes_tails`): O(1) per node on any map. The
    first incumbent is the greedy one-robot-move path; among equal values the
    lexicographically first sequence wins. Exceeding ``node_budget`` falls
    back to the best complete path found so far (``exact=False``);
    exhausting the tree certifies optimality. Joint entropies use the GP
    (log-scale) model.
    """
    k, total = s0.k, s0.k * n
    # one factor over the prior cells: the search extends it along the path it
    # scores and pops back
    inc = IncrementalPosterior(problem.kernel_table, d0.locations, d0.z, len(d0) + total)
    walk = Walk(s0, problem.domain, n)
    seq = []  # (robot, move, cell) along the path
    tails = _mes_tails(problem, d0, s0, n)

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
            if keeps(child_val + tails[j]):
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
    walk = Walk(s0, problem.domain, n)
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

"""The three workloads: their inputs, timed operations, checks and metrics.

A run takes whole rounds of operations; the number of rounds follows from
``--seconds`` and each workload's nominal round length, never from a clock,
so the same seed and length always give the same operations. Instance seeds
are taken in order from ``1000 * seed``, ``1000 * seed + 1``, ..., skipping
the few whose prior cells box a robot in (``Workload.usable``).

* ``bounds-k1``: ``harness.compute_bounds`` (the ``hotspotplan bounds``
  verb) on one-robot 14x12 instances with an unreachable gap target, so each
  of the Jensen and EM instances spends exactly its path budget. Each round
  also runs the fixed 1x12 instance whose EM upper bound falls below the
  Jensen lower bound; ``urtdp()`` raises ``ValueError: bounds crossed`` on it,
  and that operation is counted as failed.
* ``run-k2`` and ``run-hires``: ``harness.run_seed`` (the ``hotspotplan run``
  verb, one seed) with a two-robot team on 14x12, and with one robot on a
  42x36 map of the same field statistics. An operation is one (seed, policy)
  plan-and-rollout with its ENT/ERR evaluation.

Set-up (field sampling, prior draw, hyperparameter fit) is timed on its own
and served to the harness by ``spans.Probes``. Every timed call is bracketed
by ``speed.burst`` readings and every URTDP decision is preceded by one
(``spans.Probes``); times are reported at the reference speed (see
``speed``).
"""

from __future__ import annotations

import gc
import itertools
import math
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

import checks
import speed
from spans import SETUP_OP, BenchError

FIELD = dict(field_mean=0.4, field_signal_variance=1.3, field_length_scale=2.0,
             field_noise_variance=0.05)
SETUP_REPEATS = 3
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str  # "bounds" or "run"
    rows: int
    cols: int
    team_size: int
    budget: int
    policies: tuple[str, ...]
    models: tuple[str, ...]
    paths: int  # URTDP path budget: per instance (bounds), per decision (run)
    seeds_per_round: int
    round_seconds: float  # nominal timed seconds of one round, 2-core reference machine
    nu: int = 2
    truncation_m: float = 4.0
    # An unreachable gap target: every solve and every decision spends its
    # whole path budget (unless its tree is exhausted), so the work of a run
    # does not hinge on when a bracket happens to close.
    alpha: float = 1e-12
    mes_node_budget: int = 10**7


WORKLOADS = {
    "bounds-k1": Spec("bounds-k1", "bounds", 14, 12, 1, 10, ("urtdp",), ("lgp",),
                      paths=50, seeds_per_round=4, round_seconds=5.0),
    "run-k2": Spec("run-k2", "run", 14, 12, 2, 5, ("urtdp", "greedy", "mes"),
                   ("lgp", "lgp", "gp"), paths=10, seeds_per_round=1, round_seconds=1.2),
    "run-hires": Spec("run-hires", "run", 42, 36, 1, 10, ("urtdp", "greedy", "mes"),
                      ("lgp", "lgp", "gp"), paths=10, seeds_per_round=1, round_seconds=4.5),
}

# Same operations and checks on small inputs: seconds, not minutes.
SMOKE = {
    "bounds-k1": replace(WORKLOADS["bounds-k1"], paths=10, seeds_per_round=1),
    "run-k2": replace(WORKLOADS["run-k2"], budget=3, paths=3),
    "run-hires": replace(WORKLOADS["run-hires"], rows=21, cols=18, budget=4, paths=5),
}


def settle():
    """Start a timed call from the same collector state every time: collect,
    which resets the generation counters, so the call's own collections fall
    at the same points on every run; then freeze what is left, so the
    benchmark's retained inputs and results are not traversed by them."""
    gc.collect()
    gc.freeze()


def prior_cells(cfg, seed: int) -> list:
    """The prior cells ``harness`` draws for ``seed``: away from the start
    cells and their neighbours, with ``default_rng([seed, 1])``."""
    starts = cfg.start_cells
    rng = np.random.default_rng([seed, 1])
    blocked = set(starts)
    for r, c in starts:
        blocked.update({(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)})
    candidates = [c for c in cfg.domain.cells() if c not in blocked]
    idx = rng.choice(len(candidates), size=cfg.prior_units, replace=False)
    return [candidates[i] for i in sorted(idx)]


@dataclass
class Instance:
    seed: int
    field: np.ndarray
    d0: object
    s0: object
    fitted: object


@dataclass
class Op:
    """One timed call and what it returned or raised."""

    label: str
    seed: int
    seconds: float
    result: object = None
    error: Exception | None = None
    attempted: int = 1  # (seed, policy) pairs in a run_seed call
    completed: int = 0
    scale: float = 1.0  # the machine's slowdown over the reference speed

    @property
    def ref_seconds(self) -> float:
        """``seconds`` at the reference speed."""
        return self.seconds / self.scale


@dataclass(frozen=True)
class Bracket:
    """What the checks need of a ``UrtdpResult``."""

    lower: float
    upper: float
    lower_paths: int
    upper_paths: int
    exhausted: bool


@dataclass
class Outcome:
    ops: list[Op] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    observations: int = 0
    dead_ends: int = 0
    setup_s: float = 0.0


class Workload:
    def __init__(self, lib, spec: Spec, seed: int, seconds: float, probes):
        self.lib = lib
        self.spec = spec
        self.probes = probes
        h = lib.harness
        self.cfg = h.validate_config(h.ExperimentConfig(
            rows=spec.rows, cols=spec.cols, team_size=spec.team_size,
            budget_per_robot=spec.budget, prior_units=20, policies=spec.policies,
            models=spec.models, seeds=(seed,), nu=spec.nu,
            truncation_m=spec.truncation_m, alpha=spec.alpha,
            max_simulated_paths=spec.paths, mes_node_budget=spec.mes_node_budget, **FIELD))
        self.rounds = self.instance_seeds(seed, seconds)
        self.seeds = [s for r in self.rounds for s in r]
        self.cfg = replace(self.cfg, seeds=tuple(self.seeds))
        self.instances: dict[int, Instance] = {}
        self.crossing = crossing_instance(lib) if spec.kind == "bounds" else None

    def instance_seeds(self, seed: int, seconds: float) -> list[list[int]]:
        """Instance seeds per round; the round count follows from ``seconds``."""
        spec = self.spec
        per_round = spec.seeds_per_round
        wanted = max(1, round(seconds / spec.round_seconds)) * per_round
        base = SEED_STRIDE * seed
        usable = (s for s in range(base, base + SEED_STRIDE) if self.usable(s))
        picked = list(itertools.islice(usable, wanted))
        if len(picked) < wanted:
            raise BenchError("run too long for the seed stride")
        return [picked[i:i + per_round] for i in range(0, wanted, per_round)]

    def usable(self, seed: int) -> bool:
        """Whether an instance's operations can do their whole work.

        In ``bounds``, the robot needs at least as many move sequences (full
        length or boxed in) as the path budget, or its search tree can close
        early. In ``run``, every robot needs one full-length path, or
        ``mes_nonadaptive`` raises ``DeadEnd`` and ``run_seed`` returns no
        record at all. The robots start in far corners, so their paths are
        checked one at a time.
        """
        cfg, spec = self.cfg, self.spec
        prior = prior_cells(cfg, seed)
        bounds = spec.kind == "bounds"
        need = spec.paths if bounds else 1
        return all(
            checks.move_sequences(cfg.rows, cfg.cols, start,
                                  self.lib.world.interior_heading(start, cfg.domain),
                                  prior, cfg.budget_per_robot, need, boxed_in=bounds) >= need
            for start in cfg.start_cells)

    # -- set-up ----------------------------------------------------------------

    def build(self, seed: int) -> Instance:
        """Inputs for one seed, drawn the way ``harness`` draws them."""
        lib, cfg = self.lib, self.cfg
        domain = cfg.domain
        field_map = lib.field_model.sample_field(cfg.synthetic_hyperparams(), domain, seed)
        starts = cfg.start_cells
        locations = prior_cells(cfg, seed) + list(starts)
        d0 = lib.field_model.PosteriorData(
            locations, [float(np.log(field_map[c])) for c in locations])
        fitted = lib.field_model.fit_hyperparams(d0, domain, grid_points=cfg.fit_grid_points)
        poses = tuple(lib.world.RobotPose(c, lib.world.interior_heading(c, domain))
                      for c in starts)
        s0 = lib.world.TeamState(poses, frozenset(locations), budget=cfg.budget_per_robot)
        probes = self.probes
        probes.fields[probes.field_key(cfg.synthetic_hyperparams(), domain, seed)] = field_map
        probes.fits[probes.fit_key(d0, domain, cfg.fit_grid_points)] = fitted
        return Instance(seed, field_map, d0, s0, fitted)

    def run_ops(self, tracer=None, setup_repeats=SETUP_REPEATS) -> Outcome:
        """Each round: build its seeds' inputs ``setup_repeats`` times (the
        median build counts towards ``setup_s``), then time its operations.
        Set-up is spread through the run like the operations, so both see the
        machine at the same moments."""
        out = Outcome()
        op_id = 0
        for round_seeds in self.rounds:
            for seed in round_seeds:
                settle()
                before = speed.burst()
                if tracer is not None:
                    tracer.begin_op(SETUP_OP)
                times = []
                for _ in range(setup_repeats):
                    t0 = time.perf_counter()
                    self.instances[seed] = self.build(seed)
                    times.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.end_op()
                out.setup_s += statistics.median(times) / speed.scale(before, speed.burst())
            calls = [("seed", seed) for seed in round_seeds]
            if self.spec.kind == "bounds":
                calls.append(("crossing", None))
            for label, seed in calls:
                settle()
                before = speed.burst()
                inside = self.probes.gauge_seconds
                if tracer is not None:
                    tracer.begin_op(op_id)
                op = self._timed(label, seed)
                if tracer is not None:
                    tracer.end_op()
                op.seconds -= self.probes.gauge_seconds - inside  # the decisions' bursts
                op.scale = speed.scale(before, speed.burst())
                op_id += 1
                out.ops.append(op)
        for op in out.ops:
            self._count(op, out)
        return out

    def _timed(self, label, seed) -> Op:
        lib, cfg = self.lib, self.cfg
        if label == "crossing":
            problem, d0, s0, pcfg = self.crossing
            call = lambda: lib.planners.urtdp(problem, d0, s0, pcfg)  # noqa: E731
            expected = ValueError
        elif self.spec.kind == "bounds":
            call = lambda: lib.harness.compute_bounds(cfg, seed)  # noqa: E731
            expected = lib.errors.HotspotPlanError
        else:
            call = lambda: lib.harness.run_seed(cfg, seed)  # noqa: E731
            expected = lib.errors.HotspotPlanError
        n = 1 if self.spec.kind == "bounds" else len(self.spec.policies)
        t0 = time.perf_counter()
        try:
            result = call()
        except expected as exc:
            return Op(label, seed, time.perf_counter() - t0, error=exc, attempted=n)
        seconds = time.perf_counter() - t0
        if self.spec.kind == "bounds":
            # keep the bracket, not the policy: its tables would pile up in memory
            result = Bracket(result.bounds.lower, result.bounds.upper, result.lower_paths,
                             result.upper_paths, result.exhausted)
        return Op(label, seed, seconds, result=result, attempted=n, completed=n)

    def _count(self, op: Op, out: Outcome):
        out.attempted += op.attempted
        out.failed += op.attempted - op.completed
        if self.spec.kind == "bounds" or op.error is not None:
            return
        for rec in op.result:
            out.observations += sum(len(p) - 1 for p in rec.path_cells)
            out.dead_ends += bool(rec.dead_ended)

    # -- end-to-end metrics ----------------------------------------------------

    def metrics(self, outcome: Outcome, peak_rss_mb) -> dict:
        """End-to-end metrics; every time is taken at the reference speed."""
        op_minutes = sum(op.ref_seconds for op in outcome.ops) / 60.0
        if self.spec.kind == "bounds":
            solves = [op for op in outcome.ops if op.label == "seed" and op.error is None]
            paths = sum(op.result.lower_paths + op.result.upper_paths for op in solves)
            decisions = [op.ref_seconds for op in solves]
        else:
            paths = sum(p for _, p in self.probes.decisions)
            decisions = [t for t, _ in self.probes.decisions]
        urtdp_seconds = sum(decisions)
        if not decisions or urtdp_seconds <= 0:
            raise BenchError("no URTDP decision was timed")
        return {
            "setup_s": (outcome.setup_s, "s"),
            "ops_per_min": ((outcome.attempted - outcome.failed) / op_minutes, "1/min"),
            "urtdp_paths_per_s": (paths / urtdp_seconds, "1/s"),
            "urtdp_decision_ms_p50": (statistics.median(decisions) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }, decisions

    # -- checks ----------------------------------------------------------------

    def check(self, outcome: Outcome) -> list[str]:
        if self.spec.kind == "bounds":
            return self._check_bounds(outcome) + check_closure(self.lib)
        return self._check_runs(outcome)

    def _check_bounds(self, outcome: Outcome) -> list[str]:
        lib, spec = self.lib, self.spec
        problems = []
        for op in outcome.ops:
            if op.error is not None:
                continue
            b = op.result
            where = f"{op.label} {op.seed}: bracket [{b.lower}, {b.upper}]"
            if not (math.isfinite(b.lower) and math.isfinite(b.upper) and b.lower <= b.upper):
                problems.append(f"{where} is not ordered and finite")
            if op.label == "crossing":
                problem, d0, s0, pcfg = self.crossing
                lo = lib.planners.bounded_dp(problem, d0, s0, pcfg, "lower")[0]
                up = lib.planners.bounded_dp(problem, d0, s0, pcfg, "upper")[0]
                if not (checks.at_most(b.lower, lo) and checks.at_most(up, b.upper)):
                    problems.append(f"{where} misses exhaustive [{lo}, {up}]")
                continue
            if (b.lower_paths, b.upper_paths) != (spec.paths, spec.paths):
                problems.append(f"{where}: spent {b.lower_paths} Jensen and {b.upper_paths} "
                                f"EM paths, budget {spec.paths} each")
            problems += self._check_root_rewards(self.instances[op.seed])
        return problems

    def _check_root_rewards(self, inst: Instance) -> list[str]:
        """stagewise_reward at the root against the benchmark's own posterior."""
        lib = self.lib
        problem = lib.planners.Problem(self.cfg.domain, inst.fitted, "lgp")
        acts = lib.world.constrained_actions(inst.s0, self.cfg.domain)
        cells = [lib.world.action_target(inst.s0, a).cell for a in acts]
        mean, var = checks.posterior_moments(inst.fitted, inst.d0.locations, inst.d0.z, cells)
        problems = []
        for a, cell, mu, v in zip(acts, cells, mean, var):
            got = lib.planners.stagewise_reward(problem, inst.s0, a, inst.d0)
            want = 0.5 * math.log(2 * math.pi * math.e * v) + mu
            if not checks.close(got, want):
                problems.append(f"seed {inst.seed}: stagewise_reward at {cell} is {got}, want {want}")
        return problems

    def _check_runs(self, outcome: Outcome) -> list[str]:
        spec, cfg = self.spec, self.cfg
        problems = []
        mes_results = iter(self.probes.mes_results)
        all_cells = cfg.domain.cells()
        for op in outcome.ops:
            if op.error is not None:
                continue
            inst = self.instances[op.seed]
            h = inst.fitted
            all_entropy = checks.prior_entropy(h, all_cells)
            starts = [p.cell for p in inst.s0.poses]
            headings = [p.heading for p in inst.s0.poses]
            collected = {}
            for rec in op.result:
                where = f"seed {op.seed} {rec.policy}/{rec.model}"
                paths = [list(map(tuple, p)) for p in rec.path_cells]
                problems += [f"{where}: {m}" for m in checks.path_problems(
                    cfg.rows, cfg.cols, starts, headings, set(inst.d0.locations), paths,
                    cfg.budget_per_robot)]
                new = [c for p in paths for c in p[1:]]
                obs = list(inst.d0.locations) + new
                z = [math.log(inst.field[c]) for c in obs]
                ent, err = checks.ent_err(h, inst.field, all_cells, all_entropy, obs, z)
                if not (checks.close(rec.ent, ent) and checks.close(rec.err, err)):
                    problems.append(f"{where}: ENT/ERR {rec.ent}/{rec.err}, recomputed {ent}/{err}")
                if rec.policy == "greedy":
                    problems += [f"{where}: {m}" for m in checks.greedy_problems(
                        h, rec.model == "lgp", cfg.rows, cfg.cols, cfg.budget_per_robot,
                        inst.d0.locations, inst.d0.z, starts, headings, paths,
                        dict(zip(obs, z)))]
                if not rec.dead_ended and len(new) == cfg.stages:
                    collected[rec.policy] = new
            if "mes" in spec.policies:
                problems += self._check_mes(op.seed, inst, next(mes_results), collected)
        return problems

    def _check_mes(self, seed, inst, mes, collected) -> list[str]:
        """MES is exact, its value is the joint entropy of its cells, and no
        other policy's full-length path collects more."""
        h, prior = inst.fitted, list(inst.d0.locations)
        problems = []
        if not mes.exact:
            problems.append(f"seed {seed}: MES search was cut at {mes.nodes} nodes")
        cells = [tuple(c) for p in mes.paths for c in p[1:]]
        value = checks.joint_entropy(h, prior, cells)
        if not checks.close(mes.value, value):
            problems.append(f"seed {seed}: MES value {mes.value}, joint entropy {value}")
        for policy, new in collected.items():
            other = checks.joint_entropy(h, prior, new)
            if not checks.at_most(other, value):
                problems.append(f"seed {seed}: {policy} cells hold {other} nats, MES {value}")
        return problems


def crossing_instance(lib):
    """The 1x12 corridor whose lgp EM upper bound is not admissible."""
    fm, w, p = lib.field_model, lib.world, lib.planners
    domain = w.GridDomain(1, 12)
    d0 = fm.PosteriorData([(0, 0)], [0.0])
    s0 = w.TeamState((w.RobotPose((0, 0), "E"),), frozenset({(0, 0)}))
    problem = p.Problem(domain, fm.Hyperparams(0.0, 2.0, 3.0, 0.01), "lgp")
    pcfg = p.PlannerConfig(horizon=9, nu=1, truncation_m=4.0, alpha=1e-12,
                           max_simulated_paths=400, seed=0)
    return problem, d0, s0, pcfg


def check_closure(lib, seed: int = 0) -> list[str]:
    """URTDP run to closure on a 4x4, horizon-3 instance meets bounded_dp.

    The instance is fixed: on 7 of the instances for seeds 0, 1000, ..., 99000
    the lgp EM instance closes below bounded_dp's EM value, because its
    initial upper bound is not admissible (the fault the 1x12 operation of
    ``bounds-k1`` counts); seed 0 is not one of them.
    """
    fm, w, p = lib.field_model, lib.world, lib.planners
    domain = w.GridDomain(4, 4)
    h = fm.Hyperparams(0.4, 1.3, 2.0, 0.05)
    truth = fm.sample_field(h, domain, seed)
    rng = np.random.default_rng([seed, 2])
    cells = [c for c in domain.cells() if c not in {(0, 0), (1, 0), (0, 1)}]
    prior = [cells[i] for i in sorted(rng.choice(len(cells), size=3, replace=False))]
    locations = prior + [(0, 0)]
    d0 = fm.PosteriorData(locations, [math.log(truth[c]) for c in locations])
    s0 = w.TeamState((w.RobotPose((0, 0), "S"),), frozenset(locations))
    pcfg = p.PlannerConfig(horizon=3, nu=2, truncation_m=4.0, alpha=1e-9,
                           max_simulated_paths=100_000, seed=seed)
    problems = []
    for model in ("gp", "lgp"):
        problem = p.Problem(domain, h, model)
        res = p.urtdp(problem, d0, s0, pcfg)
        lo = p.bounded_dp(problem, d0, s0, pcfg, "lower")[0]
        up = p.bounded_dp(problem, d0, s0, pcfg, "upper")[0]
        b = res.bounds
        if res.exhausted or not (checks.close(b.lower, lo) and checks.close(b.upper, up)):
            problems.append(f"4x4 {model} seed {seed}: URTDP [{b.lower}, {b.upper}] "
                            f"after {res.lower_paths}+{res.upper_paths} paths, "
                            f"bounded_dp [{lo}, {up}]")
    return problems

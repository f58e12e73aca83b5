"""Batch experiment front end: config files, field I/O, runs, persistence.

Config files are flat ``key = value`` text (``#`` comments allowed); field
files are ``row,col,value`` CSV covering every domain cell exactly once.
Given a config and its seed list, every emitted byte is deterministic.
"""

from __future__ import annotations

import concurrent.futures
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DeadEnd, IoError, MissingCell, NonPositiveValue, ParseError
from .evaluation import paired_ttest, rollout
from .field_model import PosteriorData, Hyperparams, fit_hyperparams, sample_field
from .planners import (
    GreedyPolicy,
    MesResult,
    NonAdaptivePolicy,
    PlannerConfig,
    Problem,
    mes_nonadaptive,
    mi_greedy,
    urtdp,
    urtdp_policy,
)
from .world import Cell, GridDomain, RobotPose, TeamState, interior_heading

# policy name -> (admissible measurement models, builder of (policy, search)
# from (problem, planner config, experiment config, d0, s0)); search is the
# MesResult whose outcome (exact, nodes) the record keeps, None for the other
# policies. The builders read the planners as module globals when they run,
# so a patched global takes effect
POLICY_REGISTRY = {
    "urtdp": (("gp", "lgp"),
              lambda problem, pcfg, cfg, d0, s0: (urtdp_policy(problem, pcfg), None)),
    "greedy": (("gp", "lgp"), lambda problem, pcfg, cfg, d0, s0: (GreedyPolicy(problem), None)),
    "mes": (("gp",), lambda problem, pcfg, cfg, d0, s0: _with_search(mes_nonadaptive(
        problem, d0, s0, node_budget=cfg.mes_node_budget))),
    "mi": (("gp",), lambda problem, pcfg, cfg, d0, s0: (mi_greedy(problem, d0, s0).policy, None)),
}


def _with_search(result: MesResult):
    return result.policy, result


_SYNTHETIC_KEYS = (
    "field_mean",
    "field_signal_variance",
    "field_length_scale",
    "field_noise_variance",
)


@dataclass(frozen=True)
class ExperimentConfig:
    rows: int
    cols: int
    team_size: int
    budget_per_robot: int
    prior_units: int
    policies: tuple[str, ...]
    models: tuple[str, ...]
    seeds: tuple[int, ...]
    nu: int = 4
    truncation_m: float = 4.0
    alpha: float = 0.1
    max_simulated_paths: int = 300
    mes_node_budget: int = 200_000
    fit_grid_points: int = 12
    field_csv: str | None = None
    field_mean: float | None = None
    field_signal_variance: float | None = None
    field_length_scale: float | None = None
    field_noise_variance: float | None = None
    start_cells: tuple[Cell, ...] = field(default=())

    @cached_property
    def domain(self) -> GridDomain:
        """The config's one grid, which every problem of a run shares with its move table."""
        return GridDomain(self.rows, self.cols)

    @property
    def stages(self) -> int:
        return self.team_size * self.budget_per_robot

    def offset_seeds(self, offset: int) -> list[int]:
        """The seeds plus ``offset``, the seeds a verb runs; each must be non-negative."""
        seeds = [s + offset for s in self.seeds]
        if min(seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {min(seeds)}")
        return seeds

    def synthetic_hyperparams(self) -> Hyperparams:
        return Hyperparams(
            self.field_mean,
            self.field_signal_variance,
            self.field_length_scale,
            self.field_noise_variance,
        )


@dataclass(frozen=True)
class ResultRecord:
    policy: str
    model: str
    k: int
    seed: int
    ent: float
    err: float
    wall_time_s: float
    path_cells: tuple = ()
    dead_ended: bool = False
    mes_exact: bool | None = None  # MesResult.exact and .nodes; None for other policies
    mes_nodes: int | None = None


def default_start_cells(domain: GridDomain, k: int) -> tuple[Cell, ...]:
    corners = [
        (0, 0),
        (domain.rows - 1, domain.cols - 1),
        (0, domain.cols - 1),
        (domain.rows - 1, 0),
    ]
    if k > len(corners):
        raise ConfigError(f"no default start cells for team size {k}")
    return tuple(corners[:k])


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    for key in ("team_size", "budget_per_robot", "prior_units", "fit_grid_points",
                "mes_node_budget"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be >= 1")
    if len(cfg.policies) != len(cfg.models):
        raise ConfigError("policies and models lists must have equal length")
    if not cfg.policies:
        raise ConfigError("need at least one policy")
    for name, model in zip(cfg.policies, cfg.models):
        if name not in POLICY_REGISTRY:
            raise ConfigError(f"unknown policy {name!r}")
        if model not in POLICY_REGISTRY[name][0]:
            raise ConfigError(f"policy {name!r} does not support model {model!r}")
    if len(set(zip(cfg.policies, cfg.models))) != len(cfg.policies):
        raise ConfigError("each (policy, model) arm may be listed only once")
    if not cfg.seeds:
        raise ConfigError("need at least one seed")
    if len(set(cfg.seeds)) != len(cfg.seeds):
        raise ConfigError("each seed may be listed only once")
    cfg.offset_seeds(0)  # raises on a negative seed
    if cfg.field_csv is None:
        missing = [k for k in _SYNTHETIC_KEYS if getattr(cfg, k) is None]
        if missing:
            raise ConfigError(
                "config needs either field_csv or synthetic field keys; missing: "
                + ", ".join(missing)
            )
    # the grid, the planners and the field prior check their own values
    try:
        domain = cfg.domain
        _planner_config(cfg, 0)
        if cfg.field_csv is None:
            cfg.synthetic_hyperparams()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    starts = cfg.start_cells or default_start_cells(domain, cfg.team_size)
    if len(starts) != cfg.team_size:
        raise ConfigError("start_cells count must equal team_size")
    if len(set(starts)) != len(starts):
        raise ConfigError("start cells must be distinct")
    for c in starts:
        if not domain.contains(c):
            raise ConfigError(f"start cell {c} outside the domain")
    pool = len(_prior_pool(domain, starts))
    if cfg.prior_units > pool:
        raise ConfigError(f"prior_units = {cfg.prior_units} exceeds the {pool} cells that are "
                          "neither a start cell nor a start cell's neighbour")
    if cfg.prior_units + cfg.team_size < 5:
        raise ConfigError("need at least 5 prior observations to fit hyperparameters")
    return replace(cfg, start_cells=tuple(starts))


def _prior_pool(domain: GridDomain, starts) -> list[Cell]:
    """The cells the prior draw picks from: all but the start cells and their
    four neighbours, so that no robot can begin boxed in by prior data."""
    blocked = set(starts)
    for r, c in starts:
        blocked.update({(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)})
    return [c for c in domain.cells() if c not in blocked]


def _parse_cells(raw: str) -> tuple[Cell, ...]:
    pairs = (part.split(":") for part in raw.split(";") if part.strip())
    return tuple((int(r), int(c)) for r, c in pairs)


# the parser of each ExperimentConfig field type, by its annotation string
_PARSERS = {
    "int": int,
    "float": float,
    "float | None": float,
    "str | None": str,
    "tuple[str, ...]": lambda raw: tuple(part.strip() for part in raw.split(",") if part.strip()),
    "tuple[int, ...]": lambda raw: tuple(int(part) for part in raw.split(",") if part.strip()),
    "tuple[Cell, ...]": _parse_cells,
}


def load_config(path) -> ExperimentConfig:
    """Parse and validate a flat key-value config file; the fields of
    :class:`ExperimentConfig` are its keys, and their types pick the parsers."""
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in types:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is repeated")
        try:
            values[key] = _PARSERS[types[key]](raw.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    missing = [f.name for f in fields(ExperimentConfig)
               if f.name not in values and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    return validate_config(ExperimentConfig(**values))


# ---------------------------------------------------------------------------
# Field CSV I/O
# ---------------------------------------------------------------------------


def load_field_csv(path, domain: GridDomain | None = None) -> np.ndarray:
    """Read a ``row,col,value`` field file covering a full grid."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read field file {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != "row,col,value":
        raise ParseError(f"{path}: first line must be the header 'row,col,value'")
    entries: dict[Cell, float] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 'row,col,value'")
        try:
            r, c, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if not 0 < v < np.inf:
            raise NonPositiveValue(f"{path}:{lineno}: value must be positive and finite, got {v}")
        if (r, c) in entries:
            raise MissingCell(f"{path}:{lineno}: duplicate cell ({r},{c})")
        entries[(r, c)] = v
    if not entries:
        raise MissingCell(f"{path}: no data rows")
    if domain is None:
        rows = max(r for r, _ in entries) + 1
        cols = max(c for _, c in entries) + 1
        domain = GridDomain(rows, cols)
    missing = [c for c in domain.cells() if c not in entries]
    if missing:
        raise MissingCell(f"{path}: missing cells, first: {missing[0]}")
    if len(entries) != domain.size:
        extra = [c for c in entries if not domain.contains(c)]
        raise MissingCell(f"{path}: cells outside domain, first: {extra[0]}")
    out = np.empty((domain.rows, domain.cols))
    for (r, c), v in entries.items():
        out[r, c] = v
    return out


def save_field_csv(field: np.ndarray, path) -> None:
    """Write a field in row-major order; values round-trip bit-exactly."""
    lines = ["row,col,value"]
    rows, cols = field.shape
    for r in range(rows):
        for c in range(cols):
            lines.append(f"{r},{c},{float(field[r, c])!r}")
    _write_lines(path, lines)


def _write_lines(path, lines) -> None:
    """Write ``lines`` to ``path``, each ending in a newline."""
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------


def _build_instance(cfg: ExperimentConfig, seed: int):
    """Field, prior data, start state, and fitted hyperparameters for a seed."""
    domain = cfg.domain
    if cfg.field_csv is not None:
        field_map = load_field_csv(cfg.field_csv, domain)
    else:
        field_map = sample_field(cfg.synthetic_hyperparams(), domain, seed)
    starts = cfg.start_cells or default_start_cells(domain, cfg.team_size)
    prior_rng = np.random.default_rng([seed, 1])  # stream independent of planners
    candidates = _prior_pool(domain, starts)
    idx = prior_rng.choice(len(candidates), size=cfg.prior_units, replace=False)
    prior_cells = [candidates[i] for i in sorted(idx)]
    locations = prior_cells + list(starts)
    z = [float(np.log(field_map[c])) for c in locations]
    d0 = PosteriorData(locations, z)
    fitted = fit_hyperparams(d0, domain, grid_points=cfg.fit_grid_points)
    poses = tuple(RobotPose(c, interior_heading(c, domain)) for c in starts)
    s0 = TeamState(poses, frozenset(locations), budget=cfg.budget_per_robot)
    return field_map, d0, s0, fitted


def _planner_config(cfg: ExperimentConfig, seed: int) -> PlannerConfig:
    return PlannerConfig(
        horizon=cfg.stages - 1,
        nu=cfg.nu,
        truncation_m=cfg.truncation_m,
        alpha=cfg.alpha,
        max_simulated_paths=cfg.max_simulated_paths,
        seed=seed,
    )


def _build_policy(name: str, problem: Problem, pcfg: PlannerConfig,
                  cfg: ExperimentConfig, d0, s0):
    """(policy, search) from the policy's builder plus the planning time
    already spent building it; a baseline boxed in before it commits a path
    replays an empty one."""
    t0 = time.perf_counter()
    try:
        built = POLICY_REGISTRY[name][1](problem, pcfg, cfg, d0, s0)
    except DeadEnd:
        built = NonAdaptivePolicy([]), None
    return built, time.perf_counter() - t0


def run_seed(cfg: ExperimentConfig, seed: int) -> list[ResultRecord]:
    """All policy records for one seed; deterministic in (cfg, seed)."""
    field_map, d0, s0, fitted = _build_instance(cfg, seed)
    pcfg = _planner_config(cfg, seed)
    records = []
    for name, model in zip(cfg.policies, cfg.models):
        problem = Problem(cfg.domain, fitted, model)
        (policy, search), build_time = _build_policy(name, problem, pcfg, cfg, d0, s0)
        res = rollout(problem, policy, field_map, d0, s0)
        records.append(
            ResultRecord(
                policy=name,
                model=model,
                k=cfg.team_size,
                seed=seed,
                ent=res.ent,
                err=res.err,
                wall_time_s=build_time + res.wall_time,
                path_cells=tuple(tuple(p) for p in res.path_cells),
                dead_ended=res.dead_ended,
                mes_exact=None if search is None else search.exact,
                mes_nodes=None if search is None else search.nodes,
            )
        )
    return records


def run_experiment(cfg: ExperimentConfig, seed_offset: int = 0, threads: int = 1):
    """Run every (policy, model) arm on every seed, in ``threads`` worker
    processes (at most one per seed) when it is above 1; records ordered by
    the arm's first place in the config, then by seed."""
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    cfg = validate_config(cfg)
    seeds = cfg.offset_seeds(seed_offset)
    if threads > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(threads, len(seeds))) as pool:
            per_seed = list(pool.map(run_seed, [cfg] * len(seeds), seeds))
    else:
        per_seed = [run_seed(cfg, s) for s in seeds]
    records = [rec for group in per_seed for rec in group]
    arms = list(zip(cfg.policies, cfg.models))
    records.sort(key=lambda r: (arms.index((r.policy, r.model)), r.seed))
    return records


def compute_bounds(cfg: ExperimentConfig, seed: int):
    """Root value bounds for one seed (the ``bounds`` CLI verb)."""
    _, d0, s0, fitted = _build_instance(cfg, seed)
    pcfg = _planner_config(cfg, seed)
    problem = Problem(cfg.domain, fitted, cfg.models[0])
    return urtdp(problem, d0, s0, pcfg)


# ---------------------------------------------------------------------------
# Results persistence
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def make_output_dir(path) -> Path:
    """Create ``path`` and its parents unless it already is a directory."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out}: {exc}") from exc
    return out


def emit_results(records, out_dir) -> tuple[Path, Path]:
    """Write results.csv plus a summary per (policy, model) arm (means and
    dead-end counts) with paired t-tests.

    The summary compares each arm against the first-listed one on ENT and
    ERR over the shared seeds, then names each MES row whose search was cut
    at its node budget. Output bytes depend only on the records.
    """
    out = make_output_dir(out_dir)
    csv_path = out / "results.csv"
    lines = ["policy,model,k,seed,ent,err,wall_time_s"]
    for r in records:
        lines.append(
            f"{r.policy},{r.model},{r.k},{r.seed},{_fmt(r.ent)},{_fmt(r.err)},{_fmt(r.wall_time_s)}"
        )
    _write_lines(csv_path, lines)

    summary_path = out / "summary.txt"
    by_arm: dict[tuple[str, str], list[ResultRecord]] = {}
    for r in records:
        by_arm.setdefault((r.policy, r.model), []).append(r)
    arms = list(by_arm)
    slines = []
    for (name, model), group in by_arm.items():
        ent = np.mean([g.ent for g in group])
        err = np.mean([g.err for g in group])
        wall = np.mean([g.wall_time_s for g in group])
        dead = sum(g.dead_ended for g in group)
        slines.append(
            f"policy={name} model={model} runs={len(group)} dead_ends={dead} "
            f"mean_ent={_fmt(ent)} mean_err={_fmt(err)} mean_wall_s={_fmt(wall)}"
        )
    if len(arms) > 1:
        base = "/".join(arms[0])
        base_by_seed = {r.seed: r for r in by_arm[arms[0]]}
        for name, model in arms[1:]:
            label = f"ttest {base} vs {name}/{model}:"
            shared = [r for r in by_arm[name, model] if r.seed in base_by_seed]
            if len(shared) < 5:
                slines.append(f"{label} insufficient pairs")
                continue
            a_ent = [base_by_seed[r.seed].ent for r in shared]
            b_ent = [r.ent for r in shared]
            a_err = [base_by_seed[r.seed].err for r in shared]
            b_err = [r.err for r in shared]
            t_ent, sig_ent = paired_ttest(a_ent, b_ent, 0.1)
            t_err, sig_err = paired_ttest(a_err, b_err, 0.1)
            slines.append(
                f"{label} ent_t={_fmt(t_ent)} ent_significant={sig_ent} "
                f"err_t={_fmt(t_err)} err_significant={sig_err}"
            )
    slines += [f"mes_search_cut model={r.model} seed={r.seed} nodes={r.mes_nodes}"
               for r in records if r.mes_exact is False]
    _write_lines(summary_path, slines)
    return csv_path, summary_path

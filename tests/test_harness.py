import concurrent.futures
import math
import re
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hotspotplan import harness
from hotspotplan.cli import main as cli_main
from hotspotplan.errors import (
    ConfigError,
    MissingCell,
    NonPositiveValue,
    ParseError,
)
from hotspotplan.evaluation import ent_metric, paired_ttest
from hotspotplan.field_model import Hyperparams, sample_field
from hotspotplan.harness import (
    POLICY_REGISTRY,
    ExperimentConfig,
    ResultRecord,
    _build_instance,
    _prior_pool,
    compute_bounds,
    default_start_cells,
    emit_results,
    load_config,
    load_field_csv,
    run_experiment,
    run_seed,
    save_field_csv,
    validate_config,
)
from hotspotplan.planners import Problem
from hotspotplan.world import GridDomain

BASE_CONFIG = """
# tiny smoke experiment
rows = 4
cols = 4
team_size = 1
budget_per_robot = 3
prior_units = 4
policies = greedy
models = lgp
seeds = 0,1
nu = 2
alpha = 0.5
max_simulated_paths = 20
fit_grid_points = 4
field_mean = 0.3
field_signal_variance = 1.0
field_length_scale = 1.5
field_noise_variance = 0.01
"""


def write_config(tmp_path, text=BASE_CONFIG, **overrides):
    lines = [l for l in text.strip().splitlines()]
    for key, value in overrides.items():
        lines = [l for l in lines if not l.strip().startswith(key)]
        lines.append(f"{key} = {value}")
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


# -- field CSV ----------------------------------------------------------------


def test_field_csv_round_trip_is_bit_exact(tmp_path):
    h = Hyperparams(0.2, 1.1, 1.4, 0.02)
    field = sample_field(h, GridDomain(5, 4), seed=9)
    path = tmp_path / "field.csv"
    save_field_csv(field, path)
    loaded = load_field_csv(path)
    assert loaded.shape == field.shape
    assert np.array_equal(loaded, field)


def test_field_csv_two_by_two(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("row,col,value\n0,0,1.5\n0,1,2.5\n1,0,3.5\n1,1,4.5\n")
    field = load_field_csv(path)
    assert field.shape == (2, 2)
    assert field[1, 0] == 3.5


def test_field_csv_rejects_duplicates(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("row,col,value\n0,0,1.0\n0,0,2.0\n0,1,1.0\n1,0,1.0\n1,1,1.0\n")
    with pytest.raises(MissingCell):
        load_field_csv(path)


def test_field_csv_rejects_missing_cells(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("row,col,value\n0,0,1.0\n1,1,2.0\n")
    with pytest.raises(MissingCell):
        load_field_csv(path)


@pytest.mark.parametrize("value", ["-2.0", "nan", "inf"])
def test_field_csv_rejects_nonpositive_values(tmp_path, value):
    path = tmp_path / "f.csv"
    path.write_text(f"row,col,value\n0,0,1.0\n0,1,{value}\n")
    with pytest.raises(NonPositiveValue, match=r"f\.csv:3: value must be positive and finite"):
        load_field_csv(path)


def test_field_csv_requires_header(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("0,0,1.0\n")
    with pytest.raises(ParseError):
        load_field_csv(path)


# -- config -------------------------------------------------------------------


def test_config_parses_and_validates(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.rows == 4 and cfg.team_size == 1
    assert cfg.policies == ("greedy",) and cfg.models == ("lgp",)
    assert cfg.seeds == (0, 1)
    assert cfg.start_cells  # defaults filled in


def test_config_rejects_unknown_policy(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, policies="warp", models="lgp"))


def test_config_rejects_model_outside_registry(tmp_path):
    # MES plans in the log scale only
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, policies="mes", models="lgp"))


def test_config_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("rows = 4\ncols = 4\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, warp_drive="on"))


def test_config_start_cells_parse(tmp_path):
    cfg = load_config(write_config(tmp_path, start_cells="1:1"))
    assert cfg.start_cells == ((1, 1),)


def test_config_rejects_more_prior_units_than_the_prior_draw_can_supply(tmp_path, capsys):
    # on 3x3 with k=1 the corner start and its two neighbours leave 6 cells
    path = write_config(tmp_path, rows=3, cols=3, prior_units=6)
    assert load_config(path).prior_units == 6
    path = write_config(tmp_path, rows=3, cols=3, prior_units=8)
    with pytest.raises(ConfigError, match="exceeds the 6 cells"):
        load_config(path)
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
    assert "config error: prior_units = 8 exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("nu", "0"),
    ("alpha", "-1"),
    ("truncation_m", "0"),
    ("max_simulated_paths", "0"),
    ("field_signal_variance", "-1"),
    ("rows", "0"),
    ("fit_grid_points", "0"),
    ("mes_node_budget", "-5"),
    # NaN and inf pass a sign test; each must be refused as a config error
    ("alpha", "nan"),
    ("alpha", "inf"),
    ("truncation_m", "nan"),
    ("truncation_m", "inf"),
    ("field_mean", "nan"),
    ("field_mean", "inf"),
    ("field_signal_variance", "inf"),
    ("field_length_scale", "nan"),
    ("field_noise_variance", "nan"),
    ("field_noise_variance", "inf"),
    ("seeds", "-1"),
])
def test_config_rejects_every_value_its_objects_reject(tmp_path, capsys, key, value):
    # the grid, planner config and field prior reject these; loading does too
    path = write_config(tmp_path, **{key: value})
    with pytest.raises(ConfigError):
        load_config(path)
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
    assert "config error:" in capsys.readouterr().err


def test_config_rejects_a_repeated_arm(tmp_path):
    # a repeated (policy, model) arm would run twice and merge in the summary
    path = write_config(tmp_path, policies="greedy,mi,greedy", models="lgp,gp,lgp")
    with pytest.raises(ConfigError, match="listed only once"):
        load_config(path)


def test_config_rejects_a_repeated_seed(tmp_path):
    # a repeated seed would run twice, count twice in the summary's runs and
    # pair both copies with one base record in each paired t-test
    path = write_config(tmp_path, seeds="0, 0, 1")
    with pytest.raises(ConfigError, match="seed may be listed only once"):
        load_config(path)


def test_config_rejects_a_repeated_key(tmp_path):
    # a repeated key would silently keep its last value
    path = tmp_path / "c.cfg"
    path.write_text(BASE_CONFIG.strip() + "\nrows = 5\n")
    line = len(BASE_CONFIG.strip().splitlines()) + 1
    with pytest.raises(ConfigError, match=rf"c\.cfg:{line}: config key 'rows' is repeated"):
        load_config(path)


def test_config_needs_field_source(tmp_path):
    text = "\n".join(
        l for l in BASE_CONFIG.strip().splitlines() if not l.startswith("field_")
    )
    path = tmp_path / "c.cfg"
    path.write_text(text + "\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_every_config_field_parses_to_its_annotated_value(tmp_path):
    # a config file sets every ExperimentConfig field; each key's parser comes
    # from the field's type, so a type without one fails here
    expected = {
        "rows": ("5", 5),
        "cols": ("6", 6),
        "team_size": ("2", 2),
        "budget_per_robot": ("3", 3),
        "prior_units": ("4", 4),
        "policies": ("urtdp, greedy,mes", ("urtdp", "greedy", "mes")),
        "models": ("lgp,gp ,gp", ("lgp", "gp", "gp")),
        "seeds": ("3, 1,4", (3, 1, 4)),
        "nu": ("5", 5),
        "truncation_m": ("3.5", 3.5),
        "alpha": ("0.25", 0.25),
        "max_simulated_paths": ("77", 77),
        "mes_node_budget": ("1234", 1234),
        "fit_grid_points": ("7", 7),
        "field_csv": ("fields/a b.csv", "fields/a b.csv"),
        "field_mean": ("-0.5", -0.5),
        "field_signal_variance": ("1.25", 1.25),
        "field_length_scale": ("2.5", 2.5),
        "field_noise_variance": ("0.0", 0.0),
        "start_cells": ("0:1; 4:5", ((0, 1), (4, 5))),
    }
    assert set(expected) == {f.name for f in fields(ExperimentConfig)}
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{key} = {raw}\n" for key, (raw, _) in expected.items()))
    cfg = load_config(path)
    for key, (_, value) in expected.items():
        got = getattr(cfg, key)
        assert got == value and type(got) is type(value), key


def test_missing_required_key_is_named(tmp_path):
    required = [f.name for f in fields(ExperimentConfig)
                if f.default is MISSING and f.default_factory is MISSING]
    assert required == ["rows", "cols", "team_size", "budget_per_robot", "prior_units",
                        "policies", "models", "seeds"]
    for key in required:
        text = "\n".join(l for l in BASE_CONFIG.strip().splitlines() if not l.startswith(key))
        path = tmp_path / f"no_{key}.cfg"
        path.write_text(text + "\n")
        with pytest.raises(ConfigError, match=f"missing config keys: {key}$"):
            load_config(path)


# -- run_experiment ------------------------------------------------------------


def test_single_seed_single_policy_produces_finite_record(tmp_path):
    cfg = load_config(write_config(tmp_path, seeds="0"))
    records = run_experiment(cfg)
    assert len(records) == 1
    rec = records[0]
    assert rec.policy == "greedy" and rec.seed == 0
    assert math.isfinite(rec.ent) and math.isfinite(rec.err)
    assert rec.wall_time_s >= 0


def strip_times(records):
    from dataclasses import replace

    return [replace(r, wall_time_s=0.0) for r in records]


def drop_timing_bytes(csv_text, summary_text):
    csv_rows = [",".join(l.split(",")[:6]) for l in csv_text.splitlines()]
    summary_rows = [
        " ".join(tok for tok in l.split() if not tok.startswith("mean_wall_s="))
        for l in summary_text.splitlines()
    ]
    return csv_rows, summary_rows


def test_run_seed_builds_every_registry_policy(tmp_path, monkeypatch):
    # one seed runs each policy of the registry through its builder, which
    # reads the planner from the harness module when it runs
    calls = []
    for name in ("urtdp_policy", "GreedyPolicy", "mes_nonadaptive", "mi_greedy"):
        def wrapped(*args, _real=getattr(harness, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(harness, name, wrapped)
    cfg = load_config(write_config(tmp_path, policies="urtdp,greedy,mes,mi",
                                   models="lgp,lgp,gp,gp", seeds="0"))
    assert set(POLICY_REGISTRY) == set(cfg.policies)
    records = run_seed(cfg, 0)
    assert calls == ["urtdp_policy", "GreedyPolicy", "mes_nonadaptive", "mi_greedy"]
    assert [(r.policy, r.model) for r in records] == list(zip(cfg.policies, cfg.models))
    for r in records:
        assert not r.dead_ended and len(r.path_cells[0]) == cfg.budget_per_robot + 1
        assert math.isfinite(r.ent) and math.isfinite(r.err)


def test_run_experiment_is_deterministic(tmp_path):
    # timing aside, (config, seeds) fully determine the records
    cfg = load_config(write_config(tmp_path))
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert strip_times(r1) == strip_times(r2)


def test_equal_total_observations_across_team_sizes(tmp_path):
    # 1 robot x 18 and 2 robots x 9 both collect 18 new cells; MES commits
    # complete feasible paths, so neither configuration can dead-end
    totals = {}
    for k, n in ((1, 18), (2, 9)):
        cfg = validate_config(
            ExperimentConfig(
                rows=14, cols=12, team_size=k, budget_per_robot=n,
                prior_units=20, policies=("mes",), models=("gp",),
                seeds=(3,), fit_grid_points=4, mes_node_budget=20_000,
                field_mean=0.4, field_signal_variance=1.2,
                field_length_scale=2.0, field_noise_variance=0.01,
            )
        )
        rec = run_seed(cfg, 3)[0]
        new_cells = sum(len(p) - 1 for p in rec.path_cells)
        totals[k] = new_cells
        assert not rec.dead_ended
    assert totals == {1: 18, 2: 18}


@pytest.mark.parametrize(
    "k, budget, baseline, seed",
    [
        (1, 18, "mi", 7),  # MI's greedy path construction boxes itself in
        (2, 6, "mes", 60),  # prior cells leave no complete joint path
    ],
)
def test_boxed_in_baseline_is_a_dead_ended_record(k, budget, baseline, seed):
    def config(policies, models):
        return validate_config(
            ExperimentConfig(
                rows=14, cols=12, team_size=k, budget_per_robot=budget,
                prior_units=20, policies=policies, models=models, seeds=(seed,),
                field_mean=0.4, field_signal_variance=1.3,
                field_length_scale=2.0, field_noise_variance=0.05,
            )
        )

    cfg = config(("greedy", baseline), ("lgp", "gp"))
    greedy, base = run_seed(cfg, seed)
    assert base.policy == baseline and base.dead_ended
    assert base.path_cells == tuple((c,) for c in cfg.start_cells)
    _, d0, _, fitted = _build_instance(cfg, seed)
    assert base.ent == ent_metric(Problem(cfg.domain, fitted, "gp"), d0)
    (alone,) = run_seed(config(("greedy",), ("lgp",)), seed)
    assert replace(greedy, wall_time_s=0.0) == replace(alone, wall_time_s=0.0)


def fully_observed_config(tmp_path):
    # 9 of the 12 cells start observed; the robot at (2, 0) observes the other
    # 3 and is boxed in with 2 of its 5 steps left and no cell unobserved
    return write_config(tmp_path, rows=3, cols=4, budget_per_robot=5, prior_units=8,
                        start_cells="2:0", models="gp", seeds="7")


def test_a_run_that_observes_every_cell_is_a_dead_ended_record_of_zero_entropy(tmp_path):
    cfg = load_config(fully_observed_config(tmp_path))
    (rec,) = run_seed(cfg, 7)
    assert sum(len(p) - 1 for p in rec.path_cells) == 12 - cfg.prior_units - cfg.team_size
    assert rec.dead_ended and rec.ent == 0.0 and math.isfinite(rec.err)


_ARMS = [(name, model) for name, (models, _) in POLICY_REGISTRY.items() for model in models]


@st.composite
def small_configs(draw):
    """An ExperimentConfig on a grid of 1-6 cells a side, valid or not: k = 1-3,
    budgets 1-4, prior units up to the prior pool, a non-empty set of legal
    arms, nu = 1-3, at most 20 paths and default or random start cells."""
    rows, cols, k = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    domain = GridDomain(rows, cols)
    starts = draw(st.one_of(st.just(()), st.lists(
        st.sampled_from(domain.cells()), min_size=k, max_size=k).map(tuple)))
    pool = len(_prior_pool(domain, starts or default_start_cells(domain, k)))
    arms = draw(st.lists(st.sampled_from(_ARMS), min_size=1, max_size=len(_ARMS), unique=True))
    return ExperimentConfig(
        rows=rows, cols=cols, team_size=k, budget_per_robot=draw(st.integers(1, 4)),
        prior_units=draw(st.integers(1, max(pool, 1))),
        policies=tuple(p for p, _ in arms), models=tuple(m for _, m in arms),
        seeds=(draw(st.integers(0, 10_000)),), nu=draw(st.integers(1, 3)), alpha=0.5,
        max_simulated_paths=draw(st.integers(1, 20)),
        mes_node_budget=draw(st.integers(1, 5_000)), fit_grid_points=4,
        field_mean=0.3, field_signal_variance=1.0, field_length_scale=1.5,
        field_noise_variance=0.01, start_cells=starts,
    )


@settings(max_examples=200, deadline=None)
@given(small_configs())
@example(ExperimentConfig(
    rows=3, cols=4, team_size=1, budget_per_robot=5, prior_units=8, policies=("greedy",),
    models=("gp",), seeds=(7,), nu=2, alpha=0.5, max_simulated_paths=20, fit_grid_points=4,
    field_mean=0.3, field_signal_variance=1.0, field_length_scale=1.5,
    field_noise_variance=0.01, start_cells=((2, 0),)))
def test_a_small_config_is_refused_or_runs_to_finite_records_and_a_bracket(cfg):
    # a config is a ConfigError or runs: one finite record per arm, dead-ended
    # exactly when it collected fewer than its stages, and an ordered bracket
    try:
        cfg = validate_config(cfg)
    except ConfigError:
        return
    (seed,) = cfg.seeds
    records = run_seed(cfg, seed)
    assert [(r.policy, r.model) for r in records] == list(zip(cfg.policies, cfg.models))
    for r in records:
        assert math.isfinite(r.ent) and math.isfinite(r.err)
        assert r.dead_ended == (sum(len(p) - 1 for p in r.path_cells) < cfg.stages)
    bounds = compute_bounds(cfg, seed).bounds
    assert bounds.lower <= bounds.upper + 1e-9


def test_csv_field_source(tmp_path):
    h = Hyperparams(0.1, 1.0, 1.5, 0.01)
    field = sample_field(h, GridDomain(4, 4), seed=3)
    fpath = tmp_path / "field.csv"
    save_field_csv(field, fpath)
    cfg = load_config(write_config(tmp_path, field_csv=str(fpath)))
    records = run_experiment(cfg)
    assert len(records) == 2  # two seeds, same field, different priors


# -- emit_results ---------------------------------------------------------------


def test_emit_empty_records_header_only(tmp_path):
    csv_path, summary_path = emit_results([], tmp_path / "out")
    assert csv_path.read_text() == "policy,model,k,seed,ent,err,wall_time_s\n"
    assert summary_path.read_text() == "\n"


def test_emit_single_record(tmp_path):
    rec = ResultRecord("greedy", "lgp", 1, 0, 12.345678, 0.123456789, 0.5)
    csv_path, _ = emit_results([rec], tmp_path / "out")
    lines = csv_path.read_text().splitlines()
    assert lines[1] == "greedy,lgp,1,0,12.3457,0.123457,0.5"


def test_emit_summary_counts_dead_ends(tmp_path):
    records = [
        ResultRecord("greedy", "lgp", 1, 0, 1.0, 0.1, 0.5, dead_ended=True),
        ResultRecord("greedy", "lgp", 1, 1, 2.0, 0.2, 0.5),
    ]
    csv_path, summary_path = emit_results(records, tmp_path / "out")
    assert csv_path.read_text().splitlines()[0] == "policy,model,k,seed,ent,err,wall_time_s"
    assert summary_path.read_text().startswith("policy=greedy model=lgp runs=2 dead_ends=1 ")


def test_emit_summary_means_match_recomputation(tmp_path):
    cfg = load_config(write_config(tmp_path, policies="greedy,mi", models="lgp,gp",
                                   seeds="0,1,2,3,4"))
    records = run_experiment(cfg)
    csv_path, summary_path = emit_results(records, tmp_path / "out")
    # recompute means from the CSV itself
    rows = [l.split(",") for l in csv_path.read_text().splitlines()[1:]]
    by_policy = {}
    for policy, model, k, seed, ent, err, wall in rows:
        by_policy.setdefault(policy, []).append(float(ent))
    summary = summary_path.read_text()
    for policy, ents in by_policy.items():
        printed = [l for l in summary.splitlines() if l.startswith(f"policy={policy} ")][0]
        mean_ent = printed.split("mean_ent=")[1].split()[0]
        assert float(mean_ent) == pytest.approx(float(np.mean(ents)), rel=1e-4)
    assert "ttest greedy/lgp vs mi/gp:" in summary


def test_summary_and_record_order_are_per_policy_and_model_arm(tmp_path):
    # one policy under two models is two arms: records keep the config's arm
    # order, and each arm gets its own summary line and means
    cfg = load_config(write_config(tmp_path, policies="greedy,mi,greedy", models="lgp,gp,gp",
                                   seeds="1,0,2,3,4"))
    records = run_experiment(cfg)
    arms = [("greedy", "lgp"), ("mi", "gp"), ("greedy", "gp")]
    assert [(r.policy, r.model, r.seed) for r in records] == [
        arm + (seed,) for arm in arms for seed in range(5)]
    summary = emit_results(records, tmp_path / "out")[1].read_text().splitlines()
    for line, (name, model) in zip(summary, arms):
        group = [r for r in records if (r.policy, r.model) == (name, model)]
        assert line.startswith(f"policy={name} model={model} runs=5 ")
        assert f" mean_ent={np.mean([r.ent for r in group]):.6g} " in line
        assert f" mean_err={np.mean([r.err for r in group]):.6g} " in line
    assert summary[3].startswith("ttest greedy/lgp vs mi/gp: ")
    # the baseline is the first arm, paired with each arm by seed
    t_ent, _ = paired_ttest([r.ent for r in records[:5]], [r.ent for r in records[10:]], 0.1)
    assert summary[4].startswith(f"ttest greedy/lgp vs greedy/gp: ent_t={t_ent:.6g} ")
    assert len(summary) == 5


def test_emitted_bytes_are_deterministic(tmp_path):
    # everything except the measured timing column is byte-stable
    cfg = load_config(write_config(tmp_path))
    r1 = run_experiment(cfg)
    p1 = emit_results(r1, tmp_path / "o1")
    r2 = run_experiment(cfg)
    p2 = emit_results(r2, tmp_path / "o2")
    assert drop_timing_bytes(p1[0].read_text(), p1[1].read_text()) == drop_timing_bytes(
        p2[0].read_text(), p2[1].read_text()
    )
    # identical records reproduce identical bytes including timings
    p3 = emit_results(r1, tmp_path / "o3")
    assert p1[0].read_bytes() == p3[0].read_bytes()
    assert p1[1].read_bytes() == p3[1].read_bytes()


def test_parallel_seeds_match_sequential(tmp_path):
    cfg = load_config(write_config(tmp_path, seeds="0,1,2"))
    seq = run_experiment(cfg, threads=1)
    par = run_experiment(cfg, threads=2)
    assert strip_times(seq) == strip_times(par)


class _InlinePool:
    """Stands in for ``ProcessPoolExecutor``: records ``max_workers`` and maps
    in this process, so no worker process starts."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    return _InlinePool


@pytest.mark.parametrize("threads, workers", [(1, []), (2, [2]), (3, [3]), (64, [3])])
def test_the_pool_has_at_most_one_worker_per_seed(tmp_path, inline_pool, threads, workers):
    cfg = load_config(write_config(tmp_path, seeds="0,1,2"))
    records = run_experiment(cfg, threads=threads)
    assert inline_pool.sizes == workers
    assert strip_times(records) == strip_times(run_experiment(cfg))


@pytest.mark.parametrize("threads", [0, -2])
def test_threads_below_one_is_a_config_error(tmp_path, inline_pool, threads):
    cfg = load_config(write_config(tmp_path))
    with pytest.raises(ConfigError, match=f"threads must be >= 1, got {threads}"):
        run_experiment(cfg, threads=threads)
    assert inline_pool.sizes == []


def test_cli_run_rejects_zero_threads(tmp_path, inline_pool, capsys):
    out = tmp_path / "out"
    argv = ["run", "--config", str(write_config(tmp_path)), "--out", str(out), "--threads", "0"]
    assert cli_main(argv) == 1
    assert "config error: threads must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists() and inline_pool.sizes == []


# -- cli ------------------------------------------------------------------------


def test_cli_run_and_generate(tmp_path, capsys):
    cfg_path = write_config(tmp_path, seeds="0")
    out = tmp_path / "results"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "results.csv").exists() and (out / "summary.txt").exists()
    gen_out = tmp_path / "fields"
    assert cli_main(["generate", "--config", str(cfg_path), "--out", str(gen_out)]) == 0
    assert (gen_out / "field_0.csv").exists()
    # generated fields load back cleanly
    load_field_csv(gen_out / "field_0.csv", GridDomain(4, 4))


def test_cli_run_that_observes_every_cell_exits_0_with_zero_entropy(tmp_path, capsys):
    out = tmp_path / "results"
    assert cli_main(["run", "--config", str(fully_observed_config(tmp_path)),
                     "--out", str(out)]) == 0
    header, row = (out / "results.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["ent"] == "0"


def test_cli_bounds_prints_bracket(tmp_path, capsys):
    cfg_path = write_config(tmp_path, seeds="0", max_simulated_paths="50")
    assert cli_main(["bounds", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "lower=" in out and "upper=" in out and "gap=" in out


def test_cli_bounds_on_gp_runs_one_search(tmp_path, capsys):
    cfg_path = write_config(tmp_path, models="gp", alpha="1e-9", max_simulated_paths="50")
    assert cli_main(["bounds", "--config", str(cfg_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["seed=0", "seed=1"]
    assert all(re.search(r" paths=[1-9][0-9]*\+0\b", line) for line in lines)


def test_cli_bounds_crossed_is_a_runtime_error(tmp_path, monkeypatch, capsys):
    import hotspotplan.cli as cli
    from hotspotplan.planners import ValueBounds

    monkeypatch.setattr(cli, "compute_bounds", lambda cfg, seed: ValueBounds(1.0, 0.0))
    cfg_path = write_config(tmp_path, seeds="0")
    assert cli_main(["bounds", "--config", str(cfg_path)]) == 2
    assert "runtime error: bounds crossed" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("rows = 4\n")
    assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("verb", ["generate", "run"])
def test_cli_output_path_that_is_a_file_is_a_runtime_error(tmp_path, capsys, verb):
    cfg_path = write_config(tmp_path, seeds="0")
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli_main([verb, "--config", str(cfg_path), "--out", str(taken)]) == 2
    assert f"runtime error: cannot create {taken}" in capsys.readouterr().err


def test_cli_unknown_verb_is_a_usage_error(capsys):
    assert cli_main(["selftest"]) == 1
    assert "invalid choice: 'selftest'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["bounds", "--config", "x.cfg", "--threads", "2"],
                                  ["generate", "--config", "x.cfg", "--threads", "2"]])
def test_cli_rejects_flags_the_verb_does_not_read(argv, capsys):
    assert cli_main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_missing_config_is_a_usage_error(capsys):
    # a usage error exits like a config error; --help still exits 0
    assert cli_main(["run"]) == 1
    assert "the following arguments are required: --config" in capsys.readouterr().err
    assert cli_main(["run", "--help"]) == 0
    assert "--config" in capsys.readouterr().out


def test_cli_seed_offset_shifts_seeds(tmp_path):
    cfg_path = write_config(tmp_path, seeds="0")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main([
        "run", "--config", str(cfg_path), "--out", str(out2), "--seed-offset", "7"
    ]) == 0
    assert out1.joinpath("results.csv").read_text() != out2.joinpath("results.csv").read_text()


@pytest.mark.parametrize("verb", ["generate", "run", "bounds"])
def test_cli_rejects_a_seed_offset_that_makes_a_seed_negative(tmp_path, capsys, verb):
    # numpy refuses a negative seed; every verb that offsets seeds stops first
    out = tmp_path / "out"
    args = [verb, "--config", str(write_config(tmp_path)), "--seed-offset", "-1"]
    assert cli_main(args + ([] if verb == "bounds" else ["--out", str(out)])) == 1
    assert "config error: seeds must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_reports_each_cut_mes_search(tmp_path, capsys):
    # a MES search stopped by its node budget keeps its outcome on the record
    # and gets one summary line and one stderr note; results.csv is unchanged
    cfg_path = write_config(tmp_path, policies="greedy,mes", models="lgp,gp",
                            mes_node_budget="5")
    records = run_experiment(load_config(cfg_path))
    assert [(r.policy, r.mes_exact, r.mes_nodes) for r in records] == [
        ("greedy", None, None), ("greedy", None, None), ("mes", False, 6), ("mes", False, 6)]
    exact = [replace(r, mes_exact=True) if r.policy == "mes" else r for r in records]
    cut_csv, cut_summary = emit_results(records, tmp_path / "cut")
    exact_csv, exact_summary = emit_results(exact, tmp_path / "exact")
    assert cut_csv.read_text() == exact_csv.read_text()
    assert cut_csv.read_text().splitlines()[0] == "policy,model,k,seed,ent,err,wall_time_s"
    assert cut_summary.read_text().splitlines() == exact_summary.read_text().splitlines() + [
        "mes_search_cut model=gp seed=0 nodes=6", "mes_search_cut model=gp seed=1 nodes=6"]
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "cli")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"note: the mes search of seed {seed} stopped at 6 nodes (mes_node_budget): "
        "its path is the best found, not a certified optimum" for seed in (0, 1)]

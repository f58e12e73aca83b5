"""Command-line front end.

Verbs:
  generate  - sample synthetic fields for each seed and write field CSVs
  run       - run the configured experiment and persist results
  bounds    - print root lower/upper value bounds and the gap per seed

Exit codes: 0 success (``--help`` too), 1 configuration or usage error
(argparse prints the usage), 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, HotspotPlanError
from .harness import (
    compute_bounds,
    emit_results,
    load_config,
    make_output_dir,
    run_experiment,
    save_field_csv,
)
from .field_model import sample_field


def _cmd_generate(args) -> int:
    cfg = load_config(args.config)
    if cfg.field_csv is not None:
        raise ConfigError("generate needs synthetic field keys, not field_csv")
    seeds = cfg.offset_seeds(args.seed_offset)
    out = make_output_dir(args.out)
    h = cfg.synthetic_hyperparams()
    for seed in seeds:
        field = sample_field(h, cfg.domain, seed)
        path = out / f"field_{seed}.csv"
        save_field_csv(field, path)
        print(f"wrote {path}")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    records = run_experiment(cfg, seed_offset=args.seed_offset, threads=args.threads)
    csv_path, summary_path = emit_results(records, args.out)
    print(f"wrote {csv_path}")
    print(f"wrote {summary_path}")
    for line in Path(summary_path).read_text().splitlines():
        print(line)
    for r in records:
        if r.mes_exact is False:
            print(f"note: the mes search of seed {r.seed} stopped at {r.mes_nodes} nodes "
                  "(mes_node_budget): its path is the best found, not a certified optimum",
                  file=sys.stderr)
    return 0


def _cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    for seed in cfg.offset_seeds(args.seed_offset):
        res = compute_bounds(cfg, seed)
        b = res.bounds
        print(
            f"seed={seed} lower={b.lower:.6g} upper={b.upper:.6g} "
            f"gap={b.gap:.6g} paths={res.lower_paths}+{res.upper_paths}"
            + (" (budget exhausted)" if res.exhausted else "")
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hotspotplan",
        description="Multi-robot informative exploration planning over hotspot fields",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    flags = {
        "--config": dict(required=True, help="path to the config file"),
        "--out": dict(default="results", help="output directory"),
        "--seed-offset": dict(type=int, default=0),
        "--threads": dict(type=int, default=1),
    }
    # each verb takes only the flags its command reads
    for verb, fn, names in (
        ("generate", _cmd_generate, ("--config", "--out", "--seed-offset")),
        ("run", _cmd_run, ("--config", "--out", "--seed-offset", "--threads")),
        ("bounds", _cmd_bounds, ("--config", "--seed-offset")),
    ):
        p = sub.add_parser(verb)
        for name in names:
            p.add_argument(name, **flags[name])
        p.set_defaults(fn=fn)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the usage error
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except HotspotPlanError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Paired benchmark runs of a parent commit and the working tree.

    python3 tools/bench_pairs.py --parent 9d0cc4b --pr 16 --seeds 200-209 \
        --change "what the change does" [--gain "urtdp_paths_per_s on bounds-k1"]

Exports the parent commit's files into a temporary directory (``git
archive``: the committed tree, with no worktree to register or clean up),
then, for every workload of ``BENCHMARK.json`` and every seed, runs
``bench/run.py --trace 0`` for its ``run_seconds`` once in that copy and once
in the working tree, one run at a time, the parent first on even seeds and
the change first on odd ones. Each run reads the last line of the bench's
standard output. The end-to-end metrics, their units, directions and bounds
also come from ``BENCHMARK.json``. The result
is written to ``BENCH_<pr>.json`` at the root of the repository after every
pair, so an interrupted series keeps the pairs it finished.

Per metric the file holds both sides' runs, medians and quartiles (linear
interpolation), the parent's interquartile range, the change's median over
the parent's, the pairs in which the change was better (ties count for
neither side) and whether the change's median is within the metric's bound.
A claimed gain (``--gain "<metric> on <workload>"``) also gets ``claim_met``:
there are at least ``MIN_CLAIM_PAIRS`` pairs, the change won at least nine
tenths of them, and its median is better than the parent's by more than the
parent's interquartile range. A ``--gain`` that names no end-to-end metric
and workload of ``BENCHMARK.json`` is a usage error, raised before any run.
Per workload the file also holds each side's
failed share, its failed operations over its attempted ones summed over the
runs, and ``failed_share_not_worse``: the change's share is at most the
parent's. The file also records the working tree's
``HEAD`` commit and whether the tree, apart from the file itself, had
uncommitted changes, so it says whether it measured committed code, and the
Python, numpy and scipy versions the runs used (read from the installed
packages' metadata, without importing them), since a resident-set figure
depends on those builds, and both sides' line counts of each
``src/hotspotplan/*.py`` module and their total (``wc -l``): the parent's from
its exported copy, the change's from the working tree.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_CLAIM_PAIRS = 10


def parse_seeds(text: str) -> list[int]:
    """``200-209`` or ``200,201,205``."""
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",") if part.strip()]


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced bench run in ``tree``: its last stdout line, parsed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(metric: dict, parent: list[float], change: list[float], claimed: bool) -> dict:
    higher = metric["better"] == "higher"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q, c_q = quartiles(parent), quartiles(change)
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    bound = metric["bound"]
    within = c_med >= p_med * (1 - bound) if higher else c_med <= p_med * (1 + bound)
    out = {
        "unit": metric["unit"], "better": metric["better"], "bound": bound,
        "parent_runs": [round(v, 4) for v in parent],
        "change_runs": [round(v, 4) for v in change],
        "parent_median": round(p_med, 4), "parent_q1_q3": [round(v, 4) for v in p_q],
        "parent_iqr": round(p_q[1] - p_q[0], 4),
        "change_median": round(c_med, 4), "change_q1_q3": [round(v, 4) for v in c_q],
        "change_over_parent": round(c_med / p_med, 4) if p_med else None,
        "change_better_pairs": f"{wins}/{len(parent)}",
        "within_bound": within,
    }
    if claimed:
        gain = c_med - p_med if higher else p_med - c_med
        out["claim_met"] = (len(parent) >= MIN_CLAIM_PAIRS and wins >= 0.9 * len(parent)
                            and gain > p_q[1] - p_q[0])
    return out


def export(commit: str, dest: Path) -> None:
    """The files of ``commit`` as committed, written under ``dest``."""
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def tree_state(out_path: Path) -> dict:
    """The working tree's ``HEAD`` commit, and whether the tree, apart from
    ``out_path``, matches it."""
    def git(*args) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                              text=True).stdout.strip()

    changed = git("status", "--porcelain", "--", ".", f":!{out_path.name}")
    return {"change_head": git("rev-parse", "HEAD"), "change_tree_clean": not changed}


def src_lines(tree: Path) -> dict:
    """Lines (newlines, as ``wc -l`` counts them) per ``src/hotspotplan/*.py``
    module of ``tree``, by file name, and their ``total``."""
    counts = {path.name: path.read_bytes().count(b"\n")
              for path in sorted((tree / "src" / "hotspotplan").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def toolchain() -> dict:
    """The versions of Python, numpy and scipy that the bench runs load."""
    return {"python": platform.python_version(),
            **{name: importlib.metadata.version(name) for name in ("numpy", "scipy")}}


def report(args, spec, seeds, runs, trees: dict) -> dict:
    """The file's content; ``trees`` holds :func:`tree_state` and both sides'
    :func:`src_lines`."""
    out = {
        "pr": args.pr, "change": args.change, "parent_commit": args.parent, **trees,
        "toolchain": toolchain(),
        "command": "python3 bench/run.py --workload <w> --seed <n> "
                   f"--seconds {spec['run_seconds']:g} --trace 0",
        "machine": f"{os.cpu_count()}-core {platform.system()} {platform.machine()}; "
                   "bench/run.py sets OPENBLAS_NUM_THREADS=1 and reports times at its reference speed",
        "pairing": "one parent run and one change run per seed and workload, one run at a time, "
                   "alternating which runs first (parent first on even seeds)",
        "gain_claimed": args.gain, "seeds": seeds, "workloads": {},
    }
    for workload, pairs in runs.items():
        if not pairs:
            continue
        entry, share = {"seeds": [seed for seed, _, _ in pairs]}, {}
        for side in ("parent", "change"):
            results = [p if side == "parent" else c for _, p, c in pairs]
            shares = sorted({(r["attempted"], r["failed"]) for r in results})
            entry[f"{side}_attempted_failed"] = [list(s) for s in shares]
            entry[f"{side}_all_correct"] = all(r["correct"] for r in results)
            failed, attempted = (sum(r[key] for r in results) for key in ("failed", "attempted"))
            entry[f"{side}_failed_share"] = f"{failed}/{attempted}"
            share[side] = failed / attempted if attempted else 0.0
        entry["failed_share_not_worse"] = share["change"] <= share["parent"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [p["metrics"][name]["value"] for _, p, _ in pairs]
            change = [c["metrics"][name]["value"] for _, _, c in pairs]
            if len(pairs) >= 2:
                entry[name] = summarize(metric, parent, change,
                                        args.gain == f"{name} on {workload}")
        out["workloads"][workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--pr", required=True, type=int, help="number in the BENCH_<pr>.json name")
    parser.add_argument("--seeds", required=True, help="e.g. 200-209")
    parser.add_argument("--change", required=True, help="one line on what the change does")
    parser.add_argument("--gain", default=None, help='the claimed gain, "<metric> on <workload>"')
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    claims = {f"{m['name']} on {w}" for m in spec["end_to_end"] for w in workloads}
    if args.gain is not None and args.gain not in claims:
        parser.error(f"--gain {args.gain!r} names no end-to-end metric on a workload of "
                     f"BENCHMARK.json; one of: {', '.join(sorted(claims))}")
    seeds = parse_seeds(args.seeds)
    out_path = ROOT / f"BENCH_{args.pr}.json"
    runs = {w: [] for w in workloads}
    trees = tree_state(out_path)

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tree:
        export(args.parent, Path(parent_tree))
        trees["src_lines"] = {"parent": src_lines(Path(parent_tree)), "change": src_lines(ROOT)}
        for workload in workloads:
            for seed in seeds:
                order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
                result = {}
                for side in order:
                    tree = parent_tree if side == "parent" else ROOT
                    result[side] = bench_run(tree, workload, seed, spec["run_seconds"])
                    print(f"{workload} seed {seed} {side}: "
                          + " ".join(f"{k}={v['value']:.6g}"
                                     for k, v in result[side]["metrics"].items()),
                          file=sys.stderr, flush=True)
                runs[workload].append((seed, result["parent"], result["change"]))
                out = report(args, spec, seeds, runs, trees)
                out_path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

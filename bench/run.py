"""hotspotplan benchmark: one workload per run, or a smoke run of all three.

    python3 bench/run.py --workload bounds-k1 --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --smoke [--trace 1]

Run from the root of a checkout: the library is imported from ``src/`` next
to this directory, never from an installed copy. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of an untraced run (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``). Details go to
``bench/out/``. See ``bench/README.md``.
"""

import os

# One BLAS thread, set before numpy loads: the run is one process on a
# shared 2-core machine, and a second BLAS thread would contend with it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def import_library():
    """hotspotplan from this checkout's ``src/``; None if it is not there."""
    src = ROOT / "src"
    if not (src / "hotspotplan" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    mods = {name: importlib.import_module(f"hotspotplan.{name}")
            for name in ("planners", "field_model", "evaluation", "harness", "world", "errors")}
    lib = SimpleNamespace(import_s=time.perf_counter() - t0, **mods)
    if not Path(lib.planners.__file__).resolve().is_relative_to(src):
        return None
    return lib


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it (needs 40)."""
    n = len(samples)
    if n < 40:
        return None
    ordered = sorted(samples)
    pct = 100.0 * (n - 10) / n
    return pct, ordered[n - 11]


def run_workload(lib, spec, seed, seconds, trace):
    probes = spans.Probes(lib)
    probes.install()
    try:
        # warm-up: lazy imports, caches and first calls, on the smoke inputs
        smoke = workloads.SMOKE[spec.name]
        warm = workloads.Workload(lib, smoke, seed, 0, probes)
        warm.run_ops(setup_repeats=1)
        probes.decisions.clear()
        probes.mes_results.clear()

        wl = workloads.Workload(lib, spec, seed, seconds, probes)
        outcome = wl.run_ops()
        e2e, decisions = wl.metrics(outcome, peak_rss_mb())
        seen = (list(probes.decisions), list(probes.mes_results))
        if trace:
            probes.decisions.clear()
            probes.mes_results.clear()
            tracer = spans.Tracer()
            tracer.install(lib)
            try:
                traced = wl.run_ops(tracer, setup_repeats=1)
            finally:
                tracer.undo()
    finally:
        probes.undo()

    report = {"workload": spec.name, "seed": seed, "seconds": seconds,
              "instance_seeds": wl.rounds, "import_s": lib.import_s,
              "end_to_end": e2e,
              "decisions": len(decisions), "decision_tail": tail_percentile(decisions),
              "decision_ms": [t * 1e3 for t in decisions],
              "ops": [{"label": op.label, "seed": op.seed, "seconds": op.seconds,
                       "scale": op.scale,
                       "error": None if op.error is None else repr(op.error)}
                      for op in outcome.ops]}
    metrics = e2e
    if trace:
        untraced_s = sum(op.ref_seconds for op in outcome.ops)
        overhead = 100.0 * (sum(op.ref_seconds for op in traced.ops) - untraced_s) / untraced_s
        metrics = tracer.per_layer(probes, traced, overhead)
        metrics["bench.speed_scale"] = (statistics.median(op.scale for op in outcome.ops), "ratio")
        report["per_layer"] = metrics
        OUT.mkdir(exist_ok=True)
        np.savez_compressed(OUT / f"{spec.name}-seed{seed}-spans.npz",
                            names=np.array(tracer.names), **tracer.spans())
    probes.decisions[:], probes.mes_results[:] = seen
    problems = wl.check(outcome)
    if trace and [_outputs(op) for op in traced.ops] != [_outputs(op) for op in outcome.ops]:
        problems.append("the traced run's outputs differ from the untraced run's")
    report["problems"] = problems
    OUT.mkdir(exist_ok=True)
    (OUT / f"{spec.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, default=str))
    result = {"correct": not problems, "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, report


def _outputs(op):
    """What a timed call returned, in comparable form."""
    if op.error is not None:
        return repr(op.error)
    if isinstance(op.result, list):
        return [(r.policy, r.ent, r.err, r.path_cells, r.dead_ended) for r in op.result]
    return op.result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("bounds-k1", "run-k2", "run-hires"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all three workloads on small inputs, with the same checks")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    lib = import_library()
    if lib is None:
        print(f"bench: no hotspotplan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.smoke else [args.workload]
    table = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    results = []
    for name in names:
        seconds = 0 if args.smoke else args.seconds
        result, report = run_workload(lib, table[name], args.seed, seconds, args.trace)
        results.append(result)
        for problem in report["problems"]:
            print(f"bench: {name}: CHECK FAILED: {problem}", file=sys.stderr)
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} decisions={report['decisions']}"
              + (" tail p{:.1f}={:.1f} ms".format(report["decision_tail"][0],
                                                    report["decision_tail"][1] * 1e3)
                 if report["decision_tail"] else ""))
        for key, val in result["metrics"].items():
            print(f"  {key} = {val['value']:.6g} {val['unit']}")
    if args.smoke:
        print(json.dumps({"correct": all(r["correct"] for r in results),
                          "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results), "metrics": {}}))
        return 0 if all(r["correct"] for r in results) else 1
    print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

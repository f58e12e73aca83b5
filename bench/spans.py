"""Probes and spans recorded from the benchmark's side of the library.

Nothing in hotspotplan is edited. Each measurement replaces a function or a
method, where its caller looks it up, by a wrapper that records and calls
through; ``Patches.undo`` puts the originals back. A module that imports a
name (``from .field_model import posterior``) holds its own reference, so
such a name is wrapped in every importing module; a method is wrapped once,
on its class. A boundary that a later version of the library no longer has
is skipped, and its metrics read 0.

``Probes`` are installed in every run: they serve the set-up's inputs to the
harness, keep the MES results for the checks and time each URTDP decision.
``Tracer`` is installed only in a traced run: it records one span per
wrapped call (name, start, end, parent span, operation id) in flat arrays,
and derives the per-layer metrics from them when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array

import numpy as np

import speed

GAP_FRACTIONS = {"at25": 0.25, "at50": 0.5, "at100": 1.0}
SETUP_OP = -2  # operation id of the set-up's spans


class BenchError(Exception):
    """The benchmark cannot measure what it was built to measure."""


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


class Probes:
    """Input serving, MES results and decision timing, in every run.

    ``fields`` and ``fits`` are filled by the set-up; the harness's own calls
    to ``sample_field`` and ``fit_hyperparams`` are answered from them, so
    set-up work stays out of the timed operations. A call the set-up did not
    foresee means the harness builds its inputs differently from the
    benchmark, and is an error.
    """

    def __init__(self, lib):
        self.lib = lib
        self.fields = {}
        self.fits = {}
        # (seconds at the reference speed, simulated paths) per UrtdpPolicy.act
        self.decisions = []
        self.gauge_seconds = 0.0  # spent in the decisions' speed bursts
        self.mes_results = []
        self._patches = Patches()

    @staticmethod
    def field_key(h, domain, seed):
        return (h, domain, int(seed))

    @staticmethod
    def fit_key(d, domain, grid_points):
        return (d.locations, d.z.tobytes(), domain, grid_points)

    def install(self):
        harness, planners = self.lib.harness, self.lib.planners

        def sample_field(h, domain, seed):
            try:
                return self.fields[self.field_key(h, domain, seed)]
            except KeyError:
                raise BenchError("harness sampled a field the set-up did not build") from None

        def fit_hyperparams(d, domain, grid_points=12):
            try:
                return self.fits[self.fit_key(d, domain, grid_points)]
            except KeyError:
                raise BenchError("harness fitted data the set-up did not draw") from None

        mes = harness.mes_nonadaptive

        def mes_nonadaptive(*args, **kwargs):
            result = mes(*args, **kwargs)
            self.mes_results.append(result)
            return result

        act = planners.UrtdpPolicy.act

        def urtdp_act(policy, s, d, stage):
            # A decision lasts milliseconds, and the gauge read around its
            # whole operation tracks it worse than no gauge at all; a burst
            # right before it tracks it well.
            g0 = time.perf_counter()
            ref = speed.burst()
            paths = policy.instance.paths_run
            t0 = time.perf_counter()
            self.gauge_seconds += t0 - g0
            try:
                return act(policy, s, d, stage)
            finally:
                elapsed = time.perf_counter() - t0
                self.decisions.append((elapsed * speed.REF_SECONDS / ref,
                                       policy.instance.paths_run - paths))

        self._patches.set(harness, "sample_field", sample_field)
        self._patches.set(harness, "fit_hyperparams", fit_hyperparams)
        self._patches.set(harness, "mes_nonadaptive", mes_nonadaptive)
        self._patches.set(planners.UrtdpPolicy, "act", urtdp_act)

    def undo(self):
        self._patches.undo()


class Tracer:
    """Spans in flat arrays, plus the sizes and brackets spans cannot give."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_op = -1
        self.counts: dict[str, float] = {}
        self.gaps: dict[str, list[float]] = {k: [] for k in GAP_FRACTIONS}
        self._instances = []  # URTDP instances made in the current operation
        self._caches = []  # GramCaches made in the current operation
        self._runs = {}  # id(instance) -> (root key, budget, paths at start, marks)
        self._patches = Patches()
        self._rule = None
        self._rule_misses = 0

    # -- recording -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        stack = self._stack
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def add(self, key: str, value: float):
        self.counts[key] = self.counts.get(key, 0.0) + value

    def begin_op(self, op_id: int):
        self.current_op = op_id

    def end_op(self):
        """Fold the sizes of the operation's URTDP tables and Gram caches into the counts."""
        for inst in self._instances:
            self.add("planners.urtdp.table_entries", len(getattr(inst, "tables", ())))
            self.add("planners.urtdp.expansions", len(getattr(inst, "expansions", ())))
        for cache in self._caches:
            entries = len(getattr(cache, "_chol", ())) + len(getattr(cache, "_weights", ()))
            self.add("field_model.gram_cache.entries", entries)
        self._instances.clear()
        self._caches.clear()
        self._runs.clear()
        self.current_op = -1

    # -- installation ----------------------------------------------------------

    def install(self, lib):
        """Wrap every layer boundary that this version of the library has."""
        planners, field_model, evaluation, harness = (
            lib.planners, lib.field_model, lib.evaluation, lib.harness)

        def wrap_attr(owner, attr, name, wrapper=None):
            if owner is not None and hasattr(owner, attr):
                fn = getattr(owner, attr)
                self._patches.set(owner, attr, (wrapper or self.wrap)(name, fn))

        # the benchmark's own entry points and set-up calls
        wrap_attr(harness, "run_seed", "harness.run_seed")
        wrap_attr(harness, "compute_bounds", "harness.compute_bounds")
        wrap_attr(field_model, "sample_field", "field_model.sample_field")
        wrap_attr(field_model, "fit_hyperparams", "field_model.fit_hyperparams")
        # calls between the library's modules, where each caller looks them up
        for module in (harness, planners):
            wrap_attr(module, "urtdp", "planners.urtdp", self._wrap_urtdp)
        wrap_attr(harness, "rollout", "evaluation.rollout")
        wrap_attr(harness, "mes_nonadaptive", "planners.mes")
        wrap_attr(planners, "stagewise_reward", "planners.stagewise_reward")
        wrap_attr(evaluation, "ent_metric", "evaluation.ent_metric")
        wrap_attr(evaluation, "err_metric", "evaluation.err_metric")
        for module in (planners, evaluation):
            wrap_attr(module, "constrained_actions", "world.constrained_actions")
            wrap_attr(module, "transition", "world.transition")
        for module in (planners, evaluation, field_model):
            wrap_attr(module, "posterior", "field_model.posterior")
        for module in (planners, field_model):
            wrap_attr(module, "gaussian_entropy", "field_model.gaussian_entropy")
            wrap_attr(module, "cov_matrix", "field_model.cov_matrix")
        # methods, wrapped once on their class
        inc = getattr(field_model, "IncrementalPosterior", None)
        wrap_attr(inc, "batch", "field_model.incremental.batch")
        wrap_attr(inc, "extend", "field_model.incremental.extend")
        gram = getattr(field_model, "GramCache", None)
        wrap_attr(gram, "chol", "field_model.gram_cache.chol")
        if gram is not None:
            self._register(gram, self._caches)
        wrap_attr(field_model.PosteriorData, "extended", "field_model.posterior_data.extended")
        wrap_attr(planners.UrtdpPolicy, "act", "planners.urtdp.act")
        wrap_attr(planners.GreedyPolicy, "act", "planners.greedy.act")
        inst = getattr(planners, "_UrtdpInstance", None)
        if inst is not None:
            wrap_attr(inst, "expand", "planners.urtdp.expand")
            wrap_attr(inst, "_init_children", "planners.urtdp.init_children")
            wrap_attr(inst, "_backup", "planners.urtdp.backup")
            self._register(inst, self._instances)
            self._watch_root_gap(inst, planners.state_key)
        # the outcome rule is cached: count how often it is computed
        rule = getattr(planners, "standardized_rule", None)
        if rule is not None and hasattr(rule, "cache_info"):
            rule.cache_clear()
            self._rule = rule
            self._rule_misses = -rule.cache_info().misses

    def undo(self):
        if self._rule is not None:
            self._rule_misses += self._rule.cache_info().misses
        self._patches.undo()

    def _register(self, cls, registry):
        init = cls.__init__

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            registry.append(obj)

        self._patches.set(cls, "__init__", __init__)

    def _wrap_urtdp(self, name, fn):
        """A urtdp() span that also records the root gap of its bracket."""
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def urtdp(*args, **kwargs):
            before = len(self._instances)
            result = traced(*args, **kwargs)
            self._record_bracket(self._instances[before:])
            return result

        return urtdp

    def _watch_root_gap(self, cls, state_key):
        """Keep each instance's root bounds after 25/50/100% of its path budget."""
        run = cls.run
        path = self.wrap("planners.urtdp.simulated_path", cls.simulated_path)

        def watched_run(obj, d, s, stage, alpha, budget):
            self._runs[id(obj)] = (state_key(stage, s, d), budget, obj.paths_run, {})
            return run(obj, d, s, stage, alpha, budget)

        def watched_path(obj, *args, **kwargs):
            path(obj, *args, **kwargs)
            watch = self._runs.get(id(obj))
            if watch is not None:
                root, budget, start, marks = watch
                done = obj.paths_run - start
                for key, f in GAP_FRACTIONS.items():
                    if done == max(1, round(f * budget)):
                        marks[key] = tuple(obj.tables[root])

        self._patches.set(cls, "run", watched_run)
        self._patches.set(cls, "simulated_path", watched_path)

    def _record_bracket(self, made):
        """Root gap of one urtdp() call: EM upper minus Jensen lower."""
        low = [i for i in made if getattr(i, "rule", None) == "jensen"]
        up = [i for i in made if getattr(i, "rule", None) == "em"]
        if len(low) != 1 or len(up) != 1:
            return
        low_marks = self._runs.get(id(low[0]), (None, None, None, {}))[3]
        up_marks = self._runs.get(id(up[0]), (None, None, None, {}))[3]
        for key in GAP_FRACTIONS:
            if key in low_marks and key in up_marks:
                self.gaps[key].append(up_marks[key][1] - low_marks[key][0])

    # -- results -----------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def layer_table(self, setup: bool = False) -> dict[str, dict]:
        """Per span name: calls, total and self ms, and each span's duration in ms,
        over the set-up's spans or over the timed operations' spans.

        A span's self time is its duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        """
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        child = np.zeros_like(dur)
        inner = sp["parent"] >= 0
        np.add.at(child, sp["parent"][inner], dur[inner])
        own = dur - child
        chosen = sp["op"] == SETUP_OP if setup else sp["op"] >= 0
        table = {}
        for nid, name in enumerate(self.names):
            mask = chosen & (sp["name"] == nid)
            table[name] = {
                "calls": int(mask.sum()),
                "total_ms": float(dur[mask].sum() * 1e3),
                "self_ms": float(own[mask].sum() * 1e3),
                "durations_ms": dur[mask] * 1e3,
            }
        return table

    def per_layer(self, probes, outcome, overhead_pct):
        """Every per-layer metric as ``{name: (value, unit)}``."""
        ops = self.layer_table()
        setup_table = self.layer_table(setup=True)
        empty = {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "durations_ms": ()}

        def row(name, table=ops):
            return table.get(name, empty)

        out = {}
        for span in (
            "planners.urtdp.expand", "planners.urtdp.init_children", "planners.urtdp.backup",
            "field_model.incremental.batch", "field_model.incremental.extend",
            "field_model.gram_cache.chol", "field_model.posterior_data.extended",
            "field_model.posterior", "field_model.cov_matrix", "field_model.gaussian_entropy",
            "world.constrained_actions", "world.transition", "planners.stagewise_reward",
        ):
            out[f"{span}.calls"] = (row(span)["calls"], "count")
            out[f"{span}.self_ms"] = (row(span)["self_ms"], "ms")
        out["planners.urtdp.paths"] = (row("planners.urtdp.simulated_path")["calls"], "count")
        for key in ("planners.urtdp.table_entries", "planners.urtdp.expansions",
                    "field_model.gram_cache.entries"):
            out[key] = (self.counts.get(key, 0), "count")
        for key, gaps in self.gaps.items():
            out[f"planners.urtdp.root_gap_nats.{key}"] = (median_or_zero(gaps), "nats")
        decisions = probes.decisions
        per_decision = sum(p for _, p in decisions) / len(decisions) if decisions else 0.0
        out["planners.urtdp.paths_per_decision"] = (per_decision, "count")
        mes_ms = row("planners.mes")["total_ms"]
        nodes = sum(r.nodes for r in probes.mes_results)
        out["planners.mes.build_ms"] = (mes_ms, "ms")
        out["planners.mes.nodes"] = (nodes, "count")
        out["planners.mes.nodes_per_s"] = (nodes / (mes_ms / 1e3) if mes_ms else 0.0, "1/s")
        out["planners.greedy.decision_ms_p50"] = (
            median_or_zero(row("planners.greedy.act")["durations_ms"]), "ms")
        for call in ("sample_field", "fit_hyperparams"):
            out[f"field_model.{call}.ms"] = (row(f"field_model.{call}", setup_table)["total_ms"], "ms")
        out["discretization.standardized_rule.calls"] = (self._rule_misses, "count")
        out["evaluation.ent_metric.ms_p50"] = (
            median_or_zero(row("evaluation.ent_metric")["durations_ms"]), "ms")
        out["evaluation.err_metric.ms_p50"] = (
            median_or_zero(row("evaluation.err_metric")["durations_ms"]), "ms")
        out["evaluation.rollout.observations"] = (outcome.observations, "count")
        out["evaluation.rollout.dead_ends"] = (outcome.dead_ends, "count")
        out["harness.run_seed.self_ms"] = (row("harness.run_seed")["self_ms"], "ms")
        out["harness.compute_bounds.self_ms"] = (row("harness.compute_bounds")["self_ms"], "ms")
        out["bench.trace_overhead_pct"] = (overhead_pct, "%")
        return out


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0

"""Traced mode: spans around the program's public functions, and the
per-layer metrics derived from them.

A span is (name, start, end, parent span, run id). Spans and counts are kept
in memory in flat arrays while the workload runs and written out when the run
ends. A span's self time is its duration minus the durations of its direct
children. Wrapping adds about a microsecond per call, which is why the
end-to-end figures come from untraced runs; the traced run reports its own
overhead against an untraced repetition of the same jobs.
"""

from __future__ import annotations

import json
import time
from array import array

import numpy as np

import hooks

# (span name, module, path): the layer boundaries the benchmark wraps.
# prox_step spans are named by the feasible-set kind of their setup argument.
TARGETS = (
    ("oracles.sample_sphere", "sliding_opt.oracles", "sample_sphere"),
    ("oracles.evaluate", "sliding_opt.oracles", "NoisyZeroOrderOracle.evaluate"),
    ("oracles.noise_sample", "sliding_opt.oracles", "NoiseModel.sample"),
    ("oracles.estimate_gradient", "sliding_opt.oracles", "SmoothingEstimator.estimate_gradient"),
    ("geometry.prox_step", "sliding_opt.geometry", "prox_step"),
    ("geometry.project", "sliding_opt.geometry", "project"),
    ("sliding.ps_procedure", "sliding_opt.sliding", "ps_procedure"),
    ("sliding.zosa_run", "sliding_opt.sliding", "zosa_run"),
    ("sliding.mzosa_run", "sliding_opt.sliding", "mzosa_run"),
    ("sliding.checkpoint", "sliding_opt.sliding", "_record"),
    ("sliding.grad_g", "sliding_opt.sliding", "CompositeProblem.grad_g"),
    ("network.lifted_evaluate", "sliding_opt.network", "_LiftedOracle.evaluate"),
    ("network.apply_W", "sliding_opt.network", "NetworkProblem.apply_W"),
    ("problems.reference", "sliding_opt.problems", "prox_grad_reference"),
    ("problems.reference", "sliding_opt.problems", "weiszfeld"),
    ("problems.reference", "sliding_opt.problems", "SeparableLassoInstance.optimal_value"),
    ("problems.node_subgrad", "sliding_opt.problems", "GeometricMedianInstance.node_subgrad"),
    ("baselines.gd_run", "sliding_opt.baselines", "gd_run"),
    ("baselines.zogd_run", "sliding_opt.baselines", "zogd_run"),
    ("trace.add_row", "sliding_opt.trace", "RunTrace.add_row"),
    ("harness.build", "sliding_opt.harness", "_BUILDERS[]"),
    ("harness.horizon", "sliding_opt.harness", "_resolve_horizon"),
    ("harness.horizon", "sliding_opt.sliding", "build_schedule"),
)


class Tracer:
    """In-memory span recorder; `install` wraps every target."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = -1
        self._stack = [-1]
        self.patches = hooks.Patches()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def next_run(self):
        self.run_id += 1

    def wrap(self, fn, name: str):
        names, parents, runs = self.name, self.parent, self.run
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self
        if name == "geometry.prox_step":
            by_kind = {}

            def name_of(args):
                kind = args[0].feasible.kind
                if kind not in by_kind:
                    by_kind[kind] = tracer._id(f"{name}.{kind}")
                return by_kind[kind]
        else:
            nid = self._id(name)

            def name_of(_args):
                return nid

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_of(args))
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
        return traced

    def install(self):
        for name, module, path in TARGETS:
            self.patches.wrap_all([(module, path)], self.wrap, name=name)

    def restore(self):
        self.patches.restore()

    def save(self, path):
        """Write every span (columns as arrays, plus the name table)."""
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 run=np.frombuffer(self.run, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 names=np.array(json.dumps(self.names)))


class Spans:
    """Aggregates of a finished trace: per name total and self seconds, and
    call counts filtered by parent span name or run id."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        name = np.frombuffer(tracer.name, dtype=np.int32)
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_s = dur - child[:dur.size]
        k = len(self.names)
        self.total = np.bincount(name, weights=dur, minlength=k)
        self.self_s = np.bincount(name, weights=self_s, minlength=k)
        self._name = name
        self._parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        self._run = np.frombuffer(tracer.run, dtype=np.int32)

    def _i(self, name):
        return self.names.index(name) if name in self.names else None

    def n(self, name, parent=None, run=None) -> int:
        i = self._i(name)
        if i is None:
            return 0
        mask = self._name == i
        if parent is not None:
            p = self._i(parent)
            if p is None:
                return 0
            mask &= self._parent_name == p
        if run is not None:
            mask &= self._run == run
        return int(np.count_nonzero(mask))

    def total_s(self, name) -> float:
        i = self._i(name)
        return 0.0 if i is None else float(self.total[i])

    def self_total_s(self, name) -> float:
        i = self._i(name)
        return 0.0 if i is None else float(self.self_s[i])

    def per_call_us(self, name, own=False) -> float | None:
        """Mean microseconds per call (self time when own), None if never called."""
        count = self.n(name)
        if not count:
            return None
        seconds = self.self_total_s(name) if own else self.total_s(name)
        return 1e6 * seconds / count


def _per(value, count, scale=1.0):
    return None if not count else scale * value / count


def layer_metrics(spans: Spans, runs: int) -> dict:
    """Per-layer values of one traced repetition; None marks a layer the
    workload never reached."""
    s = spans
    inner = s.n("oracles.estimate_gradient", parent="sliding.ps_procedure")
    outer = s.n("sliding.grad_g", parent="sliding.zosa_run")
    m = {
        "oracles.sample_sphere_us": s.per_call_us("oracles.sample_sphere", own=True),
        "oracles.evaluate_us": s.per_call_us("oracles.evaluate", own=True),
        "oracles.noise_sample_us": s.per_call_us("oracles.noise_sample", own=True),
        "oracles.estimate_gradient_self_us": s.per_call_us("oracles.estimate_gradient",
                                                           own=True),
        "oracles.zo_calls": 2 * s.n("oracles.estimate_gradient"),
        "geometry.prox_step_us.whole_space": s.per_call_us("geometry.prox_step.whole_space"),
        "geometry.prox_step_us.box": s.per_call_us("geometry.prox_step.box"),
        "geometry.project_us": s.per_call_us("geometry.project", own=True),
        "sliding.inner_step_us": _per(s.total_s("sliding.ps_procedure"), inner, 1e6),
        "sliding.ps_procedure_self_us": _per(s.self_total_s("sliding.ps_procedure"), inner, 1e6),
        "sliding.outer_step_us": _per(s.self_total_s("sliding.zosa_run"), outer, 1e6),
        "sliding.checkpoint_us": s.per_call_us("sliding.checkpoint"),
        "sliding.grad_g_us": s.per_call_us("sliding.grad_g"),
        "sliding.fo_calls": s.n("sliding.grad_g"),
        "network.lifted_evaluate_us": s.per_call_us("network.lifted_evaluate"),
        "network.node_evals": s.n("oracles.evaluate", parent="network.lifted_evaluate"),
        "network.apply_W_us": s.per_call_us("network.apply_W"),
        "network.comm_rounds": s.n("network.apply_W"),
        "problems.reference_s": _per(s.self_total_s("problems.reference"), runs),
        "problems.node_subgrad_us": s.per_call_us("problems.node_subgrad"),
        "baselines.step_us.gd": _per(s.total_s("baselines.gd_run"),
                                     s.n("geometry.project", parent="baselines.gd_run"), 1e6),
        "baselines.step_us.zogd": _per(s.total_s("baselines.zogd_run"),
                                       s.n("geometry.project", parent="baselines.zogd_run"),
                                       1e6),
        "trace.add_row_us": s.per_call_us("trace.add_row"),
        "harness.build_s": _per(s.self_total_s("harness.build"), s.n("harness.build")),
        "harness.horizon_s": _per(s.self_total_s("harness.horizon"), runs),
        "harness.runs": runs,
    }
    return m


def count_problems(spans: Spans, rep) -> list:
    """The traced counts must equal the counters in each run's trace."""
    problems = []
    for run_id, record in enumerate(rep.runs):
        if record.trace is None:
            continue
        fo, zo, comm = record.counters()
        seen = (spans.n("sliding.grad_g", run=run_id),
                2 * spans.n("oracles.estimate_gradient", run=run_id),
                spans.n("network.apply_W", run=run_id))
        if seen != (fo, zo, comm):
            problems.append(f"{record.label}: traced (fo, zo, comm) = {seen}, "
                            f"trace counters = {(fo, zo, comm)}")
    return problems

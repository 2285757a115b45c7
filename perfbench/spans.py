"""In-memory span recording for the traced benchmark run.

The benchmark measures the package from outside: ``Instrumentation``
swaps functions and methods of the ``scvr`` modules for wrappers that
record one span per call (name id, start, end, parent span) into flat
integer arrays, and puts the originals back afterwards.  Nothing under
``src/`` changes.  ``summarize`` turns the arrays into per-name call
counts, busy time and self time, the self time of a span being its
duration minus the durations of its direct children.

Spans under ``optimizers._record`` (trace instrumentation, charged to
the shadow ledger) are marked ``instr``; all other spans are
algorithmic.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

RECORD_SPAN = "optimizers._record"


class SpanRecorder:
    """Spans of one traced repetition, kept in memory until summarized."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return spanned

    def counted(self, name: str, fn, inside: str | None = None):
        """``fn`` counting its calls under ``name``; with ``inside``, only
        calls made while the innermost open span has that name."""
        self.counts[name] = 0
        counts = self.counts
        if inside is None:

            @functools.wraps(fn)
            def counting(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counting
        inside_id = self._id(inside)
        name_id, stack = self.name_id, self._stack

        @functools.wraps(fn)
        def counting_inside(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and name_id[top] == inside_id:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counting_inside


class Instrumentation:
    """Installs recorder wrappers into the loaded ``scvr`` modules.

    ``estimators``, ``optimizers`` and ``harness`` import the ``core``
    helpers by name, so a function is replaced under every module
    attribute that refers to it, not only where it is defined.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _replace_everywhere(self, fn, wrapper) -> None:
        hits = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "scvr" or modname.startswith("scvr.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"{fn.__module__}.{fn.__qualname__} is not reachable")

    def span_function(self, name: str, fn) -> None:
        self._replace_everywhere(fn, self.recorder.wrap(name, fn))

    def count_function(self, name: str, fn) -> None:
        self._replace_everywhere(fn, self.recorder.counted(name, fn))

    def span_method(self, name: str, cls: type, attr: str) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.recorder.wrap(name, original))

    def count_method(self, name: str, cls: type, attr: str, inside: str | None = None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.recorder.counted(name, original, inside))

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


QUERY_KINDS = ("inner_value", "inner_jacobian", "outer_value", "outer_gradient")
FULL_EVALS = ("inner_full", "inner_jacobian_full", "outer_gradient_full", "full_gradient", "objective")
COMPONENT_METHODS = (
    "inner_component", "inner_component_jacobian", "outer_component", "outer_component_gradient",
)
SETUP_FUNCTIONS = ("make_nonconvex_synthetic", "make_cluster_data", "normalize", "pca_reduce", "build_sne")
GRAD_ESTIMATORS = ("grad_scvr1", "grad_scvr2", "grad_minibatch_v1", "grad_minibatch_v2")
HARNESS_STEPS = ("load_experiment", "prepare_experiment", "run_experiment", "write_trace_csv")
SAMPLING_SPANS = ("core.sample_indices", "core.SampleStream.indices", "core.SampleStream.randrange")


def install(recorder: SpanRecorder) -> Instrumentation:
    """Wrap every layer boundary on the benchmark's run path."""
    from scvr import core, estimators, harness, optimizers, problems

    inst = Instrumentation(recorder)
    for kind in QUERY_KINDS:
        inst.span_function(f"core.query_{kind}", getattr(core, f"query_{kind}"))
    for fname in FULL_EVALS:
        inst.span_function(f"core.{fname}", getattr(core, fname))
    inst.span_function("core.sample_indices", core.sample_indices)
    inst.span_method("core.SampleStream.indices", core.SampleStream, "indices")
    inst.span_method("core.SampleStream.randrange", core.SampleStream, "randrange")
    inst.count_method(
        "core.SampleStream.next_u64", core.SampleStream, "next_u64",
        inside="core.SampleStream.randrange",
    )
    for cls in (problems.NonconvexSyntheticProblem, problems.SneProblem):
        for method in COMPONENT_METHODS:
            inst.span_method(f"problems.{method}", cls, method)
    for fname in SETUP_FUNCTIONS:
        inst.span_function(f"problems.{fname}", getattr(problems, fname))
    for fname in ("take_snapshot", "estimate_inner", "estimate_inner_jacobian") + GRAD_ESTIMATORS:
        inst.span_function(f"estimators.{fname}", getattr(estimators, fname))
    inst.span_function("optimizers.run", optimizers.run)
    inst.span_function(RECORD_SPAN, optimizers._record)
    inst.count_function("optimizers._guard", optimizers._guard)
    for fname in HARNESS_STEPS:
        inst.span_function(f"harness.{fname}", getattr(harness, fname))
    return inst


def summarize(recorder: SpanRecorder) -> dict[str, dict[str, float]]:
    """Per span name: calls, instr calls, busy and self nanoseconds."""
    count = len(recorder.name_id)
    if count == 0:
        return {}
    nid = np.frombuffer(recorder.name_id, dtype=np.int64)
    parent = np.frombuffer(recorder.parent, dtype=np.int64)
    dur = (
        np.frombuffer(recorder.end, dtype=np.int64) - np.frombuffer(recorder.start, dtype=np.int64)
    ).astype(float)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=count)
    own = dur - child
    # a span is instrumentation if it or an ancestor is optimizers._record;
    # each pass marks one more level of descendants, index `count` is a
    # root sentinel that stays unmarked
    instr = np.zeros(count + 1, dtype=bool)
    if RECORD_SPAN in recorder.names:
        instr[:count] = nid == recorder.names.index(RECORD_SPAN)
    up = np.where(nested, parent, count)
    while True:
        grown = instr[:count] | instr[up]
        if np.array_equal(grown, instr[:count]):
            break
        instr[:count] = grown
    width = len(recorder.names)
    calls = np.bincount(nid, minlength=width)
    instr_calls = np.bincount(nid[instr[:count]], minlength=width)
    busy = np.bincount(nid, weights=dur, minlength=width)
    self_ns = np.bincount(nid, weights=own, minlength=width)
    return {
        name: {
            "calls": int(calls[k]),
            "instr_calls": int(instr_calls[k]),
            "busy_ns": float(busy[k]),
            "self_ns": float(self_ns[k]),
        }
        for k, name in enumerate(recorder.names)
        if calls[k]
    }


# Units of exact counts, which must repeat across traced repetitions.
EXACT_UNITS = ("count", "computed_B", "B")


def layer_metrics(summary: dict, counts: dict, outcome) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced repetition, as (value, unit)."""

    def total(names, key):
        return sum(summary.get(name, {}).get(key, 0) for name in names)

    metrics: dict[str, tuple[float, str]] = {}
    query_names = [f"core.query_{kind}" for kind in QUERY_KINDS]
    for kind, name in zip(QUERY_KINDS, query_names):
        calls, instr = total([name], "calls"), total([name], "instr_calls")
        metrics[f"core.query.{kind}.calls_alg"] = (calls - instr, "count")
        metrics[f"core.query.{kind}.calls_instr"] = (instr, "count")
    query_calls = total(query_names, "calls")
    query_self = total(query_names, "self_ns")
    metrics["core.query.self_s"] = (query_self / 1e9, "s")
    metrics["core.query.ns_per_call"] = (query_self / query_calls if query_calls else 0.0, "ns")

    full_names = [f"core.{fname}" for fname in FULL_EVALS]
    metrics["core.full.calls"] = (total(full_names, "calls"), "count")
    metrics["core.full.self_s"] = (total(full_names, "self_ns") / 1e9, "s")

    draws = total(["core.SampleStream.randrange"], "calls")
    attempts = counts.get("core.SampleStream.next_u64", 0)
    metrics["core.sampling.draws"] = (draws, "count")
    metrics["core.sampling.u64_per_draw"] = (attempts / draws if draws else 0.0, "u64/draw")
    metrics["core.sampling.self_s"] = (total(SAMPLING_SPANS, "self_ns") / 1e9, "s")

    comp_names = [f"problems.{method}" for method in COMPONENT_METHODS]
    comp_calls = total(comp_names, "calls")
    comp_busy = total(comp_names, "busy_ns")
    metrics["problems.component.busy_s"] = (comp_busy / 1e9, "s")
    metrics["problems.component.ns_per_call"] = (comp_busy / comp_calls if comp_calls else 0.0, "ns")
    dim_w, dim_x = outcome.jacobian_shape
    jac_calls = total(["problems.inner_component_jacobian"], "calls")
    metrics["problems.jacobian_bytes"] = (jac_calls * dim_w * dim_x * 8, "computed_B")
    metrics["problems.sne.clamp_events"] = (outcome.clamp_events, "count")
    setup_names = [f"problems.{fname}" for fname in SETUP_FUNCTIONS]
    metrics["problems.setup.busy_s"] = (total(setup_names, "busy_ns") / 1e9, "s")

    run_ns = total(["optimizers.run"], "busy_ns")
    snap = ["estimators.take_snapshot"]
    metrics["estimators.snapshot.calls"] = (total(snap, "calls"), "count")
    metrics["estimators.snapshot.busy_s"] = (total(snap, "busy_ns") / 1e9, "s")
    metrics["estimators.snapshot.share"] = (total(snap, "busy_ns") / run_ns if run_ns else 0.0, "ratio")
    for label, names in (
        ("inner", ["estimators.estimate_inner"]),
        ("jacobian", ["estimators.estimate_inner_jacobian"]),
        ("grad", [f"estimators.{fname}" for fname in GRAD_ESTIMATORS]),
    ):
        metrics[f"estimators.{label}.calls"] = (total(names, "calls"), "count")
        metrics[f"estimators.{label}.self_s"] = (total(names, "self_ns") / 1e9, "s")

    metrics["optimizers.steps"] = (counts.get("optimizers._guard", 0), "count")
    metrics["optimizers.epochs"] = (outcome.epochs, "count")
    metrics["optimizers.run.self_s"] = (total(["optimizers.run"], "self_ns") / 1e9, "s")
    record_ns = total([RECORD_SPAN], "busy_ns")
    metrics["optimizers.record.calls"] = (total([RECORD_SPAN], "calls"), "count")
    metrics["optimizers.record.busy_s"] = (record_ns / 1e9, "s")
    metrics["optimizers.record.share"] = (record_ns / run_ns if run_ns else 0.0, "ratio")
    metrics["optimizers.record.shadow_queries"] = (total(query_names, "instr_calls"), "count")

    prepare = ["harness.load_experiment", "harness.prepare_experiment"]
    metrics["harness.prepare.busy_s"] = (total(prepare, "busy_ns") / 1e9, "s")
    metrics["harness.write_trace.busy_s"] = (total(["harness.write_trace_csv"], "busy_ns") / 1e9, "s")
    metrics["harness.trace_bytes"] = (outcome.trace_bytes, "B")
    return metrics


def check_counts(metrics: dict, outcome) -> list[str]:
    """Exact agreements between the spans and the workload's ledgers."""
    errors = []
    alg = [metrics[f"core.query.{kind}.calls_alg"][0] for kind in QUERY_KINDS]
    if sum(alg) != outcome.queries:
        errors.append(f"algorithmic query spans {sum(alg)} != ledger total {outcome.queries}")
    if outcome.ledger is not None and tuple(alg) != outcome.ledger:
        errors.append(f"algorithmic query spans by kind {alg} != ledger {outcome.ledger}")
    shadow = metrics["optimizers.record.shadow_queries"][0]
    if shadow != outcome.shadow_queries:
        errors.append(f"instrumentation query spans {shadow} != {outcome.shadow_queries} expected")
    steps = metrics["optimizers.steps"][0]
    if steps != outcome.steps:
        errors.append(f"steps counted {steps} != {outcome.steps} configured")
    return errors

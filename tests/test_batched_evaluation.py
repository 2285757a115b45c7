"""Batched component evaluation: every problem's batch methods against
the stacked per-component methods, the ``core`` batch helpers' index,
charge and finiteness contract (one finiteness check per stack, equal
to checking each row; one charge-only ``query_<kind>`` call per charged
query), the in-order row sum, and the benchmark's own span check run
in-process on every variant and on a raising batch."""

import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scvr import core, optimizers, problems
from scvr.core import EvaluationError, QueryLedger, SmoothnessConstants
from scvr.optimizers import OptimizerConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# batch method -> (per-component method, point argument: "x" or "w", takes v)
BATCH_METHODS = {
    "inner_values": ("inner_component", "x", False),
    "inner_vjps": ("inner_component_vjp", "x", True),
    "compact_jacobians": ("compact_jacobian", "x", False),
    "outer_values": ("outer_component", "w", False),
    "outer_gradients": ("outer_component_gradient", "w", False),
}


def _random_sne(n, embed_dim, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 1.0, size=(n, n))
    np.fill_diagonal(p, 0.0)
    p /= p.sum(axis=1, keepdims=True)
    return problems.SneProblem(p, embed_dim, sigma=1.0)


def _synthetic(draw, seed):
    """One of the synthetic problem classes at drawn sizes."""
    maker = draw(st.sampled_from(["affine", "nonconvex", "curved"]))
    if maker == "curved":
        return problems.make_curved_inner(
            dim_x=draw(st.integers(1, 5)), dim_w=draw(st.integers(1, 5)),
            n=draw(st.integers(1, 5)), seed=seed,
        )
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    # past 8 entries NumPy sums the outer values pairwise
    dim_x, dim_w = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    if maker == "affine":
        return problems.make_affine_quadratic(n, m, dim_x, dim_w, seed=seed)
    return problems.make_nonconvex_synthetic(n, m, dim_x, dim_w, seed=seed)


def test_every_problem_class_is_drawn():
    classes = {
        cls for _, cls in inspect.getmembers(problems, inspect.isclass)
        if issubclass(cls, core.CompositionProblem) and not inspect.isabstract(cls)
    }
    assert classes == {
        problems.AffineQuadraticProblem, problems.NonconvexSyntheticProblem,
        problems.CurvedInnerProblem, problems.SneProblem,
    }


# normalizer entries around, below and far below the log floor, and NaN
normalizers = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 1e-13, 1e-12, 9.999999999999999e-13, -5.0, math.nan]),
)


def _stacked(problem, method, indices, args):
    scalar = getattr(problem, BATCH_METHODS[method][0])
    if method == "outer_values":
        return np.array([scalar(k, *args) for k in indices], dtype=float)
    return np.stack([scalar(k, *args) for k in indices])


def _assert_batches_equal_stacks(problem, x, w, v, data):
    index = {"x": st.integers(1, problem.m_inner), "w": st.integers(1, problem.n_outer)}
    before = (x.tobytes(), w.tobytes(), v.tobytes())
    for method, (_, point, takes_v) in BATCH_METHODS.items():
        indices = data.draw(st.lists(index[point], min_size=1, max_size=6), label=method)
        args = (x if point == "x" else w,) + ((v,) if takes_v else ())
        with np.errstate(all="ignore"):
            problem.clamp_events = 0
            got = getattr(problem, method)(indices, *args)
            batch_clamps = problem.clamp_events
            problem.clamp_events = 0
            want = _stacked(problem, method, indices, args)
        assert got.shape == want.shape, method
        assert got.dtype == want.dtype, method
        assert got.tobytes() == want.tobytes(), method
        assert batch_clamps == problem.clamp_events, method
        assert (x.tobytes(), w.tobytes(), v.tobytes()) == before, method


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=120, deadline=None)
def test_synthetic_batches_equal_stacked_components_bitwise(seed, data):
    problem = _synthetic(data.draw, seed)
    scaled = st.floats(-1e3, 1e3, allow_nan=False, width=64)
    x = data.draw(hnp.arrays(np.float64, problem.dim_x, elements=scaled))
    w = data.draw(hnp.arrays(np.float64, problem.dim_w, elements=scaled))
    v = data.draw(hnp.arrays(np.float64, problem.dim_w, elements=scaled))
    _assert_batches_equal_stacks(problem, x, w, v, data)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    # the coordinate sums switch to NumPy's own reduce at d = 8
    embed_dim=st.sampled_from([1, 2, 3, 7, 8, 9]),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_sne_batches_equal_stacked_components_bitwise(seed, n, embed_dim, data):
    problem = _random_sne(n, embed_dim, seed)
    scaled = st.floats(-30.0, 30.0, allow_nan=False, width=64)
    x = data.draw(hnp.arrays(np.float64, problem.dim_x, elements=scaled))
    w = np.concatenate([
        data.draw(hnp.arrays(np.float64, problem.dim_x, elements=scaled)),
        data.draw(hnp.arrays(np.float64, n, elements=normalizers)),
    ])
    v = data.draw(hnp.arrays(np.float64, problem.dim_w, elements=st.floats(-1e3, 1e3)))
    _assert_batches_equal_stacks(problem, x, w, v, data)


def test_sne_batch_clamps_count_once_per_component():
    problem = _random_sne(4, 2, 1)
    w = np.ones(problem.dim_w)
    w[problem.dim_x :] = [0.5, 0.0, -1.0, 2.0]  # two normalizers below the floor
    problem.outer_gradients([1, 3, 3], w)
    assert problem.clamp_events == 3 * 2
    problem.outer_values([2, 4], w)
    assert problem.clamp_events == 3 * 2 + 2 * 2


# -- sum_rows ---------------------------------------------------------------------


@given(
    rows=st.integers(1, 40).flatmap(
        lambda k: hnp.arrays(
            np.float64,
            st.sampled_from([(k, 1), (k, 2), (k, 5), (k, 1, 1), (k, 3, 2)]),
            elements=st.one_of(
                st.floats(-1e300, 1e300, allow_nan=False), st.sampled_from([0.0, -0.0])
            ),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_sum_rows_adds_rows_in_index_order(rows):
    acc = np.zeros(rows.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for row in rows:
            acc += row
        got = core.sum_rows(rows)
    assert got.shape == rows.shape[1:]
    assert got.tobytes() == acc.tobytes()


# -- the core batch helpers --------------------------------------------------------


class PreparedBatchProblem(core.CompositionProblem):
    """Batch methods return prepared stacks; per-component methods fail."""

    n_outer = 4
    m_inner = 4
    dim_x = 3
    dim_w = 2
    constants = SmoothnessConstants(b_g=1.0, l_g=0.0, b_f=1.0, l_f_outer=1.0, l_f=1.0)

    def __init__(self, rows):
        self.rows = rows
        self.batch_calls = 0

    def _batch(self, indices, *args):
        self.batch_calls += 1
        return self.rows[: len(indices)]

    inner_values = inner_vjps = compact_jacobians = outer_values = outer_gradients = _batch

    def _refuse(self, *args):
        raise AssertionError("per-component method called on the batch path")

    inner_component = inner_component_jacobian = outer_component = _refuse
    outer_component_gradient = _refuse


BATCH_HELPERS = {
    "inner_values": (core.query_inner_values, {}, "inner component", "inner_value_queries"),
    "inner_vjps": (
        core.query_inner_vjps, {"v": np.ones(2)}, "inner Jacobian", "inner_jacobian_queries"
    ),
    "compact": (
        core.query_compact_jacobians, {}, "inner Jacobian", "inner_jacobian_queries"
    ),
    "outer_values": (core.query_outer_values, {}, "outer component", "outer_value_queries"),
    "outer_gradients": (
        core.query_outer_gradients, {}, "outer gradient", "outer_gradient_queries"
    ),
}


def _rows(helper, bad_at=(), bad=math.nan):
    """Four rows of the helper's output form, non-finite at ``bad_at``."""
    rows = np.ones(4) if helper == "outer_values" else np.ones((4, 2))
    for k in bad_at:
        rows[k] = bad
    return rows


@pytest.mark.parametrize("helper", sorted(BATCH_HELPERS))
@pytest.mark.parametrize("indices", [[1, 5], [0, 2], [2, 2, -1]])
def test_batch_helper_checks_every_index_before_evaluating(helper, indices):
    query, kwargs, _, _ = BATCH_HELPERS[helper]
    side = "outer" if helper.startswith("outer") else "inner"
    problem = PreparedBatchProblem(_rows(helper))
    bad = next(k for k in indices if not 1 <= k <= 4)
    ledger = QueryLedger()
    with pytest.raises(IndexError, match=rf"^{side} component index {bad} outside 1\.\.4$"):
        query(problem, indices, np.zeros(3), ledger, **kwargs)
    assert problem.batch_calls == 0
    assert ledger.total == 0


@pytest.mark.parametrize("helper", sorted(BATCH_HELPERS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_batch_helper_names_the_first_non_finite_row(helper, bad):
    query, kwargs, label, kind = BATCH_HELPERS[helper]
    problem = PreparedBatchProblem(_rows(helper, bad_at=(1, 3), bad=bad))
    ledger = QueryLedger()
    with pytest.raises(EvaluationError, match=rf"^{label} 4 returned a non-finite value$"):
        query(problem, [2, 4, 1, 3], np.zeros(3), ledger, **kwargs)
    # the rows before it and the bad row itself were charged
    assert ledger.total == getattr(ledger, kind) == 2
    assert problem.batch_calls == 1


@pytest.mark.parametrize("helper", sorted(BATCH_HELPERS))
def test_batch_helper_returns_the_rows_for_one_charge_each(helper):
    query, kwargs, _, kind = BATCH_HELPERS[helper]
    rows = _rows(helper)
    ledger = QueryLedger()
    out = query(PreparedBatchProblem(rows), [3, 1, 3], np.zeros(3), ledger, **kwargs)
    assert out.tobytes() == rows[:3].tobytes()
    assert ledger.total == getattr(ledger, kind) == 3


class PreparedDenseProblem(PreparedBatchProblem):
    """The dense Jacobian form stacks per-component calls: each returns
    the next prepared row."""

    def inner_component_jacobian(self, j, x):
        self.batch_calls += 1
        return self.rows[self.batch_calls - 1]


# helper -> (batch helper, keyword arguments, error label, ledger field,
#            shape of one row, problem class)
STACK_CHECK_CASES = {
    "inner_values": (
        core.query_inner_values, {}, "inner component", "inner_value_queries", (2,),
        PreparedBatchProblem,
    ),
    "inner_vjps": (
        core.query_inner_vjps, {"v": np.ones(2)}, "inner Jacobian",
        "inner_jacobian_queries", (2,), PreparedBatchProblem,
    ),
    "compact": (
        core.query_compact_jacobians, {}, "inner Jacobian",
        "inner_jacobian_queries", (2, 3), PreparedBatchProblem,
    ),
    "dense": (
        core.query_inner_jacobians, {}, "inner Jacobian", "inner_jacobian_queries",
        (2, 3), PreparedDenseProblem,
    ),
    "outer_values": (
        core.query_outer_values, {}, "outer component", "outer_value_queries", (),
        PreparedBatchProblem,
    ),
    "outer_gradients": (
        core.query_outer_gradients, {}, "outer gradient", "outer_gradient_queries", (2,),
        PreparedBatchProblem,
    ),
}


def _per_row_reference(indices, rows, label, kind):
    """The per-row rule: charge a row, test it, and raise at the first
    row with a non-finite entry.  Returns the ledger and the message."""
    ledger = QueryLedger()
    for k, row in zip(indices, rows):
        setattr(ledger, kind, getattr(ledger, kind) + 1)
        if not np.isfinite(row).all():
            return ledger, f"{label} {k} returned a non-finite value"
    return ledger, None


@pytest.mark.parametrize("helper", sorted(STACK_CHECK_CASES))
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_stack_check_equals_the_per_row_check(helper, data):
    query, kwargs, label, kind, row_shape, problem_class = STACK_CHECK_CASES[helper]
    indices = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=30))
    count, width = len(indices), int(np.prod(row_shape))
    fills = st.sampled_from([1.0, 1e200, np.finfo(float).max])
    rows = data.draw(hnp.arrays(np.float64, (count,) + row_shape, elements=fills))
    bad_entries = st.tuples(
        st.integers(0, count - 1), st.integers(0, width - 1),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    for row, entry, bad in data.draw(st.lists(bad_entries, max_size=4)):
        rows.reshape(count, width)[row, entry] = bad
    want_ledger, want_message = _per_row_reference(indices, rows, label, kind)

    problem = problem_class(rows)
    ledger = QueryLedger()
    if want_message is None:
        out = query(problem, indices, np.zeros(3), ledger, **kwargs)
        assert out.shape == rows.shape
        assert out.tobytes() == rows.tobytes()
    else:
        with pytest.raises(EvaluationError) as raised:
            query(problem, indices, np.zeros(3), ledger, **kwargs)
        assert str(raised.value) == want_message
    assert ledger == want_ledger
    assert problem.batch_calls == (count if helper == "dense" else 1)


def _loop_mean(component, count, point):
    """(1/count) sum_k component(k, point) for k = 1..count, added one at
    a time in index order."""
    acc = None
    for k in range(1, count + 1):
        out = component(k, point)
        acc = out if acc is None else acc + out
    return acc / count


@pytest.mark.parametrize("n", [7, 20])
def test_full_evaluations_take_blocks_in_index_order(monkeypatch, n):
    """In one block or one component per block, the full sums have the
    bits of an in-order loop over the per-component methods.  Past 8
    entries NumPy's 1-D sum is pairwise, so n = 20 tells the two apart."""
    problem = _random_sne(n, 2, 3)
    m = problem.m_inner
    x = np.random.default_rng(3).normal(size=problem.dim_x)
    value = _loop_mean(problem.inner_component, m, x)
    sums = {
        core.inner_full: (x, value),
        core.inner_jacobian_full: (x, _loop_mean(problem.inner_component_jacobian, m, x)),
        core.outer_gradient_full: (
            value, _loop_mean(problem.outer_component_gradient, n, value)
        ),
        core.objective: (x, _loop_mean(problem.outer_component, n, value)),
    }
    gradient = core.full_gradient(problem, x, QueryLedger())
    for block_bytes in (core.FULL_BLOCK_BYTES, 8):
        monkeypatch.setattr(core, "FULL_BLOCK_BYTES", block_bytes)
        ledger = QueryLedger()
        for full, (point, want) in sums.items():
            got = full(problem, point, ledger)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), full.__name__
        got = core.full_gradient(problem, x, ledger)
        assert got.tobytes() == gradient.tobytes()
        assert ledger == QueryLedger(
            inner_value_queries=3 * m, inner_jacobian_queries=2 * m,
            outer_value_queries=n, outer_gradient_queries=2 * n,
        )


class TinyTermsProblem(core.CompositionProblem):
    """Outer values 1 and then n - 1 terms of half an ulp of 1: added in
    index order each tiny term rounds away, while a pairwise sum adds
    the tiny terms together first and keeps them."""

    m_inner = dim_x = dim_w = 1

    def __init__(self, n):
        self.n_outer = n

    def inner_component(self, j, x):
        return x.copy()

    def inner_component_jacobian(self, j, x):
        return np.ones((1, 1))

    def outer_component(self, i, w):
        return 1.0 if i == 1 else 2.0**-53

    def outer_component_gradient(self, i, w):
        return np.zeros(1)


@pytest.mark.parametrize("n", [7, 20])
def test_objective_adds_outer_values_in_index_order(n):
    problem = TinyTermsProblem(n)
    want = _loop_mean(problem.outer_component, n, np.zeros(1))
    assert want == 1.0 / n
    assert core.objective(problem, np.zeros(1), QueryLedger()) == want


# -- the benchmark's span check, in-process ----------------------------------------


def test_benchmark_span_check_holds_for_every_variant(monkeypatch):
    """``perfbench/spans.py`` counts calls of each ``core.query_<kind>``
    and requires them to equal the ledger by kind: the batch helpers check
    a batch once but must keep one charge-only call per charged query."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    cases = [
        (problems.make_nonconvex_synthetic(n=7, m=6, dim_x=3, dim_w=4, seed=2), 0.05),
        (_random_sne(6, 2, 4), 0.01),
    ]
    for problem, eta in cases:
        x0 = np.random.default_rng(1).normal(size=problem.dim_x) * 0.5
        for variant in optimizers.VARIANTS:
            cfg = OptimizerConfig(
                eta=eta, epochs_s=2, inner_k=3, variant=variant,
                sample_a=3, sample_b=2, batch_b=3, seed=5, record_every=2,
            )
            out = workloads.Outcome(runs=1, jacobian_shape=(problem.dim_w, problem.dim_x))
            recorder = spans.SpanRecorder()
            inst = spans.install(recorder)
            try:
                workloads._run_gated(problem, cfg, x0, out, lambda result: ())
            finally:
                inst.restore()
            metrics = spans.layer_metrics(spans.summarize(recorder), recorder.counts, out)
            label = (type(problem).__name__, variant)
            assert out.failed == {}, label
            assert out.ledger is not None and sum(out.ledger) == out.queries, label
            assert spans.check_counts(metrics, out) == [], label


@pytest.mark.parametrize("helper", sorted(BATCH_HELPERS))
def test_benchmark_span_check_holds_on_a_raising_batch(helper, monkeypatch):
    """A batch whose third row is not finite raises after three charges,
    and the benchmark's spans count exactly those three calls."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    query, kwargs, label, kind = BATCH_HELPERS[helper]
    problem = PreparedBatchProblem(_rows(helper, bad_at=(2,)))
    before = dict(vars(core)), dict(vars(core.SampleStream))
    recorder = spans.SpanRecorder()
    inst = spans.install(recorder)
    ledger = QueryLedger()
    try:
        with pytest.raises(EvaluationError, match=rf"^{label} 1 returned a non-finite value$"):
            query(problem, [2, 4, 1, 3], np.zeros(3), ledger, **kwargs)
    finally:
        inst.restore()
    summary = spans.summarize(recorder)
    calls = {
        f"{k}_queries": summary.get(f"core.query_{k}", {}).get("calls", 0)
        for k in spans.QUERY_KINDS
    }
    assert QueryLedger(**calls) == ledger == QueryLedger(**{kind: 3})
    after = dict(vars(core)), dict(vars(core.SampleStream))
    for old, new in zip(before, after):
        assert new.keys() == old.keys()
        assert all(new[name] is value for name, value in old.items())

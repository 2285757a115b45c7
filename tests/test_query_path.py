"""The per-query path: finiteness checks of the rows the ``core`` batch
helpers return, bitwise agreement of the synthetic components with their
defining formulas, one ``query_<kind>`` call per charged query, which
only charges the ledger, and index ranges, which give exactly what their
lists give."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scvr import core, optimizers, problems
from scvr.core import EvaluationError, QueryLedger, SmoothnessConstants
from scvr.optimizers import OptimizerConfig

BAD_VALUES = (math.nan, math.inf, -math.inf)


class FixedOutputProblem(core.CompositionProblem):
    """Every component returns the same prepared output."""

    n_outer = 4
    m_inner = 4
    dim_x = 3
    dim_w = 5
    constants = SmoothnessConstants(b_g=1.0, l_g=0.0, b_f=1.0, l_f_outer=1.0, l_f=1.0)

    def __init__(self, vector, matrix, scalar=0.0):
        self.vector, self.matrix, self.scalar = vector, matrix, scalar

    def inner_component(self, j, x):
        return self.vector

    def inner_component_jacobian(self, j, x):
        return self.matrix

    def outer_component(self, i, w):
        return self.scalar

    def outer_component_gradient(self, i, w):
        return self.vector


# kind: (batch helper, error label, accounting helper, ledger field)
QUERIES = {
    "inner_value": (
        core.query_inner_values, "inner component", core.query_inner_value,
        "inner_value_queries",
    ),
    "inner_jacobian": (
        core.query_inner_jacobians, "inner Jacobian", core.query_inner_jacobian,
        "inner_jacobian_queries",
    ),
    "outer_value": (
        core.query_outer_values, "outer component", core.query_outer_value,
        "outer_value_queries",
    ),
    "outer_gradient": (
        core.query_outer_gradients, "outer gradient", core.query_outer_gradient,
        "outer_gradient_queries",
    ),
}


def _problem_with(entry, fill=1.0):
    """Outputs filled with ``fill`` whose last entry is ``entry``."""
    vector = np.full(5, fill)
    vector[-1] = entry
    matrix = np.full((5, 3), fill)
    matrix[-1, -1] = entry
    return FixedOutputProblem(vector, matrix, scalar=entry)


@pytest.mark.parametrize("kind", sorted(QUERIES))
@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("fill", [1.0, 1e200])
def test_non_finite_output_raises_naming_the_index(kind, bad, fill):
    query, label, _, _ = QUERIES[kind]
    problem = _problem_with(bad, fill)
    ledger = QueryLedger()
    with pytest.raises(EvaluationError, match=rf"^{label} 3 returned a non-finite value$"):
        query(problem, [3], np.zeros(problem.dim_x), ledger)
    assert ledger.total == 1


@pytest.mark.parametrize("kind", ["inner_value", "inner_jacobian", "outer_gradient"])
def test_overflowing_squared_norm_is_not_an_error(kind):
    query, _, _, _ = QUERIES[kind]
    problem = _problem_with(1e200, 1e200)
    expected = problem.matrix if kind == "inner_jacobian" else problem.vector
    with np.errstate(over="ignore"):
        assert not math.isfinite(np.vdot(expected, expected))
    ledger = QueryLedger()
    (row,) = query(problem, [2], np.zeros(problem.dim_x), ledger)
    assert row.tobytes() == expected.tobytes()
    assert ledger.total == 1


def test_largest_finite_outputs_pass():
    big = np.finfo(float).max
    problem = _problem_with(-big, big)
    ledger = QueryLedger()
    core.query_inner_values(problem, [1], np.zeros(3), ledger)
    core.query_inner_jacobians(problem, [1], np.zeros(3), ledger)
    core.query_outer_gradients(problem, [1], np.zeros(5), ledger)
    assert core.query_outer_values(problem, [1], np.zeros(5), ledger)[0] == -big
    assert ledger.total == 4


@pytest.mark.parametrize("kind", sorted(QUERIES))
def test_query_kind_charges_one_query_of_its_kind(kind):
    _, _, account, field = QUERIES[kind]
    ledger = QueryLedger()
    assert account(2, ledger) is None
    assert ledger == QueryLedger(**{field: 1})
    assert account(5, ledger) is None
    assert ledger == QueryLedger(**{field: 2})


# -- bitwise agreement with the defining formulas ---------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def _reference_rho_prime(t):
    d = 1.0 + t * t
    return 2.0 * t / (d * d)


@given(hnp.arrays(np.float64, st.integers(1, 12), elements=finite))
@settings(max_examples=200, deadline=None)
def test_rho_prime_bitwise_equals_formula(t):
    before = t.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        got = problems._rho_prime(t)
        want = _reference_rho_prime(t)
    assert got.tobytes() == want.tobytes()
    assert t.tobytes() == before.tobytes()  # the argument is not modified


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 6), st.integers(1, 6)),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_nonconvex_components_bitwise_equal_formulas(seed, shape, data):
    n, m, dim_x, dim_w = shape
    problem = problems.make_nonconvex_synthetic(n, m, dim_x, dim_w, seed=seed)
    scaled = st.floats(-1e3, 1e3, allow_nan=False, width=64)
    x = data.draw(hnp.arrays(np.float64, dim_x, elements=scaled))
    w = data.draw(hnp.arrays(np.float64, dim_w, elements=scaled))
    j = data.draw(st.integers(1, m))
    i = data.draw(st.integers(1, n))
    mats, offs, targets = problem.mats, problem.offs, problem.targets

    value = problem.inner_component(j, x)
    assert value.tobytes() == (mats[j - 1] @ x + offs[j - 1]).tobytes()
    jac = problem.inner_component_jacobian(j, x)
    assert jac.tobytes() == mats[j - 1].copy().tobytes()
    jac[0, 0] += 1.0  # a returned Jacobian is a copy, not a view
    assert problem.inner_component_jacobian(j, x).tobytes() == mats[j - 1].tobytes()
    t = w - targets[i - 1]
    assert problem.outer_component(i, w) == float((t * t / (1.0 + t * t)).sum())
    grad = problem.outer_component_gradient(i, w)
    assert grad.tobytes() == _reference_rho_prime(t).tobytes()


def test_affine_components_equal_formulas(affine_small):
    x = np.array([0.3, -1.7, 2.5])
    for j in range(1, affine_small.m_inner + 1):
        want = affine_small.mats[j - 1] @ x + affine_small.offs[j - 1]
        assert affine_small.inner_component(j, x).tobytes() == want.tobytes()
    w = np.array([1.0, -2.0, 0.5])
    for i in range(1, affine_small.n_outer + 1):
        r = w - affine_small.targets[i - 1]
        assert affine_small.outer_component_gradient(i, w).tobytes() == r.tobytes()


def _reference_sne_inner(problem, j, x):
    pts = x[: problem.dim_x].reshape(problem.n_points, problem.embed_dim)
    diff = pts - pts[j - 1]
    kern = np.exp(-(diff * diff).sum(axis=1))
    tail = problem.n_points * kern - 1.0
    return np.concatenate([np.asarray(x, dtype=float), tail])


def _reference_sne_outer_gradient(problem, i, w):
    """The defining expressions; returns the gradient and the clamp count."""
    n, d = problem.n_points, problem.embed_dim
    pts = w[: problem.dim_x].reshape(n, d)
    s = w[problem.dim_x :]
    low = s < problem.LOG_FLOOR
    if np.any(low):
        s = np.maximum(s, problem.LOG_FLOOR)
    weights = problem.p_matrix[:, i - 1]
    diff = pts - pts[i - 1]
    gblocks = (2.0 * n) * weights[:, None] * diff
    gblocks[i - 1] -= gblocks.sum(axis=0)
    gtail = n * weights / s
    return np.concatenate([gblocks.ravel(), gtail]), int(low.sum())


# normalizer entries around, below and far below the log floor, and NaN
normalizers = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 1e-13, 1e-12, 1.0000000000000001e-12, 9.999999999999999e-13,
                     -5.0, math.nan]),
)


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(2, 6), st.integers(1, 3)),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_sne_components_bitwise_equal_formulas(seed, shape, data):
    n, embed_dim = shape
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 1.0, size=(n, n)) + 1e-3
    np.fill_diagonal(p, 0.0)
    p /= p.sum(axis=1, keepdims=True)
    problem = problems.SneProblem(p, embed_dim, sigma=1.0)
    scaled = st.floats(-30.0, 30.0, allow_nan=False, width=64)
    x = data.draw(hnp.arrays(np.float64, problem.dim_x, elements=scaled))
    w = np.concatenate([
        data.draw(hnp.arrays(np.float64, problem.dim_x, elements=scaled)),
        data.draw(hnp.arrays(np.float64, n, elements=normalizers)),
    ])
    j = data.draw(st.integers(1, n))
    before = (x.tobytes(), w.tobytes())

    assert problem.inner_component(j, x).tobytes() == _reference_sne_inner(problem, j, x).tobytes()
    with np.errstate(all="ignore"):
        want, clamps = _reference_sne_outer_gradient(problem, j, w)
        got = problem.outer_component_gradient(j, w)
        assert got.tobytes() == want.tobytes()
        assert problem.clamp_events == clamps
        problem.outer_component(j, w)
    assert problem.clamp_events == 2 * clamps
    assert (x.tobytes(), w.tobytes()) == before  # the arguments are not modified


# -- one helper call per charged query --------------------------------------------


KINDS = ("inner_value", "inner_jacobian", "outer_value", "outer_gradient")


def _count_query_calls(monkeypatch):
    """Wrap ``query_<kind>`` under every ``scvr.*`` module attribute that
    refers to it; calls made inside ``optimizers._record`` (trace
    instrumentation) are counted apart."""
    counts = {"alg": dict.fromkeys(KINDS, 0), "instr": dict.fromkeys(KINDS, 0)}
    depth = [0]

    def replace_everywhere(fn, wrapper):
        hits = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "scvr" or name.startswith("scvr.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
                    hits += 1
        assert hits > 0

    for kind in KINDS:
        fn = getattr(core, f"query_{kind}")

        def counting(*args, _fn=fn, _kind=kind, **kwargs):
            counts["instr" if depth[0] else "alg"][_kind] += 1
            return _fn(*args, **kwargs)

        replace_everywhere(fn, counting)
    record = optimizers._record

    def recording(*args):
        depth[0] += 1
        try:
            return record(*args)
        finally:
            depth[0] -= 1

    replace_everywhere(record, recording)
    return counts


def _check_calls_equal_ledger_by_kind(problem, eta, variant, monkeypatch):
    counts = _count_query_calls(monkeypatch)
    cfg = OptimizerConfig(
        eta=eta, epochs_s=3, inner_k=4, variant=variant,
        sample_a=3, sample_b=2, batch_b=2, seed=5, record_every=3,
    )
    result = optimizers.run(problem, cfg, x0=np.full(problem.dim_x, 0.5))
    led = result.ledger
    by_kind = (
        led.inner_value_queries, led.inner_jacobian_queries,
        led.outer_value_queries, led.outer_gradient_queries,
    )
    assert tuple(counts["alg"][kind] for kind in KINDS) == by_kind
    assert led.total == optimizers.expected_total_queries(
        variant, 3, 4, problem.m_inner, problem.n_outer, 3, 2, 2
    )
    # each trace record is one full gradient plus one objective
    m, n, records = problem.m_inner, problem.n_outer, len(result.trace)
    assert counts["instr"] == {
        "inner_value": 2 * m * records, "inner_jacobian": m * records,
        "outer_value": n * records, "outer_gradient": n * records,
    }


@pytest.mark.parametrize("variant", optimizers.VARIANTS)
def test_query_helper_calls_equal_ledger_by_kind(variant, monkeypatch):
    problem = problems.make_nonconvex_synthetic(n=7, m=6, dim_x=3, dim_w=4, seed=2)
    _check_calls_equal_ledger_by_kind(problem, 0.05, variant, monkeypatch)


@pytest.mark.parametrize("variant", optimizers.VARIANTS)
def test_query_helper_calls_equal_ledger_by_kind_sne(variant, monkeypatch):
    data, _ = problems.make_cluster_data(7, clusters=2, dim=5, seed=3)
    problem = problems.build_sne(data, sigma=2.0, embed_dim=2)
    _check_calls_equal_ledger_by_kind(problem, 0.01, variant, monkeypatch)


# -- index ranges: a step-1 range is checked by its ends and sliced ----------------

# helper: (side, extra arguments after the ledger, given the problem)
RANGE_HELPERS = {
    "query_inner_values": ("inner", lambda p: ()),
    "query_inner_vjps": ("inner", lambda p: (np.linspace(-1.0, 1.0, p.dim_w),)),
    "query_compact_jacobians": ("inner", lambda p: ()),
    "query_inner_jacobians": ("inner", lambda p: ()),
    "query_outer_values": ("outer", lambda p: ()),
    "query_outer_gradients": ("outer", lambda p: ()),
}


@pytest.fixture(params=["synthetic", "affine", "sne"])
def range_problem(request):
    if request.param == "synthetic":
        return problems.make_nonconvex_synthetic(n=6, m=5, dim_x=3, dim_w=4, seed=2)
    if request.param == "affine":  # the default batch methods
        return problems.make_affine_quadratic(n=5, m=4, dim_x=3, dim_w=3, seed=1)
    data, _ = problems.make_cluster_data(6, clusters=2, dim=5, seed=3)
    return problems.build_sne(data, sigma=2.0, embed_dim=2)


def _range_query(problem, helper, indices):
    """Rows and ledger of one helper call, or its exception and ledger."""
    side, extra = RANGE_HELPERS[helper]
    x = np.linspace(-0.4, 0.7, problem.dim_x)
    point = x if side == "inner" else core.inner_full(problem, x, QueryLedger())
    ledger = QueryLedger()
    try:
        rows = getattr(core, helper)(problem, indices, point, ledger, *extra(problem))
    except (IndexError, ValueError) as exc:
        return type(exc), str(exc), ledger
    return rows.shape, rows.tobytes(), ledger


def _count(problem, helper):
    return problem.m_inner if RANGE_HELPERS[helper][0] == "inner" else problem.n_outer


@pytest.mark.parametrize("helper", sorted(RANGE_HELPERS))
def test_range_gives_the_rows_and_ledger_of_its_list(range_problem, helper):
    count = _count(range_problem, helper)
    for a, b in [(1, count + 1), (2, count), (count, count + 1), (3, 4)]:
        got = _range_query(range_problem, helper, range(a, b))
        assert isinstance(got[1], bytes)
        assert got == _range_query(range_problem, helper, list(range(a, b)))


@pytest.mark.parametrize("helper", sorted(RANGE_HELPERS))
def test_range_outside_or_not_step_one_behaves_as_its_list(range_problem, helper):
    count = _count(range_problem, helper)
    cases = {
        "below": range(0, 5),
        "above": range(1, count + 2),
        "empty": range(1, 1),
        "step 2": range(1, count, 2),
        "reversed": range(count, 0, -1),
    }
    for name, indices in cases.items():
        got = _range_query(range_problem, helper, indices)
        assert got == _range_query(range_problem, helper, list(indices)), name
    side = RANGE_HELPERS[helper][0]
    assert _range_query(range_problem, helper, cases["below"])[:2] == (
        IndexError, f"{side} component index 0 outside 1..{count}"
    )
    assert _range_query(range_problem, helper, cases["above"])[:2] == (
        IndexError, f"{side} component index {count + 1} outside 1..{count}"
    )


def test_compact_jacobians_of_a_full_range_do_not_alias_the_matrices():
    for make in (problems.make_nonconvex_synthetic, problems.make_affine_quadratic):
        problem = make(n=6, m=5, dim_x=3, dim_w=4, seed=2)
        mats = problem.mats.copy()
        stack = core.query_compact_jacobians(
            problem, range(1, problem.m_inner + 1), np.zeros(3), QueryLedger()
        )
        stack[0, 0, 0] += 1.0
        stack[-1] = 0.0
        assert problem.mats.tobytes() == mats.tobytes()

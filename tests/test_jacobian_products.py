"""Jacobian queries taken as products dG_j(x)^T v: every problem's
``inner_component_vjp`` against its dense Jacobian, the one-call,
one-charge contract of ``query_inner_vjps`` (the product form) and
``query_compact_jacobians`` (the compact form), the mean-Jacobian
operator against the per-component dense sum, and the product-form
gradient estimator against the dense reference pair."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scvr import core, optimizers, problems
from scvr.core import EvaluationError, QueryLedger, SmoothnessConstants
from scvr.estimators import (
    estimate_inner,
    estimate_inner_jacobian,
    grad_minibatch_v1,
    grad_minibatch_v1_vjp,
    grad_scvr2,
    take_snapshot,
)


def _random_sne(n, embed_dim, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 1.0, size=(n, n))
    np.fill_diagonal(p, 0.0)
    p /= p.sum(axis=1, keepdims=True)
    return problems.SneProblem(p, embed_dim, sigma=1.0)


# One small builder per concrete problem class in ``problems``.
BUILDERS = {
    problems.AffineQuadraticProblem: lambda seed: problems.make_affine_quadratic(
        n=3, m=4, dim_x=3, dim_w=5, seed=seed
    ),
    problems.NonconvexSyntheticProblem: lambda seed: problems.make_nonconvex_synthetic(
        n=3, m=4, dim_x=5, dim_w=3, seed=seed
    ),
    problems.CurvedInnerProblem: lambda seed: problems.make_curved_inner(
        dim_x=4, dim_w=3, n=3, seed=seed
    ),
    problems.SneProblem: lambda seed: _random_sne(5, 2, seed),
}


def test_every_problem_class_has_a_builder():
    classes = {
        cls for _, cls in inspect.getmembers(problems, inspect.isclass)
        if issubclass(cls, core.CompositionProblem) and not inspect.isabstract(cls)
    }
    assert classes == set(BUILDERS)


def _product_bound(jac, v):
    """|J|^T |v|: the scale of each entry of J^T v, against which a
    reordered sum is accurate to a few ulps."""
    return np.abs(jac).T @ np.abs(v)


@given(
    cls=st.sampled_from(sorted(BUILDERS, key=lambda c: c.__name__)),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 0.3, 1.0, 3.0]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_vjp_matches_dense_jacobian_product(cls, seed, scale, data):
    problem = BUILDERS[cls](seed)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=problem.dim_x) * scale
    v = data.draw(hnp.arrays(np.float64, problem.dim_w, elements=st.floats(-1e3, 1e3)))
    j = data.draw(st.integers(1, problem.m_inner))
    before = v.copy()
    got = problem.inner_component_vjp(j, x, v)
    jac = problem.inner_component_jacobian(j, x)
    want = jac.T @ v
    assert got.shape == (problem.dim_x,)
    # as in the operator test below: products that underflow to subnormals
    # keep only an absolute accuracy of half a subnormal step each
    underflow = 2 * problem.dim_w * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(got - want) <= 1e-12 * _product_bound(jac, v) + underflow)
    assert v.tobytes() == before.tobytes()  # the vector is not modified
    assert problem.inner_component_vjp(j, x, v).tobytes() == got.tobytes()  # pure


@pytest.mark.parametrize("zero_at", range(15))
def test_vjp_matches_dense_product_on_subnormal_vector(zero_at):
    """The case that showed the purely relative bound too tight: the SNE
    product of a vector of smallest normals (and one 0) differs from
    ``jac.T @ v`` by a few subnormal steps."""
    problem = BUILDERS[problems.SneProblem](3)
    x = np.random.default_rng(3).normal(size=problem.dim_x) * 1.0
    v = np.full(problem.dim_w, 2.2250738585072014e-308)
    v[zero_at] = 0.0
    jac = problem.inner_component_jacobian(1, x)
    got = problem.inner_component_vjp(1, x, v)
    underflow = 2 * problem.dim_w * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(got - jac.T @ v) <= 1e-12 * _product_bound(jac, v) + underflow)


# -- the mean Jacobian as an operator ---------------------------------------------


@given(
    cls=st.sampled_from(sorted(BUILDERS, key=lambda c: c.__name__)),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 0.3, 1.0, 3.0]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_mean_jacobian_matches_per_component_dense_sum(cls, seed, scale, data):
    problem = BUILDERS[cls](seed)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=problem.dim_x) * scale
    v = data.draw(hnp.arrays(np.float64, problem.dim_w, elements=st.floats(-1e3, 1e3)))
    ledger = QueryLedger()
    op = core.mean_jacobian(problem, x, ledger)
    assert ledger == QueryLedger(inner_jacobian_queries=problem.m_inner)
    dense = core.inner_jacobian_full(problem, x, QueryLedger())

    before = v.copy()
    got = op.rmatvec(v)
    assert got.shape == (problem.dim_x,)
    # products that underflow to subnormals keep only an absolute accuracy
    # of half a subnormal step each, which no relative bound covers
    underflow = 2 * problem.dim_w * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(got - dense.T @ v) <= 1e-12 * _product_bound(dense, v) + underflow)
    assert v.tobytes() == before.tobytes()  # the vector is not modified
    assert op.rmatvec(v).tobytes() == got.tobytes()
    # zero in, exactly zero out: the snapshot identities rest on it
    assert np.array_equal(op.rmatvec(np.zeros(problem.dim_w)), np.zeros(problem.dim_x))


PER_COMPONENT_METHODS = (
    "inner_component", "inner_component_jacobian", "inner_component_vjp", "compact_jacobian",
    "outer_component", "outer_component_gradient",
)


def test_sne_full_evaluations_form_no_dense_jacobian(monkeypatch):
    """No run path calls a per-component method, the reference, of the
    embedding or of the nonconvex synthetic: the snapshot, the full
    gradient and a run of every variant with trace records evaluate
    through the batch methods alone, so no dense SNE Jacobian is formed."""
    cases = (_random_sne(6, 2, 4), problems.make_nonconvex_synthetic(5, 4, 3, 4, seed=2))
    for problem in cases:
        x = np.random.default_rng(4).normal(size=problem.dim_x) * 0.5
        want_snapshot = take_snapshot(problem, x, QueryLedger())
        want_grad = core.full_gradient(problem, x, QueryLedger())

        with monkeypatch.context() as patch:
            for method in PER_COMPONENT_METHODS:

                def refuse(*args, _method=method):
                    raise AssertionError(f"{_method} called on a run path")

                patch.setattr(type(problem), method, refuse)
            snap = take_snapshot(problem, x, QueryLedger())
            assert snap.grad_tilde.tobytes() == want_snapshot.grad_tilde.tobytes()
            assert core.full_gradient(problem, x, QueryLedger()).tobytes() == want_grad.tobytes()
            for variant in optimizers.VARIANTS:
                cfg = optimizers.OptimizerConfig(
                    eta=0.01, epochs_s=2, inner_k=2, variant=variant, sample_a=2, sample_b=2,
                    batch_b=2, seed=1, record_every=1,
                )
                result = optimizers.run(problem, cfg, x0=x)
                assert len(result.trace) == 5
                assert result.ledger.total == optimizers.expected_total_queries(
                    variant, 2, 2, problem.m_inner, problem.n_outer, 2, 2, 2
                )


# -- query_inner_vjps and query_compact_jacobians ---------------------------------


class ProductOnlyProblem(core.CompositionProblem):
    """Returns a prepared product; forming a dense Jacobian fails."""

    n_outer = 3
    m_inner = 3
    dim_x = 2
    dim_w = 4
    constants = SmoothnessConstants(b_g=1.0, l_g=0.0, b_f=1.0, l_f_outer=1.0, l_f=1.0)

    def __init__(self, product):
        self.product = product

    def inner_component(self, j, x):
        return np.zeros(self.dim_w)

    def inner_component_jacobian(self, j, x):
        raise AssertionError("dense Jacobian formed on the product path")

    def inner_component_vjp(self, j, x, v):
        return self.product

    def outer_component(self, i, w):
        return 0.0

    def outer_component_gradient(self, i, w):
        return np.zeros(self.dim_w)


def test_query_with_vector_returns_the_product_for_one_charge():
    product = np.array([1.5, -2.0])
    ledger = QueryLedger()
    (out,) = core.query_inner_vjps(ProductOnlyProblem(product), [2], np.zeros(2), ledger,
                                   np.ones(4))
    assert out.tobytes() == product.tobytes()
    assert ledger == QueryLedger(inner_jacobian_queries=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fill", [1.0, 1e200])
def test_query_with_vector_rejects_non_finite_product(bad, fill):
    product = np.array([fill, bad])
    ledger = QueryLedger()
    with pytest.raises(EvaluationError, match=r"^inner Jacobian 3 returned a non-finite value$"):
        core.query_inner_vjps(ProductOnlyProblem(product), [3], np.zeros(2), ledger,
                              np.ones(4))
    assert ledger.total == 1


def test_query_with_vector_checks_the_index():
    ledger = QueryLedger()
    with pytest.raises(IndexError, match="inner component index 4 outside 1..3"):
        core.query_inner_vjps(ProductOnlyProblem(np.zeros(2)), [4], np.zeros(2), ledger,
                              np.ones(4))
    assert ledger.total == 0


class CompactOnlyProblem(ProductOnlyProblem):
    """Returns a prepared compact part; forming a dense Jacobian fails."""

    def compact_jacobian(self, j, x):
        return self.product


def test_compact_query_returns_the_part_for_one_charge():
    part = np.array([[1.5, -2.0]])
    ledger = QueryLedger()
    (out,) = core.query_compact_jacobians(CompactOnlyProblem(part), [2], np.zeros(2), ledger)
    assert out.tobytes() == part.tobytes()
    assert ledger == QueryLedger(inner_jacobian_queries=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_compact_query_rejects_non_finite_part_and_checks_the_index(bad):
    ledger = QueryLedger()
    problem = CompactOnlyProblem(np.array([[1.0, bad]]))
    with pytest.raises(EvaluationError, match=r"^inner Jacobian 3 returned a non-finite value$"):
        core.query_compact_jacobians(problem, [3], np.zeros(2), ledger)
    with pytest.raises(IndexError, match="inner component index 4 outside 1..3"):
        core.query_compact_jacobians(problem, [4], np.zeros(2), ledger)
    assert ledger.total == 1


# -- the product-form gradient estimator ------------------------------------------


ESTIMATOR_PROBLEMS = {
    "nonconvex": lambda: problems.make_nonconvex_synthetic(n=5, m=4, dim_x=3, dim_w=4, seed=2),
    "curved": lambda: problems.make_curved_inner(dim_x=3, dim_w=3, n=3, seed=5),
    "sne": lambda: _random_sne(5, 2, 8),
    "sne_d3": lambda: _random_sne(9, 3, 11),
}


def _points(problem, seed):
    """A snapshot at a seeded x_tilde and a seeded point x near it."""
    rng = np.random.default_rng(seed)
    x_tilde = rng.normal(size=problem.dim_x) * 0.5
    x = x_tilde + rng.normal(size=problem.dim_x) * 0.3
    return x, take_snapshot(problem, x_tilde, QueryLedger())


def _draw_step(problem, seed, data):
    x, snap = _points(problem, seed)
    jac_index = st.integers(1, problem.m_inner)
    batch_a = data.draw(st.lists(jac_index, min_size=1, max_size=4))
    batch_b = data.draw(st.lists(jac_index, min_size=1, max_size=4))
    outer = data.draw(st.lists(st.integers(1, problem.n_outer), min_size=1, max_size=4))
    return x, snap, batch_a, batch_b, outer


def _scale(problem, x, snap, g_hat, jac_hat, batch_b, outer):
    """Entrywise magnitude of the terms either form sums: the dense
    estimator's three, plus the product form's per-draw products
    dG_j(x)^T u_x and dG_j(x_tilde)^T u_x, which can be far larger than
    |jac_hat|^T |u_x| when the draws cancel in jac_hat."""
    u_x = sum(problem.outer_component_gradient(i, g_hat) for i in outer) / len(outer)
    u_t = sum(problem.outer_component_gradient(i, snap.g_tilde) for i in outer) / len(outer)
    jac_tilde = core.inner_jacobian_full(problem, snap.x_tilde, QueryLedger())
    per_draw = sum(
        _product_bound(problem.inner_component_jacobian(j, x), u_x)
        + _product_bound(problem.inner_component_jacobian(j, snap.x_tilde), u_x)
        for j in batch_b
    ) / len(batch_b)
    return (
        _product_bound(jac_hat, u_x) + _product_bound(jac_tilde, u_t)
        + np.abs(snap.grad_tilde) + per_draw
    )


def _check_vjp_estimator(problem, x, snap, batch_a, batch_b, outer):
    g_hat = estimate_inner(problem, x, snap, batch_a, QueryLedger())

    dense_ledger = QueryLedger()
    jac_hat = estimate_inner_jacobian(problem, x, snap, batch_b, dense_ledger)
    dense = grad_minibatch_v1(problem, snap, g_hat, jac_hat, outer, dense_ledger)
    ledger = QueryLedger()
    got = grad_minibatch_v1_vjp(problem, x, snap, g_hat, batch_b, outer, ledger)

    tol = 1e-12 * _scale(problem, x, snap, g_hat, jac_hat, batch_b, outer)
    assert np.all(np.abs(got - dense) <= tol)
    assert ledger == dense_ledger
    assert ledger.total == 2 * len(batch_b) + 2 * len(outer)

    # a singleton outer batch is scvr2's step
    single = grad_minibatch_v1_vjp(problem, x, snap, g_hat, batch_b, outer[:1], QueryLedger())
    scvr2 = grad_scvr2(problem, snap, g_hat, jac_hat, outer[0], QueryLedger())
    tol = 1e-12 * _scale(problem, x, snap, g_hat, jac_hat, batch_b, outer[:1])
    assert np.all(np.abs(single - scvr2) <= tol)

    # at the snapshot every correction cancels exactly
    g_snap = estimate_inner(problem, snap.x_tilde, snap, batch_a, QueryLedger())
    at_snap = grad_minibatch_v1_vjp(
        problem, snap.x_tilde, snap, g_snap, batch_b, outer, QueryLedger()
    )
    assert at_snap.tobytes() == snap.grad_tilde.tobytes()


@given(name=st.sampled_from(sorted(ESTIMATOR_PROBLEMS)), seed=st.integers(0, 2**32 - 1),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_vjp_estimator_matches_dense_pair(name, seed, data):
    problem = ESTIMATOR_PROBLEMS[name]()
    _check_vjp_estimator(problem, *_draw_step(problem, seed, data))


def test_vjp_estimator_matches_dense_pair_when_draws_cancel():
    """The case that showed the dense estimator's terms too small a scale:
    the draws [1, 1, 1, 5] nearly cancel in jac_hat, and the product form
    is off by 4.65e-5 in one entry, against 3.39e-5 from those terms."""
    problem = ESTIMATOR_PROBLEMS["sne"]()
    x, snap = _points(problem, 14406110)
    _check_vjp_estimator(problem, x, snap, [4], [1, 1, 1, 5], [1])

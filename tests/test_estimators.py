"""Variance-reduced estimators: snapshot identities, unbiasedness by
enumeration, conditional means, and exact query charges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scvr import core, problems
from scvr.core import QueryLedger, SampleStream
from scvr.estimators import (
    estimate_inner,
    estimate_inner_jacobian,
    grad_minibatch_v1,
    grad_minibatch_v2,
    grad_scvr1,
    grad_scvr2,
    take_snapshot,
)
from scvr.verification import second_moment


@pytest.fixture
def snap_affine(affine_small):
    x_tilde = np.array([0.1, -0.4, 0.9])
    return take_snapshot(affine_small, x_tilde, QueryLedger())


def test_take_snapshot_cost_and_consistency(affine_small):
    ledger = QueryLedger()
    x = np.array([0.3, 0.2, -0.5])
    snap = take_snapshot(affine_small, x, ledger)
    m, n = affine_small.m_inner, affine_small.n_outer
    assert ledger.total == 2 * m + n
    assert np.array_equal(snap.g_tilde, core.inner_full(affine_small, x, QueryLedger()))
    dense = core.inner_jacobian_full(affine_small, x, QueryLedger())
    for v in (np.ones(affine_small.dim_w), np.arange(affine_small.dim_w) - 1.5):
        assert np.array_equal(snap.jac_tilde.rmatvec(v), dense.T @ v)
    assert np.array_equal(
        snap.grad_tilde, core.full_gradient(affine_small, x, QueryLedger())
    )


# -- inner value estimator ----------------------------------------------------


def test_estimate_inner_exact_at_snapshot(affine_small, snap_affine):
    stream = SampleStream(5)
    for _ in range(10):
        batch = core.sample_indices(stream, affine_small.m_inner, 3)
        out = estimate_inner(
            affine_small, snap_affine.x_tilde, snap_affine, batch, QueryLedger()
        )
        assert np.array_equal(out, snap_affine.g_tilde)


def test_estimate_inner_scalar_enumeration():
    """Both single-sample draws on the two-component scalar problem."""
    mats = np.array([[[1.0]], [[2.0]]])
    problem = problems.AffineQuadraticProblem(mats, np.zeros((2, 1)), np.zeros((1, 1)))
    snap = take_snapshot(problem, np.zeros(1), QueryLedger())
    x = np.ones(1)
    one = estimate_inner(problem, x, snap, [1], QueryLedger())
    two = estimate_inner(problem, x, snap, [2], QueryLedger())
    assert one[0] == pytest.approx(1.0, abs=0)
    assert two[0] == pytest.approx(2.0, abs=0)
    assert (one[0] + two[0]) / 2 == pytest.approx(1.5, abs=0)  # = G(1)


def test_estimate_inner_ledger_delta(affine_small, snap_affine):
    ledger = QueryLedger()
    estimate_inner(affine_small, np.ones(3), snap_affine, [1, 2, 2, 4], ledger)
    assert ledger.inner_value_queries == 8
    assert ledger.total == 8


def test_estimate_inner_empty_batch(affine_small, snap_affine):
    with pytest.raises(ValueError):
        estimate_inner(affine_small, np.ones(3), snap_affine, [], QueryLedger())


# -- inner Jacobian estimator -------------------------------------------------


def test_estimate_jacobian_exact_at_snapshot(curved_inner):
    snap = take_snapshot(curved_inner, np.array([0.2, -0.1, 0.5]), QueryLedger())
    jac_tilde = core.inner_jacobian_full(curved_inner, snap.x_tilde, QueryLedger())
    stream = SampleStream(8)
    for _ in range(10):
        batch = core.sample_indices(stream, curved_inner.m_inner, 2)
        out = estimate_inner_jacobian(
            curved_inner, snap.x_tilde, snap, batch, QueryLedger()
        )
        assert np.array_equal(out, jac_tilde)


def test_estimate_jacobian_single_draw_unbiased(curved_inner):
    snap = take_snapshot(curved_inner, np.zeros(3), QueryLedger())
    x = np.array([0.7, 0.1, -0.2])
    m = curved_inner.m_inner
    mean = sum(
        estimate_inner_jacobian(curved_inner, x, snap, [j], QueryLedger())
        for j in range(1, m + 1)
    ) / m
    exact = core.inner_jacobian_full(curved_inner, x, QueryLedger())
    assert np.abs(mean - exact).max() < 1e-12


def test_estimate_jacobian_ledger_delta(curved_inner):
    snap = take_snapshot(curved_inner, np.zeros(3), QueryLedger())
    ledger = QueryLedger()
    estimate_inner_jacobian(curved_inner, np.ones(3), snap, [1, 3], ledger)
    assert ledger.inner_jacobian_queries == 4
    assert ledger.total == 4


# -- single-pair composite estimator ------------------------------------------


def test_grad_scvr1_exact_at_snapshot(affine_small, snap_affine):
    g_hat = estimate_inner(
        affine_small, snap_affine.x_tilde, snap_affine, [2], QueryLedger()
    )
    for i in range(1, affine_small.n_outer + 1):
        for j in range(1, affine_small.m_inner + 1):
            est = grad_scvr1(
                affine_small, snap_affine.x_tilde, snap_affine, g_hat, i, j, QueryLedger()
            )
            assert np.array_equal(est, snap_affine.grad_tilde)


def test_grad_scvr1_conditional_mean(curved_inner):
    """Exhaustive (i, j) average equals (dG(x))^T grad F(g_hat)."""
    snap = take_snapshot(curved_inner, np.zeros(3), QueryLedger())
    x = np.array([0.4, -0.2, 0.6])
    g_hat = estimate_inner(curved_inner, x, snap, [1, 4], QueryLedger())
    n, m = curved_inner.n_outer, curved_inner.m_inner
    acc = np.zeros(3)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            acc += grad_scvr1(curved_inner, x, snap, g_hat, i, j, QueryLedger())
    mean = acc / (n * m)
    jac = core.inner_jacobian_full(curved_inner, x, QueryLedger())
    outer = core.outer_gradient_full(curved_inner, g_hat, QueryLedger())
    assert np.abs(mean - jac.T @ outer).max() < 1e-12


def test_grad_scvr1_ledger_delta(affine_small, snap_affine):
    g_hat = estimate_inner(affine_small, np.ones(3), snap_affine, [1], QueryLedger())
    ledger = QueryLedger()
    est = grad_scvr1(affine_small, np.ones(3), snap_affine, g_hat, 1, 2, ledger)
    assert ledger.inner_jacobian_queries == 2
    assert ledger.outer_gradient_queries == 2
    assert ledger.total == 4


# -- doubly estimated composite estimator --------------------------------------


def test_grad_scvr2_exact_at_snapshot(curved_inner):
    snap = take_snapshot(curved_inner, np.array([0.3, 0.3, -0.3]), QueryLedger())
    g_hat = estimate_inner(curved_inner, snap.x_tilde, snap, [2, 3], QueryLedger())
    jac_hat = estimate_inner_jacobian(curved_inner, snap.x_tilde, snap, [1], QueryLedger())
    for i in range(1, curved_inner.n_outer + 1):
        est = grad_scvr2(curved_inner, snap, g_hat, jac_hat, i, QueryLedger())
        assert np.array_equal(est, snap.grad_tilde)


def test_grad_scvr2_enumerated_mean(curved_inner):
    snap = take_snapshot(curved_inner, np.zeros(3), QueryLedger())
    x = np.array([0.5, 0.1, -0.6])
    g_hat = estimate_inner(curved_inner, x, snap, [3], QueryLedger())
    jac_hat = estimate_inner_jacobian(curved_inner, x, snap, [2], QueryLedger())
    n = curved_inner.n_outer
    acc = np.zeros(3)
    for i in range(1, n + 1):
        acc += grad_scvr2(curved_inner, snap, g_hat, jac_hat, i, QueryLedger())
    mean = acc / n
    outer_hat = core.outer_gradient_full(curved_inner, g_hat, QueryLedger())
    outer_tilde = core.outer_gradient_full(curved_inner, snap.g_tilde, QueryLedger())
    jac_tilde = core.inner_jacobian_full(curved_inner, snap.x_tilde, QueryLedger())
    expected = jac_hat.T @ outer_hat - jac_tilde.T @ outer_tilde + snap.grad_tilde
    assert np.abs(mean - expected).max() < 1e-12


def test_grad_scvr2_ledger_delta(curved_inner):
    snap = take_snapshot(curved_inner, np.zeros(3), QueryLedger())
    ledger = QueryLedger()
    jac_tilde = core.inner_jacobian_full(curved_inner, snap.x_tilde, QueryLedger())
    est = grad_scvr2(curved_inner, snap, snap.g_tilde, jac_tilde, 1, ledger)
    assert ledger.outer_gradient_queries == 2
    assert ledger.total == 2


# -- mini-batch estimators ------------------------------------------------------


def test_grad_minibatch_v1_exact_at_snapshot(affine_small, snap_affine):
    g_hat = estimate_inner(
        affine_small, snap_affine.x_tilde, snap_affine, [1, 2], QueryLedger()
    )
    jac_hat = estimate_inner_jacobian(
        affine_small, snap_affine.x_tilde, snap_affine, [3], QueryLedger()
    )
    est = grad_minibatch_v1(
        affine_small, snap_affine, g_hat, jac_hat, [1, 3, 3, 5], QueryLedger()
    )
    assert np.array_equal(est, snap_affine.grad_tilde)


def test_grad_minibatch_v1_full_batch_oracle(curved_inner):
    """Batch {1..n} once each equals the deterministic average."""
    snap = take_snapshot(curved_inner, np.zeros(3), QueryLedger())
    x = np.array([0.2, 0.8, -0.1])
    g_hat = estimate_inner(curved_inner, x, snap, [2], QueryLedger())
    jac_hat = estimate_inner_jacobian(curved_inner, x, snap, [4], QueryLedger())
    n = curved_inner.n_outer
    est = grad_minibatch_v1(
        curved_inner, snap, g_hat, jac_hat, list(range(1, n + 1)), QueryLedger()
    )
    jac_tilde = core.inner_jacobian_full(curved_inner, snap.x_tilde, QueryLedger())
    acc = np.zeros(3)
    for i in range(1, n + 1):
        outer_hat = curved_inner.outer_component_gradient(i, g_hat)
        outer_tilde = curved_inner.outer_component_gradient(i, snap.g_tilde)
        acc += jac_hat.T @ outer_hat - jac_tilde.T @ outer_tilde
    expected = acc / n + snap.grad_tilde
    assert np.abs(est - expected).max() < 1e-12


def test_grad_minibatch_v1_singleton_equals_scvr2(curved_inner):
    snap = take_snapshot(curved_inner, np.zeros(3), QueryLedger())
    x = np.array([0.2, -0.8, 0.4])
    g_hat = estimate_inner(curved_inner, x, snap, [1], QueryLedger())
    jac_hat = estimate_inner_jacobian(curved_inner, x, snap, [3], QueryLedger())
    jac_tilde = core.inner_jacobian_full(curved_inner, snap.x_tilde, QueryLedger())
    for i in range(1, curved_inner.n_outer + 1):
        g_x = curved_inner.outer_component_gradient(i, g_hat)
        g_t = curved_inner.outer_component_gradient(i, snap.g_tilde)
        want = jac_hat.T @ g_x - jac_tilde.T @ g_t + snap.grad_tilde
        ledger = QueryLedger()
        a = grad_minibatch_v1(curved_inner, snap, g_hat, jac_hat, [i], QueryLedger())
        b = grad_scvr2(curved_inner, snap, g_hat, jac_hat, i, ledger)
        assert np.array_equal(a, want)
        assert np.array_equal(b, want)
        assert ledger == QueryLedger(outer_gradient_queries=2)


def test_grad_minibatch_v1_ledger_delta(affine_small, snap_affine):
    jac_tilde = core.inner_jacobian_full(affine_small, snap_affine.x_tilde, QueryLedger())
    ledger = QueryLedger()
    est = grad_minibatch_v1(
        affine_small, snap_affine, snap_affine.g_tilde, jac_tilde, [1, 2, 2], ledger
    )
    assert ledger.outer_gradient_queries == 6


def test_grad_minibatch_v2_exact_at_snapshot(curved_inner):
    snap = take_snapshot(curved_inner, np.array([0.15, 0.0, -0.2]), QueryLedger())
    g_hat = estimate_inner(curved_inner, snap.x_tilde, snap, [1, 2], QueryLedger())
    est = grad_minibatch_v2(
        curved_inner, snap.x_tilde, snap, g_hat, [2, 4], [1, 3], QueryLedger()
    )
    assert np.array_equal(est, snap.grad_tilde)


def test_grad_minibatch_v2_full_batches_oracle(curved_inner):
    snap = take_snapshot(curved_inner, np.zeros(3), QueryLedger())
    x = np.array([0.6, -0.5, 0.1])
    g_hat = estimate_inner(curved_inner, x, snap, [3], QueryLedger())
    n, m = curved_inner.n_outer, curved_inner.m_inner
    est = grad_minibatch_v2(
        curved_inner, x, snap, g_hat,
        list(range(1, m + 1)), list(range(1, n + 1)), QueryLedger(),
    )
    jac_x = core.inner_jacobian_full(curved_inner, x, QueryLedger())
    jac_t = core.inner_jacobian_full(curved_inner, snap.x_tilde, QueryLedger())
    outer_hat = core.outer_gradient_full(curved_inner, g_hat, QueryLedger())
    outer_tilde = core.outer_gradient_full(curved_inner, snap.g_tilde, QueryLedger())
    expected = jac_x.T @ outer_hat - jac_t.T @ outer_tilde + snap.grad_tilde
    assert np.abs(est - expected).max() < 1e-11


def test_grad_minibatch_v2_ledger_delta(curved_inner):
    snap = take_snapshot(curved_inner, np.zeros(3), QueryLedger())
    ledger = QueryLedger()
    est = grad_minibatch_v2(
        curved_inner, np.ones(3), snap, snap.g_tilde, [1, 2], [1, 2, 3], ledger
    )
    assert ledger.inner_jacobian_queries == 4
    assert ledger.outer_gradient_queries == 6


# -- second-moment bounds -------------------------------------------------------


def test_inner_second_moment_bound_balanced(balanced_affine):
    snap = take_snapshot(balanced_affine, np.zeros(3), QueryLedger())
    x = np.array([0.9, -0.4, 0.2])
    dist_sq = float(x @ x)
    b_g = balanced_affine.constants.b_g
    for a in (1, 2, 4):
        moment = second_moment(estimate_inner, snap.g_tilde, balanced_affine, x, snap, a)
        assert moment <= b_g**2 / a * dist_sq


def test_jacobian_second_moment_bound_curved(curved_inner):
    snap = take_snapshot(curved_inner, np.zeros(3), QueryLedger())
    jac_tilde = core.inner_jacobian_full(curved_inner, snap.x_tilde, QueryLedger())
    x = np.array([0.9, -0.4, 0.2])
    dist_sq = float(x @ x)
    l_g = curved_inner.constants.l_g
    for b in (1, 2, 4):
        moment = second_moment(estimate_inner_jacobian, jac_tilde, curved_inner, x, snap, b)
        assert moment <= l_g**2 / b * dist_sq


def test_doubling_batch_halves_second_moment(balanced_affine):
    snap = take_snapshot(balanced_affine, np.zeros(3), QueryLedger())
    x = np.array([0.3, 0.3, -0.8])
    m1 = second_moment(estimate_inner, snap.g_tilde, balanced_affine, x, snap, 1)
    m2 = second_moment(estimate_inner, snap.g_tilde, balanced_affine, x, snap, 2)
    assert m2 == pytest.approx(m1 / 2.0, rel=1e-12)


# -- property tests --------------------------------------------------------------


@given(
    batch=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=6),
    coords=st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=3, max_size=3
    ),
)
@settings(max_examples=40, deadline=None)
def test_estimate_inner_charge_and_snapshot_property(batch, coords):
    problem = problems.make_affine_quadratic(n=3, m=4, dim_x=3, dim_w=3, seed=9)
    snap = take_snapshot(problem, np.zeros(3), QueryLedger())
    ledger = QueryLedger()
    estimate_inner(problem, np.array(coords), snap, batch, ledger)
    assert ledger.total == 2 * len(batch)
    at_snap = estimate_inner(problem, snap.x_tilde, snap, batch, QueryLedger())
    assert np.array_equal(at_snap, snap.g_tilde)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_snapshot_identity_all_estimators_property(seed):
    problem = problems.make_affine_quadratic(n=3, m=3, dim_x=2, dim_w=2, seed=4)
    stream = SampleStream(seed)
    x_tilde = np.array([stream.gauss(), stream.gauss()])
    snap = take_snapshot(problem, x_tilde, QueryLedger())
    batch = core.sample_indices(stream, 3, 2)
    outer = core.sample_indices(stream, 3, 2)
    g_hat = estimate_inner(problem, x_tilde, snap, batch, QueryLedger())
    jac_hat = estimate_inner_jacobian(problem, x_tilde, snap, batch, QueryLedger())
    directions = [
        grad_scvr1(problem, x_tilde, snap, g_hat, outer[0], batch[0], QueryLedger()),
        grad_scvr2(problem, snap, g_hat, jac_hat, outer[1], QueryLedger()),
        grad_minibatch_v1(problem, snap, g_hat, jac_hat, outer, QueryLedger()),
        grad_minibatch_v2(problem, x_tilde, snap, g_hat, batch, outer, QueryLedger()),
    ]
    for d in directions:
        assert np.abs(d - snap.grad_tilde).max() <= 1e-12

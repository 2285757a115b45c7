"""Oracle machinery: finite differences, exhaustive expectations,
exact second moments, ledger isolation, and the documented bias."""

import numpy as np
import pytest

from scvr import core, problems, verification
from scvr.core import QueryLedger
from scvr.estimators import estimate_inner, estimate_inner_jacobian, grad_scvr2, take_snapshot
from scvr.verification import (
    OracleError,
    exhaustive_grad_mean,
    exhaustive_mean,
    fd_gradient,
    second_moment,
)


class PlainQuadratic(core.CompositionProblem):
    """f(x) = 0.5 ||x||^2 realized as a trivial composition."""

    n_outer = 1
    m_inner = 1
    dim_x = 2
    dim_w = 2
    constants = core.SmoothnessConstants(b_g=1, l_g=0, b_f=1, l_f_outer=1, l_f=1)

    def inner_component(self, j, x):
        return np.asarray(x, dtype=float)

    def inner_component_jacobian(self, j, x):
        return np.eye(2)

    def outer_component(self, i, w):
        return 0.5 * float(w @ w)

    def outer_component_gradient(self, i, w):
        return np.asarray(w, dtype=float)


def test_fd_gradient_quadratic_exact():
    grad = fd_gradient(PlainQuadratic(), np.array([1.0, 2.0]))
    assert np.abs(grad - [1.0, 2.0]).max() <= 1e-8


def test_fd_matches_analytic_affine(affine_small):
    x = np.array([0.4, 0.1, -0.9])
    grad = core.full_gradient(affine_small, x, QueryLedger())
    fd = fd_gradient(affine_small, x)
    assert np.linalg.norm(grad - fd) <= 1e-7 * np.linalg.norm(fd)


def test_fd_matches_analytic_sne(sne_small):
    x = np.random.default_rng(2).normal(size=sne_small.dim_x) * 0.4
    grad = core.full_gradient(sne_small, x, QueryLedger())
    fd = fd_gradient(sne_small, x)
    assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(fd)


def test_fd_non_finite_probe_names_coordinate():
    class Exploding(PlainQuadratic):
        def outer_component(self, i, w):
            if w[1] > 1e6:
                return float("inf")
            return super().outer_component(i, w)

    with pytest.raises((OracleError, core.EvaluationError)):
        fd_gradient(Exploding(), np.array([0.0, 1e7]))


# -- exhaustive expectations ----------------------------------------------------


def test_exhaustive_inner_mean_single_draw(affine_small):
    snap = take_snapshot(affine_small, np.zeros(3), QueryLedger())
    x = np.array([0.7, -0.2, 0.5])
    mean = exhaustive_mean(estimate_inner, affine_small, x, snap, 1)
    exact = core.inner_full(affine_small, x, QueryLedger())
    assert np.abs(mean - exact).max() <= 1e-12


def test_exhaustive_inner_mean_pairs():
    problem = problems.make_affine_quadratic(n=2, m=3, dim_x=2, dim_w=2, seed=5)
    snap = take_snapshot(problem, np.zeros(2), QueryLedger())
    x = np.array([1.0, -1.0])
    mean = exhaustive_mean(estimate_inner, problem, x, snap, 2)
    exact = core.inner_full(problem, x, QueryLedger())
    assert np.abs(mean - exact).max() <= 1e-12


def test_exhaustive_inner_mean_at_snapshot(affine_small):
    snap = take_snapshot(affine_small, np.ones(3), QueryLedger())
    mean = exhaustive_mean(estimate_inner, affine_small, snap.x_tilde, snap, 2)
    assert np.abs(mean - snap.g_tilde).max() <= 1e-14


def test_exhaustive_jacobian_mean(curved_inner):
    snap = take_snapshot(curved_inner, np.zeros(3), QueryLedger())
    x = np.array([0.3, 0.9, -0.5])
    mean = exhaustive_mean(estimate_inner_jacobian, curved_inner, x, snap, 1)
    exact = core.inner_jacobian_full(curved_inner, x, QueryLedger())
    assert np.abs(mean - exact).max() <= 1e-12


def test_exhaustive_grad_mean_scvr1_identity(curved_inner):
    snap = take_snapshot(curved_inner, np.zeros(3), QueryLedger())
    x = np.array([0.2, -0.6, 0.4])
    g_hat = estimate_inner(curved_inner, x, snap, [2, 3], QueryLedger())
    mean = exhaustive_grad_mean(curved_inner, x, snap, g_hat)
    jac = core.inner_jacobian_full(curved_inner, x, QueryLedger())
    outer = core.outer_gradient_full(curved_inner, g_hat, QueryLedger())
    assert np.abs(mean - jac.T @ outer).max() <= 1e-12


def test_exhaustive_grad_mean_scvr2_snapshot_case(curved_inner):
    snap = take_snapshot(curved_inner, np.array([0.1, 0.1, 0.1]), QueryLedger())
    jac_tilde = core.inner_jacobian_full(curved_inner, snap.x_tilde, QueryLedger())
    n = curved_inner.n_outer
    acc = np.zeros_like(snap.grad_tilde)
    for i in range(1, n + 1):
        acc += grad_scvr2(curved_inner, snap, snap.g_tilde, jac_tilde, i, QueryLedger())
    assert np.abs(acc / n - snap.grad_tilde).max() <= 1e-14


def test_bias_witness_on_curved_inner(curved_inner):
    """With curvature and an inexact inner estimate, the estimator's mean
    is measurably different from the true gradient at x."""
    snap = take_snapshot(curved_inner, np.zeros(3), QueryLedger())
    x = np.array([0.8, -0.5, 0.9])
    g_hat = estimate_inner(curved_inner, x, snap, [1], QueryLedger())  # noisy
    mean = exhaustive_grad_mean(curved_inner, x, snap, g_hat)
    true_grad = core.full_gradient(curved_inner, x, QueryLedger())
    assert np.linalg.norm(mean - true_grad) > 1e-6


def test_enumeration_guard(monkeypatch):
    problem = problems.make_affine_quadratic(n=2, m=10, dim_x=2, dim_w=2, seed=5)
    snap = take_snapshot(problem, np.zeros(2), QueryLedger())
    with pytest.raises(OracleError):
        exhaustive_mean(estimate_inner, problem, np.ones(2), snap, 7)  # 10^7 tuples
    # a tighter guard refuses a request the default admits
    monkeypatch.setattr(verification, "ENUM_GUARD", 100)
    with pytest.raises(OracleError):
        exhaustive_mean(estimate_inner, problem, np.ones(2), snap, 3)
    with pytest.raises(OracleError):
        second_moment(estimate_inner, snap.g_tilde, problem, np.ones(2), snap, 3)


# -- second moments ---------------------------------------------------------------


def test_second_moment_zero_at_snapshot(balanced_affine):
    snap = take_snapshot(balanced_affine, np.ones(3), QueryLedger())
    moment = second_moment(
        estimate_inner, snap.g_tilde, balanced_affine, snap.x_tilde, snap, 2
    )
    assert moment == 0.0


def test_jacobian_sampler_exact_scaling(curved_inner):
    """Zero-mean Jacobian deviations: moment scales exactly as 1/B."""
    snap = take_snapshot(curved_inner, np.zeros(3), QueryLedger())
    x = np.array([0.4, -0.9, 0.3])
    jac_tilde = core.inner_jacobian_full(curved_inner, snap.x_tilde, QueryLedger())
    m1 = second_moment(estimate_inner_jacobian, jac_tilde, curved_inner, x, snap, 1)
    m2 = second_moment(estimate_inner_jacobian, jac_tilde, curved_inner, x, snap, 2)
    assert m2 == pytest.approx(m1 / 2, rel=1e-12)


def test_oracles_leave_caller_ledgers_alone(affine_small):
    ledger = QueryLedger()
    snap = take_snapshot(affine_small, np.zeros(3), ledger)
    baseline = ledger.total
    x = np.ones(3)
    fd_gradient(affine_small, x)
    exhaustive_mean(estimate_inner, affine_small, x, snap, 1)
    exhaustive_mean(estimate_inner_jacobian, affine_small, x, snap, 1)
    g_hat = estimate_inner(affine_small, x, snap, [1], QueryLedger())
    exhaustive_grad_mean(affine_small, x, snap, g_hat)
    second_moment(estimate_inner, snap.g_tilde, affine_small, x, snap, 1)
    assert ledger.total == baseline

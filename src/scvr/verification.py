"""Independent numerical oracles: central finite differences, exhaustive
batch-space expectations, and second moments of estimator deviations.

Every oracle runs on its own throwaway ledger, so invoking the whole
verification suite leaves algorithmic query counts untouched.  The
enumeration guards are arguments, not hidden constants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from scvr.core import CompositionProblem, QueryLedger, SampleStream, objective
from scvr.estimators import (
    EpochSnapshot,
    estimate_inner,
    estimate_inner_jacobian,
    grad_scvr1,
    grad_scvr2,
)

DEFAULT_ENUM_GUARD = 1_000_000

# Run shapes (S, K, A, B, b) at which ``scvr verify`` checks each variant's
# ledger against its closed-form count, one row per variant.  Two epochs
# check that a later epoch's snapshot is charged again.
QUERY_ACCOUNTING_SHAPES = {
    "scvr1": (2, 3, 2, 1, 1),
    "scvr2": (1, 2, 1, 1, 1),
    "minibatch_v1": (1, 1, 1, 1, 1),
    "minibatch_v2": (2, 2, 2, 3, 2),
    "svrg": (2, 2, 1, 1, 1),
    "gd": (2, 2, 1, 1, 1),
    "sgd": (2, 3, 1, 1, 1),
}


class OracleError(RuntimeError):
    """An oracle probe failed (non-finite value or guarded enumeration)."""


@dataclass(frozen=True)
class FiniteDiffConfig:
    step: float = 1e-5
    scheme: str = "central"

    def __post_init__(self):
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if self.scheme != "central":
            raise ValueError("only the central scheme is supported")


def fd_gradient(
    problem: CompositionProblem,
    x: np.ndarray,
    cfg: FiniteDiffConfig = FiniteDiffConfig(),
) -> np.ndarray:
    """Central-difference gradient of the exact objective.

    (f(x + h e_l) - f(x - h e_l)) / (2 h) per coordinate, on a shadow
    ledger.  A step of 1e-5 balances truncation against rounding at
    double precision.
    """
    x = np.asarray(x, dtype=float)
    shadow = QueryLedger()
    grad = np.zeros_like(x)
    h = cfg.step
    for l in range(x.size):
        probe = x.copy()
        probe[l] = x[l] + h
        f_plus = objective(problem, probe, shadow)
        probe[l] = x[l] - h
        f_minus = objective(problem, probe, shadow)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise OracleError(f"non-finite probe at coordinate {l}")
        grad[l] = (f_plus - f_minus) / (2.0 * h)
    return grad


def _check_guard(space: int, guard: int) -> None:
    if space > guard:
        raise OracleError(f"enumeration space {space} exceeds guard {guard}")


def exhaustive_inner_mean(
    problem: CompositionProblem,
    x: np.ndarray,
    snap: EpochSnapshot,
    a: int,
    guard: int = DEFAULT_ENUM_GUARD,
) -> np.ndarray:
    """Exact mean of the inner estimator over all m^A ordered batches.

    Enumerates ordered tuples (with-replacement semantics).  Linearity
    makes this equal G(x) for uniform draws; the enumeration confirms it
    without assuming it.
    """
    m = problem.m_inner
    _check_guard(m**a, guard)
    shadow = QueryLedger()
    acc = np.zeros_like(snap.g_tilde)
    count = 0
    for batch in itertools.product(range(1, m + 1), repeat=a):
        acc += estimate_inner(problem, x, snap, batch, shadow)
        count += 1
    return acc / count


def exhaustive_jacobian_mean(
    problem: CompositionProblem,
    x: np.ndarray,
    snap: EpochSnapshot,
    b: int,
    guard: int = DEFAULT_ENUM_GUARD,
) -> np.ndarray:
    """Exact mean of the Jacobian estimator over all m^B ordered batches."""
    m = problem.m_inner
    _check_guard(m**b, guard)
    shadow = QueryLedger()
    acc = np.zeros_like(snap.jac_tilde.dense())
    count = 0
    for batch in itertools.product(range(1, m + 1), repeat=b):
        acc += estimate_inner_jacobian(problem, x, snap, batch, shadow)
        count += 1
    return acc / count


def exhaustive_grad_mean(
    problem: CompositionProblem,
    x: np.ndarray,
    snap: EpochSnapshot,
    g_hat: np.ndarray,
    estimator_kind: str,
    jac_hat: np.ndarray | None = None,
    guard: int = DEFAULT_ENUM_GUARD,
) -> np.ndarray:
    """Exact mean of a composite-gradient estimator over its index draws,
    holding g_hat (and jac_hat, where used) fixed.

    kind 'scvr1' averages over all (i, j) pairs; kind 'scvr2' averages
    over i with the supplied jac_hat.
    """
    n, m = problem.n_outer, problem.m_inner
    shadow = QueryLedger()
    if estimator_kind == "scvr1":
        _check_guard(n * m, guard)
        acc = np.zeros_like(snap.grad_tilde)
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                acc += grad_scvr1(problem, x, snap, g_hat, i, j, shadow)
        return acc / (n * m)
    if estimator_kind == "scvr2":
        if jac_hat is None:
            raise ValueError("scvr2 mean needs jac_hat")
        _check_guard(n, guard)
        acc = np.zeros_like(snap.grad_tilde)
        for i in range(1, n + 1):
            acc += grad_scvr2(problem, snap, g_hat, jac_hat, i, shadow)
        return acc / n
    raise ValueError(f"unknown estimator kind {estimator_kind!r}")


class InnerDeviationSampler:
    """Draw space of the inner estimator's deviation from its anchor.

    deviation(batch) = || estimate_inner(batch) - G(x_tilde) ||^2.
    """

    def __init__(self, problem, x, snap: EpochSnapshot, a: int):
        self.problem = problem
        self.x = np.asarray(x, dtype=float)
        self.snap = snap
        self.a = a
        self.space = problem.m_inner**a

    def enumerate(self):
        m = self.problem.m_inner
        return itertools.product(range(1, m + 1), repeat=self.a)

    def draw(self, stream: SampleStream):
        return stream.indices(self.problem.m_inner, self.a)

    def deviation(self, batch) -> float:
        shadow = QueryLedger()
        est = estimate_inner(self.problem, self.x, self.snap, batch, shadow)
        diff = est - self.snap.g_tilde
        return float((diff * diff).sum())


class JacobianDeviationSampler:
    """Same draw space for the Jacobian estimator, Frobenius norm."""

    def __init__(self, problem, x, snap: EpochSnapshot, b: int):
        self.problem = problem
        self.x = np.asarray(x, dtype=float)
        self.snap = snap
        self.jac_tilde = snap.jac_tilde.dense()
        self.b = b
        self.space = problem.m_inner**b

    def enumerate(self):
        m = self.problem.m_inner
        return itertools.product(range(1, m + 1), repeat=self.b)

    def draw(self, stream: SampleStream):
        return stream.indices(self.problem.m_inner, self.b)

    def deviation(self, batch) -> float:
        shadow = QueryLedger()
        est = estimate_inner_jacobian(self.problem, self.x, self.snap, batch, shadow)
        diff = est - self.jac_tilde
        return float((diff * diff).sum())


def empirical_second_moment(
    sampler,
    trials: int | None = None,
    stream: SampleStream | None = None,
    guard: int = DEFAULT_ENUM_GUARD,
) -> float:
    """Second moment of an estimator deviation.

    With ``trials`` omitted, enumerates the full draw space exactly
    (subject to ``guard``); otherwise Monte-Carlo averages ``trials``
    seeded draws.
    """
    if trials is None:
        _check_guard(sampler.space, guard)
        total = 0.0
        count = 0
        for batch in sampler.enumerate():
            total += sampler.deviation(batch)
            count += 1
        return total / count
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if stream is None:
        stream = SampleStream(0)
    total = 0.0
    for _ in range(trials):
        total += sampler.deviation(sampler.draw(stream))
    return total / trials

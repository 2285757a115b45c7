"""The reference layer: independent numerical oracles and the ``scvr
verify`` invariant suite that runs them.

The oracles are central finite differences, exact means of an estimator
over its whole batch space, exact second moments of an estimator's
deviation from an anchor, and the affine-quadratic closed forms.  Every
oracle runs on its own throwaway ledger, so invoking the whole suite
leaves algorithmic query counts untouched.  Batch spaces larger than
:data:`ENUM_GUARD` are refused.  Each check of :data:`VERIFY_CHECKS`
returns (ok, detail).
"""

from __future__ import annotations

import itertools

import numpy as np

from scvr import estimators, optimizers, problems, theory
from scvr.core import (
    CompositionProblem,
    QueryLedger,
    SampleStream,
    SmoothnessConstants,
    inner_jacobian_full,
    objective,
    outer_gradient_full,
    sample_indices,
)

# Largest batch space an exhaustive oracle enumerates.
ENUM_GUARD = 1_000_000

# Central-difference step: balances truncation against rounding at
# double precision.
FD_STEP = 1e-5

# The run shape (S, K, A, B, b) at which ``scvr verify`` checks every
# variant's ledger against its closed-form count.  Two epochs charge a
# second snapshot; distinct sizes catch a cost that reads the wrong one.
QUERY_ACCOUNTING_SHAPE = (2, 3, 2, 3, 4)


class OracleError(RuntimeError):
    """An oracle probe failed (non-finite value or guarded enumeration)."""


def fd_gradient(problem: CompositionProblem, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of the exact objective.

    (f(x + h e_l) - f(x - h e_l)) / (2 h) per coordinate with h =
    :data:`FD_STEP`, on a shadow ledger.
    """
    x = np.asarray(x, dtype=float)
    shadow = QueryLedger()
    grad = np.zeros_like(x)
    for l in range(x.size):
        probe = x.copy()
        probe[l] = x[l] + FD_STEP
        f_plus = objective(problem, probe, shadow)
        probe[l] = x[l] - FD_STEP
        f_minus = objective(problem, probe, shadow)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise OracleError(f"non-finite probe at coordinate {l}")
        grad[l] = (f_plus - f_minus) / (2.0 * FD_STEP)
    return grad


def _affine_means(problem: problems.AffineQuadraticProblem):
    return problem.mats.mean(axis=0), problem.offs.mean(axis=0), problem.targets.mean(axis=0)


def affine_objective(problem: problems.AffineQuadraticProblem, x: np.ndarray) -> float:
    """f(x) = 0.5 ||Abar x + bbar - cbar||^2 + 0.5 mean_i ||c_i - cbar||^2."""
    a, b, c = _affine_means(problem)
    r = a @ x + b - c
    spread = problem.targets - c
    return 0.5 * float(r @ r) + 0.5 * float((spread * spread).sum()) / problem.n_outer


def affine_gradient(problem: problems.AffineQuadraticProblem, x: np.ndarray) -> np.ndarray:
    """grad f(x) = Abar^T (Abar x + bbar - cbar)."""
    a, b, c = _affine_means(problem)
    return a.T @ (a @ x + b - c)


def affine_minimizer(problem: problems.AffineQuadraticProblem) -> np.ndarray:
    """The least-squares stationary point of f."""
    a, b, c = _affine_means(problem)
    return np.linalg.solve(a.T @ a, a.T @ (c - b))


def _check_space(space: int) -> None:
    if space > ENUM_GUARD:
        raise OracleError(f"enumeration space {space} exceeds guard {ENUM_GUARD}")


def _batches(m: int, size: int):
    """The m^size ordered batches over 1..m (with-replacement semantics)."""
    _check_space(m**size)
    yield from itertools.product(range(1, m + 1), repeat=size)


def exhaustive_mean(
    estimator, problem: CompositionProblem, x: np.ndarray, snap: estimators.EpochSnapshot,
    size: int,
) -> np.ndarray:
    """Exact mean of ``estimator(problem, x, snap, batch, ledger)`` over
    all size-``size`` batches: ``estimate_inner`` or
    ``estimate_inner_jacobian``.

    Linearity makes this equal G(x) (or dG(x)) for uniform draws; the
    enumeration confirms it without assuming it.
    """
    shadow = QueryLedger()
    acc = 0.0
    for batch in _batches(problem.m_inner, size):
        acc = acc + estimator(problem, x, snap, batch, shadow)
    return acc / problem.m_inner**size


def second_moment(
    estimator,
    anchor: np.ndarray,
    problem: CompositionProblem,
    x: np.ndarray,
    snap: estimators.EpochSnapshot,
    size: int,
) -> float:
    """Exact mean over all size-``size`` batches of the squared
    (Frobenius) norm || estimator(batch) - anchor ||^2."""
    shadow = QueryLedger()
    total = 0.0
    for batch in _batches(problem.m_inner, size):
        diff = estimator(problem, x, snap, batch, shadow) - anchor
        total += float((diff * diff).sum())
    return total / problem.m_inner**size


def exhaustive_grad_mean(
    problem: CompositionProblem, x: np.ndarray, snap: estimators.EpochSnapshot,
    g_hat: np.ndarray,
) -> np.ndarray:
    """Exact mean of :func:`~scvr.estimators.grad_scvr1` over all (i, j)
    pairs, holding g_hat fixed."""
    n, m = problem.n_outer, problem.m_inner
    _check_space(n * m)
    shadow = QueryLedger()
    acc = np.zeros_like(snap.grad_tilde)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            acc += estimators.grad_scvr1(problem, x, snap, g_hat, i, j, shadow)
    return acc / (n * m)


# ---------------------------------------------------------------------------
# The ``scvr verify`` suite
# ---------------------------------------------------------------------------


def _check_snapshot_identities() -> tuple[bool, str]:
    problem = problems.make_affine_quadratic(n=4, m=5, dim_x=3, dim_w=3, seed=11)
    stream = SampleStream(7)
    ledger = QueryLedger()
    x = np.array([0.3, -1.2, 0.8])
    snap = estimators.take_snapshot(problem, x, ledger)
    worst = 0.0
    for _ in range(20):
        batch = sample_indices(stream, problem.m_inner, 3)
        g_hat = estimators.estimate_inner(problem, x, snap, batch, ledger)
        jac_hat = estimators.estimate_inner_jacobian(problem, x, snap, batch, ledger)
        i = stream.randrange(problem.n_outer) + 1
        j = stream.randrange(problem.m_inner) + 1
        for est in (
            estimators.grad_scvr1(problem, x, snap, g_hat, i, j, ledger),
            estimators.grad_scvr2(problem, snap, g_hat, jac_hat, i, ledger),
            estimators.grad_minibatch_v2(problem, x, snap, g_hat, batch, [i], ledger),
            estimators.grad_minibatch_v1_vjp(problem, x, snap, g_hat, batch, [i], ledger),
        ):
            worst = max(worst, float(np.abs(est - snap.grad_tilde).max()))
    return worst <= 1e-12, f"max snapshot deviation {worst:.2e}"


def _check_snapshot_operator() -> tuple[bool, str]:
    """The snapshot's mean-Jacobian operator against the dense reference
    ``inner_jacobian_full`` on a small embedding and an affine problem:
    ``rmatvec`` to 1e-12 of |J|^T |v|."""
    data, _ = problems.make_cluster_data(7, clusters=2, dim=4, seed=1)
    cases = (
        problems.build_sne(data, sigma=1.0, embed_dim=2),
        problems.make_affine_quadratic(n=4, m=5, dim_x=3, dim_w=3, seed=11),
    )
    stream = SampleStream(13)
    worst = 0.0
    for problem in cases:
        x = stream.normal_vector(problem.dim_x, 0.5)
        snap = estimators.take_snapshot(problem, x, QueryLedger())
        dense = inner_jacobian_full(problem, x, QueryLedger())
        for _ in range(5):
            v = stream.normal_vector(problem.dim_w)
            scale = np.maximum(np.abs(dense).T @ np.abs(v), np.finfo(float).tiny)
            err = np.abs(snap.jac_tilde.rmatvec(v) - dense.T @ v) / scale
            worst = max(worst, float(err.max()))
    return worst <= 1e-12, f"max operator error {worst:.2e} of |J|^T|v|"


def _check_inner_unbiasedness() -> tuple[bool, str]:
    problem = problems.make_affine_quadratic(n=3, m=4, dim_x=3, dim_w=3, seed=3)
    snap = estimators.take_snapshot(problem, np.zeros(3), QueryLedger())
    x = np.array([0.5, -0.7, 1.1])
    mean_g = exhaustive_mean(estimators.estimate_inner, problem, x, snap, 2)
    exact_g = sum(problem.inner_component(j, x) for j in range(1, 5)) / 4.0
    mean_j = exhaustive_mean(estimators.estimate_inner_jacobian, problem, x, snap, 1)
    exact_j = sum(problem.inner_component_jacobian(j, x) for j in range(1, 5)) / 4.0
    err = max(
        float(np.abs(mean_g - exact_g).max()), float(np.abs(mean_j - exact_j).max())
    )
    return err <= 1e-12, f"max enumeration error {err:.2e}"


def _check_grad_conditional_mean() -> tuple[bool, str]:
    problem = problems.make_curved_inner(dim_x=3, dim_w=3, n=3, seed=5)
    ledger = QueryLedger()
    snap = estimators.take_snapshot(problem, np.zeros(3), ledger)
    x = np.array([0.4, -0.2, 0.6])
    g_hat = estimators.estimate_inner(problem, x, snap, [2], ledger)
    mean = exhaustive_grad_mean(problem, x, snap, g_hat)
    shadow = QueryLedger()
    expected = inner_jacobian_full(problem, x, shadow).T @ outer_gradient_full(
        problem, g_hat, shadow
    )
    err = float(np.abs(mean - expected).max())
    return err <= 1e-12, f"conditional-mean error {err:.2e}"


def _check_query_accounting() -> tuple[bool, str]:
    problem = problems.make_affine_quadratic(n=5, m=4, dim_x=2, dim_w=2, seed=2)
    s, k, a, bj, bo = QUERY_ACCOUNTING_SHAPE
    for variant in optimizers.VARIANTS:
        cfg = optimizers.OptimizerConfig(
            eta=0.0, epochs_s=s, inner_k=k, variant=variant,
            sample_a=a, sample_b=bj, batch_b=bo, seed=1, record_every=10_000,
        )
        result = optimizers.run(problem, cfg)
        want = optimizers.expected_total_queries(
            variant, s, k, problem.m_inner, problem.n_outer, a, bj, bo
        )
        if result.ledger.total != want:
            return False, f"{variant}: ledger {result.ledger.total} != formula {want}"
    return True, "ledger totals match the closed-form counts"


def _check_second_moment_bounds() -> tuple[bool, str]:
    balanced = problems.make_balanced_affine(m_pairs=2, dim_x=3, dim_w=3, seed=6)
    x_tilde = np.zeros(3)
    snap = estimators.take_snapshot(balanced, x_tilde, QueryLedger())
    x = np.array([0.9, -0.4, 0.2])
    dist_sq = float(((x - x_tilde) ** 2).sum())
    b_g = balanced.constants.b_g
    for a in (1, 2, 4):
        moment = second_moment(estimators.estimate_inner, snap.g_tilde, balanced, x, snap, a)
        if not moment <= b_g * b_g / a * dist_sq:
            return False, f"inner moment bound violated at A={a}"
    curved = problems.make_curved_inner(seed=8)
    snap2 = estimators.take_snapshot(curved, x_tilde, QueryLedger())
    jac_tilde = inner_jacobian_full(curved, x_tilde, QueryLedger())
    l_g = curved.constants.l_g
    for b in (1, 2, 4):
        moment = second_moment(estimators.estimate_inner_jacobian, jac_tilde, curved, x, snap2, b)
        if not moment <= l_g * l_g / b * dist_sq:
            return False, f"jacobian moment bound violated at B={b}"
    return True, "second-moment bounds hold at A,B in {1,2,4}"


def _check_recursion_closed_forms() -> tuple[bool, str]:
    constants = SmoothnessConstants(b_g=1.0, l_g=1.0, b_f=1.0, l_f_outer=1.0, l_f=1.0)
    worst = 0.0
    for algo in theory.RECURSION_ALGORITHMS:
        params = theory.suggest_parameters(1000, 1000, constants, algorithm=algo, b=2)
        diag = theory.recursion(algo, params, constants)
        rel = abs(diag.c_sequence[0] - diag.c0_closed) / max(abs(diag.c0_closed), 1e-300)
        worst = max(worst, rel)
    return worst <= 1e-10, f"max closed-form mismatch {worst:.2e}"


VERIFY_CHECKS = (
    ("snapshot_identities", _check_snapshot_identities),
    ("snapshot_operator", _check_snapshot_operator),
    ("inner_unbiasedness", _check_inner_unbiasedness),
    ("grad_conditional_mean", _check_grad_conditional_mean),
    ("query_accounting", _check_query_accounting),
    ("second_moment_bounds", _check_second_moment_bounds),
    ("recursion_closed_forms", _check_recursion_closed_forms),
)


def run_verify_checks() -> list[tuple[str, bool, str]]:
    results = []
    for name, fn in VERIFY_CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results

"""Variance-reduced estimators for the inner value, the inner Jacobian,
and the composite gradient.

Every estimator follows the correction pattern

    fresh term  -  same term at the epoch snapshot  +  cached full quantity,

so that at the snapshot point the corrections cancel exactly and the
estimator returns the cached full gradient bit for bit.  Batches are
index multisets (1-based, with replacement) materialized by the caller,
which lets tests replay a draw through the exhaustive oracles.

The snapshot keeps the mean Jacobian at x_tilde as a
:class:`~scvr.core.MeanJacobian` operator built from m compact
queries, and the gradient estimators used by the optimizer steps
(``grad_minibatch_v1_vjp``, ``grad_minibatch_v2``) take it and each
sampled Jacobian as products, so no step and no snapshot forms a dense
Jacobian.  ``grad_scvr1`` is ``grad_minibatch_v2`` at B = b = 1.
``estimate_inner_jacobian``, ``grad_scvr2`` and ``grad_minibatch_v1``
keep the dense form; they are the reference the verification suite
compares against.  They take the snapshot's dense Jacobian from the
sum ``core.inner_jacobian_full`` on a private ledger, never from the
operator they check, and charge the caller's ledger 2B or 2b queries.

Every estimator evaluates each half of a batch (the draws at x, the
same draws at x_tilde) with one call of a ``core`` batch helper, which
checks the batch once and charges one query per draw, and adds the rows
in draw order as per-draw loops would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from scvr.core import (
    CompositionProblem,
    MeanJacobian,
    QueryLedger,
    inner_full,
    inner_jacobian_full,
    mean_jacobian,
    outer_gradient_full,
    query_inner_jacobians,
    query_inner_values,
    query_inner_vjps,
    query_outer_gradients,
    sum_rows,
)


@dataclass
class EpochSnapshot:
    """Per-epoch cached quantities at the reference point.

    g_tilde, jac_tilde and grad_tilde are the exact inner value, mean
    Jacobian (an operator with ``rmatvec``) and composite gradient at
    x_tilde.
    """

    x_tilde: np.ndarray
    g_tilde: np.ndarray
    jac_tilde: MeanJacobian
    grad_tilde: np.ndarray


def take_snapshot(
    problem: CompositionProblem, x: np.ndarray, ledger: QueryLedger
) -> EpochSnapshot:
    """Compute the epoch cache at x.  Costs exactly 2m + n queries."""
    x = np.array(x, dtype=float, copy=True)
    g = inner_full(problem, x, ledger)
    jac = mean_jacobian(problem, x, ledger)
    grad = jac.rmatvec(outer_gradient_full(problem, g, ledger))
    return EpochSnapshot(x_tilde=x, g_tilde=g, jac_tilde=jac, grad_tilde=grad)


def _require_batch(batch: Sequence[int]) -> None:
    if len(batch) == 0:
        raise ValueError("batch must contain at least one index")


def estimate_inner(
    problem: CompositionProblem,
    x: np.ndarray,
    snap: EpochSnapshot,
    batch: Sequence[int],
    ledger: QueryLedger,
) -> np.ndarray:
    """Variance-reduced inner value at x from a size-A batch over 1..m.

        (1/A) sum_{j in batch} (G_j(x) - G_j(x_tilde))  +  G(x_tilde)

    Costs 2A queries.  Unbiased for G(x) under uniform batches.
    """
    _require_batch(batch)
    fresh = query_inner_values(problem, batch, x, ledger)
    anchor = query_inner_values(problem, batch, snap.x_tilde, ledger)
    return sum_rows(fresh - anchor) / len(batch) + snap.g_tilde


def estimate_inner_jacobian(
    problem: CompositionProblem,
    x: np.ndarray,
    snap: EpochSnapshot,
    batch: Sequence[int],
    ledger: QueryLedger,
) -> np.ndarray:
    """Variance-reduced mean Jacobian at x from a size-B batch over 1..m.

    Costs 2B queries.  Unbiased for dG(x) under uniform batches.
    """
    _require_batch(batch)
    jac_tilde = inner_jacobian_full(problem, snap.x_tilde, QueryLedger())
    fresh = query_inner_jacobians(problem, batch, x, ledger)
    anchor = query_inner_jacobians(problem, batch, snap.x_tilde, ledger)
    return sum_rows(fresh - anchor) / len(batch) + jac_tilde


def grad_scvr1(
    problem: CompositionProblem,
    x: np.ndarray,
    snap: EpochSnapshot,
    g_hat: np.ndarray,
    i: int,
    j: int,
    ledger: QueryLedger,
) -> np.ndarray:
    """Single-pair composite-gradient estimate using an estimated inner value.

        (dG_j(x))^T grad F_i(g_hat)
          - (dG_j(x_tilde))^T grad F_i(G(x_tilde))  +  grad_tilde

    Costs 4 queries (two outer gradients, two Jacobian products).  Its
    mean over (i, j) with g_hat held fixed is (dG(x))^T grad F(g_hat),
    which is *not* the full gradient at x: the inner estimate makes it
    biased.  It is :func:`grad_minibatch_v2` with the batches [j] and
    [i], which makes the same queries in the same order.
    """
    return grad_minibatch_v2(problem, x, snap, g_hat, [j], [i], ledger)


def grad_scvr2(
    problem: CompositionProblem,
    snap: EpochSnapshot,
    g_hat: np.ndarray,
    jac_hat: np.ndarray,
    i: int,
    ledger: QueryLedger,
) -> np.ndarray:
    """Composite-gradient estimate using estimated inner value and Jacobian.

        (jac_hat)^T grad F_i(g_hat)
          - (dG(x_tilde))^T grad F_i(G(x_tilde))  +  grad_tilde

    Costs 2 queries (two outer gradients); the Jacobian estimate was paid
    for when jac_hat was formed.  The correction is anchored at the exact
    snapshot Jacobian, matching the variant whose convergence recursion
    this package implements: :func:`grad_minibatch_v1` with the outer
    batch [i].
    """
    return grad_minibatch_v1(problem, snap, g_hat, jac_hat, [i], ledger)


def grad_minibatch_v1(
    problem: CompositionProblem,
    snap: EpochSnapshot,
    g_hat: np.ndarray,
    jac_hat: np.ndarray,
    outer_batch: Sequence[int],
    ledger: QueryLedger,
) -> np.ndarray:
    """Outer-mini-batched version of :func:`grad_scvr2`.

        (1/b) sum_{i in batch} [ (jac_hat)^T grad F_i(g_hat)
            - (dG(x_tilde))^T grad F_i(G(x_tilde)) ]  +  grad_tilde

    Costs 2b queries.
    """
    _require_batch(outer_batch)
    jac_tilde = inner_jacobian_full(problem, snap.x_tilde, QueryLedger())
    outer_x = query_outer_gradients(problem, outer_batch, g_hat, ledger)
    outer_t = query_outer_gradients(problem, outer_batch, snap.g_tilde, ledger)
    acc = np.zeros_like(snap.grad_tilde)
    for row_x, row_t in zip(outer_x, outer_t):
        acc += jac_hat.T @ row_x - jac_tilde.T @ row_t
    return acc / len(outer_batch) + snap.grad_tilde


def _mean_outer_gradients(
    problem: CompositionProblem,
    snap: EpochSnapshot,
    g_hat: np.ndarray,
    outer_batch: Sequence[int],
    ledger: QueryLedger,
) -> tuple[np.ndarray, np.ndarray]:
    """u_x, u_t = (1/b) sum_{i in batch} grad F_i at g_hat and at
    G(x_tilde).  Costs 2b queries."""
    _require_batch(outer_batch)
    u_x = sum_rows(query_outer_gradients(problem, outer_batch, g_hat, ledger))
    u_t = sum_rows(query_outer_gradients(problem, outer_batch, snap.g_tilde, ledger))
    return u_x / len(outer_batch), u_t / len(outer_batch)


def _mean_product_difference(
    problem: CompositionProblem,
    x: np.ndarray,
    snap: EpochSnapshot,
    jac_batch: Sequence[int],
    u_fresh: np.ndarray,
    u_anchor: np.ndarray,
    ledger: QueryLedger,
) -> np.ndarray:
    """(1/B) sum_{j in batch} [ dG_j(x)^T u_fresh - dG_j(x_tilde)^T u_anchor ].
    Costs 2B queries."""
    fresh = query_inner_vjps(problem, jac_batch, x, ledger, u_fresh)
    anchor = query_inner_vjps(problem, jac_batch, snap.x_tilde, ledger, u_anchor)
    return sum_rows(fresh - anchor) / len(jac_batch)


def grad_minibatch_v1_vjp(
    problem: CompositionProblem,
    x: np.ndarray,
    snap: EpochSnapshot,
    g_hat: np.ndarray,
    jac_batch: Sequence[int],
    outer_batch: Sequence[int],
    ledger: QueryLedger,
) -> np.ndarray:
    """:func:`grad_minibatch_v1` with the Jacobian estimate of
    :func:`estimate_inner_jacobian` over ``jac_batch`` taken as products.

    With u_x, u_t the outer-batch mean gradients at g_hat and G(x_tilde),

        (dG(x_tilde))^T (u_x - u_t)
          + (1/B) sum_{j in jac_batch} (dG_j(x) - dG_j(x_tilde))^T u_x
          + grad_tilde

    equals (jac_hat)^T u_x - (dG(x_tilde))^T u_t + grad_tilde.  Costs
    2B + 2b queries, as the dense pair does; at x = x_tilde it returns
    grad_tilde bit for bit.  A singleton outer batch gives scvr2's step.
    """
    _require_batch(jac_batch)
    u_x, u_t = _mean_outer_gradients(problem, snap, g_hat, outer_batch, ledger)
    correction = _mean_product_difference(problem, x, snap, jac_batch, u_x, u_x, ledger)
    return snap.jac_tilde.rmatvec(u_x - u_t) + correction + snap.grad_tilde


def grad_minibatch_v2(
    problem: CompositionProblem,
    x: np.ndarray,
    snap: EpochSnapshot,
    g_hat: np.ndarray,
    jac_batch: Sequence[int],
    outer_batch: Sequence[int],
    ledger: QueryLedger,
) -> np.ndarray:
    """Mini-batch variant anchoring both terms at a batch-mean Jacobian.

    The same Jacobian batch is averaged at x and at the snapshot,

        J_x = (1/B) sum_{j in jac_batch} dG_j(x)
        J_t = (1/B) sum_{j in jac_batch} dG_j(x_tilde)

        (1/b) sum_{i in batch} [ J_x^T grad F_i(g_hat)
            - J_t^T grad F_i(G(x_tilde)) ]  +  grad_tilde

    computed as (1/B) sum_j [ dG_j(x)^T u_x - dG_j(x_tilde)^T u_t ]
    + grad_tilde with u_x, u_t the outer-batch mean gradients (2b
    queries) and one Jacobian product per draw (2B queries).  Costs
    2B + 2b queries total.
    """
    _require_batch(jac_batch)
    u_x, u_t = _mean_outer_gradients(problem, snap, g_hat, outer_batch, ledger)
    correction = _mean_product_difference(problem, x, snap, jac_batch, u_x, u_t, ledger)
    return correction + snap.grad_tilde

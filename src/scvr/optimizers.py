"""Epoch-structured optimization loops with exact query accounting.

All variants share one driver: S epochs, each opening with a snapshot
(2m+n queries) where the variant uses one, followed by K inner steps
x <- x - eta * direction.  Per-step query costs are exact integers:

    scvr1          2A + 4
    scvr2          2A + 2B + 2
    minibatch_v1   2A + 2B + 2b
    minibatch_v2   2A + 2B + 2b
    svrg           2m + 2
    sgd            m + 2        (no snapshot)
    gd             2m + n       (no snapshot, deterministic)

Trace instrumentation (gradient norm, objective) runs on a shadow
ledger and never touches the algorithmic count.  The returned iterate
x_out is the one visited at epoch/step indices drawn uniformly before
the run, matching a uniformly sampled output in distribution without
storing the whole trajectory.

The stochastic steps (scvr1, scvr2, the mini-batch variants and sgd)
query each sampled Jacobian as one product dG_j(x)^T v.  The snapshot,
the svrg step and every full gradient (gd's step and the trace
records) build the mean Jacobian as an operator from m compact queries
and multiply through ``rmatvec``.  No run path forms a dense Jacobian
of a problem whose compact part is not the dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from scvr import estimators
from scvr.core import (
    CompositionProblem,
    QueryLedger,
    SampleStream,
    full_gradient,
    inner_full,
    mean_jacobian,
    objective,
    query_inner_jacobian,
    query_outer_gradient,
    sample_indices,
)

VARIANTS = ("scvr1", "scvr2", "minibatch_v1", "minibatch_v2", "gd", "sgd", "svrg")

DIVERGENCE_LIMIT = 1e12


@dataclass
class OptimizerConfig:
    """Run parameters.

    eta          step size
    epochs_s     number of epochs S
    inner_k      inner steps per epoch K
    sample_a     inner-value batch size A (with replacement)
    sample_b     inner-Jacobian batch size B (scvr2 / mini-batch)
    batch_b      outer mini-batch size b (mini-batch variants)
    variant      one of VARIANTS
    seed         64-bit seed for all algorithmic randomness
    record_every trace-record cadence in inner steps
    """

    eta: float
    epochs_s: int
    inner_k: int
    variant: str
    sample_a: int = 1
    sample_b: int = 1
    batch_b: int = 1
    seed: int = 0
    record_every: int = 1

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not (math.isfinite(self.eta) and self.eta >= 0.0):
            raise ValueError("eta must be finite and non-negative")
        for name in ("epochs_s", "inner_k", "sample_a", "sample_b", "batch_b", "record_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass
class TraceRecord:
    """One instrumented iterate: algorithmic query count plus out-of-band
    gradient norm and objective value (never charged to the run)."""

    epoch: int
    inner_iter: int
    total_queries: int
    grad_norm_sq: float
    objective: float


@dataclass
class OptResult:
    x_out: np.ndarray
    x_last: np.ndarray
    trace: list[TraceRecord]
    ledger: QueryLedger
    out_epoch: int
    out_inner: int


class DivergenceError(RuntimeError):
    """An iterate left the finite box; carries the trace recorded so far."""

    def __init__(self, message: str, trace: list[TraceRecord], ledger: QueryLedger):
        super().__init__(message)
        self.trace = trace
        self.ledger = ledger


def _record(
    trace: list[TraceRecord],
    problem: CompositionProblem,
    x: np.ndarray,
    epoch: int,
    inner_iter: int,
    total: int,
    shadow: QueryLedger,
) -> None:
    grad = full_gradient(problem, x, shadow)
    value = objective(problem, x, shadow)
    trace.append(
        TraceRecord(
            epoch=epoch,
            inner_iter=inner_iter,
            total_queries=total,
            grad_norm_sq=float(grad @ grad),
            objective=value,
        )
    )


def _guard(
    x: np.ndarray, trace: list[TraceRecord], ledger: QueryLedger, epoch: int, step: int
) -> None:
    """Raise :class:`DivergenceError` if the iterate that inner step
    ``step`` of ``epoch`` produced left the finite box."""
    if not np.all(np.isfinite(x)) or np.any(np.abs(x) > DIVERGENCE_LIMIT):
        if trace:
            last = trace[-1]
            where = (
                f"last record at epoch {last.epoch}, step {last.inner_iter}: "
                f"||grad f||^2 = {last.grad_norm_sq!r}"
            )
        else:
            where = "no trace record yet"
        raise DivergenceError(
            f"iterate diverged beyond the finite box at epoch {epoch}, step {step} ({where})",
            trace,
            ledger,
        )


def step_query_cost(variant: str, m: int, n: int, a: int, b_jac: int, b_out: int) -> int:
    """Queries one inner step spends, excluding the epoch snapshot."""
    if variant == "scvr1":
        return 2 * a + 4
    if variant == "scvr2":
        return 2 * a + 2 * b_jac + 2
    if variant in ("minibatch_v1", "minibatch_v2"):
        return 2 * a + 2 * b_jac + 2 * b_out
    if variant == "svrg":
        return 2 * m + 2
    if variant == "sgd":
        return m + 2
    if variant == "gd":
        return 2 * m + n
    raise ValueError(f"unknown variant {variant!r}")


def run(
    problem: CompositionProblem,
    config: OptimizerConfig,
    x0: np.ndarray | None = None,
    budget: int | None = None,
) -> OptResult:
    """Execute the configured variant; see module docstring for costs.

    ``budget`` is a hard cap on the algorithmic ledger: the run stops
    cleanly (with a final record) before any snapshot or inner step that
    would push the total past it.
    """
    m = problem.m_inner
    n = problem.n_outer
    s_total, k_total = config.epochs_s, config.inner_k
    eta = config.eta
    variant = config.variant
    uses_snapshot = variant not in ("sgd", "gd")
    per_step = step_query_cost(
        variant, m, n, config.sample_a, config.sample_b, config.batch_b
    )
    snapshot_cost = 2 * m + n if uses_snapshot else 0

    x = np.zeros(problem.dim_x) if x0 is None else np.array(x0, dtype=float, copy=True)
    if x.shape != (problem.dim_x,):
        raise ValueError("x0 has the wrong dimension")

    stream = SampleStream(config.seed)
    s_star = stream.randrange(s_total)
    k_star = stream.randrange(k_total)

    ledger = QueryLedger()
    shadow = QueryLedger()
    trace: list[TraceRecord] = []
    x_out: np.ndarray | None = None
    step_index = 0
    stopped = False

    for s in range(s_total):
        if budget is not None and ledger.total + snapshot_cost + per_step > budget:
            stopped = True
            break
        snap = estimators.take_snapshot(problem, x, ledger) if uses_snapshot else None
        for k in range(k_total):
            if budget is not None and ledger.total + per_step > budget:
                stopped = True
                break
            if s == s_star and k == k_star:
                x_out = x.copy()
            if step_index % config.record_every == 0:
                _record(trace, problem, x, s, k, ledger.total, shadow)

            if variant == "scvr1":
                batch = sample_indices(stream, m, config.sample_a)
                g_hat = estimators.estimate_inner(problem, x, snap, batch, ledger)
                i = stream.randrange(n) + 1
                j = stream.randrange(m) + 1
                est = estimators.grad_scvr1(problem, x, snap, g_hat, i, j, ledger)
                direction = est.direction
            elif variant == "scvr2":
                batch_a = sample_indices(stream, m, config.sample_a)
                batch_b = sample_indices(stream, m, config.sample_b)
                g_hat = estimators.estimate_inner(problem, x, snap, batch_a, ledger)
                i = stream.randrange(n) + 1
                est = estimators.grad_minibatch_v1_vjp(
                    problem, x, snap, g_hat, batch_b, [i], ledger
                )
                direction = est.direction
            elif variant == "minibatch_v1":
                batch_a = sample_indices(stream, m, config.sample_a)
                batch_b = sample_indices(stream, m, config.sample_b)
                g_hat = estimators.estimate_inner(problem, x, snap, batch_a, ledger)
                outer = sample_indices(stream, n, config.batch_b)
                est = estimators.grad_minibatch_v1_vjp(
                    problem, x, snap, g_hat, batch_b, outer, ledger
                )
                direction = est.direction
            elif variant == "minibatch_v2":
                batch_a = sample_indices(stream, m, config.sample_a)
                batch_b = sample_indices(stream, m, config.sample_b)
                g_hat = estimators.estimate_inner(problem, x, snap, batch_a, ledger)
                outer = sample_indices(stream, n, config.batch_b)
                est = estimators.grad_minibatch_v2(
                    problem, x, snap, g_hat, batch_b, outer, ledger
                )
                direction = est.direction
            elif variant == "svrg":
                value = inner_full(problem, x, ledger)
                jac = mean_jacobian(problem, x, ledger)
                i = stream.randrange(n) + 1
                outer_x = query_outer_gradient(problem, i, value, ledger)
                outer_t = query_outer_gradient(problem, i, snap.g_tilde, ledger)
                direction = (
                    jac.rmatvec(outer_x) - snap.jac_tilde.rmatvec(outer_t) + snap.grad_tilde
                )
            elif variant == "sgd":
                value = inner_full(problem, x, ledger)
                i = stream.randrange(n) + 1
                j = stream.randrange(m) + 1
                outer_i = query_outer_gradient(problem, i, value, ledger)
                direction = query_inner_jacobian(problem, j, x, ledger, outer_i)
            else:  # gd
                direction = full_gradient(problem, x, ledger)

            x = x - eta * direction
            _guard(x, trace, ledger, s, k)
            step_index += 1
        if stopped:
            break

    _record(trace, problem, x, min(s, s_total - 1), k_total, ledger.total, shadow)
    if x_out is None:
        # budget ended the run before the drawn output index was visited
        x_out = x.copy()
    return OptResult(
        x_out=x_out,
        x_last=x.copy(),
        trace=trace,
        ledger=ledger,
        out_epoch=s_star,
        out_inner=k_star,
    )


def expected_total_queries(
    variant: str, s: int, k: int, m: int, n: int, a: int = 1, b_jac: int = 1, b_out: int = 1
) -> int:
    """Closed-form ledger total for a full (un-budgeted) run."""
    if variant == "scvr1":
        return s * (2 * m + n + k * (2 * a + 4))
    if variant == "scvr2":
        return s * (2 * m + n + k * (2 * a + 2 * b_jac + 2))
    if variant in ("minibatch_v1", "minibatch_v2"):
        return s * (2 * m + n + k * (2 * a + 2 * b_jac + 2 * b_out))
    if variant == "svrg":
        return s * (2 * m + n + k * (2 * m + 2))
    if variant == "sgd":
        return s * k * (m + 2)
    if variant == "gd":
        return s * k * (2 * m + n)
    raise ValueError(f"unknown variant {variant!r}")


def run_scvr1(problem, config, x0=None, budget=None) -> OptResult:
    """Inner-value estimation only; single (i, j) pair per step."""
    if config.variant != "scvr1":
        raise ValueError("config.variant must be 'scvr1'")
    return run(problem, config, x0, budget)


def run_scvr2(problem, config, x0=None, budget=None) -> OptResult:
    """Inner value and Jacobian both estimated; single i per step."""
    if config.variant != "scvr2":
        raise ValueError("config.variant must be 'scvr2'")
    return run(problem, config, x0, budget)


def run_minibatch(problem, config, x0=None, budget=None) -> OptResult:
    """Outer mini-batch over i; either Jacobian anchoring variant."""
    if config.variant not in ("minibatch_v1", "minibatch_v2"):
        raise ValueError("config.variant must be a minibatch variant")
    return run(problem, config, x0, budget)


def run_svrg(problem, config, x0=None, budget=None) -> OptResult:
    """Classic variance reduction with the inner map computed in full."""
    if config.variant != "svrg":
        raise ValueError("config.variant must be 'svrg'")
    return run(problem, config, x0, budget)


def run_sgd(problem, config, x0=None, budget=None) -> OptResult:
    """Plain stochastic gradient with full inner value per step."""
    if config.variant != "sgd":
        raise ValueError("config.variant must be 'sgd'")
    return run(problem, config, x0, budget)


def run_gd(problem, config, x0=None, budget=None) -> OptResult:
    """Deterministic full-gradient descent."""
    if config.variant != "gd":
        raise ValueError("config.variant must be 'gd'")
    return run(problem, config, x0, budget)

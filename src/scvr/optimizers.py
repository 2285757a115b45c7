"""Epoch-structured optimization loops with exact query accounting.

All variants share one driver: S epochs, each opening with a snapshot
(2m+n queries) where the variant uses one, followed by K inner steps
x <- x - eta * direction.  The table :data:`VARIANTS` describes each
variant once: whether it takes the snapshot, its exact per-step query
cost as a function of (m, n, A, B, b), and its step.  The driver, the
per-step and closed-form costs and the startup cost a budget must
cover all read it.  ``scvr2`` is the ``minibatch_v1`` step with the
outer batch b fixed at 1.

Trace instrumentation (gradient norm, objective) runs on a shadow
ledger and never touches the algorithmic count.  The returned iterate
x_out is the one visited at epoch/step indices drawn uniformly before
the run, matching a uniformly sampled output in distribution without
storing the whole trajectory.

Every step evaluates through the ``core`` batch helpers, a single
query as a one-index batch, so a run reaches a per-component method
only through a default batch method.  ``scvr1``'s step is the
``minibatch_v2`` estimator at B = b = 1.  The stochastic steps (scvr1, scvr2, the mini-batch variants
and sgd) query each sampled Jacobian as one product dG_j(x)^T v.  The
snapshot, the svrg step and every full gradient (gd's step and the
trace records) build the mean Jacobian as an operator from m compact
queries and multiply through ``rmatvec``.  No run path forms a dense
Jacobian of a problem whose compact part is not the dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
    query_inner_vjps,
    query_outer_gradients,
    sample_indices,
)

DIVERGENCE_LIMIT = 1e12


def _step_scvr1(problem, x, snap, stream, sizes, ledger):
    batch = sample_indices(stream, problem.m_inner, sizes[0])
    g_hat = estimators.estimate_inner(problem, x, snap, batch, ledger)
    i = stream.randrange(problem.n_outer) + 1
    j = stream.randrange(problem.m_inner) + 1
    # grad_scvr1's single pair, as the v2 estimator at B = b = 1
    return estimators.grad_minibatch_v2(problem, x, snap, g_hat, [j], [i], ledger)


def _mini_batch_step(estimator: str):
    """The mini-batch step with gradient estimator ``estimators.<estimator>``."""

    def step(problem, x, snap, stream, sizes, ledger):
        a, b_jac, b_out = sizes
        batch_a = sample_indices(stream, problem.m_inner, a)
        batch_b = sample_indices(stream, problem.m_inner, b_jac)
        g_hat = estimators.estimate_inner(problem, x, snap, batch_a, ledger)
        outer = sample_indices(stream, problem.n_outer, b_out)
        grad = getattr(estimators, estimator)
        return grad(problem, x, snap, g_hat, batch_b, outer, ledger)

    return step


def _step_svrg(problem, x, snap, stream, sizes, ledger):
    value = inner_full(problem, x, ledger)
    jac = mean_jacobian(problem, x, ledger)
    i = stream.randrange(problem.n_outer) + 1
    (outer_x,) = query_outer_gradients(problem, [i], value, ledger)
    (outer_t,) = query_outer_gradients(problem, [i], snap.g_tilde, ledger)
    return jac.rmatvec(outer_x) - snap.jac_tilde.rmatvec(outer_t) + snap.grad_tilde


def _step_sgd(problem, x, snap, stream, sizes, ledger):
    value = inner_full(problem, x, ledger)
    i = stream.randrange(problem.n_outer) + 1
    j = stream.randrange(problem.m_inner) + 1
    (outer_i,) = query_outer_gradients(problem, [i], value, ledger)
    return query_inner_vjps(problem, [j], x, ledger, outer_i)[0]


def _step_gd(problem, x, snap, stream, sizes, ledger):
    return full_gradient(problem, x, ledger)


@dataclass(frozen=True)
class Variant:
    """One row of :data:`VARIANTS`.

    snapshot     whether each epoch opens with the 2m + n query snapshot
    step_cost    exact queries of one step, as a function of (m, n, A, B, b)
    step         ``step(problem, x, snap, stream, (A, B, b), ledger)`` returns
                 the direction; it looks estimators and ``core`` helpers up
                 at call time, so wrappers installed on them see every call
    outer_batch  b used whatever the configured ``batch_b`` (None: that one)
    """

    snapshot: bool
    step_cost: Callable[[int, int, int, int, int], int]
    step: Callable[..., np.ndarray]
    outer_batch: int | None = None


def _mini_batch_cost(m, n, a, b_jac, b_out):
    return 2 * a + 2 * b_jac + 2 * b_out


_step_minibatch_v1 = _mini_batch_step("grad_minibatch_v1_vjp")
VARIANTS: dict[str, Variant] = {
    "scvr1": Variant(True, lambda m, n, a, b_jac, b_out: 2 * a + 4, _step_scvr1),
    "scvr2": Variant(True, _mini_batch_cost, _step_minibatch_v1, outer_batch=1),
    "minibatch_v1": Variant(True, _mini_batch_cost, _step_minibatch_v1),
    "minibatch_v2": Variant(True, _mini_batch_cost, _mini_batch_step("grad_minibatch_v2")),
    "gd": Variant(False, lambda m, n, a, b_jac, b_out: 2 * m + n, _step_gd),
    "sgd": Variant(False, lambda m, n, a, b_jac, b_out: m + 2, _step_sgd),
    "svrg": Variant(True, lambda m, n, a, b_jac, b_out: 2 * m + 2, _step_svrg),
}


def _snapshot_cost(variant: str, m: int, n: int) -> int:
    return 2 * m + n if VARIANTS[variant].snapshot else 0


def step_query_cost(variant: str, m: int, n: int, a: int, b_jac: int, b_out: int) -> int:
    """Queries one inner step spends, excluding the epoch snapshot."""
    spec = VARIANTS[variant]
    return spec.step_cost(m, n, a, b_jac, spec.outer_batch or b_out)


def expected_total_queries(
    variant: str, s: int, k: int, m: int, n: int, a: int = 1, b_jac: int = 1, b_out: int = 1
) -> int:
    """Closed-form ledger total for a full (un-budgeted) run."""
    per_step = step_query_cost(variant, m, n, a, b_jac, b_out)
    return s * (_snapshot_cost(variant, m, n) + k * per_step)


def startup_query_cost(config: OptimizerConfig, m: int, n: int) -> int:
    """Queries spent before the first step can move x: the epoch snapshot,
    or the first step of a variant that takes none."""
    return _snapshot_cost(config.variant, m, n) or step_query_cost(
        config.variant, m, n, config.sample_a, config.sample_b, config.batch_b
    )


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
        for name in ("epochs_s", "inner_k"):
            # run() draws the output iterate's epoch and step from these ranges
            if getattr(self, name) > 1 << 64:
                raise ValueError(f"{name} must be at most 2^64")


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
    # one reduction: a NaN entry makes the maximum NaN, which fails the test
    if not (np.abs(x).max() <= DIVERGENCE_LIMIT):
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


def run(
    problem: CompositionProblem,
    config: OptimizerConfig,
    x0: np.ndarray | None = None,
    budget: int | None = None,
) -> OptResult:
    """Execute the configured variant; its costs are in :data:`VARIANTS`.

    ``budget`` is a hard cap on the algorithmic ledger: the run stops
    cleanly (with a final record) before any snapshot or inner step that
    would push the total past it.
    """
    s_total, k_total = config.epochs_s, config.inner_k
    eta = config.eta
    spec = VARIANTS[config.variant]
    sizes = (config.sample_a, config.sample_b, spec.outer_batch or config.batch_b)
    per_step = spec.step_cost(problem.m_inner, problem.n_outer, *sizes)
    snapshot_cost = _snapshot_cost(config.variant, problem.m_inner, problem.n_outer)

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
        snap = estimators.take_snapshot(problem, x, ledger) if spec.snapshot else None
        for k in range(k_total):
            if budget is not None and ledger.total + per_step > budget:
                stopped = True
                break
            if s == s_star and k == k_star:
                x_out = x.copy()
            if step_index % config.record_every == 0:
                _record(trace, problem, x, s, k, ledger.total, shadow)

            direction = spec.step(problem, x, snap, stream, sizes, ledger)
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

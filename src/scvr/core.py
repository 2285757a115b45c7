"""Core primitives: the composition-problem interface, query accounting,
full (deterministic) evaluations, and seeded sampling.

The objective being minimized everywhere in this package is

    f(x) = (1/n) * sum_{i=1..n} F_i( (1/m) * sum_{j=1..m} G_j(x) ),

with x in R^N, the inner map G: R^N -> R^M, and scalar outer components
F_i: R^M -> R.  One *query* is one evaluation of a single component
function or of its derivative (G_j, dG_j, F_i, or grad F_i); the
``QueryLedger`` counts them by kind.

Component indices are 1-based in every public signature (i in 1..n,
j in 1..m); conversion to 0-based array indexing happens inside the
concrete problem classes and nowhere else.

Query path contract: a charged query is evaluated only by a batch
helper (``query_inner_values``, ``query_inner_jacobians``,
``query_outer_values``, ``query_outer_gradients``).  It checks every
index, then evaluates the components of one kind at one point with one
call of the problem's batch method.  Accounting is not batched: the
helper then calls the module-level ``query_<kind>`` once per index, in
batch order, which charges the ledger by 1 and checks that index's row
for finiteness, so the first non-finite row raises.  A single query is a
one-index batch.  The per-component methods stay as the reference; the
default batch methods and the dense form below are what call them.

``query_inner_jacobians`` returns one of three forms of dG_j(x), one
query each: the dense (M, N) matrix by default; the product
dG_j(x)^T v when a vector ``v`` is given (the form the stochastic steps
use); or, with ``compact=True``, the problem's compact part of dG_j(x)
(the (d, n) array g[:, j]^T for the embedding problem, the dense matrix
for the synthetics), from whose stack
``CompositionProblem.assemble_mean_jacobian`` builds the exact mean
Jacobian as an operator (the form the snapshot, ``full_gradient`` and
the svrg step use).  :func:`inner_jacobian_full` sums the dense
component Jacobians instead; it is the reference that the operator and
the dense estimators are checked against, and no run path calls it.
The finiteness check runs on the returned form.  For arrays the first
test is the squared norm ``vdot(row, row)``: any NaN or infinite entry
makes it non-finite.  Only when it is non-finite does the exact
elementwise test run, so finite rows whose squared norm overflows still
pass, and the set of rows that raise :class:`EvaluationError` is
exactly the set with a non-finite entry.

Batched sums keep the per-component addition order: :func:`sum_rows`
adds a stack's rows in index order, as the loops it replaced did.
"""

from __future__ import annotations

import abc
import functools
import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np


class EvaluationError(RuntimeError):
    """A component evaluation produced a non-finite value."""


@dataclass(frozen=True)
class SmoothnessConstants:
    """Problem regularity constants used by step-size and sample-size rules.

    b_g        bound on every inner-component Jacobian norm
    l_g        Lipschitz constant of the inner-component Jacobians
               (0 for affine inner maps)
    b_f        bound on every outer-component gradient norm
    l_f_outer  Lipschitz constant of the outer-component gradients
    l_f        Lipschitz constant of the composite stochastic gradient

    Values are exact or nominal (see each problem); they feed parameter
    suggestions and theory diagnostics, never correctness.
    """

    b_g: float
    l_g: float
    b_f: float
    l_f_outer: float
    l_f: float

    def __post_init__(self) -> None:
        for name in ("b_g", "b_f", "l_f_outer", "l_f"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        # l_g == 0 is legitimate: affine inner maps have constant Jacobians.
        if self.l_g < 0.0:
            raise ValueError("l_g must be non-negative")


@dataclass
class QueryLedger:
    """Counter of component-function evaluations, split by kind.

    Every component evaluation routed through the ``query_*`` helpers
    below increments exactly one category by exactly 1.  The ledger is
    not synchronized.
    """

    inner_value_queries: int = 0
    inner_jacobian_queries: int = 0
    outer_value_queries: int = 0
    outer_gradient_queries: int = 0

    @property
    def total(self) -> int:
        return (
            self.inner_value_queries
            + self.inner_jacobian_queries
            + self.outer_value_queries
            + self.outer_gradient_queries
        )


class MeanJacobian(Protocol):
    """The exact mean Jacobian dG(x) = (1/m) sum_j dG_j(x) at one point,
    as an operator.  ``rmatvec(v)`` returns dG(x)^T v for a length-M
    vector v (a new length-N vector; v is not modified).  Its dense
    reference is :func:`inner_jacobian_full`."""

    def rmatvec(self, v: np.ndarray) -> np.ndarray: ...


class DenseMeanJacobian:
    """A :class:`MeanJacobian` held as its dense (M, N) matrix."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        return self.matrix.T @ v


class CompositionProblem(abc.ABC):
    """Interface every concrete two-level finite-sum problem implements.

    Attributes
    ----------
    n_outer : number of outer components F_i
    m_inner : number of inner components G_j
    dim_x   : decision dimension N
    dim_w   : inner-value dimension M
    constants : the problem's :class:`SmoothnessConstants`,
                computed by ``_estimate_constants`` on first read and
                cached on the instance, so building a problem pays only
                for what a run reads (no optimizer run reads them)

    Component evaluations must be pure: identical inputs produce
    bitwise-identical outputs.  They are therefore safe to call
    concurrently; only the ledger needs per-worker separation.

    ``inner_component_vjp(j, x, v)`` is the product dG_j(x)^T v, the
    Jacobian access of the stochastic steps.  It is pure in the
    same sense and must not modify ``v``.  The default multiplies the
    dense Jacobian; a problem whose Jacobian has structure overrides it
    so that no (M, N) array is built.

    ``compact_jacobian(j, x)`` and ``assemble_mean_jacobian(parts)`` are
    the Jacobian access of full evaluations: the mean Jacobian is built
    from the stack of the m compact parts as a :class:`MeanJacobian`.
    The defaults take the dense Jacobian as the part and sum the parts
    in index order, exactly as :func:`inner_jacobian_full` does; a
    structured problem overrides both together.

    Each per-component evaluation has a batch form that evaluates many
    components of one kind at one point: ``inner_values(js, x)``,
    ``inner_vjps(js, x, v)``, ``compact_jacobians(js, x)``,
    ``outer_values(is_, w)`` and ``outer_gradients(is_, w)`` return the
    per-component outputs for the indices in order, stacked along a new
    first axis.  A batch must equal that stack bit for bit, leave its
    arguments unmodified and have the side effects of the per-component
    calls it stands for.  The defaults build the stack from the
    per-component methods, which stay the reference; a problem overrides
    them with one vectorised kernel per kind.  The batch methods are the
    only evaluation a run makes: the ``core`` batch helpers call them,
    after checking the indices, and charge each row with one
    ``query_<kind>`` call.
    """

    n_outer: int
    m_inner: int
    dim_x: int
    dim_w: int

    @functools.cached_property
    def constants(self) -> SmoothnessConstants:
        return self._estimate_constants()

    def _estimate_constants(self) -> SmoothnessConstants:
        """The problem's regularity constants; called once, on the first
        read of ``constants``."""
        raise NotImplementedError(f"{type(self).__name__} declares no constants")

    @abc.abstractmethod
    def inner_component(self, j: int, x: np.ndarray) -> np.ndarray:
        """G_j(x), j in 1..m_inner; returns a length-M vector."""

    @abc.abstractmethod
    def inner_component_jacobian(self, j: int, x: np.ndarray) -> np.ndarray:
        """dG_j(x), j in 1..m_inner; returns an (M, N) matrix."""

    def inner_component_vjp(self, j: int, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """dG_j(x)^T v, j in 1..m_inner, for a length-M vector v; returns a
        length-N vector.  Leaves ``v`` unchanged."""
        return self.inner_component_jacobian(j, x).T @ v

    def compact_jacobian(self, j: int, x: np.ndarray) -> np.ndarray:
        """The part of dG_j(x) that :meth:`assemble_mean_jacobian` needs;
        by default the dense (M, N) Jacobian.  Pure, like the other
        evaluations."""
        return self.inner_component_jacobian(j, x)

    def assemble_mean_jacobian(self, parts: np.ndarray) -> MeanJacobian:
        """(1/m) sum_j dG_j as a :class:`MeanJacobian`, from the stack of
        the compact parts of j = 1..m (``compact_jacobians``)."""
        return DenseMeanJacobian(sum_rows(parts) / self.m_inner)

    @abc.abstractmethod
    def outer_component(self, i: int, w: np.ndarray) -> float:
        """F_i(w), i in 1..n_outer; returns a scalar."""

    @abc.abstractmethod
    def outer_component_gradient(self, i: int, w: np.ndarray) -> np.ndarray:
        """grad F_i(w), i in 1..n_outer; returns a length-M vector."""

    # batch forms: one row per index, equal to stacking the methods above

    def inner_values(self, js: Sequence[int], x: np.ndarray) -> np.ndarray:
        """G_j(x) for j in ``js``; a (len(js), M) array."""
        return np.stack([self.inner_component(j, x) for j in js])

    def inner_vjps(self, js: Sequence[int], x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """dG_j(x)^T v for j in ``js``; a (len(js), N) array."""
        return np.stack([self.inner_component_vjp(j, x, v) for j in js])

    def compact_jacobians(self, js: Sequence[int], x: np.ndarray) -> np.ndarray:
        """The compact parts of dG_j(x) for j in ``js``, stacked."""
        return np.stack([self.compact_jacobian(j, x) for j in js])

    def outer_values(self, is_: Sequence[int], w: np.ndarray) -> np.ndarray:
        """F_i(w) for i in ``is_``; a length-len(is_) float array."""
        return np.array([self.outer_component(i, w) for i in is_], dtype=float)

    def outer_gradients(self, is_: Sequence[int], w: np.ndarray) -> np.ndarray:
        """grad F_i(w) for i in ``is_``; a (len(is_), M) array."""
        return np.stack([self.outer_component_gradient(i, w) for i in is_])


def sum_rows(rows: np.ndarray) -> np.ndarray:
    """The sum of a C-contiguous stack's rows, added in index order to a
    zero array: the loop ``acc = zeros; for row in rows: acc += row``,
    bit for bit.  NumPy reduces axis 0 of such a stack in that order when
    a row has two or more entries.  With one entry per row the reduce is
    1-D and sums pairwise, so such stacks are accumulated from the first
    row instead; adding that to 0.0 turns a -0.0 sum into the loop's
    +0.0 and changes nothing else."""
    if rows[0].size > 1:
        return np.add.reduce(rows, axis=0)
    return 0.0 + np.add.accumulate(rows, axis=0)[-1]


def query_inner_value(j: int, row: np.ndarray, ledger: QueryLedger) -> None:
    """Charge one inner-value query for the row G_j(x) a batch returned,
    and check that row."""
    ledger.inner_value_queries += 1
    if not math.isfinite(np.vdot(row, row)) and not np.isfinite(row).all():
        raise EvaluationError(f"inner component {j} returned a non-finite value")


def query_inner_jacobian(j: int, row: np.ndarray, ledger: QueryLedger) -> None:
    """Charge one inner-Jacobian query for the row a batch returned (any
    form of dG_j(x)), and check that row."""
    ledger.inner_jacobian_queries += 1
    if not math.isfinite(np.vdot(row, row)) and not np.isfinite(row).all():
        raise EvaluationError(f"inner Jacobian {j} returned a non-finite value")


def query_outer_value(i: int, row: float, ledger: QueryLedger) -> None:
    """Charge one outer-value query for the value F_i(w) a batch returned,
    and check it."""
    ledger.outer_value_queries += 1
    if not math.isfinite(row):
        raise EvaluationError(f"outer component {i} returned a non-finite value")


def query_outer_gradient(i: int, row: np.ndarray, ledger: QueryLedger) -> None:
    """Charge one outer-gradient query for the row grad F_i(w) a batch
    returned, and check that row."""
    ledger.outer_gradient_queries += 1
    if not math.isfinite(np.vdot(row, row)) and not np.isfinite(row).all():
        raise EvaluationError(f"outer gradient {i} returned a non-finite value")


def _check_indices(indices: Sequence[int], count: int, side: str) -> None:
    for k in indices:
        if not 1 <= k <= count:
            raise IndexError(f"{side} component index {k} outside 1..{count}")


def query_inner_values(
    problem: CompositionProblem, js: Sequence[int], x: np.ndarray, ledger: QueryLedger
) -> np.ndarray:
    """G_j(x) for j in ``js`` from one ``problem.inner_values`` call, as
    rows; one :func:`query_inner_value` call per index."""
    _check_indices(js, problem.m_inner, "inner")
    rows = problem.inner_values(js, x)
    for j, row in zip(js, rows):
        query_inner_value(j, row, ledger)
    return rows


def query_inner_jacobians(
    problem: CompositionProblem,
    js: Sequence[int],
    x: np.ndarray,
    ledger: QueryLedger,
    v: np.ndarray | None = None,
    *,
    compact: bool = False,
) -> np.ndarray:
    """One form of dG_j(x) for j in ``js``, as rows: the products
    dG_j(x)^T v from ``problem.inner_vjps`` when ``v`` is given; the
    compact parts from ``problem.compact_jacobians`` when ``compact`` is
    true (then ``v`` must be None); otherwise the dense (M, N) Jacobians,
    stacked from the per-component method (the reference form).  One
    :func:`query_inner_jacobian` call per index."""
    _check_indices(js, problem.m_inner, "inner")
    if compact:
        rows = problem.compact_jacobians(js, x)
    elif v is None:
        rows = np.stack([problem.inner_component_jacobian(j, x) for j in js])
    else:
        rows = problem.inner_vjps(js, x, v)
    for j, row in zip(js, rows):
        query_inner_jacobian(j, row, ledger)
    return rows


def query_outer_values(
    problem: CompositionProblem, is_: Sequence[int], w: np.ndarray, ledger: QueryLedger
) -> np.ndarray:
    """F_i(w) for i in ``is_`` from one ``problem.outer_values`` call;
    one :func:`query_outer_value` call per index."""
    _check_indices(is_, problem.n_outer, "outer")
    rows = problem.outer_values(is_, w)
    for i, row in zip(is_, rows):
        query_outer_value(i, row, ledger)
    return rows


def query_outer_gradients(
    problem: CompositionProblem, is_: Sequence[int], w: np.ndarray, ledger: QueryLedger
) -> np.ndarray:
    """grad F_i(w) for i in ``is_`` from one ``problem.outer_gradients``
    call, as rows; one :func:`query_outer_gradient` call per index."""
    _check_indices(is_, problem.n_outer, "outer")
    rows = problem.outer_gradients(is_, w)
    for i, row in zip(is_, rows):
        query_outer_gradient(i, row, ledger)
    return rows


# Output bytes a full evaluation asks of one batch call.  The embedding
# problem's outputs grow with n, so its full evaluations take the m or n
# components a block at a time and keep the memory of the per-component
# loop, O(n * M) per block instead of O(n^2 d) at once.
FULL_BLOCK_BYTES = 1 << 18


def _index_blocks(problem: CompositionProblem, count: int):
    """1..count as consecutive ranges of at most FULL_BLOCK_BYTES of
    length-M outputs."""
    size = max(1, FULL_BLOCK_BYTES // (8 * problem.dim_w))
    for start in range(1, count + 1, size):
        yield range(start, min(start + size, count + 1))


def _full_mean(query_rows, problem: CompositionProblem, count: int, point, ledger):
    """(1/count) sum_k of the rows ``query_rows`` returns for k = 1..count,
    queried a block at a time and added in index order."""
    acc = None
    for block in _index_blocks(problem, count):
        rows = query_rows(problem, block, point, ledger)
        acc = sum_rows(rows if acc is None else np.concatenate([acc[None], rows]))
    return acc / count


def inner_full(
    problem: CompositionProblem, x: np.ndarray, ledger: QueryLedger
) -> np.ndarray:
    """Exact inner value G(x) = (1/m) sum_j G_j(x).  Costs m queries."""
    return _full_mean(query_inner_values, problem, problem.m_inner, x, ledger)


def inner_jacobian_full(
    problem: CompositionProblem, x: np.ndarray, ledger: QueryLedger
) -> np.ndarray:
    """Exact mean Jacobian dG(x) = (1/m) sum_j dG_j(x) as a dense matrix,
    summed from the stacked dense component Jacobians: the reference for
    :func:`mean_jacobian`.  Costs m queries."""
    js = range(1, problem.m_inner + 1)
    return sum_rows(query_inner_jacobians(problem, js, x, ledger)) / problem.m_inner


def mean_jacobian(
    problem: CompositionProblem, x: np.ndarray, ledger: QueryLedger
) -> MeanJacobian:
    """Exact mean Jacobian dG(x) as a :class:`MeanJacobian`, assembled by
    the problem from the stack of m compact queries.  Costs m queries."""
    js = range(1, problem.m_inner + 1)
    return problem.assemble_mean_jacobian(
        query_inner_jacobians(problem, js, x, ledger, compact=True)
    )


def outer_gradient_full(
    problem: CompositionProblem, w: np.ndarray, ledger: QueryLedger
) -> np.ndarray:
    """Exact mean outer gradient grad F(w).  Costs n queries."""
    return _full_mean(query_outer_gradients, problem, problem.n_outer, w, ledger)


def full_gradient(
    problem: CompositionProblem, x: np.ndarray, ledger: QueryLedger
) -> np.ndarray:
    """Exact composite gradient (dG(x))^T grad F(G(x)).  Costs 2m+n queries."""
    value = inner_full(problem, x, ledger)
    jac = mean_jacobian(problem, x, ledger)
    return jac.rmatvec(outer_gradient_full(problem, value, ledger))


def objective(
    problem: CompositionProblem, x: np.ndarray, ledger: QueryLedger
) -> float:
    """Exact objective value f(x).  Costs m+n queries."""
    value = inner_full(problem, x, ledger)
    # a 1-D reduce would sum pairwise: the values are added in a loop
    acc = None
    for block in _index_blocks(problem, problem.n_outer):
        for out in query_outer_values(problem, block, value, ledger).tolist():
            acc = out if acc is None else acc + out
    return acc / problem.n_outer


_MASK64 = (1 << 64) - 1


class SampleStream:
    """Deterministic pseudo-random index source.

    Implements the splitmix64 recurrence: starting from the 64-bit seed
    state ``s``, each draw performs

        s  = (s + 0x9E3779B97F4A7C15) mod 2^64
        z  = s
        z ^= z >> 30;  z = (z * 0xBF58476D1CE4E5B9) mod 2^64
        z ^= z >> 27;  z = (z * 0x94D049BB133111EB) mod 2^64
        z ^= z >> 31

    and returns z.  Bounded draws use rejection below the largest
    multiple of the range (``z % k`` after rejecting ``z >= 2^64 - 2^64
    % k``), so indices are exactly uniform.  Identical seed and call
    sequence reproduce identical output on every platform.  A stream is
    single-consumer; share one per worker.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, k: int) -> int:
        """Uniform integer in 0..k-1 (rejection sampling, no modulo bias)."""
        if k < 1:
            raise ValueError("range must be at least 1")
        if k > 1 << 64:
            # no 64-bit draw could be accepted: the limit below would be 0
            raise ValueError("range must be at most 2^64")
        limit = (1 << 64) - ((1 << 64) % k)
        while True:
            z = self.next_u64()
            if z < limit:
                return z % k

    def indices(self, range_max: int, draws: int) -> list[int]:
        """``draws`` indices, each uniform on 1..range_max, with replacement."""
        return [self.randrange(range_max) + 1 for _ in range(draws)]

    def uniform(self) -> float:
        """Uniform float in [0, 1) using the top 53 bits of one draw."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def gauss(self) -> float:
        """Standard normal via Box-Muller on two uniform draws."""
        u1 = self.uniform()
        while u1 <= 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        return float(np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))

    def normal_vector(self, size: int, scale: float = 1.0) -> np.ndarray:
        return np.array([self.gauss() for _ in range(size)]) * scale


def sample_indices(stream: SampleStream, range_max: int, draws: int) -> list[int]:
    """Multiset of ``draws`` indices uniform on 1..range_max, with replacement.

    Draws are independent; repeats are expected and kept.
    """
    if range_max < 1:
        raise ValueError("range_max must be at least 1")
    if draws < 1:
        raise ValueError("draws must be at least 1")
    return stream.indices(range_max, draws)


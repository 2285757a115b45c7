"""Concrete composition problems: analytically tractable synthetics and
the stochastic neighbor-embedding objective, plus data ingestion and
preprocessing (CSV matrices, column normalization, PCA).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from scvr.core import FULL_BLOCK_BYTES, CompositionProblem, SmoothnessConstants, sum_rows


class MatrixParseError(ValueError):
    """CSV matrix file violates the expected format."""


class ProblemConstructionError(ValueError):
    """Inputs cannot form a valid problem instance."""


# ---------------------------------------------------------------------------
# Synthetic fixtures with exactly computable constants
# ---------------------------------------------------------------------------


def _max_spectral_norm(mats: np.ndarray) -> float:
    """max_j ||A_j||_2 over a stack of matrices, exact (one batched call)."""
    return float(np.linalg.norm(mats, 2, axis=(1, 2)).max())


class _AffineInnerProblem(CompositionProblem):
    """Affine inner map G_j(x) = A_j x + b_j over the stacks ``mats``
    (m, M, N) and ``offs`` (m, M), with outer targets ``targets`` (n, M).
    The base owns the constructor, which checks those shapes, and the
    inner batch kernels.  Each subclass keeps its own four per-component
    methods: they are its reference, and the traced benchmark spans them
    in the subclass's own ``__dict__``.
    """

    def __init__(self, mats: np.ndarray, offs: np.ndarray, targets: np.ndarray):
        mats = np.asarray(mats, dtype=float)
        offs = np.asarray(offs, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if mats.ndim != 3 or offs.ndim != 2 or targets.ndim != 2:
            raise ProblemConstructionError("mats must be (m,M,N); offs (m,M); targets (n,M)")
        if mats.shape[:2] != offs.shape or mats.shape[1] != targets.shape[1]:
            raise ProblemConstructionError("inconsistent component shapes")
        self.mats = mats
        self.offs = offs
        self.targets = targets
        self.m_inner, self.dim_w, self.dim_x = mats.shape
        self.n_outer = targets.shape[0]

    def inner_values(self, js, x):
        idx = _row_index(js, self.m_inner)
        return _rows(self.mats, idx) @ x + _rows(self.offs, idx)

    def inner_vjps(self, js, x, v):
        return _rows(self.mats, _row_index(js, self.m_inner)).transpose(0, 2, 1) @ v

    def compact_jacobians(self, js, x):
        return _rows(self.mats, _row_index(js, self.m_inner)).copy()


def _row_index(ks, count: int) -> slice | list[int]:
    """The rows k - 1 for k in ``ks`` of ``count``: a slice for a step-1
    ``range`` inside 1..count, as full evaluations pass, else a list."""
    if type(ks) is range and ks.step == 1 and 1 <= ks.start <= ks.stop <= count + 1:
        return slice(ks.start - 1, ks.stop - 1)
    return [k - 1 for k in ks]


def _rows(arr: np.ndarray, idx) -> np.ndarray:
    """arr's rows ``idx`` (a :func:`_row_index`), stacked: a slice is a view
    of ``arr`` that the caller must not write into; ``take`` copies."""
    return arr[idx] if type(idx) is slice else arr.take(idx, axis=0)


class AffineQuadraticProblem(_AffineInnerProblem):
    """Affine inner map with quadratic outer components.

        G_j(x) = A_j x + b_j            F_i(w) = 0.5 * ||w - c_i||^2

    The composite objective is an exact quadratic,

        f(x) = 0.5 * ||Abar x + bbar - cbar||^2 + const,

    with bar quantities the component means, so both the objective and
    its gradient Abar^T (Abar x + bbar - cbar) have closed forms, the
    oracles of :mod:`scvr.verification`.  Constants: the Jacobian bound
    is max_j ||A_j||_2, the Jacobians are constant (Lipschitz constant 0),
    and each grad F_i is 1-Lipschitz.  The outer gradients are not
    globally bounded; the declared bound is a nominal placeholder used
    only by parameter suggestion.
    """

    def _estimate_constants(self) -> SmoothnessConstants:
        b_g = _max_spectral_norm(self.mats)
        return SmoothnessConstants(b_g=b_g, l_g=0.0, b_f=1.0, l_f_outer=1.0, l_f=b_g * b_g)

    def inner_component(self, j, x):
        return self.mats[j - 1] @ x + self.offs[j - 1]

    def inner_component_jacobian(self, j, x):
        return self.mats[j - 1].copy()

    def outer_component(self, i, w):
        r = w - self.targets[i - 1]
        return 0.5 * float(r @ r)

    def outer_component_gradient(self, i, w):
        return w - self.targets[i - 1]


def make_affine_quadratic(
    n: int, m: int, dim_x: int, dim_w: int, seed: int = 0, spread: float = 1.0
) -> AffineQuadraticProblem:
    """Random affine-quadratic instance with a well-conditioned mean map."""
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(m, dim_w, dim_x))
    # lift the mean map's smallest singular value so the minimizer is stable
    mats[0] += np.eye(dim_w, dim_x) * (2.0 * m)
    offs = rng.normal(size=(m, dim_w)) * spread
    targets = rng.normal(size=(n, dim_w)) * spread
    return AffineQuadraticProblem(mats, offs, targets)


def make_balanced_affine(
    m_pairs: int, dim_x: int, dim_w: int, n: int = 3, seed: int = 0
) -> AffineQuadraticProblem:
    """Affine fixture whose component matrices sum to zero.

    Components come in (+A, -A) pairs of differing scale, so the mean
    map is identically zero and single-draw deviations G_j(x) - G_j(y)
    average out exactly.  This is the fixture on which the second-moment
    bound  E||Ghat - G(xt)||^2 <= (B_G^2 / A) ||x - xt||^2  holds with
    strict inequality for every sample count: the mean-difference term
    vanishes, leaving (1/A) * mean_j ||A_j d||^2 < (B_G^2 / A) ||d||^2.
    """
    rng = np.random.default_rng(seed)
    halves = [rng.normal(size=(dim_w, dim_x)) * (0.4 + 1.2 * t) for t in range(m_pairs)]
    mats = []
    for h in halves:
        mats.append(h)
        mats.append(-h)
    offs = rng.normal(size=(2 * m_pairs, dim_w))
    targets = rng.normal(size=(n, dim_w))
    return AffineQuadraticProblem(np.stack(mats), offs, targets)


def _rho(t: np.ndarray) -> np.ndarray:
    t2 = t * t
    return t2 / (1.0 + t2)


def _rho_prime(t: np.ndarray) -> np.ndarray:
    """2t / (1 + t^2)^2 with in-place temporaries; bitwise equal to that
    expression because IEEE addition and multiplication commute."""
    d = t * t
    d += 1.0
    d *= d
    t = 2.0 * t
    t /= d
    return t


class NonconvexSyntheticProblem(_AffineInnerProblem):
    """Affine inner map composed with a smooth bounded nonconvex outer.

        G_j(x) = A_j x + b_j
        F_i(w) = sum_l rho(w_l - c_{i,l}),   rho(t) = t^2 / (1 + t^2)

    rho is smooth and nonconvex with |rho'| <= 3*sqrt(3)/8 and
    |rho''| <= 2, giving exactly computable gradient-bound and
    smoothness constants while the landscape keeps genuine non-convex
    structure.  Serves as the benchmark problem for convergence-trend
    comparisons.
    """

    RHO_PRIME_MAX = 3.0 * math.sqrt(3.0) / 8.0
    RHO_SECOND_MAX = 2.0

    def _estimate_constants(self) -> SmoothnessConstants:
        b_g = _max_spectral_norm(self.mats)
        return SmoothnessConstants(
            b_g=b_g,
            l_g=0.0,
            b_f=self.RHO_PRIME_MAX * math.sqrt(self.dim_w),
            l_f_outer=self.RHO_SECOND_MAX,
            l_f=self.RHO_SECOND_MAX * b_g * b_g,
        )

    def inner_component(self, j, x):
        return self.mats[j - 1] @ x + self.offs[j - 1]

    def inner_component_jacobian(self, j, x):
        return self.mats[j - 1].copy()

    def outer_component(self, i, w):
        return float(_rho(w - self.targets[i - 1]).sum())

    def outer_component_gradient(self, i, w):
        return _rho_prime(w - self.targets[i - 1])

    def outer_values(self, is_, w):
        return _rho(w - _rows(self.targets, _row_index(is_, self.n_outer))).sum(axis=1)

    def outer_gradients(self, is_, w):
        return _rho_prime(w - _rows(self.targets, _row_index(is_, self.n_outer)))


def make_nonconvex_synthetic(
    n: int, m: int, dim_x: int, dim_w: int, seed: int = 0
) -> NonconvexSyntheticProblem:
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(m, dim_w, dim_x)) / math.sqrt(dim_x)
    offs = rng.normal(size=(m, dim_w)) * 0.5
    # targets clustered near the reachable mean so gradients can vanish
    targets = rng.normal(size=(n, dim_w)) * 0.5 + offs.mean(axis=0)
    return NonconvexSyntheticProblem(mats, offs, targets)


class CurvedInnerProblem(CompositionProblem):
    """Inner components with one quadratic coordinate each.

        G_j(x) = A_j x + 0.5 * q_j * ||x||^2 * e_r
        F_i(w) = 0.5 * ||w - c_i||^2

    The Jacobian is A_j + q_j e_r x^T, so Jacobian differences are the
    rank-one matrices q_j e_r (x - y)^T with Frobenius (= spectral) norm
    |q_j| * ||x - y||: the Jacobian-Lipschitz constant is exactly
    max_j |q_j|.  With the q_j summing to zero the mean Jacobian
    difference vanishes, which makes the (1/B)-scaled second-moment
    bound hold strictly; with curvature present the composite-gradient
    estimator is visibly biased, which the oracle tests exploit.
    """

    def __init__(self, mats: np.ndarray, quads: np.ndarray, row: int, targets: np.ndarray):
        self.mats = np.asarray(mats, dtype=float)
        self.quads = np.asarray(quads, dtype=float)
        self.row = int(row)
        self.targets = np.asarray(targets, dtype=float)
        self.m_inner, self.dim_w, self.dim_x = self.mats.shape
        self.n_outer = self.targets.shape[0]

    def _estimate_constants(self) -> SmoothnessConstants:
        l_g = float(np.abs(self.quads).max())
        # Jacobian norm grows with ||x||; declared bound is nominal at radius 2
        b_g = _max_spectral_norm(self.mats) + 2.0 * l_g
        return SmoothnessConstants(b_g=b_g, l_g=l_g, b_f=1.0, l_f_outer=1.0, l_f=b_g * b_g)

    def inner_component(self, j, x):
        out = self.mats[j - 1] @ x
        out[self.row] += 0.5 * self.quads[j - 1] * float(x @ x)
        return out

    def inner_component_jacobian(self, j, x):
        jac = self.mats[j - 1].copy()
        jac[self.row] += self.quads[j - 1] * x
        return jac

    def outer_component(self, i, w):
        r = w - self.targets[i - 1]
        return 0.5 * float(r @ r)

    def outer_component_gradient(self, i, w):
        return w - self.targets[i - 1]


def make_curved_inner(
    dim_x: int = 3, dim_w: int = 3, n: int = 3, seed: int = 0, scale: float = 1.0
) -> CurvedInnerProblem:
    """Four-component curved fixture with q = scale * (1, -1, 2, -2)."""
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(4, dim_w, dim_x))
    quads = np.array([1.0, -1.0, 2.0, -2.0]) * scale
    targets = rng.normal(size=(n, dim_w))
    return CurvedInnerProblem(mats, quads, row=0, targets=targets)


# ---------------------------------------------------------------------------
# Neighbor embedding
# ---------------------------------------------------------------------------


class SneProblem(CompositionProblem):
    """Neighbor-embedding objective as a two-level composition.

    Data-side similarities are fixed row-conditional probabilities
    p[t, i] (zero diagonal, each row summing to 1).  The decision
    variable stacks n embedding points of dimension ``embed_dim``
    (N = n * embed_dim); the inner map appends the n kernel normalizer
    sums, so M = N + n:

        G_j(x) = [ x,  n*k(x_1, x_j) - 1, ...,  n*k(x_n, x_j) - 1 ]
        (1/n) sum_j G_j(x) = [ x,  s_1, ..., s_n ],
        s_t = sum_{j != t} k(x_t, x_j),        k(a, b) = exp(-||a - b||^2)

    (the -1 terms cancel the j = t self-similarity k = 1 in the mean).
    The outer components weight squared embedding distances against the
    log normalizers:

        F_i(w) = n * sum_t p[t, i] * ( ||w_t - w_i||^2 + log w_{N+t} ).

    Variance-reduced inner estimates can push a normalizer coordinate
    non-positive; outer evaluations clamp the log argument at
    ``log_floor`` and count the event in ``clamp_events``.

    The Jacobian of G_j has the identity as its top block, and its tail
    row t holds g[t, j] at point t and -g[t, j] at point j, with
    g[t, j] = -2n k(x_t, x_j) (x_t - x_j) (zero for t = j).  The compact
    part of dG_j is the (d, n) array g[:, j]^T, and the mean Jacobian is
    the operator :class:`SneMeanJacobian` built from the stack of the n
    parts, so full evaluations form no (N + n, N) array.

    The batch forms evaluate one (b, n, d) block of point differences
    per call.  Their sums over the d coordinates add the columns in
    order, which is what NumPy's reduce over a last axis of fewer than 8
    entries does, without its one inner-loop call per point; at d >= 8
    that reduce sums pairwise, and they call it.  So every batch equals
    the stacked per-component outputs bit for bit, at every d.

    The problem declares no smoothness constants.
    """

    LOG_FLOOR = 1e-12

    def __init__(self, p_matrix: np.ndarray, embed_dim: int, sigma):
        p = np.asarray(p_matrix, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ProblemConstructionError("p_matrix must be square")
        n = p.shape[0]
        if n < 2:
            raise ProblemConstructionError("need at least two points")
        if int(embed_dim) < 1:
            raise ProblemConstructionError("embed_dim must be at least 1")
        if n * int(embed_dim) > np.iinfo(np.intp).max:
            # the iterate's n * embed_dim coordinates must fit one NumPy array
            raise ProblemConstructionError(f"embed_dim {embed_dim} is too large for {n} points")
        if not np.all(np.isfinite(p)):
            raise ProblemConstructionError("similarities must be finite")
        if np.any(p < 0.0):
            raise ProblemConstructionError("similarities must be non-negative")
        if np.any(np.abs(np.diagonal(p)) > 1e-15):
            raise ProblemConstructionError("self-similarities must be zero")
        row_err = np.abs(p.sum(axis=1) - 1.0)
        if np.any(row_err > 1e-9):
            t = int(np.argmax(row_err))
            raise ProblemConstructionError(f"similarity row {t} does not sum to 1")
        self.p_matrix = p
        self.embed_dim = int(embed_dim)
        self.sigma = sigma
        self.n_points = n
        self.n_outer = n
        self.m_inner = n
        self.dim_x = n * self.embed_dim
        self.dim_w = self.dim_x + n
        self.clamp_events = 0

    def _points(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x)[: self.dim_x].reshape(self.n_points, self.embed_dim)

    @staticmethod
    def _differences(pts: np.ndarray, idx, out: np.ndarray | None = None) -> np.ndarray:
        """pts - pts[j] for each j in ``idx``: a (len(idx), n, d) block."""
        if out is None:
            out = np.empty((len(idx),) + pts.shape)
        for k in range(pts.shape[1]):
            np.subtract(pts[:, k], pts[idx, k][:, None], out=out[:, :, k])
        return out

    def inner_component(self, j, x):
        out = np.empty(self.dim_w)
        out[: self.dim_x] = x
        pts = self._points(x)
        sq = pts - pts[j - 1]
        sq *= sq
        tail = out[self.dim_x :]
        np.add.reduce(sq, axis=1, out=tail)
        np.negative(tail, out=tail)
        np.exp(tail, out=tail)
        tail *= self.n_points
        tail -= 1.0
        return out

    def inner_component_jacobian(self, j, x):
        n, d = self.n_points, self.embed_dim
        pts = self._points(x)
        jac = np.zeros((self.dim_w, self.dim_x))
        jac[: self.dim_x] = np.eye(self.dim_x)
        diff = pts - pts[j - 1]
        kern = np.exp(-(diff * diff).sum(axis=1))
        grad = (-2.0 * n) * kern[:, None] * diff  # d(n*kern_t)/d x_t
        grad[j - 1] = 0.0  # the self-similarity row is constant
        rows = self.dim_x + np.arange(n)[:, None]
        block_cols = np.arange(n)[:, None] * d + np.arange(d)[None, :]
        jac[rows, block_cols] = grad
        jac[rows, block_cols[j - 1][None, :]] = -grad
        return jac

    def compact_jacobian(self, j, x):
        """g[:, j]^T, the (d, n) array whose column t is the derivative of
        n k(x_t, x_j) in x_t; column j is zero.  The squared distances
        add the d coordinate rows in order (the rows of a C-ordered array:
        on the transposed view NumPy would sum them pairwise from d = 8)."""
        pts = self._points(x).T.copy()
        diff = pts - pts[:, j - 1 : j]
        kern = np.exp(-np.add.reduce(diff * diff, axis=0))
        diff *= (-2.0 * self.n_points) * kern
        return diff

    def compact_jacobians(self, js, x):
        pts = self._points(x).T
        idx = np.asarray(js) - 1
        out = np.empty((len(idx), self.embed_dim, self.n_points))
        # bound the temporaries: the stack itself is the snapshot's operator
        rows = max(1, FULL_BLOCK_BYTES // out[0].nbytes)
        for start in range(0, len(idx), rows):
            block = out[start : start + rows]
            np.subtract(pts, pts.T[idx[start : start + rows], :, None], out=block)
            kern = np.add.reduce(block * block, axis=1)
            np.negative(kern, out=kern)
            np.exp(kern, out=kern)
            kern *= -2.0 * self.n_points
            block *= kern[:, None, :]
        return out

    def assemble_mean_jacobian(self, parts):
        """The operator from the (n, d, n) stack of compact parts, whose
        rows are the operator's slices as they lie."""
        n, d = self.n_points, self.embed_dim
        row_sums = np.ascontiguousarray(sum_rows(parts).T)
        return SneMeanJacobian(parts.reshape(n * d, n), row_sums)

    def inner_component_vjp(self, j, x, v):
        """dG_j(x)^T v in O(N) without forming the Jacobian: the identity
        top block passes v's first N entries through, and tail row t adds
        v_{N+t} times its two nonzero blocks, g_t at point t and -g_t at
        point j (g_t = -2n k_t (x_t - x_j), zero for t = j)."""
        d = self.embed_dim
        v = np.asarray(v)
        pts = self._points(x)
        diff = pts - pts[j - 1]
        coef = np.exp(-np.add.reduce(diff * diff, axis=1))
        coef *= v[self.dim_x :]
        coef *= -2.0 * self.n_points
        diff *= coef[:, None]  # row j - 1 of diff is zero
        out = diff.ravel() + v[: self.dim_x]
        out[(j - 1) * d : j * d] -= np.add.reduce(diff, axis=0)
        return out

    def inner_values(self, js, x):
        idx = np.asarray(js) - 1
        out = np.empty((len(idx), self.dim_w))
        out[:, : self.dim_x] = x
        sq = self._differences(self._points(x), idx)
        sq *= sq
        tail = _coordinate_sums(sq, out=out[:, self.dim_x :])
        np.negative(tail, out=tail)
        np.exp(tail, out=tail)
        tail *= self.n_points
        tail -= 1.0
        return out

    def inner_vjps(self, js, x, v):
        n, d = self.n_points, self.embed_dim
        idx = np.asarray(js) - 1
        v = np.asarray(v)
        diff = self._differences(self._points(x), idx)
        coef = _coordinate_sums(diff * diff)
        np.negative(coef, out=coef)
        np.exp(coef, out=coef)
        coef *= v[self.dim_x :]
        coef *= -2.0 * n
        _scale_points(diff, coef)
        out = diff.reshape(len(idx), self.dim_x) + v[: self.dim_x]
        out.reshape(len(idx), n, d)[np.arange(len(idx)), idx] -= _point_sums(diff)
        return out

    def _clamped_normalizers(self, w: np.ndarray, calls: int = 1) -> np.ndarray:
        """The normalizer coordinates of w clamped at the log floor, adding
        the clamped entries to ``clamp_events`` once for each of the
        ``calls`` component evaluations that use them."""
        s = np.asarray(w)[self.dim_x :]
        # fmin skips NaN, so this one-pass test fires exactly when some
        # entry is below the floor
        if np.fmin.reduce(s) < self.LOG_FLOOR:
            low = s < self.LOG_FLOOR
            self.clamp_events += calls * int(low.sum())
            return np.maximum(s, self.LOG_FLOOR)
        return s

    def outer_component(self, i, w):
        pts = np.asarray(w)[: self.dim_x].reshape(self.n_points, self.embed_dim)
        s = self._clamped_normalizers(w)
        weights = self.p_matrix[:, i - 1]
        diff = pts - pts[i - 1]
        sq = (diff * diff).sum(axis=1)
        return self.n_points * float(weights @ (sq + np.log(s)))

    def outer_component_gradient(self, i, w):
        n, d = self.n_points, self.embed_dim
        pts = np.asarray(w)[: self.dim_x].reshape(n, d)
        s = self._clamped_normalizers(w)
        weights = self.p_matrix[:, i - 1]
        out = np.empty(self.dim_w)
        gblocks = out[: self.dim_x].reshape(n, d)
        np.subtract(pts, pts[i - 1], out=gblocks)
        gblocks *= ((2.0 * n) * weights)[:, None]
        gblocks[i - 1] -= np.add.reduce(gblocks, axis=0)
        np.divide(n * weights, s, out=out[self.dim_x :])
        return out

    def outer_values(self, is_, w):
        idx = np.asarray(is_) - 1
        log_s = np.log(self._clamped_normalizers(w, len(idx)))
        sq = self._differences(self._points(w), idx)
        sq *= sq
        terms = _coordinate_sums(sq)
        terms += log_s
        # one dot per row, on the same strided weight column as per component
        return np.array(
            [self.n_points * float(self.p_matrix[:, i] @ row) for i, row in zip(idx, terms)]
        )

    def outer_gradients(self, is_, w):
        n, d = self.n_points, self.embed_dim
        idx = np.asarray(is_) - 1
        s = self._clamped_normalizers(w, len(idx))
        weights = self.p_matrix[:, idx].T
        out = np.empty((len(idx), self.dim_w))
        gblocks = self._differences(
            self._points(w), idx, out=out[:, : self.dim_x].reshape(len(idx), n, d)
        )
        _scale_points(gblocks, (2.0 * n) * weights)
        gblocks[np.arange(len(idx)), idx] -= _point_sums(gblocks)
        np.divide(n * weights, s, out=out[:, self.dim_x :])
        return out

    def to_json(self) -> str:
        sigma = self.sigma
        if isinstance(sigma, np.ndarray):
            sigma = sigma.tolist()
        return json.dumps(
            {
                "n": self.n_points,
                "embed_dim": self.embed_dim,
                "sigma": sigma,
                "p_matrix": self.p_matrix.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "SneProblem":
        """Inverse of :meth:`to_json`.  Malformed input raises
        :class:`ProblemConstructionError` naming the field at fault."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProblemConstructionError(f"problem JSON does not parse: {exc}") from exc
        if not isinstance(obj, dict):
            raise ProblemConstructionError("problem JSON must be an object")
        for name in ("n", "embed_dim", "sigma", "p_matrix"):
            if name not in obj:
                raise ProblemConstructionError(f"problem JSON: missing field {name!r}")

        def numeric(value):
            return isinstance(value, (int, float)) and not isinstance(value, bool)

        for name in ("n", "embed_dim"):
            value = obj[name]
            if not (numeric(value) and float(value).is_integer()):
                raise ProblemConstructionError(
                    f"problem JSON: field {name!r} must be an integer, got {value!r}"
                )

        def array(name):
            try:
                return np.asarray(obj[name], dtype=float)
            except (TypeError, ValueError) as exc:
                raise ProblemConstructionError(
                    f"problem JSON: field {name!r} is not numeric"
                ) from exc

        n = int(obj["n"])
        p = array("p_matrix")
        sigma = obj["sigma"]
        if isinstance(sigma, list):
            sig = sigma = array("sigma")
            valid = all(map(numeric, obj["sigma"])) and sig.shape == (n,)
        else:
            valid = numeric(sigma)
            sig = np.asarray(sigma if valid else np.nan, dtype=float)
        if not (valid and np.all(np.isfinite(sig) & (sig > 0.0))):
            raise ProblemConstructionError(
                "problem JSON: field 'sigma' must be finite and positive "
                f"(a number or a list of n = {n} numbers)"
            )
        if p.shape != (n, n):
            raise ProblemConstructionError(
                f"problem JSON: field 'p_matrix' has shape {p.shape}, n = {n} needs ({n}, {n})"
            )
        return cls(p, int(obj["embed_dim"]), sigma)


def _coordinate_sums(block: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.add.reduce(block, axis=-1, out=out)`` bit for bit.  Below 8
    entries that reduce adds them in index order to 0.0, as the column
    adds here do without one inner-loop call per row; from 8 on it sums
    pairwise and runs as it is."""
    if block.shape[-1] >= 8:
        return np.add.reduce(block, axis=-1, out=out)
    out = np.add(0.0, block[..., 0], out=out)
    for k in range(1, block.shape[-1]):
        out += block[..., k]
    return out


def _scale_points(block: np.ndarray, factors: np.ndarray) -> None:
    """block[b, t, :] *= factors[b, t] for a (b, n, d) block."""
    for k in range(block.shape[2]):
        block[:, :, k] *= factors


def _point_sums(block: np.ndarray) -> np.ndarray:
    """``np.add.reduce(block[k], axis=0)`` for each k of a (b, n, d) block,
    bit for bit.  For d >= 2 that reduce adds the n points in order to
    0.0; accumulating along axis 1 adds them in order in n-long inner
    loops instead of n loops of length d, and adding the result to 0.0
    turns a -0.0 into the reduce's +0.0.  For d = 1 it is a 1-D reduce,
    which sums pairwise, as the batched reduce does too."""
    if block.shape[2] == 1:
        return np.add.reduce(block, axis=1)
    return 0.0 + np.add.accumulate(block, axis=1)[:, -1]


class SneMeanJacobian:
    """The mean SNE Jacobian (1/n) sum_j dG_j(x) as a
    :class:`~scvr.core.MeanJacobian`.

    ``slices`` is the (n d, n) array whose row block j holds g[:, j]
    transposed (``slices[j d + k, t] = g[t, j, k]``) and ``row_sums`` the
    (n, d) array sum_j g[t, j].  Tail row t of the mean holds
    row_sums[t] / n at point t and -g[t, b] / n at each point b != t, so

        dG(x)^T v = v_x + (row_sums * v_s[:, None] - slices @ v_s) / n

    for v = [v_x, v_s]: one matrix-vector product.
    """

    def __init__(self, slices: np.ndarray, row_sums: np.ndarray):
        self.slices = slices
        self.row_sums = row_sums

    def rmatvec(self, v):
        n = self.row_sums.shape[0]
        dim_x = self.row_sums.size
        tail = v[dim_x:]
        out = (self.row_sums * tail[:, None]).ravel()
        out -= self.slices @ tail
        out /= n
        out += v[:dim_x]
        return out


# Byte size of the (rows, n, D) difference block ``build_sne`` forms at
# once: rows of similarities are computed a block at a time, vectorised
# within the block, so set-up memory stays O(n^2) instead of O(n^2 D).
SIMILARITY_BLOCK_BYTES = 1 << 21


def build_sne(data, sigma, embed_dim: int = 2) -> SneProblem:
    """Construct the embedding problem from high-dimensional data rows.

    Row-conditional similarities use the Gaussian kernel with per-row
    bandwidth: p[t, i] proportional to exp(-||z_t - z_i||^2 / (2
    sigma_t^2)) for i != t, normalized over i.  ``sigma`` is a positive
    scalar (shared bandwidth) or a length-n vector.  Bandwidth
    calibration (e.g. to a target perplexity) is up to the caller.
    """
    values = data.values if isinstance(data, Dataset) else np.asarray(data, dtype=float)
    if values.ndim != 2 or values.shape[0] < 2:
        raise ProblemConstructionError("need a 2-D array with at least two rows")
    if not np.all(np.isfinite(values)):
        raise ProblemConstructionError("data contains non-finite entries")
    n = values.shape[0]
    sig = np.asarray(sigma, dtype=float)
    if sig.ndim == 0:
        sig = np.full(n, float(sig))
    if sig.shape != (n,) or not np.all(np.isfinite(sig) & (sig > 0.0)):
        raise ProblemConstructionError("sigma must be finite and positive (scalar or length-n)")
    scale = np.array([2.0 * s**2 for s in sig])  # the per-row expression, bit for bit
    rows = max(1, SIMILARITY_BLOCK_BYTES // (n * max(values.shape[1], 1) * 8))
    p = np.empty((n, n))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        own = np.arange(stop - start), np.arange(start, stop)  # (row, own column)
        # inf distances and all-(-inf) rows fall to the degeneracy check
        with np.errstate(over="ignore", invalid="ignore"):
            sq = ((values[start:stop, None, :] - values[None, :, :]) ** 2).sum(axis=2)
            logits = -sq / scale[start:stop, None]
            logits[own] = -np.inf
            logits -= logits.max(axis=1)[:, None]
            block = np.exp(logits, out=logits)
            block[own] = 0.0
            denom = block.sum(axis=1)
        bad = ~(np.isfinite(denom) & (denom > 0.0))
        if bad.any():
            t = start + int(np.argmax(bad))
            raise ProblemConstructionError(f"similarity row {t} degenerates to zero")
        np.divide(block, denom[:, None], out=p[start:stop])
    return SneProblem(p, embed_dim, sigma)


# ---------------------------------------------------------------------------
# Data ingestion and preprocessing
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    """Dense real matrix: one sample per row."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise MatrixParseError("dataset must be two-dimensional")
        if not np.all(np.isfinite(self.values)):
            raise MatrixParseError("dataset contains non-finite entries")

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


def load_matrix(path) -> Dataset:
    """Read a dense CSV matrix (UTF-8, comma-separated decimal floats).

    An optional first line starting with '#' is skipped.  Ragged rows and
    unparseable cells raise :class:`MatrixParseError` naming the location.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            records = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"{path}: not UTF-8 text ({exc})") from exc
    rows: list[list[float]] = []
    width = None
    for lineno, record in enumerate(records, start=1):
        if lineno == 1 and record and record[0].lstrip().startswith("#"):
            continue
        if not record:
            continue
        if width is None:
            width = len(record)
        elif len(record) != width:
            raise MatrixParseError(
                f"row {lineno}: expected {width} columns, found {len(record)}"
            )
        parsed = []
        for col, cell in enumerate(record, start=1):
            try:
                parsed.append(float(cell))
            except ValueError as exc:
                raise MatrixParseError(
                    f"row {lineno}, column {col}: cannot parse {cell!r}"
                ) from exc
        rows.append(parsed)
    if not rows:
        raise MatrixParseError(f"{path}: no data rows")
    return Dataset(np.asarray(rows))


def save_matrix(data: Dataset, path) -> None:
    """Write a dataset as CSV with shortest round-trippable float text."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for row in data.values:
            writer.writerow([repr(float(v)) for v in row])


def normalize(data: Dataset) -> Dataset:
    """Shift each column to zero mean and unit standard deviation.

    Zero-variance columns are mean-shifted but left unscaled.
    """
    if data.rows < 2:
        raise ValueError("normalization needs at least two rows")
    values = data.values
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    scale = np.where(std > 0.0, std, 1.0)
    return Dataset((values - mean) / scale)


def pca_reduce(data: Dataset, k: int) -> Dataset:
    """Project centered data onto its top-k principal directions.

    The sign of each direction is fixed by making its largest-magnitude
    loading positive, so the projection is deterministic.
    """
    if not 1 <= k <= min(data.rows - 1, data.cols):
        raise ValueError(f"k={k} outside 1..min(rows-1, cols)")
    centered = data.values - data.values.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    directions = vt[:k]
    for r in range(k):
        lead = directions[r, np.argmax(np.abs(directions[r]))]
        if lead < 0.0:
            directions[r] = -directions[r]
    return Dataset(centered @ directions.T)


def make_cluster_data(
    n_points: int, clusters: int = 3, dim: int = 12, seed: int = 0, spread: float = 0.15
) -> tuple[Dataset, np.ndarray]:
    """Synthetic Gaussian clusters; returns the dataset and integer labels."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(clusters, dim)) * 2.0
    labels = np.arange(n_points) % clusters
    points = centers[labels] + rng.normal(size=(n_points, dim)) * spread
    return Dataset(points), labels

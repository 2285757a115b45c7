"""Convergence-theory diagnostics: the per-step potential recursions
behind each variant's rate guarantee, closed-form evaluation of their
initial coefficient, parameter suggestions, and query-complexity
exponents by regime.

Each variant's analysis runs a backward recursion from c_K = 0,

    c_k = Y * c_{k+1} + U,

whose ratio Y > 1 and offset U > 0 collect the variant's second-moment
coefficients.  Because the recursion is affine, c_0 also has the
geometric closed form U * (Y^K - 1) / (Y - 1); computing it both ways
is a cheap self-check.  The per-step weights

    u_k = (1/2 - c_{k+1} h) * eta - (2 L_f + 4 c_{k+1}) * eta^2

must all be positive (and c_0 h < 1/2) for the rate guarantee to apply;
diagnostics report min and max, and premise checks use the min.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from scvr.core import SmoothnessConstants

_E = math.e


@dataclass
class TheoryParams:
    """Suggested run parameters plus the exponents that generated them.

    alpha is the rate exponent (sample sizes and step size scale with
    n^alpha); a0 / b0_jac / h0 / d0 are the exponents behind the sample
    counts and the h, d auxiliary weights.
    """

    alpha: float
    a0: float
    b0_jac: float
    h0: float
    d0: float
    h: float
    d: float
    eta: float
    cap_k: int
    sample_a: int
    sample_b: int
    batch_b: int


@dataclass
class RecursionDiagnostics:
    """Numerical trace of one potential recursion.

    c_sequence[k] holds c_k for k = 0..K (c_K = 0; decreasing in k);
    u_sequence[k] holds u_k for k = 0..K-1.  c0_closed is the geometric
    closed form for c_0; c0h the premise product c_0 * h.  premise_ok
    flags u_min > 0 and c0h < 1/2 (a flag, not an exception: failing
    parameters are a legitimate query, just outside the guarantee).
    """

    c_sequence: np.ndarray
    u_sequence: np.ndarray
    u_min: float
    u_max: float
    c0_closed: float
    c0h: float
    premise_ok: bool


def _second_moment_coef(
    constants: SmoothnessConstants, a: int, b_jac: int, b_out: int | None
) -> float:
    """Coefficient of eta^2 terms (variance pressure); b_out None: scvr1."""
    bg4lf2 = constants.b_g**4 * constants.l_f_outer**2
    if b_out is None:
        return 2.0 * constants.l_f**2 + bg4lf2 / a
    base = (
        bg4lf2 / a
        + constants.b_f**2 * constants.l_g**2 / b_jac
        + b_out * constants.l_f**2
    )
    return base / b_out


def _ratio_offset(
    params: TheoryParams, constants: SmoothnessConstants, b_out: int | None
) -> tuple[float, float]:
    bg4lf2 = constants.b_g**4 * constants.l_f_outer**2
    eta = params.eta
    coef = _second_moment_coef(constants, params.sample_a, params.sample_b, b_out)
    ratio = 1.0 + (1.0 / params.h + 1.0 / params.d + params.d * bg4lf2 / params.sample_a) * eta
    ratio += 4.0 * coef * eta * eta
    offset = bg4lf2 / (2.0 * params.sample_a) * eta + 2.0 * constants.l_f * coef * eta * eta
    return ratio, offset


def _diagnose(
    ratio: float,
    offset: float,
    params: TheoryParams,
    constants: SmoothnessConstants,
) -> RecursionDiagnostics:
    cap_k = params.cap_k
    c = np.zeros(cap_k + 1)
    for k in range(cap_k - 1, -1, -1):
        c[k] = ratio * c[k + 1] + offset
    eta = params.eta
    u = (0.5 - c[1 : cap_k + 1] * params.h) * eta - (
        2.0 * constants.l_f + 4.0 * c[1 : cap_k + 1]
    ) * eta * eta
    c0_closed = offset * (ratio**cap_k - 1.0) / (ratio - 1.0)
    c0h = c[0] * params.h
    u_min = float(u.min())
    return RecursionDiagnostics(
        c_sequence=c,
        u_sequence=u,
        u_min=u_min,
        u_max=float(u.max()),
        c0_closed=float(c0_closed),
        c0h=float(c0h),
        premise_ok=bool(u_min > 0.0 and c0h < 0.5),
    )


# The algorithms with a potential recursion here, in report order.
RECURSION_ALGORITHMS = ("scvr1", "scvr2", "minibatch")
_MINIBATCH = ("minibatch", "minibatch_v1", "minibatch_v2")


def _outer_batch(algorithm: str, b: int) -> int | None:
    """The outer batch of ``algorithm``'s recursion, None for scvr1's
    single pair: scvr2 is the mini-batch method at b = 1."""
    if algorithm == "scvr1":
        return None
    if algorithm == "scvr2":
        return 1
    if algorithm in _MINIBATCH:
        return b
    raise ValueError(f"unknown algorithm {algorithm!r}")


def recursion(
    algorithm: str, params: TheoryParams, constants: SmoothnessConstants
) -> RecursionDiagnostics:
    """Potential recursion of ``algorithm``: 'scvr1' (single-pair
    estimator), 'minibatch' (outer mini-batch of size params.batch_b,
    either anchoring variant) or 'scvr2' (the mini-batch recursion at
    b = 1, whatever params.batch_b says)."""
    ratio, offset = _ratio_offset(params, constants, _outer_batch(algorithm, params.batch_b))
    return _diagnose(ratio, offset, params, constants)


def rate_exponent(n: int, m: int, algorithm: str = "scvr") -> float:
    """The alpha exponent behind sample sizes and step length."""
    if n < 2:
        raise ValueError("n must be at least 2 so that the inner/outer size "
                         "ratio m0 = log(m)/log(n) is defined")
    if m < 1:
        raise ValueError("m must be at least 1")
    m0 = math.log(m) / math.log(n)
    if algorithm in ("scvr", "scvr1", "scvr2") + _MINIBATCH:
        return 0.4 if m0 <= 1.0 else 0.4 * m0
    if algorithm == "svrg":
        return max(0.0, 2.0 * (1.0 - m0) / 3.0) if m0 <= 1.0 else 0.0
    raise ValueError(f"unknown algorithm {algorithm!r}")


def suggest_parameters(
    n: int,
    m: int,
    constants: SmoothnessConstants,
    algorithm: str = "scvr1",
    b: int = 1,
) -> TheoryParams:
    """Sample sizes, auxiliary weights, step size and epoch length that
    satisfy the rate guarantee's premises.

    With m0 = log(m)/log(n), alpha is 2/5 for m0 <= 1 and 2*m0/5 above;
    sample counts are A = ceil(BG^4 LF^2 n^alpha / 2) and
    B = ceil(BF^2 LG^2 n^alpha) (the Jacobian batch matches A's
    exponent), h = n^(alpha/2)/(e-1), d = n^(alpha/2), and

        eta =     n^-alpha / (2 L_f (2 L_f^2 + BG^4 LF^2 / A))   (scvr1)
        eta =     n^-alpha / (2 L_f (BG^4 LF^2/A + BF^2 LG^2/B + L_f^2))
        eta = b * n^-alpha / (2 L_f (BG^4 LF^2/A + BF^2 LG^2/B + b L_f^2))

    The epoch length is the largest K keeping the geometric growth
    factor below e: K = floor(1 / (Y - 1)) with Y the recursion ratio
    at these parameters.  That K is of order n^(3 alpha / 2) (divided by
    b for mini-batch) with the smoothness constants folded in; the
    analysis' unspecified universal constants are taken as 1.
    """
    if b < 1:
        raise ValueError("b must be at least 1")
    alpha = rate_exponent(n, m, algorithm)
    bg4lf2 = constants.b_g**4 * constants.l_f_outer**2
    bf2lg2 = constants.b_f**2 * constants.l_g**2
    h0 = d0 = alpha / 2.0
    h = n**h0 / (_E - 1.0)
    d = float(n**d0)
    sample_a = max(1, math.ceil(bg4lf2 * n**alpha / 2.0))
    sample_b = max(1, math.ceil(bf2lg2 * n**alpha))
    lf = constants.l_f
    b_out = _outer_batch(algorithm, b)
    if b_out is None:
        eta = n ** (-alpha) / (2.0 * lf * (2.0 * lf**2 + bg4lf2 / sample_a))
    else:
        eta = (b_out * n ** (-alpha)) / (
            2.0 * lf * (bg4lf2 / sample_a + bf2lg2 / sample_b + b_out * lf**2)
        )
    params = TheoryParams(
        alpha=alpha, a0=alpha, b0_jac=alpha, h0=h0, d0=d0, h=h, d=d,
        eta=eta, cap_k=1, sample_a=sample_a, sample_b=sample_b, batch_b=b_out or 1,
    )
    ratio, _ = _ratio_offset(params, constants, b_out)
    params.cap_k = max(1, math.floor(1.0 / (ratio - 1.0)))
    return params


@dataclass
class QueryComplexityReport:
    """Query-count growth exponents (in n) to reach a fixed accuracy.

    Exponents are computed from the pre-ceiling real-valued parameter
    rules.  ``better`` names the method with the smaller exponent,
    composition estimation winning ties.
    """

    m0: float
    scvr_exponent: float
    scvr_alpha: float
    svrg_exponent: float
    svrg_alpha: float
    minibatch_parallel_outer_exponent: float | None
    minibatch_parallel_full_exponent: float | None
    minibatch_nonparallel_exponent: float | None
    better: str


def predict_query_complexity(n: int, m: int, b: int | None = None) -> QueryComplexityReport:
    """Exponent report for every analyzed regime at the given sizes."""
    if n < 2:
        raise ValueError("n must be at least 2 so that m0 is defined")
    if m < 1:
        raise ValueError("m must be at least 1")
    m0 = math.log(m) / math.log(n)
    scvr_alpha = rate_exponent(n, m, "scvr")
    svrg_alpha = rate_exponent(n, m, "svrg")
    scvr_exp = 0.8 if m0 <= 1.0 else 0.8 * m0
    svrg_exp = (2.0 / 3.0 + m0 / 3.0) if m0 <= 1.0 else m0
    mb_outer = mb_full = mb_nonpar = None
    if b is not None:
        if b < 1:
            raise ValueError("b must be at least 1")
        b0 = math.log(b) / math.log(n)
        if m0 <= 1.0:
            mb_outer = 0.8 - b0 / 5.0
            mb_full = 2.0 / 3.0 - b0 / 3.0
            mb_nonpar = 0.8 - b0 / 5.0 if b0 <= 2.0 / 3.0 else 2.0 / 3.0
        else:
            mb_outer = 0.8 * m0 - b0 / 5.0
            mb_full = 2.0 * m0 / 3.0 - b0 / 3.0
            mb_nonpar = 0.8 * m0 - b0 / 5.0 if b0 <= 2.0 / 3.0 else 2.0 * m0 / 3.0
    return QueryComplexityReport(
        m0=m0,
        scvr_exponent=scvr_exp,
        scvr_alpha=scvr_alpha,
        svrg_exponent=svrg_exp,
        svrg_alpha=svrg_alpha,
        minibatch_parallel_outer_exponent=mb_outer,
        minibatch_parallel_full_exponent=mb_full,
        minibatch_nonparallel_exponent=mb_nonpar,
        better="scvr" if m0 >= 0.4 else "svrg",
    )

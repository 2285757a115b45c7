"""Theory diagnostics: recursion closed forms, premise checks under the
suggested parameters, and query-complexity exponents."""

import math

import numpy as np
import pytest

from scvr.core import SmoothnessConstants
from scvr.theory import (
    RecursionDiagnostics,
    TheoryParams,
    predict_query_complexity,
    recursion,
    suggest_parameters,
)

UNIT = SmoothnessConstants(b_g=1.0, l_g=1.0, b_f=1.0, l_f_outer=1.0, l_f=1.0)

RECURSIONS = ("scvr1", "scvr2", "minibatch")


def _params(eta=0.01, h=2.0, d=2.0, a=2, bj=2, bo=1, cap_k=50):
    return TheoryParams(
        alpha=0.4, a0=0.4, b0_jac=0.4, h0=0.2, d0=0.2,
        h=h, d=d, eta=eta, cap_k=cap_k, sample_a=a, sample_b=bj, batch_b=bo,
    )


# -- recursion structure -------------------------------------------------------


@pytest.mark.parametrize("name", list(RECURSIONS))
def test_terminal_weight_trivial_form(name):
    """With c_K = 0 the last weight is eta/2 - 2 L_f eta^2."""
    params = _params()
    diag = recursion(name, params, UNIT)
    eta, lf = params.eta, UNIT.l_f
    assert diag.u_sequence[-1] == pytest.approx(eta / 2 - 2 * lf * eta * eta, abs=0)
    assert diag.c_sequence[-1] == 0.0


@pytest.mark.parametrize("name", list(RECURSIONS))
def test_c_sequence_nonnegative_decreasing(name):
    diag = recursion(name, _params(), UNIT)
    c = diag.c_sequence
    assert np.all(c >= 0.0)
    assert np.all(np.diff(c) <= 0.0)  # decreasing as the step index grows


def test_closed_form_matches_forward_recursion_grid():
    """Geometric closed form vs the explicit backward loop, all variants,
    over an eta/size grid."""
    for name in RECURSIONS:
        for eta in (1e-4, 1e-3, 1e-2):
            for cap_k in (1, 5, 50, 400):
                for a in (1, 8):
                    params = _params(eta=eta, a=a, cap_k=cap_k)
                    diag = recursion(name, params, UNIT)
                    rel = abs(diag.c_sequence[0] - diag.c0_closed) / max(
                        abs(diag.c0_closed), 1e-300
                    )
                    assert rel <= 1e-10, (name, eta, cap_k, a)


def test_hand_rolled_recursion_independent_oracle():
    """Tiny case computed with explicitly written-out coefficients."""
    constants = SmoothnessConstants(b_g=2.0, l_g=0.5, b_f=1.5, l_f_outer=1.0, l_f=3.0)
    params = _params(eta=0.01, h=1.5, d=2.5, a=4, bj=2, cap_k=3)
    bg4lf2 = 2.0**4 * 1.0**2
    coef = 2.0 * 3.0**2 + bg4lf2 / 4
    ratio = 1 + (1 / 1.5 + 1 / 2.5 + 2.5 * bg4lf2 / 4) * 0.01 + 4 * coef * 1e-4
    offset = bg4lf2 / 8 * 0.01 + 2 * 3.0 * coef * 1e-4
    c3, c2, c1, c0 = 0.0, offset, offset * ratio + offset, None
    c0 = (offset * ratio + offset) * ratio + offset
    diag = recursion("scvr1", params, constants)
    assert diag.c_sequence[0] == pytest.approx(c0, rel=1e-14)
    assert diag.c_sequence[1] == pytest.approx(c1, rel=1e-14)
    assert diag.c_sequence[2] == pytest.approx(c2, rel=1e-14)


def test_minibatch_b1_equals_scvr2_exactly():
    """scvr2 is the mini-batch recursion at b = 1, whatever batch_b says;
    both match coefficients written out for the doubly-estimated method."""
    constants = SmoothnessConstants(b_g=2.0, l_g=0.5, b_f=1.5, l_f_outer=1.0, l_f=3.0)
    a = recursion("scvr2", _params(eta=0.01, h=1.5, d=2.5, a=4, bj=2, bo=4, cap_k=3), constants)
    b = recursion("minibatch", _params(eta=0.01, h=1.5, d=2.5, a=4, bj=2, bo=1, cap_k=3),
                  constants)
    assert np.array_equal(a.c_sequence, b.c_sequence)
    assert np.array_equal(a.u_sequence, b.u_sequence)
    assert a.c0_closed == b.c0_closed
    bg4lf2 = 2.0**4 * 1.0**2
    coef = bg4lf2 / 4 + 1.5**2 * 0.5**2 / 2 + 3.0**2
    ratio = 1 + (1 / 1.5 + 1 / 2.5 + 2.5 * bg4lf2 / 4) * 0.01 + 4 * coef * 1e-4
    offset = bg4lf2 / 8 * 0.01 + 2 * 3.0 * coef * 1e-4
    c2 = offset
    c1 = offset * ratio + offset
    c0 = c1 * ratio + offset
    assert a.c_sequence == pytest.approx([c0, c1, c2, 0.0], rel=1e-14)


def test_premise_flag_not_exception():
    params = _params(eta=10.0)  # absurd step: premises must fail, not raise
    diag = recursion("scvr1", params, UNIT)
    assert isinstance(diag, RecursionDiagnostics)
    assert not diag.premise_ok
    assert diag.u_min <= 0.0


# -- suggested parameters --------------------------------------------------------


@pytest.mark.parametrize("n", [100, 1000, 10_000])
@pytest.mark.parametrize("algo", ["scvr1", "scvr2", "minibatch"])
def test_suggested_parameters_satisfy_premises(n, algo):
    b = 2 if algo == "minibatch" else 1
    params = suggest_parameters(n, n, UNIT, algorithm=algo, b=b)
    diag = recursion(algo, params, UNIT)
    assert diag.c0h < 0.5
    assert diag.u_min > 0.0
    assert diag.premise_ok


def test_suggested_sample_sizes_and_weights():
    params = suggest_parameters(10_000, 10_000, UNIT, algorithm="scvr1")
    n_alpha = 10_000**0.4
    assert params.alpha == pytest.approx(0.4)
    assert params.sample_a == math.ceil(n_alpha / 2)
    assert params.sample_b == math.ceil(n_alpha)
    assert params.h == pytest.approx(10_000**0.2 / (math.e - 1))
    assert params.d == pytest.approx(10_000**0.2)
    assert params.h0 == params.d0 == pytest.approx(0.2)
    assert params.a0 == params.b0_jac == pytest.approx(0.4)


def test_suggested_eta_uses_proof_denominator():
    params = suggest_parameters(100, 100, UNIT, algorithm="scvr1")
    a = params.sample_a
    expected = 100 ** (-0.4) / (2.0 * (2.0 + 1.0 / a))
    assert params.eta == pytest.approx(expected, rel=1e-12)


def test_suggested_epoch_length_order():
    """cap_k grows like n^(3 alpha / 2) across a size sweep."""
    ks = [suggest_parameters(n, n, UNIT, algorithm="scvr1").cap_k for n in (100, 1000, 10_000)]
    for n, k in zip((100, 1000, 10_000), ks):
        assert 0.4 <= k / n**0.6 <= 1.2


def test_suggest_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        suggest_parameters(1, 5, UNIT)
    with pytest.raises(ValueError):
        suggest_parameters(100, 0, UNIT)


def test_alpha_by_size_ratio():
    assert suggest_parameters(100, 100, UNIT).alpha == pytest.approx(0.4)
    assert suggest_parameters(100, 10, UNIT).alpha == pytest.approx(0.4)
    assert suggest_parameters(100, 100**2, UNIT).alpha == pytest.approx(0.8)


def test_scvr2_step_rule_matches_scvr1_in_equivalence_regime():
    """With the Jacobian batch held at BF^2 LG^2 / Lf^2, the doubly
    estimated variant's step rule collapses to the single-pair one."""
    constants = SmoothnessConstants(b_g=1.3, l_g=1.0, b_f=2.0, l_f_outer=1.1, l_f=1.0)
    n = 400
    p1 = suggest_parameters(n, n, constants, algorithm="scvr1")
    bg4lf2 = constants.b_g**4 * constants.l_f_outer**2
    b_equiv = constants.b_f**2 * constants.l_g**2 / constants.l_f**2
    eta2 = n ** (-p1.alpha) / (
        2.0
        * constants.l_f
        * (
            bg4lf2 / p1.sample_a
            + constants.b_f**2 * constants.l_g**2 / b_equiv
            + constants.l_f**2
        )
    )
    assert eta2 == pytest.approx(p1.eta, rel=1e-12)


# -- complexity exponents ----------------------------------------------------------


def test_exponents_equal_inner_outer_sizes():
    report = predict_query_complexity(10_000, 10_000)
    assert report.m0 == pytest.approx(1.0)
    assert report.scvr_exponent == pytest.approx(0.8)
    assert report.svrg_exponent == pytest.approx(1.0)
    assert report.better == "scvr"


def test_exponents_quadratic_inner_size():
    report = predict_query_complexity(100, 100**2)
    assert report.m0 == pytest.approx(2.0)
    assert report.scvr_exponent == pytest.approx(1.6)  # 4 m0 / 5
    assert report.svrg_exponent == pytest.approx(2.0)  # m0


def test_exponent_single_inner_component():
    report = predict_query_complexity(100, 1)
    assert report.m0 == pytest.approx(0.0)
    assert report.svrg_exponent == pytest.approx(2.0 / 3.0)
    assert report.better == "svrg"


def test_crossover_at_two_fifths():
    n = 10_000
    for m0 in (0.1, 0.2, 0.3, 0.39):
        m = round(n**m0)
        report = predict_query_complexity(n, m)
        if report.m0 < 0.4:
            assert report.svrg_exponent < report.scvr_exponent
            assert report.better == "svrg"
    for m0 in (0.41, 0.6, 1.0, 1.5, 2.0):
        m = round(n**m0)
        report = predict_query_complexity(n, m)
        if report.m0 >= 0.4:
            assert report.scvr_exponent <= report.svrg_exponent
            assert report.better == "scvr"


def test_minibatch_nonparallel_switch():
    n = 10_000
    b_switch = round(n ** (2.0 / 3.0))
    report = predict_query_complexity(n, n, b=b_switch)
    assert report.minibatch_nonparallel_exponent == pytest.approx(
        2.0 / 3.0, rel=1e-3
    )
    small = predict_query_complexity(n, n, b=round(n**0.3))
    assert small.minibatch_nonparallel_exponent == pytest.approx(0.8 - 0.3 / 5, rel=1e-3)
    large = predict_query_complexity(n, n, b=round(n**0.9))
    assert large.minibatch_nonparallel_exponent == pytest.approx(2.0 / 3.0)


def test_minibatch_parallel_exponents():
    n = 10_000
    report = predict_query_complexity(n, n, b=round(n**0.5))
    assert report.minibatch_parallel_outer_exponent == pytest.approx(0.8 - 0.1, rel=1e-3)
    assert report.minibatch_parallel_full_exponent == pytest.approx(
        2.0 / 3.0 - 0.5 / 3.0, rel=1e-3
    )


def test_report_rejects_bad_sizes():
    with pytest.raises(ValueError):
        predict_query_complexity(1, 10)
    with pytest.raises(ValueError):
        predict_query_complexity(100, 100, b=0)

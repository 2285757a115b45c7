"""Core primitives: query accounting, exact evaluations, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scvr import core, problems
from scvr.core import QueryLedger, SampleStream, SmoothnessConstants


class ScalarAffineProblem(core.CompositionProblem):
    """G_1(x) = x, G_2(x) = 2x (scalars); F_i(w) = ||w||^2."""

    n_outer = 2
    m_inner = 2
    dim_x = 1
    dim_w = 1
    constants = SmoothnessConstants(b_g=2.0, l_g=0.0, b_f=1.0, l_f_outer=2.0, l_f=8.0)

    def inner_component(self, j, x):
        return float(j) * np.asarray(x, dtype=float)

    def inner_component_jacobian(self, j, x):
        return np.array([[float(j)]])

    def outer_component(self, i, w):
        return float(w @ w)

    def outer_component_gradient(self, i, w):
        return 2.0 * np.asarray(w, dtype=float)


def test_inner_full_hand_average():
    problem = ScalarAffineProblem()
    ledger = QueryLedger()
    out = core.inner_full(problem, np.array([1.0]), ledger)
    assert out[0] == pytest.approx(1.5, abs=0)
    assert ledger.inner_value_queries == 2
    assert ledger.total == 2


def test_inner_full_ledger_delta_is_m(affine_small):
    ledger = QueryLedger()
    core.inner_full(affine_small, np.zeros(3), ledger)
    assert ledger.inner_value_queries == affine_small.m_inner
    assert ledger.inner_jacobian_queries == 0


def test_inner_full_identity_map():
    mats = np.stack([np.eye(2), np.eye(2), np.eye(2)])
    offs = np.zeros((3, 2))
    targets = np.zeros((1, 2))
    problem = problems.AffineQuadraticProblem(mats, offs, targets)
    v = np.array([0.25, -4.0])
    out = core.inner_full(problem, v, QueryLedger())
    assert np.array_equal(out, v)


def test_inner_jacobian_full_hand_average():
    mats = np.stack([np.eye(2), 3.0 * np.eye(2)])
    problem = problems.AffineQuadraticProblem(mats, np.zeros((2, 2)), np.zeros((1, 2)))
    ledger = QueryLedger()
    out = core.inner_jacobian_full(problem, np.zeros(2), ledger)
    assert np.allclose(out, 2.0 * np.eye(2), atol=0)
    assert ledger.inner_jacobian_queries == 2


def test_inner_jacobian_single_component():
    mats = np.stack([np.array([[1.0, 2.0], [3.0, 4.0]])])
    problem = problems.AffineQuadraticProblem(mats, np.zeros((1, 2)), np.zeros((1, 2)))
    out = core.inner_jacobian_full(problem, np.zeros(2), QueryLedger())
    assert np.array_equal(out, mats[0])


def test_full_gradient_ledger_delta(affine_small):
    ledger = QueryLedger()
    core.full_gradient(affine_small, np.zeros(3), ledger)
    m, n = affine_small.m_inner, affine_small.n_outer
    assert ledger.inner_value_queries == m
    assert ledger.inner_jacobian_queries == m
    assert ledger.outer_gradient_queries == n
    assert ledger.total == 2 * m + n


def test_full_gradient_zero_at_stationary_point(affine_small):
    x_star = affine_small.minimizer()
    grad = core.full_gradient(affine_small, x_star, QueryLedger())
    assert np.abs(grad).max() < 1e-10


def test_full_gradient_matches_double_loop_oracle(affine_small):
    x = np.array([0.7, -0.3, 1.4])
    grad = core.full_gradient(affine_small, x, QueryLedger())
    value = core.inner_full(affine_small, x, QueryLedger())
    m, n = affine_small.m_inner, affine_small.n_outer
    acc = np.zeros_like(x)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            jac = affine_small.inner_component_jacobian(j, x)
            acc += jac.T @ affine_small.outer_component_gradient(i, value)
    assert np.abs(grad - acc / (m * n)).max() < 1e-12


def test_objective_zero_at_origin_for_zero_targets():
    mats = np.stack([np.eye(2)])
    problem = problems.AffineQuadraticProblem(mats, np.zeros((1, 2)), np.zeros((2, 2)))
    assert core.objective(problem, np.zeros(2), QueryLedger()) == 0.0


def test_objective_matches_closed_form(affine_small):
    x = np.array([0.2, 0.9, -1.1])
    got = core.objective(affine_small, x, QueryLedger())
    assert got == pytest.approx(affine_small.oracle_objective(x), abs=1e-10)


def test_objective_ledger_delta(affine_small):
    ledger = QueryLedger()
    core.objective(affine_small, np.zeros(3), ledger)
    assert ledger.inner_value_queries == affine_small.m_inner
    assert ledger.outer_value_queries == affine_small.n_outer
    assert ledger.total == affine_small.m_inner + affine_small.n_outer


def test_component_purity_bitwise(affine_small, sne_small):
    for problem in (affine_small, sne_small):
        x = np.linspace(-0.5, 0.5, problem.dim_x)
        ledger = QueryLedger()
        a = core.query_inner_values(problem, [1], x, ledger)
        b = core.query_inner_values(problem, [1], x, ledger)
        assert np.array_equal(a, b)
        w = core.inner_full(problem, x, QueryLedger())
        ga = core.query_outer_gradients(problem, [1], w, ledger)
        gb = core.query_outer_gradients(problem, [1], w, ledger)
        assert np.array_equal(ga, gb)


def test_component_index_out_of_range(affine_small):
    with pytest.raises(IndexError):
        core.query_inner_values(affine_small, [0], np.zeros(3), QueryLedger())
    with pytest.raises(IndexError):
        core.query_outer_gradients(affine_small, [99], np.zeros(3), QueryLedger())


def test_non_finite_component_raises():
    class BadProblem(ScalarAffineProblem):
        def inner_component(self, j, x):
            return np.array([np.nan]) if j == 2 else super().inner_component(j, x)

    with pytest.raises(core.EvaluationError, match="2"):
        core.inner_full(BadProblem(), np.array([1.0]), QueryLedger())


def test_ledger_total_and_merge():
    a = QueryLedger(1, 2, 3, 4)
    assert a.total == 10
    assert QueryLedger(2, 2, 3, 5).total == 12


# -- sampling ---------------------------------------------------------------


def test_sample_indices_single_value_range():
    stream = SampleStream(123)
    assert core.sample_indices(stream, 1, 5) == [1, 1, 1, 1, 1]


def test_sample_indices_determinism():
    a = core.sample_indices(SampleStream(99), 7, 20)
    b = core.sample_indices(SampleStream(99), 7, 20)
    assert a == b
    c = core.sample_indices(SampleStream(100), 7, 20)
    assert a != c


def test_sample_indices_zero_draws_rejected():
    with pytest.raises(ValueError):
        core.sample_indices(SampleStream(1), 4, 0)


def test_sample_indices_uniformity_binomial_band():
    draws = 100_000
    stream = SampleStream(2024)
    out = core.sample_indices(stream, 4, draws)
    counts = np.bincount(out, minlength=5)[1:]
    expected = draws / 4
    sigma = np.sqrt(draws * 0.25 * 0.75)
    assert np.all(np.abs(counts - expected) <= 3 * sigma)


def test_splitmix_recurrence_reference():
    # first outputs of the documented recurrence from seed 0
    stream = SampleStream(0)
    assert stream.next_u64() == 0xE220A8397B1DCDAF
    assert stream.next_u64() == 0x6E789E6AA1B965F4


def _splitmix64(seed):
    """The documented recurrence, one value at a time in Python integers."""
    state = seed % 2**64
    while True:
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        yield z ^ (z >> 31)


class ScalarStream:
    """The documented draws on the scalar recurrence; ``used`` counts the
    64-bit values taken."""

    def __init__(self, seed):
        self.values = _splitmix64(seed)
        self.used = 0

    def next_u64(self):
        self.used += 1
        return next(self.values)

    def randrange(self, k):
        limit = 2**64 - 2**64 % k
        while (z := self.next_u64()) >= limit:
            pass
        return z % k

    def indices(self, range_max, draws):
        return [self.randrange(range_max) + 1 for _ in range(draws)]

    def uniform(self):
        return (self.next_u64() >> 11) / 2**53


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_sample_stream_equals_the_scalar_recurrence_across_refills(seed):
    stream, ref = SampleStream(seed), ScalarStream(seed)
    while ref.used < 3 * core.SAMPLE_BLOCK + 10:
        assert stream.next_u64() == ref.next_u64()
        assert stream.randrange(7) == ref.randrange(7)
        assert stream.indices(100, 22) == ref.indices(100, 22)
        assert stream.uniform() == ref.uniform()
        assert stream.randrange(2**63 + 1) == ref.randrange(2**63 + 1)


def test_randrange_rejects_about_half_the_draws_just_above_two_to_the_63():
    # 2^64 mod (2^63 + 1) = 2^63 - 1, so draws from 2^63 + 1 up are rejected
    k = 2**63 + 1
    stream, ref = SampleStream(3), ScalarStream(3)
    assert [stream.randrange(k) for _ in range(400)] == [ref.randrange(k) for _ in range(400)]
    assert 600 <= ref.used <= 1000
    assert stream.next_u64() == ref.next_u64()


def test_randrange_rejects_ranges_above_two_to_the_64():
    # no 64-bit draw is below the rejection limit there, so it would never
    # return; the finite draw supply turns such a loop into a failure
    stream = SampleStream(1)
    draws = iter([0] * 100)
    stream.next_u64 = lambda: next(draws)
    with pytest.raises(ValueError, match="2\\^64"):
        stream.randrange(2**64 + 1)
    # at exactly 2^64 every draw is accepted and returned as drawn
    assert SampleStream(1).randrange(2**64) == SampleStream(1).next_u64()


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=50))
@settings(max_examples=50, deadline=None)
def test_sample_indices_stay_in_range(seed, range_max):
    out = core.sample_indices(SampleStream(seed), range_max, 10)
    assert all(1 <= v <= range_max for v in out)


# -- declared constants -----------------------------------------------------


def test_smoothness_constants_validation():
    with pytest.raises(ValueError):
        SmoothnessConstants(b_g=0.0, l_g=0.0, b_f=1.0, l_f_outer=1.0, l_f=1.0)
    with pytest.raises(ValueError):
        SmoothnessConstants(b_g=1.0, l_g=-1.0, b_f=1.0, l_f_outer=1.0, l_f=1.0)
    c = SmoothnessConstants(b_g=1.0, l_g=0.0, b_f=1.0, l_f_outer=1.0, l_f=1.0)
    assert c.l_g == 0.0

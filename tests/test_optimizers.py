"""Optimizer loops: exact query totals, determinism, epoch chaining,
uniform output sampling, divergence guard, descent behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scvr import core, estimators, optimizers, problems
from scvr.core import QueryLedger, SampleStream, sample_indices
from scvr.optimizers import (
    DivergenceError,
    OptimizerConfig,
    expected_total_queries,
    run,
)


def _cfg(variant, **kw):
    base = dict(eta=0.01, epochs_s=2, inner_k=3, variant=variant, seed=7,
                record_every=1000)
    base.update(kw)
    return OptimizerConfig(**base)


# -- exact query totals -------------------------------------------------------


def test_scvr1_worked_total(affine_small):
    """S=2, K=3, A=2 on the m=4, n=5 fixture: 2*(13+3*8) = 74."""
    result = run(affine_small, _cfg("scvr1", sample_a=2))
    assert result.ledger.total == 74


def test_scvr2_worked_total():
    problem = problems.make_affine_quadratic(n=3, m=3, dim_x=2, dim_w=2, seed=3)
    result = run(problem, _cfg("scvr2", epochs_s=1, inner_k=2, sample_a=1, sample_b=1))
    assert result.ledger.total == 21  # 9 + 2*6


def test_minibatch_worked_total():
    problem = problems.make_affine_quadratic(n=2, m=2, dim_x=2, dim_w=2, seed=3)
    result = run(problem, _cfg("minibatch_v1", epochs_s=1, inner_k=1))
    assert result.ledger.total == 12  # 6 + 6


@pytest.mark.parametrize("variant", ["scvr1", "scvr2", "minibatch_v1", "minibatch_v2", "svrg"])
@pytest.mark.parametrize("s,k,a,bj,bo", [(1, 1, 1, 1, 1), (2, 3, 2, 3, 2), (3, 2, 4, 1, 3), (1, 5, 3, 2, 4)])
def test_query_totals_grid(variant, s, k, a, bj, bo):
    problem = problems.make_affine_quadratic(n=5, m=4, dim_x=2, dim_w=2, seed=1)
    cfg = OptimizerConfig(
        eta=0.005, epochs_s=s, inner_k=k, variant=variant,
        sample_a=a, sample_b=bj, batch_b=bo, seed=3, record_every=1000,
    )
    result = run(problem, cfg)
    assert result.ledger.total == expected_total_queries(variant, s, k, 4, 5, a, bj, bo)


def test_sgd_per_step_cost(affine_small):
    result = run(affine_small, _cfg("sgd", epochs_s=1, inner_k=4))
    assert result.ledger.total == 4 * (affine_small.m_inner + 2)


def test_gd_per_step_cost(affine_small):
    result = run(affine_small, _cfg("gd", epochs_s=1, inner_k=4))
    assert result.ledger.total == 4 * (2 * affine_small.m_inner + affine_small.n_outer)


@pytest.mark.parametrize("variant", list(optimizers.VARIANTS))
def test_startup_cost_is_the_snapshot_or_the_first_step(variant):
    m, n = 7, 5
    cfg = _cfg(variant, sample_a=3, sample_b=4, batch_b=2)
    want = {"sgd": m + 2}.get(variant, 2 * m + n)  # gd's first step costs 2m + n too
    assert optimizers.startup_query_cost(cfg, m, n) == want


def test_shadow_instrumentation_not_charged(affine_small):
    dense = run(affine_small, _cfg("scvr1", record_every=1))
    sparse = run(affine_small, _cfg("scvr1", record_every=1000))
    assert dense.ledger.total == sparse.ledger.total
    assert len(dense.trace) > len(sparse.trace)


# -- zero step size ------------------------------------------------------------


@pytest.mark.parametrize("variant", list(optimizers.VARIANTS))
def test_zero_eta_is_stationary(affine_small, variant):
    x0 = np.array([0.4, -0.2, 1.0])
    result = run(affine_small, _cfg(variant, eta=0.0), x0=x0)
    assert np.array_equal(result.x_last, x0)
    assert np.array_equal(result.x_out, x0)
    values = {rec.objective for rec in result.trace}
    assert len(values) == 1


# -- determinism ----------------------------------------------------------------


@pytest.mark.parametrize("variant", list(optimizers.VARIANTS))
def test_bitwise_determinism(affine_small, variant):
    x0 = np.array([0.3, 0.3, -0.6])
    cfg = _cfg(variant, record_every=2, sample_a=2, sample_b=2, batch_b=2)
    a = run(affine_small, cfg, x0=x0)
    b = run(affine_small, cfg, x0=x0)
    assert np.array_equal(a.x_last, b.x_last)
    assert np.array_equal(a.x_out, b.x_out)
    assert len(a.trace) == len(b.trace)
    for ra, rb in zip(a.trace, b.trace):
        assert (ra.epoch, ra.inner_iter, ra.total_queries) == (
            rb.epoch, rb.inner_iter, rb.total_queries
        )
        assert ra.grad_norm_sq == rb.grad_norm_sq
        assert ra.objective == rb.objective


def test_seed_changes_trajectory(affine_small):
    x0 = np.array([0.3, 0.3, -0.6])
    a = run(affine_small, _cfg("scvr1", seed=1), x0=x0)
    b = run(affine_small, _cfg("scvr1", seed=2), x0=x0)
    assert not np.array_equal(a.x_last, b.x_last)


# -- structural replay ------------------------------------------------------------


def test_scvr1_manual_replay_epoch_chaining(affine_small):
    """Independent reimplementation of the loop, including the epoch
    hand-off x_tilde <- x_K, reproduces the driver bit for bit."""
    cfg = _cfg("scvr1", epochs_s=2, inner_k=2, sample_a=2, seed=13)
    x0 = np.array([0.5, -0.1, 0.2])
    got = run(affine_small, cfg, x0=x0)

    stream = SampleStream(13)
    stream.randrange(cfg.epochs_s)
    stream.randrange(cfg.inner_k)
    x = x0.copy()
    for _ in range(cfg.epochs_s):
        snap = estimators.take_snapshot(affine_small, x, QueryLedger())
        for _ in range(cfg.inner_k):
            batch = sample_indices(stream, affine_small.m_inner, cfg.sample_a)
            g_hat = estimators.estimate_inner(affine_small, x, snap, batch, QueryLedger())
            i = stream.randrange(affine_small.n_outer) + 1
            j = stream.randrange(affine_small.m_inner) + 1
            est = estimators.grad_scvr1(affine_small, x, snap, g_hat, i, j, QueryLedger())
            x = x - cfg.eta * est
    assert np.array_equal(got.x_last, x)


@given(batch_b=st.integers(1, 6), seed=st.integers(0, 2**32))
@settings(max_examples=15, deadline=None)
def test_minibatch_b1_replays_scvr2(batch_b, seed):
    """scvr2 runs minibatch_v1's step at b = 1 whatever its batch_b: with
    identical seeds both consume the same draws and produce the same
    iterates, trace and ledger."""
    problem = problems.make_affine_quadratic(n=5, m=4, dim_x=3, dim_w=3, seed=1)
    x0 = np.array([0.2, 0.5, -0.3])
    kw = dict(epochs_s=2, inner_k=3, sample_a=2, sample_b=3, seed=seed, eta=0.02,
              record_every=2)
    a = run(problem, _cfg("scvr2", batch_b=batch_b, **kw), x0=x0)
    b = run(problem, _cfg("minibatch_v1", batch_b=1, **kw), x0=x0)
    assert a.x_last.tobytes() == b.x_last.tobytes()
    assert a.x_out.tobytes() == b.x_out.tobytes()
    assert a.trace == b.trace
    assert a.ledger == b.ledger


# -- output iterate sampling -------------------------------------------------------


def test_output_index_uniformity(affine_small):
    """(epoch, step) of the returned iterate is uniform over the 2x3 grid."""
    runs = 10_000
    counts = np.zeros((2, 3), dtype=int)
    cfg_base = _cfg("gd", eta=0.0, record_every=1000)
    for seed in range(runs):
        cfg = OptimizerConfig(
            eta=0.0, epochs_s=2, inner_k=3, variant="gd", seed=seed, record_every=1000
        )
        result = run(affine_small, cfg)
        counts[result.out_epoch, result.out_inner] += 1
    p = 1.0 / 6.0
    sigma = np.sqrt(runs * p * (1 - p))
    assert np.all(np.abs(counts - runs * p) <= 3 * sigma)


def test_x_out_matches_visited_iterate(affine_small):
    """Replaying the run confirms x_out is the iterate at (s*, k*)."""
    cfg = _cfg("gd", eta=0.05, epochs_s=3, inner_k=4, seed=99)
    result = run(affine_small, cfg)
    x = np.zeros(3)
    visited = {}
    for s in range(3):
        for k in range(4):
            visited[(s, k)] = x.copy()
            x = x - 0.05 * core.full_gradient(affine_small, x, QueryLedger())
    assert np.array_equal(result.x_out, visited[(result.out_epoch, result.out_inner)])


# -- divergence guard ----------------------------------------------------------------


def test_divergence_raises_with_partial_trace(affine_small):
    cfg = _cfg("gd", eta=1e9, epochs_s=1, inner_k=50, record_every=1)
    with pytest.raises(DivergenceError) as excinfo:
        run(affine_small, cfg, x0=np.ones(3))
    assert len(excinfo.value.trace) >= 1
    assert excinfo.value.ledger.total > 0


def test_divergence_message_names_epoch_step_and_last_record(affine_small):
    cfg = _cfg("gd", eta=1e9, epochs_s=1, inner_k=50, record_every=1)
    with pytest.raises(DivergenceError) as excinfo:
        run(affine_small, cfg, x0=np.ones(3))
    err = excinfo.value
    last = err.trace[-1]
    step = len(err.trace) - 1  # one record per step, taken before the step
    assert (last.epoch, last.inner_iter) == (0, step)
    assert f"at epoch 0, step {step}" in str(err)
    assert f"last record at epoch 0, step {step}" in str(err)
    assert repr(last.grad_norm_sq) in str(err)


def _nan_entry_step(problem, x, snap, stream, sizes, ledger):
    direction = np.zeros(problem.dim_x)
    direction[1] = np.nan
    return direction


def test_divergence_guard_catches_a_nan_iterate(affine_small, monkeypatch):
    # a NaN entry fails |x| <= L as well as |x| > L: only a guard that
    # tests the first, or finiteness, stops the run at this step
    spec = optimizers.VARIANTS["gd"]
    monkeypatch.setitem(
        optimizers.VARIANTS, "gd", optimizers.Variant(spec.snapshot, spec.step_cost, _nan_entry_step)
    )
    with pytest.raises(DivergenceError, match="at epoch 0, step 0"):
        run(affine_small, _cfg("gd", epochs_s=1, inner_k=3, record_every=1), x0=np.ones(3))


LIMIT = optimizers.DIVERGENCE_LIMIT
PAST_LIMIT = np.nextafter(LIMIT, np.inf)


@pytest.mark.parametrize("value,diverged", [
    (0.0, False), (LIMIT, False), (-LIMIT, False), (PAST_LIMIT, True), (-PAST_LIMIT, True),
    (np.nan, True), (np.inf, True), (-np.inf, True),
])
def test_divergence_guard_box_edges(value, diverged):
    x = np.array([0.5, value, -0.5])
    if diverged:
        with pytest.raises(DivergenceError):
            optimizers._guard(x, [], QueryLedger(), 0, 0)
    else:
        optimizers._guard(x, [], QueryLedger(), 0, 0)


def test_divergence_guard_without_records_says_so():
    # run() records before its first step, so only a direct call has none
    with pytest.raises(DivergenceError, match="at epoch 0, step 0 \\(no trace record yet\\)"):
        optimizers._guard(np.array([np.inf]), [], QueryLedger(), 0, 0)


# -- descent behavior -----------------------------------------------------------------


def test_gd_monotone_descent_below_critical_step(affine_small):
    eta = 0.9 / affine_small.constants.l_f
    cfg = _cfg("gd", eta=eta, epochs_s=1, inner_k=30, record_every=1)
    result = run(affine_small, cfg, x0=np.ones(3))
    values = [rec.objective for rec in result.trace]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_sgd_decreases_gradient_on_quadratic(affine_small):
    cfg = _cfg("sgd", eta=0.02, epochs_s=1, inner_k=400, record_every=40)
    result = run(affine_small, cfg, x0=np.ones(3))
    assert result.trace[-1].grad_norm_sq < 0.1 * result.trace[0].grad_norm_sq


def test_scvr2_decay_comparable_to_scvr1_at_same_step():
    """Paired runs with a shared step size: both variants decay, and the
    final gradient norms stay within two orders of each other."""
    problem = problems.make_nonconvex_synthetic(n=20, m=20, dim_x=4, dim_w=4, seed=9)
    kw = dict(eta=0.1, epochs_s=60, inner_k=10, sample_a=3, sample_b=3,
              seed=5, record_every=10_000)
    a = run(problem, _cfg("scvr1", **kw), x0=np.ones(4))
    b = run(problem, _cfg("scvr2", **kw), x0=np.ones(4))
    for result in (a, b):
        assert result.trace[-1].grad_norm_sq < 5e-2 * result.trace[0].grad_norm_sq
    ratio = a.trace[-1].grad_norm_sq / b.trace[-1].grad_norm_sq
    assert 0.1 < ratio < 10.0


def test_scvr1_converges_on_quadratic(affine_small):
    cfg = _cfg("scvr1", eta=0.02, epochs_s=40, inner_k=8, sample_a=2,
               record_every=1000)
    result = run(affine_small, cfg, x0=np.ones(3))
    assert result.trace[-1].grad_norm_sq < 1e-3 * result.trace[0].grad_norm_sq


# -- budget handling -----------------------------------------------------------------


def test_budget_is_a_hard_cap(affine_small):
    full = run(affine_small, _cfg("scvr1", epochs_s=10, inner_k=10))
    capped = run(affine_small, _cfg("scvr1", epochs_s=10, inner_k=10), budget=100)
    assert capped.ledger.total < full.ledger.total
    assert capped.ledger.total <= 100  # never exceeds the cap
    assert capped.ledger.total > 0
    assert capped.trace[-1].total_queries == capped.ledger.total


def test_trace_queries_monotone(affine_small):
    result = run(affine_small, _cfg("scvr2", epochs_s=3, inner_k=4, record_every=2))
    totals = [rec.total_queries for rec in result.trace]
    assert totals == sorted(totals)


# -- config validation -----------------------------------------------------------------


def test_config_rejects_unknown_variant():
    with pytest.raises(ValueError):
        OptimizerConfig(eta=0.1, epochs_s=1, inner_k=1, variant="adam")


def test_config_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        OptimizerConfig(eta=0.1, epochs_s=0, inner_k=1, variant="gd")


@pytest.mark.parametrize("eta", [-0.1, float("nan"), float("inf")])
def test_config_rejects_negative_or_non_finite_eta(eta):
    with pytest.raises(ValueError, match="eta"):
        OptimizerConfig(eta=eta, epochs_s=1, inner_k=1, variant="gd")


@given(
    variant=st.sampled_from(list(optimizers.VARIANTS)),
    s=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=1, max_value=4),
    a=st.integers(min_value=1, max_value=4),
    bj=st.integers(min_value=1, max_value=4),
    bo=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=40, deadline=None)
def test_query_total_formula_property(variant, s, k, a, bj, bo, seed):
    problem = problems.make_affine_quadratic(n=3, m=3, dim_x=2, dim_w=2, seed=2)
    cfg = OptimizerConfig(
        eta=0.001, epochs_s=s, inner_k=k, variant=variant,
        sample_a=a, sample_b=bj, batch_b=bo, seed=seed, record_every=1000,
    )
    result = run(problem, cfg)
    assert result.ledger.total == expected_total_queries(variant, s, k, 3, 3, a, bj, bo)


def _budgeted_total(variant, s, k, m, n, a, bj, bo, budget):
    """The ledger total a budgeted run must reach: it takes each snapshot
    (with its first step) and each step while the budget covers it."""
    snapshot = 2 * m + n if optimizers.VARIANTS[variant].snapshot else 0
    step = optimizers.step_query_cost(variant, m, n, a, bj, bo)
    total = 0
    for _ in range(s):
        if total + snapshot + step > budget:
            return total
        total += snapshot
        for _ in range(k):
            if total + step > budget:
                return total
            total += step
    return total


@given(
    variant=st.sampled_from(list(optimizers.VARIANTS)),
    s=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=1, max_value=4),
    a=st.integers(min_value=1, max_value=4),
    bj=st.integers(min_value=1, max_value=4),
    bo=st.integers(min_value=1, max_value=4),
    budget=st.integers(min_value=0, max_value=400),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=80, deadline=None)
def test_budgeted_ledger_stops_only_when_the_next_move_exceeds(
    variant, s, k, a, bj, bo, budget, seed
):
    problem = problems.make_affine_quadratic(n=3, m=3, dim_x=2, dim_w=2, seed=2)
    cfg = OptimizerConfig(
        eta=0.001, epochs_s=s, inner_k=k, variant=variant,
        sample_a=a, sample_b=bj, batch_b=bo, seed=seed, record_every=1000,
    )
    result = run(problem, cfg, budget=budget)
    total = result.ledger.total
    assert total <= budget
    assert total == _budgeted_total(variant, s, k, 3, 3, a, bj, bo, budget)
    assert result.trace[-1].total_queries == total
    full = expected_total_queries(variant, s, k, 3, 3, a, bj, bo)
    if total < full:  # stopped: the next snapshot plus step would not fit
        snapshot = 2 * 3 + 3 if optimizers.VARIANTS[variant].snapshot else 0
        step = optimizers.step_query_cost(variant, 3, 3, a, bj, bo)
        assert total + snapshot + step > budget

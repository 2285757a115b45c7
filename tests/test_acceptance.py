"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured margin (run with ``pytest -v -s`` to see
them).  Tolerances are fixed here, not configurable."""

import itertools
import json
import math
import time

import numpy as np
import pytest

from scvr import core, harness, optimizers, problems, theory, verification
from scvr.core import QueryLedger, SampleStream, SmoothnessConstants, sample_indices
from scvr.estimators import (
    estimate_inner,
    estimate_inner_jacobian,
    grad_minibatch_v1,
    grad_minibatch_v2,
    grad_scvr1,
    grad_scvr2,
    take_snapshot,
)
from scvr.optimizers import OptimizerConfig, expected_total_queries, run

UNIT = SmoothnessConstants(b_g=1.0, l_g=1.0, b_f=1.0, l_f_outer=1.0, l_f=1.0)


def _report(num: int, label: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS — {label}")


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    cases = [
        (problems.make_affine_quadratic(n=5, m=4, dim_x=3, dim_w=3, seed=1), 1e-7),
        (problems.make_nonconvex_synthetic(n=6, m=5, dim_x=3, dim_w=4, seed=2), 1e-6),
        (
            problems.build_sne(
                problems.make_cluster_data(6, clusters=2, dim=5, seed=3)[0],
                sigma=2.0,
                embed_dim=2,
            ),
            1e-5,
        ),
    ]
    worst = 0.0
    for problem, tol in cases:
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = rng.normal(size=problem.dim_x) * 0.6
            grad = core.full_gradient(problem, x, QueryLedger())
            fd = verification.fd_gradient(problem, x)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            worst = max(worst, rel / tol)
            assert rel <= tol
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"analytic vs central-difference gradients, worst rel/tol "
               f"{worst:.3f}, {elapsed:.2f}s")


def test_criterion_02_snapshot_identities():
    affine = problems.make_affine_quadratic(n=4, m=5, dim_x=3, dim_w=3, seed=11)
    curved = problems.make_curved_inner(dim_x=3, dim_w=3, n=3, seed=5)
    stream = SampleStream(2024)
    worst = 0.0
    draws = 0
    for problem in (affine, curved):
        x_tilde = np.array([stream.gauss() for _ in range(problem.dim_x)])
        snap = take_snapshot(problem, x_tilde, QueryLedger())
        for _ in range(50):
            size_a = stream.randrange(4) + 1
            batch_a = sample_indices(stream, problem.m_inner, size_a)
            batch_b = sample_indices(stream, problem.m_inner, stream.randrange(3) + 1)
            outer = sample_indices(stream, problem.n_outer, stream.randrange(3) + 1)
            g_hat = estimate_inner(problem, x_tilde, snap, batch_a, QueryLedger())
            jac_hat = estimate_inner_jacobian(problem, x_tilde, snap, batch_b, QueryLedger())
            for est in (
                grad_scvr1(problem, x_tilde, snap, g_hat, outer[0], batch_a[0], QueryLedger()),
                grad_scvr2(problem, snap, g_hat, jac_hat, outer[0], QueryLedger()),
                grad_minibatch_v1(problem, snap, g_hat, jac_hat, outer, QueryLedger()),
                grad_minibatch_v2(problem, x_tilde, snap, g_hat, batch_b, outer, QueryLedger()),
            ):
                dev = float(np.abs(est - snap.grad_tilde).max())
                worst = max(worst, dev)
                assert dev <= 1e-12
                draws += 1
    _report(2, f"{draws} seeded snapshot draws, max deviation {worst:.2e}")


def test_criterion_03_unbiasedness_by_enumeration():
    problem = problems.make_affine_quadratic(n=5, m=8, dim_x=3, dim_w=3, seed=21)
    snap = take_snapshot(problem, np.zeros(3), QueryLedger())
    x = np.array([0.8, -0.3, 0.5])
    worst = 0.0
    for a in (1, 2):
        mean = verification.exhaustive_mean(estimate_inner, problem, x, snap, a)
        exact = core.inner_full(problem, x, QueryLedger())
        worst = max(worst, float(np.abs(mean - exact).max()))
    mean_jac = verification.exhaustive_mean(estimate_inner_jacobian, problem, x, snap, 1)
    exact_jac = core.inner_jacobian_full(problem, x, QueryLedger())
    worst = max(worst, float(np.abs(mean_jac - exact_jac).max()))
    assert worst <= 1e-12

    curved = problems.make_curved_inner(dim_x=3, dim_w=3, n=3, seed=5)
    snap_c = take_snapshot(curved, np.zeros(3), QueryLedger())
    g_hat = estimate_inner(curved, x, snap_c, [1, 3], QueryLedger())
    mean_grad = verification.exhaustive_grad_mean(curved, x, snap_c, g_hat)
    expected = core.inner_jacobian_full(curved, x, QueryLedger()).T @ (
        core.outer_gradient_full(curved, g_hat, QueryLedger())
    )
    grad_err = float(np.abs(mean_grad - expected).max())
    assert grad_err <= 1e-12
    _report(3, f"enumerated means match exact averages, max error "
               f"{max(worst, grad_err):.2e}")


def test_criterion_04_second_moment_bounds():
    balanced = problems.make_balanced_affine(m_pairs=2, dim_x=3, dim_w=3, seed=6)
    snap = take_snapshot(balanced, np.zeros(3), QueryLedger())
    x = np.array([0.9, -0.4, 0.2])
    dist_sq = float(x @ x)
    b_g = balanced.constants.b_g
    margins = []
    for a in (1, 2, 4):
        moment = verification.second_moment(estimate_inner, snap.g_tilde, balanced, x, snap, a)
        bound = b_g * b_g / a * dist_sq
        assert moment < bound
        margins.append(moment / bound)
    curved = problems.make_curved_inner(dim_x=3, dim_w=3, n=3, seed=8)
    snap_c = take_snapshot(curved, np.zeros(3), QueryLedger())
    jac_tilde = core.inner_jacobian_full(curved, snap_c.x_tilde, QueryLedger())
    l_g = curved.constants.l_g
    for b in (1, 2, 4):
        moment = verification.second_moment(
            estimate_inner_jacobian, jac_tilde, curved, x, snap_c, b
        )
        bound = l_g * l_g / b * dist_sq
        assert moment < bound
        margins.append(moment / bound)
    _report(4, f"strict deviation bounds at sizes 1/2/4, worst ratio "
               f"{max(margins):.3f}")


def test_criterion_05_exact_query_accounting():
    problem = problems.make_affine_quadratic(n=5, m=4, dim_x=2, dim_w=2, seed=2)
    m, n = problem.m_inner, problem.n_outer
    shapes = [(1, 1, 1, 1, 1), (2, 3, 2, 1, 2), (3, 2, 4, 3, 1), (1, 6, 3, 2, 4)]
    variants = ("scvr1", "scvr2", "minibatch_v1", "minibatch_v2", "svrg")
    checked = 0
    for variant, (s, k, a, bj, bo) in itertools.product(variants, shapes):
        cfg = OptimizerConfig(
            eta=0.002, epochs_s=s, inner_k=k, variant=variant,
            sample_a=a, sample_b=bj, batch_b=bo, seed=checked, record_every=10_000,
        )
        result = run(problem, cfg)
        assert result.ledger.total == expected_total_queries(
            variant, s, k, m, n, a, bj, bo
        )
        checked += 1
    assert checked == 20
    _report(5, f"{checked} configurations, integer-exact ledger totals")


def test_criterion_06_theory_recursions():
    worst_rel = 0.0
    for kind in ("scvr1", "scvr2", "minibatch"):
        for eta in (1e-4, 1e-3, 1e-2):
            for cap_k in (5, 50, 400):
                params = theory.TheoryParams(
                    alpha=0.4, a0=0.4, b0_jac=0.4, h0=0.2, d0=0.2,
                    h=2.0, d=2.0, eta=eta, cap_k=cap_k,
                    sample_a=3, sample_b=2, batch_b=2,
                )
                diag = theory.recursion(kind, params, UNIT)
                rel = abs(diag.c_sequence[0] - diag.c0_closed) / abs(diag.c0_closed)
                worst_rel = max(worst_rel, rel)
                assert rel <= 1e-10
    premises = []
    for algo in ("scvr1", "scvr2", "minibatch"):
        for n in (100, 1000, 10_000):
            b = 2 if algo == "minibatch" else 1
            params = theory.suggest_parameters(n, n, UNIT, algorithm=algo, b=b)
            diag = theory.recursion(algo, params, UNIT)
            assert diag.c0h < 0.5
            assert diag.u_min > 0.0
            premises.append(diag.c0h)
    _report(6, f"closed forms to {worst_rel:.1e} rel; premises hold, "
               f"max c0h {max(premises):.3f} < 0.5")


def test_criterion_07_complexity_regimes():
    n = 10_000
    # rate exponent by size ratio
    assert theory.suggest_parameters(n, n, UNIT).alpha == pytest.approx(0.4)
    assert theory.suggest_parameters(n, round(n**0.5), UNIT).alpha == pytest.approx(0.4)
    assert theory.suggest_parameters(100, 100**1.5, UNIT).alpha == pytest.approx(0.6)
    assert theory.suggest_parameters(100, 100**2, UNIT).alpha == pytest.approx(0.8)
    # crossover: composition estimation wins exactly when m0 >= 2/5
    for m0 in (0.05, 0.15, 0.25, 0.35, 0.45, 0.6, 0.8, 1.0, 1.3, 1.8):
        report = theory.predict_query_complexity(n, max(1, round(n**m0)))
        if report.m0 >= 0.4:
            assert report.scvr_exponent <= report.svrg_exponent
            assert report.better == "scvr"
        else:
            assert report.svrg_exponent < report.scvr_exponent
            assert report.better == "svrg"
    # non-parallel mini-batch switches regime at b0 = 2/3
    lo = theory.predict_query_complexity(n, n, b=round(n**0.5))
    hi = theory.predict_query_complexity(n, n, b=round(n**0.8))
    at = theory.predict_query_complexity(n, n, b=round(n ** (2 / 3)))
    assert lo.minibatch_nonparallel_exponent == pytest.approx(0.8 - 0.5 / 5, rel=1e-3)
    assert hi.minibatch_nonparallel_exponent == pytest.approx(2 / 3)
    assert at.minibatch_nonparallel_exponent == pytest.approx(2 / 3, rel=1e-3)
    _report(7, "alpha rules, 2/5 crossover, and 2/3 batch switch all match")


def test_criterion_08_convergence_trend():
    start = time.perf_counter()
    n = m = 100
    budget = 500_000
    problem = problems.make_nonconvex_synthetic(n=n, m=m, dim_x=8, dim_w=8, seed=7)
    x0 = np.ones(8) * 1.5
    etas = (0.3, 0.1)
    step_cost = {
        "scvr1": lambda a, bj, bo: 2 * a + 4,
        "scvr2": lambda a, bj, bo: 2 * a + 2 * bj + 2,
        "minibatch_v1": lambda a, bj, bo: 2 * a + 2 * bj + 2 * bo,
        "minibatch_v2": lambda a, bj, bo: 2 * a + 2 * bj + 2 * bo,
        "svrg": lambda a, bj, bo: 2 * m + 2,
    }

    def best_run(variant):
        a = bj = 6  # ~ m^(2/5)
        bo = 22 if variant.startswith("minibatch") else 1
        k = 16  # ~ n^(3 alpha / 2)
        epochs = budget // (2 * m + n + k * step_cost[variant](a, bj, bo)) + 1
        best = None
        for eta in etas:
            cfg = OptimizerConfig(
                eta=eta, epochs_s=epochs, inner_k=k, variant=variant,
                sample_a=a, sample_b=bj, batch_b=bo, seed=11, record_every=200,
            )
            try:
                result = run(problem, cfg, x0=x0, budget=budget)
            except optimizers.DivergenceError:
                continue
            final = result.trace[-1].grad_norm_sq
            if best is None or final < best[1].trace[-1].grad_norm_sq:
                best = (eta, result)
        assert best is not None, f"all swept steps diverged for {variant}"
        return best

    def queries_to_target(result, target):
        for rec in result.trace:
            if rec.grad_norm_sq <= target:
                return rec.total_queries
        return None

    results = {v: best_run(v) for v in step_cost}
    reductions = {}
    for variant, (eta, result) in results.items():
        first = result.trace[0].grad_norm_sq
        final = result.trace[-1].grad_norm_sq
        assert result.ledger.total <= budget
        reductions[variant] = first / final
    for variant in ("scvr1", "scvr2", "minibatch_v1", "minibatch_v2"):
        assert reductions[variant] >= 100.0, (variant, reductions[variant])

    first_value = results["svrg"][1].trace[0].grad_norm_sq
    target = 1e-3 * first_value
    svrg_reach = queries_to_target(results["svrg"][1], target)
    assert svrg_reach is not None, "svrg never reached the matched target"
    for variant in ("scvr1", "scvr2"):
        reach = queries_to_target(results[variant][1], target)
        assert reach is not None
        assert reach < svrg_reach, (variant, reach, svrg_reach)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(8, "variance-reduced variants cut the gradient norm >=100x and "
               f"beat the full-inner baseline to target ({elapsed:.0f}s)")


def test_criterion_09_embedding_pipeline():
    start = time.perf_counter()
    data, labels = problems.make_cluster_data(60, clusters=3, dim=40, seed=5)
    normalized = problems.normalize(data)
    reduced = problems.pca_reduce(normalized, 30)
    assert reduced.cols == 30
    problem = problems.build_sne(reduced, sigma=0.35, embed_dim=2)
    n = problem.n_points
    batch = math.ceil(n ** (2.0 / 3.0))
    assert batch == 16
    x0 = harness.initial_point(problem, 0, 1e-2)
    f0 = core.objective(problem, x0, QueryLedger())
    cfg = OptimizerConfig(
        eta=0.01, epochs_s=2000, inner_k=5, variant="minibatch_v1",
        sample_a=30, sample_b=30, batch_b=batch, seed=3, record_every=2500,
    )
    result = run(problem, cfg, x0=x0, budget=700_000)
    f1 = result.trace[-1].objective
    assert f1 <= 0.5 * f0, (f0, f1)
    embedding = result.x_last.reshape(n, 2)
    centroids = np.stack([embedding[labels == c].mean(axis=0) for c in range(3)])
    assigned = np.argmin(
        ((embedding[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    accuracy = float((assigned == labels).mean())
    assert accuracy >= 0.9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(9, f"objective {f0:.1f} -> {f1:.1f} ({100 * (1 - f1 / f0):.0f}% drop), "
               f"centroid accuracy {accuracy:.2f}, {elapsed:.0f}s")


def test_criterion_10_trace_determinism(tmp_path):
    cfg = {
        "problem": {"kind": "nonconvex_synthetic", "n": 10, "m": 10, "dim_x": 3,
                     "dim_w": 3, "seed": 6},
        "algorithms": [
            {"variant": "scvr1", "eta": 0.05, "epochs_s": 3, "inner_k": 4, "sample_a": 2},
            {"variant": "minibatch_v2", "eta": 0.05, "epochs_s": 3, "inner_k": 4,
             "sample_a": 2, "sample_b": 2, "batch_b": 3},
            {"variant": "sgd", "eta": 0.05, "epochs_s": 3, "inner_k": 4},
        ],
        "record_every": 2,
        "seed": 31,
        "output": str(tmp_path / "trace.csv"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))
    assert harness.main(["run", "--config", str(config_path)]) == 0
    first = (tmp_path / "trace.csv").read_bytes()
    assert harness.main(["run", "--config", str(config_path)]) == 0
    second = (tmp_path / "trace.csv").read_bytes()
    assert first == second
    assert len(first) > 0
    _report(10, f"repeated runs byte-identical ({len(first)} bytes)")

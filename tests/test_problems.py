"""Problem fixtures: analytic derivatives vs finite differences, the
embedding problem's structure, preprocessing, and CSV ingestion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scvr import core, problems, verification
from scvr.core import QueryLedger
from scvr.problems import (
    Dataset,
    MatrixParseError,
    ProblemConstructionError,
    SneProblem,
    build_sne,
    load_matrix,
    make_cluster_data,
    normalize,
    pca_reduce,
    save_matrix,
)


def _fd_check(problem, points, rel_tol, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(points):
        x = rng.normal(size=problem.dim_x) * 0.6
        grad = core.full_gradient(problem, x, QueryLedger())
        fd = verification.fd_gradient(problem, x)
        assert np.linalg.norm(grad - fd) <= rel_tol * max(np.linalg.norm(fd), 1e-9)


def test_affine_gradient_matches_fd(affine_small):
    _fd_check(affine_small, points=20, rel_tol=1e-7)


def test_nonconvex_gradient_matches_fd(nonconvex_small):
    _fd_check(nonconvex_small, points=20, rel_tol=1e-6)


@pytest.mark.parametrize(
    "cls", [problems.AffineQuadraticProblem, problems.NonconvexSyntheticProblem]
)
@pytest.mark.parametrize(
    "mats, offs, targets",
    [
        (np.ones((3, 3)), np.zeros((2, 3)), np.zeros((4, 3))),  # 2-D mats
        (np.ones((2, 3, 3)), np.zeros(3), np.zeros((4, 3))),  # 1-D offs
        (np.ones((2, 3, 3)), np.zeros((2, 3)), np.zeros(3)),  # 1-D targets
        (np.ones((2, 3, 3)), np.zeros((2, 1)), np.zeros((4, 3))),  # offs would broadcast
        (np.ones((2, 3, 3)), np.zeros((3, 3)), np.zeros((4, 3))),  # one offset too many
        (np.ones((2, 3, 3)), np.zeros((2, 3)), np.zeros((4, 2))),  # targets too short
    ],
)
def test_affine_inner_problems_reject_inconsistent_shapes(cls, mats, offs, targets):
    with pytest.raises(ProblemConstructionError):
        cls(mats, offs, targets)


def test_curved_gradient_matches_fd(curved_inner):
    _fd_check(curved_inner, points=10, rel_tol=1e-6)


def test_sne_gradient_matches_fd(sne_small):
    _fd_check(sne_small, points=20, rel_tol=1e-5, seed=1)


def test_affine_oracles(affine_small):
    x = np.array([1.2, -0.8, 0.4])
    assert core.objective(affine_small, x, QueryLedger()) == pytest.approx(
        verification.affine_objective(affine_small, x), abs=1e-10
    )
    grad = core.full_gradient(affine_small, x, QueryLedger())
    assert np.abs(grad - verification.affine_gradient(affine_small, x)).max() < 1e-10


# -- lazy constants ------------------------------------------------------------------

FACTORIES = {
    "affine_quadratic": lambda: problems.make_affine_quadratic(
        n=5, m=4, dim_x=3, dim_w=3, seed=1
    ),
    "balanced_affine": lambda: problems.make_balanced_affine(m_pairs=2, dim_x=3, dim_w=3, seed=6),
    # the benchmark's instance: a power-iteration Rayleigh quotient fell
    # below its largest component norm
    "nonconvex_synthetic": lambda: problems.make_nonconvex_synthetic(
        n=100, m=100, dim_x=8, dim_w=8, seed=7
    ),
    "curved_inner": lambda: problems.make_curved_inner(dim_x=3, dim_w=3, n=3, seed=5),
    "sne": lambda: build_sne(make_cluster_data(6, clusters=2, dim=5, seed=3)[0], sigma=2.0),
}


@pytest.mark.parametrize("name", list(FACTORIES))
def test_constants_are_computed_on_first_read_and_cached(name):
    problem = FACTORIES[name]()
    assert "constants" not in vars(problem)
    if name == "sne":
        # the embedding declares no constants: reading them raises every time
        for _ in range(2):
            with pytest.raises(NotImplementedError, match="SneProblem declares no constants"):
                problem.constants
        assert "constants" not in vars(problem)
        return
    first = problem.constants
    assert problem.constants is first


@pytest.mark.parametrize("name", [name for name in FACTORIES if name != "sne"])
def test_synthetic_jacobian_bound_holds_for_every_component(name):
    problem = FACTORIES[name]()
    for a in problem.mats:
        assert problem.constants.b_g >= np.linalg.norm(a, 2)


def test_affine_spectral_bound_power_iteration(affine_small):
    direct = max(np.linalg.norm(a, 2) for a in affine_small.mats)
    assert affine_small.constants.b_g == pytest.approx(direct, abs=1e-8)
    assert affine_small.constants.l_g == 0.0


def test_balanced_affine_components_cancel(balanced_affine):
    assert np.abs(balanced_affine.mats.sum(axis=0)).max() == 0.0


def test_nonconvex_outer_gradient_bound(nonconvex_small):
    """|rho'| never exceeds 3*sqrt(3)/8 (checked on a dense grid)."""
    t = np.linspace(-50, 50, 200_001)
    vals = np.abs(2 * t / (1 + t * t) ** 2)
    bound = 3 * np.sqrt(3) / 8
    assert vals.max() <= bound + 1e-12
    rng = np.random.default_rng(3)
    for _ in range(10):
        w = rng.normal(size=nonconvex_small.dim_w) * 3
        g = nonconvex_small.outer_component_gradient(1, w)
        assert np.linalg.norm(g) <= nonconvex_small.constants.b_f + 1e-12


def test_curved_inner_jacobian_lipschitz_exact(curved_inner):
    """Jacobian differences are rank one with norm |q_j| ||x - y||."""
    rng = np.random.default_rng(7)
    l_g = curved_inner.constants.l_g
    worst = 0.0
    for _ in range(20):
        x, y = rng.normal(size=3), rng.normal(size=3)
        for j in range(1, curved_inner.m_inner + 1):
            dj = curved_inner.inner_component_jacobian(
                j, x
            ) - curved_inner.inner_component_jacobian(j, y)
            ratio = np.linalg.norm(dj) / np.linalg.norm(x - y)
            worst = max(worst, ratio)
            assert ratio <= l_g + 1e-12
    assert worst == pytest.approx(l_g, rel=1e-12)  # attained by the largest |q_j|


# -- embedding problem -----------------------------------------------------------


def test_sne_kernel_at_identical_points():
    data, _ = make_cluster_data(4, clusters=2, dim=3, seed=1)
    problem = build_sne(data, sigma=1.0, embed_dim=2)
    x = np.zeros(problem.dim_x)  # all embedding points coincide
    w = problem.inner_component(1, x)
    # every kernel value is exp(0) = 1, so each tail entry is n*1 - 1
    assert np.allclose(w[problem.dim_x :], problem.n_points - 1.0, atol=0)


def test_sne_row_normalization():
    data, _ = make_cluster_data(5, clusters=2, dim=4, seed=2)
    problem = build_sne(data, sigma=1.3, embed_dim=2)
    sums = problem.p_matrix.sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-12
    assert np.all(np.diagonal(problem.p_matrix) == 0.0)


def test_sne_mean_inner_cancels_self_term(sne_small):
    """(1/m) sum_j G_j(x) = [x, s_1..s_n] with s_t the off-diagonal
    kernel sums: the -1 entries cancel the self-similarity exactly."""
    rng = np.random.default_rng(4)
    x = rng.normal(size=sne_small.dim_x) * 0.4
    mean = core.inner_full(sne_small, x, QueryLedger())
    pts = x.reshape(sne_small.n_points, sne_small.embed_dim)
    n = sne_small.n_points
    s = np.array(
        [
            sum(
                np.exp(-((pts[t] - pts[j]) ** 2).sum())
                for j in range(n)
                if j != t
            )
            for t in range(n)
        ]
    )
    assert np.abs(mean - np.concatenate([x, s])).max() <= 1e-12


def test_sne_translation_invariance(sne_small):
    rng = np.random.default_rng(5)
    x = rng.normal(size=sne_small.dim_x) * 0.4
    shift = np.tile([1.7, -2.3], sne_small.n_points)
    f0 = core.objective(sne_small, x, QueryLedger())
    f1 = core.objective(sne_small, x + shift, QueryLedger())
    assert f1 == pytest.approx(f0, abs=1e-10)


def test_sne_log_clamp_counts_events(sne_small):
    w = np.ones(sne_small.dim_w)
    w[sne_small.dim_x] = -0.5  # negative normalizer coordinate
    before = sne_small.clamp_events
    val = sne_small.outer_component(1, w)
    assert np.isfinite(val)
    assert sne_small.clamp_events == before + 1
    grad = sne_small.outer_component_gradient(1, w)
    assert np.all(np.isfinite(grad))
    assert sne_small.clamp_events == before + 2


def test_sne_per_point_sigma_vector():
    data, _ = make_cluster_data(5, clusters=2, dim=4, seed=6)
    sig = np.array([0.8, 1.0, 1.2, 1.5, 2.0])
    problem = build_sne(data, sig, embed_dim=2)
    assert np.abs(problem.p_matrix.sum(axis=1) - 1.0).max() <= 1e-12


def test_sne_rejects_bad_sigma():
    data, _ = make_cluster_data(4, clusters=2, dim=3, seed=1)
    with pytest.raises(ProblemConstructionError):
        build_sne(data, sigma=0.0)
    with pytest.raises(ProblemConstructionError):
        build_sne(data, sigma=np.array([1.0, 1.0]))
    # NaN used to pass as "degenerate row 0", inf as uniform similarities
    for bad in (np.nan, np.inf, np.array([1.0, np.nan, 1.0, 1.0])):
        with pytest.raises(ProblemConstructionError, match="finite and positive"):
            build_sne(data, sigma=bad)


def test_sne_degenerate_row_error():
    # two points at distance so extreme the similarity row cannot normalize
    data = Dataset(np.array([[0.0, 0.0], [1e300, 1e300]]))
    with pytest.raises(ProblemConstructionError):
        build_sne(data, sigma=1e-3)


def _reference_similarities(values, sigma):
    """The per-row loop ``build_sne`` used before it computed row blocks:
    the reference its similarities must equal bit for bit."""
    n = values.shape[0]
    sig = np.asarray(sigma, dtype=float)
    if sig.ndim == 0:
        sig = np.full(n, float(sig))
    with np.errstate(over="ignore"):
        sq = ((values[:, None, :] - values[None, :, :]) ** 2).sum(axis=2)
    p = np.zeros((n, n))
    for t in range(n):
        logits = -sq[t] / (2.0 * sig[t] ** 2)
        logits[t] = -np.inf
        top = logits.max()
        if not np.isfinite(top):
            raise ProblemConstructionError(f"similarity row {t} degenerates to zero")
        row = np.exp(logits - top)
        row[t] = 0.0
        denom = row.sum()
        if not np.isfinite(denom) or denom <= 0.0:
            raise ProblemConstructionError(f"similarity row {t} degenerates to zero")
        p[t] = row / denom
    return p


def _row_bytes(values):
    return values.shape[0] * values.shape[1] * 8


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    dim=st.integers(1, 12),
    spread=st.sampled_from([1e-3, 1.0, 30.0]),
    per_row_sigma=st.booleans(),
    rows_per_block=st.sampled_from([1, 2, 3, 7, None]),
)
@settings(max_examples=150, deadline=None)
def test_build_sne_equals_per_row_loop_bitwise(
    seed, n, dim, spread, per_row_sigma, rows_per_block
):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, dim)) * spread
    sigma = rng.uniform(0.05, 3.0, size=n) if per_row_sigma else float(rng.uniform(0.05, 3.0))
    block = problems.SIMILARITY_BLOCK_BYTES
    if rows_per_block is not None:
        block = rows_per_block * _row_bytes(values)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problems, "SIMILARITY_BLOCK_BYTES", block)
        got = build_sne(values, sigma).p_matrix
    assert got.tobytes() == _reference_similarities(values, sigma).tobytes()


def test_build_sne_multi_block_equals_per_row_loop_bitwise():
    values, _ = make_cluster_data(300, clusters=3, dim=30, seed=5)
    values = values.values
    assert problems.SIMILARITY_BLOCK_BYTES < 300 * _row_bytes(values) / 4  # >= 4 blocks
    sigma = np.random.default_rng(2).uniform(0.2, 2.0, size=300)
    for sig in (0.35, sigma):
        assert (
            build_sne(values, sig).p_matrix.tobytes()
            == _reference_similarities(values, sig).tobytes()
        )


@pytest.mark.parametrize("far_row", [0, 5, 13, 19])
@pytest.mark.parametrize("rows_per_block", [1, 4, 6, 20])
def test_build_sne_degenerate_row_names_the_same_row(monkeypatch, far_row, rows_per_block):
    # one point so far out that every distance from it overflows
    values = np.random.default_rng(far_row).normal(size=(20, 3))
    values[far_row] = 1e300
    monkeypatch.setattr(problems, "SIMILARITY_BLOCK_BYTES", rows_per_block * _row_bytes(values))
    with pytest.raises(ProblemConstructionError) as want:
        _reference_similarities(values, 1.0)
    with pytest.raises(ProblemConstructionError) as got:
        build_sne(values, 1.0)
    assert str(got.value) == str(want.value) == f"similarity row {far_row} degenerates to zero"


def test_sne_json_round_trip(sne_small):
    text = sne_small.to_json()
    back = SneProblem.from_json(text)
    assert back.n_points == sne_small.n_points
    assert back.embed_dim == sne_small.embed_dim
    assert np.array_equal(back.p_matrix, sne_small.p_matrix)
    x = np.linspace(-0.2, 0.2, sne_small.dim_x)
    assert core.objective(back, x, QueryLedger()) == core.objective(
        sne_small, x, QueryLedger()
    )


# -- preprocessing ----------------------------------------------------------------


def test_normalize_moments():
    rng = np.random.default_rng(8)
    data = Dataset(rng.normal(loc=3.0, scale=2.5, size=(40, 6)))
    out = normalize(data)
    assert np.abs(out.values.mean(axis=0)).max() <= 1e-12
    assert np.abs(out.values.std(axis=0) - 1.0).max() <= 1e-12


def test_normalize_constant_column_rule():
    data = Dataset(np.column_stack([np.full(10, 7.0), np.arange(10.0)]))
    out = normalize(data)
    assert np.all(out.values[:, 0] == 0.0)  # mean removed, no scaling
    assert out.values[:, 1].std() == pytest.approx(1.0, abs=1e-12)


def test_normalize_idempotent():
    rng = np.random.default_rng(9)
    data = Dataset(rng.normal(size=(25, 4)) * 5 + 1)
    once = normalize(data)
    twice = normalize(once)
    assert np.abs(twice.values - once.values).max() <= 1e-12


def test_pca_recovers_low_rank_embedding():
    rng = np.random.default_rng(10)
    latent = rng.normal(size=(30, 3))
    lift = rng.normal(size=(3, 12))
    data = Dataset(latent @ lift)
    reduced = pca_reduce(data, 3)
    # projection retains all variance: distances are preserved
    orig = data.values - data.values.mean(axis=0)
    d_orig = np.linalg.norm(orig[:, None] - orig[None, :], axis=2)
    d_red = np.linalg.norm(
        reduced.values[:, None] - reduced.values[None, :], axis=2
    )
    assert np.abs(d_orig - d_red).max() <= 1e-8


def test_pca_full_dimension_preserves_variance():
    rng = np.random.default_rng(11)
    data = Dataset(rng.normal(size=(20, 5)))
    reduced = pca_reduce(data, 5)
    centered = data.values - data.values.mean(axis=0)
    assert reduced.values.var() == pytest.approx(centered.var(), abs=1e-8)


def test_pca_projected_covariance_diagonal():
    rng = np.random.default_rng(12)
    data = Dataset(rng.normal(size=(50, 6)) @ np.diag([5, 4, 3, 2, 1, 0.5]))
    reduced = pca_reduce(data, 4)
    cov = np.cov(reduced.values.T)
    off = cov - np.diag(np.diagonal(cov))
    assert np.abs(off).max() <= 1e-8


def test_pca_sign_deterministic():
    rng = np.random.default_rng(13)
    data = Dataset(rng.normal(size=(15, 4)))
    a = pca_reduce(data, 2).values
    b = pca_reduce(data, 2).values
    assert np.array_equal(a, b)


def test_pca_rejects_bad_k():
    data = Dataset(np.random.default_rng(1).normal(size=(5, 3)))
    with pytest.raises(ValueError):
        pca_reduce(data, 5)  # k > rows - 1
    with pytest.raises(ValueError):
        pca_reduce(data, 0)


# -- CSV ingestion -----------------------------------------------------------------


def test_load_matrix_basic(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0,3.0\n4.0,5.0,6.5\n")
    data = load_matrix(path)
    assert data.rows == 2 and data.cols == 3
    assert np.array_equal(data.values, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.5]])


def test_load_matrix_header_comment(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# col_a,col_b\n1.5,2.5\n")
    assert load_matrix(path).rows == 1


def test_load_matrix_ragged_row_names_location(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(MatrixParseError, match="row 2"):
        load_matrix(path)


def test_load_matrix_bad_cell(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,abc\n")
    with pytest.raises(MatrixParseError, match="column 2"):
        load_matrix(path)


def test_load_matrix_not_utf8_names_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"\xff\xfe1,2\n")
    with pytest.raises(MatrixParseError, match="m.csv: not UTF-8"):
        load_matrix(path)


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    data = Dataset(rng.normal(size=(7, 3)) * np.pi)
    path = tmp_path / "round.csv"
    save_matrix(data, path)
    back = load_matrix(path)
    assert np.array_equal(back.values, data.values)

"""CLI harness: config validation, trace CSV runs, determinism,
parameter reports, the invariant suite, embedding, and sweeps."""

import json

import numpy as np
import pytest

from scvr import estimators, harness, optimizers, problems, verification
from scvr.harness import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    TRACE_HEADER,
    main,
)
from scvr.verification import VERIFY_CHECKS, _check_query_accounting, run_verify_checks


def _write_config(tmp_path, **overrides):
    cfg = {
        "problem": {"kind": "nonconvex_synthetic", "n": 8, "m": 8, "dim_x": 3,
                     "dim_w": 3, "seed": 4},
        "algorithms": [
            {"variant": "scvr1", "eta": 0.05, "epochs_s": 4, "inner_k": 5, "sample_a": 2},
            {"variant": "svrg", "eta": 0.05, "epochs_s": 4, "inner_k": 5},
        ],
        "budget": 4000,
        "record_every": 5,
        "seed": 11,
        "output": str(tmp_path / "trace.csv"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_run_writes_sorted_trace(tmp_path, capsys):
    path, cfg = _write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == EXIT_OK
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    rows = [line.split(",") for line in lines[1:]]
    keys = [(r[0], int(r[3])) for r in rows]
    assert keys == sorted(keys)
    assert {r[0] for r in rows} == {"scvr1", "svrg"}
    # monotone query counts per algorithm
    for algo in ("scvr1", "svrg"):
        totals = [int(r[3]) for r in rows if r[0] == algo]
        assert totals == sorted(totals)


def test_run_is_byte_deterministic(tmp_path):
    path, cfg = _write_config(tmp_path)
    main(["run", "--config", str(path)])
    first = (tmp_path / "trace.csv").read_bytes()
    main(["run", "--config", str(path)])
    assert (tmp_path / "trace.csv").read_bytes() == first


def test_run_budget_smaller_than_startup_is_config_error(tmp_path, capsys):
    path, _ = _write_config(tmp_path, budget=10)
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error E_CONFIG:")
    assert err.strip().count("\n") == 0  # single line


def test_run_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("error E_DATA:")


def test_run_unknown_variant_is_config_error(tmp_path, capsys):
    path, _ = _write_config(
        tmp_path, algorithms=[{"variant": "adamw", "eta": 0.1}]
    )
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG


def test_run_duplicate_variant_is_config_error(tmp_path, capsys):
    path, _ = _write_config(
        tmp_path,
        algorithms=[
            {"variant": "scvr1", "eta": 0.1},
            {"variant": "scvr1", "eta": 0.2},
        ],
    )
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert "once per experiment" in capsys.readouterr().err


def test_run_missing_data_file_for_sne(tmp_path, capsys):
    path, _ = _write_config(
        tmp_path,
        problem={"kind": "sne", "data": str(tmp_path / "missing.csv")},
        algorithms=[{"variant": "scvr2", "eta": 0.01}],
    )
    assert main(["run", "--config", str(path)]) == EXIT_DATA


def test_run_sne_config_end_to_end(tmp_path):
    data, _ = problems.make_cluster_data(10, clusters=2, dim=6, seed=3)
    data_path = tmp_path / "pts.csv"
    problems.save_matrix(data, data_path)
    path, _ = _write_config(
        tmp_path,
        problem={"kind": "sne", "data": str(data_path), "sigma": 1.0, "embed_dim": 2},
        algorithms=[{"variant": "minibatch_v1", "eta": 0.005, "epochs_s": 3,
                     "inner_k": 4, "sample_a": 3, "sample_b": 3, "batch_b": 4}],
        budget=None,
    )
    assert main(["run", "--config", str(path)]) == EXIT_OK
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(lines) > 1


def test_run_sne_json_config(tmp_path):
    data, _ = problems.make_cluster_data(8, clusters=2, dim=5, seed=9)
    problem = problems.build_sne(data, sigma=1.5, embed_dim=2)
    json_path = tmp_path / "problem.json"
    json_path.write_text(problem.to_json())
    path, _ = _write_config(
        tmp_path,
        problem={"kind": "sne_json", "path": str(json_path)},
        algorithms=[{"variant": "scvr2", "eta": 0.005, "epochs_s": 2, "inner_k": 3,
                     "sample_a": 2, "sample_b": 2}],
        budget=None,
    )
    assert main(["run", "--config", str(path)]) == EXIT_OK


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SCVR_OUT_DIR", str(tmp_path))
    path, _ = _write_config(tmp_path, output="rel_trace.csv")
    assert main(["run", "--config", str(path)]) == EXIT_OK
    assert (tmp_path / "rel_trace.csv").exists()


# -- check-params ------------------------------------------------------------------


def test_check_params_equal_sizes(capsys):
    assert main(["check-params", "--n", "10000", "--m", "10000"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["m0"] == pytest.approx(1.0)
    assert report["alpha"]["scvr"] == pytest.approx(0.4)
    assert report["exponents"]["scvr"] == pytest.approx(0.8)
    assert report["exponents"]["svrg"] == pytest.approx(1.0)
    assert report["recommendation"] == "scvr"
    for algo in ("scvr1", "scvr2", "minibatch"):
        assert report["suggestions"][algo]["premise_ok"] is True
        assert report["suggestions"][algo]["c0h"] < 0.5
        assert report["suggestions"][algo]["u_min"] > 0.0


def test_check_params_single_inner_component(capsys):
    assert main(["check-params", "--n", "1000", "--m", "1"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["recommendation"] == "svrg"


def test_check_params_rejects_n1(capsys):
    assert main(["check-params", "--n", "1", "--m", "10"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error E_ARGS:")


@pytest.mark.parametrize("flag,value", [("--b", "0"), ("--bg", "0"), ("--lf", "nan")])
def test_check_params_bad_constant_or_batch_is_one_args_error_line(capsys, flag, value):
    assert main(["check-params", "--n", "10", "--m", "10", flag, value]) == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error E_ARGS:")


# -- verify -------------------------------------------------------------------------


def test_verify_passes_on_pristine_build(capsys):
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == len(VERIFY_CHECKS)
    assert "FAIL" not in out


def test_verify_detects_wrong_query_charge(monkeypatch, capsys):
    """A deliberately mischarging estimator must trip the accounting check."""
    real = estimators.estimate_inner

    def lying_estimate_inner(problem, x, snap, batch, ledger):
        out = real(problem, x, snap, batch, ledger)
        ledger.inner_value_queries += 1  # overcharge: 2A+1 instead of 2A
        return out

    monkeypatch.setattr(estimators, "estimate_inner", lying_estimate_inner)
    results = dict((name, ok) for name, ok, _ in run_verify_checks())
    assert results["query_accounting"] is False
    assert main(["verify"]) == EXIT_VERIFY_FAILED


def test_verify_query_accounting_covers_every_variant(monkeypatch):
    seen = []
    real = optimizers.run

    def recording_run(problem, config, *args, **kwargs):
        seen.append(config.variant)
        return real(problem, config, *args, **kwargs)

    monkeypatch.setattr(optimizers, "run", recording_run)
    ok, detail = _check_query_accounting()
    assert ok, detail
    assert seen == list(optimizers.VARIANTS)
    # a later epoch's snapshot is charged again, and no two sizes coincide
    epochs, _, a, b_jac, b_out = verification.QUERY_ACCOUNTING_SHAPE
    assert epochs == 2
    assert len({a, b_jac, b_out}) == 3


def test_verify_wall_time_budget():
    import time

    start = time.perf_counter()
    run_verify_checks()
    assert time.perf_counter() - start < 60.0


# -- embed --------------------------------------------------------------------------


def test_embed_smoke_three_clusters(tmp_path, capsys):
    data, _ = problems.make_cluster_data(60, clusters=3, dim=10, seed=2)
    data_path = tmp_path / "clusters.csv"
    problems.save_matrix(data, data_path)
    out_path = tmp_path / "emb.csv"
    code = main([
        "embed", "--data", str(data_path), "--sigma", "0.5",
        "--eta", "0.01", "--epochs", "8", "--steps", "5",
        "--output", str(out_path),
    ])
    assert code == EXIT_OK
    rows = out_path.read_text().strip().splitlines()
    assert len(rows) == 60
    coords = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert coords.shape == (60, 2)
    assert np.all(np.isfinite(coords))


def test_embed_missing_file_names_path(tmp_path, capsys):
    code = main(["embed", "--data", str(tmp_path / "absent.csv")])
    assert code == EXIT_DATA
    assert "absent.csv" in capsys.readouterr().err


def test_embed_non_utf8_data_is_one_data_error_line(tmp_path, capsys):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"\xff\xfe1,2\n3,4\n")
    assert main(["embed", "--data", str(path), "--output", str(tmp_path / "e.csv")]) == EXIT_DATA
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error E_DATA:") and "binary.csv" in lines[0]


# -- sweep --------------------------------------------------------------------------


def test_sweep_reports_best_eta(tmp_path, capsys):
    path, cfg = _write_config(
        tmp_path,
        problem={"kind": "affine_quadratic", "n": 6, "m": 6, "dim_x": 3,
                  "dim_w": 3, "seed": 4},
        algorithms=[{"variant": "scvr1", "eta": 0.01, "epochs_s": 3, "inner_k": 4,
                     "sample_a": 2}],
        budget=3000,
    )
    report_path = tmp_path / "sweep.json"
    code = main([
        "sweep", "--config", str(path), "--etas", "0.02,0.004,1e9",
        "--report", str(report_path),
    ])
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    entry = report["scvr1"]
    assert entry["best_eta"] in (0.02, 0.004)
    diverged = [g for g in entry["grid"] if g["diverged"]]
    assert len(diverged) == 1 and diverged[0]["eta"] == 1e9
    assert (tmp_path / "trace.csv").exists()


def test_sweep_bad_grid_is_config_error(tmp_path, capsys):
    path, _ = _write_config(tmp_path)
    assert main(["sweep", "--config", str(path), "--etas", "abc"]) == EXIT_CONFIG


# -- error contract ------------------------------------------------------------------


def _sne_config(tmp_path, **problem_fields):
    data, _ = problems.make_cluster_data(8, clusters=2, dim=5, seed=3)
    data_path = tmp_path / "pts.csv"
    problems.save_matrix(data, data_path)
    block = {"kind": "sne", "data": str(data_path), "sigma": 1.0, "embed_dim": 2,
             "pca_dim": 4, **problem_fields}
    return _write_config(
        tmp_path, problem=block, budget=None,
        algorithms=[{"variant": "scvr2", "eta": 0.005, "epochs_s": 1, "inner_k": 2}],
    )


PROBLEM_FIELDS = [("n", "x"), ("m", "x"), ("dim_x", [3]), ("dim_w", None), ("seed", "abc")]
SNE_FIELDS = [("pca_dim", "x"), ("sigma", "wide"), ("embed_dim", None)]
TOP_FIELDS = [("seed", "abc"), ("record_every", "x"), ("budget", "x"), ("init_scale", [1])]


def _corrupt(tmp_path, where, name, value):
    if where == "sne":
        return _sne_config(tmp_path, **{name: value})[0]
    path, cfg = _write_config(tmp_path)
    if where == "problem":
        cfg["problem"][name] = value
    elif where == "affine":
        cfg["problem"] = {"kind": "affine_quadratic", name: value}
    elif where == "sne_json":
        cfg["problem"] = {"kind": "sne_json", name: value}
    elif where == "algorithm":
        cfg["algorithms"][0][name] = value
    elif where == "entry":
        cfg[name][0] = value
    else:
        cfg[name] = value
    path.write_text(json.dumps(cfg))
    return path


BAD_CONFIG_FIELDS = (
    [("problem", name, value) for name, value in PROBLEM_FIELDS]
    + [("sne", name, value) for name, value in SNE_FIELDS]
    + [("config", name, value) for name, value in TOP_FIELDS]
    + [("algorithm", "eta", float("nan")), ("algorithm", "eta", float("inf")),
       ("algorithm", "eta", None)]
    # sizes below 1
    + [(where, name, value) for where in ("problem", "affine")
       for name in ("n", "m", "dim_x", "dim_w") for value in (0, -1)]
    + [("sne", name, value) for name in ("pca_dim", "embed_dim") for value in (0, -1)]
    # algorithm entries that are not objects
    + [("entry", "algorithms", value) for value in (7, "scvr1", None, [])]
    # bandwidths that are not finite and positive
    + [("sne", "sigma", value) for value in (0, -1, float("nan"), float("inf"))]
    # sizes and counts that are not integral, string numbers and bools:
    # none may be truncated or parsed
    + [("problem", "n", 4.7), ("problem", "m", "3"), ("algorithm", "epochs_s", 2.9),
       ("problem", "dim_x", True), ("problem", "seed", 0.5), ("affine", "dim_w", "4"),
       ("sne", "pca_dim", 3.5), ("sne", "embed_dim", False), ("sne", "sigma", "1.0"),
       ("config", "seed", 1.5), ("config", "record_every", "2"), ("config", "budget", 4000.5),
       ("config", "init_scale", True), ("algorithm", "eta", "0.05"),
       ("algorithm", "inner_k", False), ("algorithm", "sample_a", float("inf")),
       pytest.param("algorithm", "eta", 10**400, id="algorithm-eta-int_beyond_float")]
    # problem seeds below 0
    + [("problem", "seed", -1), ("affine", "seed", -1)]
    # path fields that are not non-empty strings: no number may be taken
    # for a file descriptor, and nothing is opened or run
    + [("config", "output", value) for value in (1, None, [], "")]
    + [("sne", "data", value) for value in (True, 2, None, "")]
    + [("sne_json", "path", value) for value in (2, None, {}, "")]
    # epoch and step counts beyond the range the output index is drawn from
    + [("algorithm", name, 2**64 + 1) for name in ("epochs_s", "inner_k")]
    # misspelled fields: none may be left silently at its default
    + [("problem", "N", 5), ("affine", "dimx", 4), ("sne", "embed_dims", 2),
       ("sne_json", "pth", "p.json"), ("config", "recrod_every", 1)]
)


def _one_error_line(capsys, tag: str) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error {tag}:")
    return lines[0]


@pytest.mark.parametrize("where,name,value", BAD_CONFIG_FIELDS)
def test_run_bad_config_field_is_one_config_error_line(tmp_path, capsys, where, name, value):
    path = _corrupt(tmp_path, where, name, value)
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert name in _one_error_line(capsys, "E_CONFIG")
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("where,name,value", BAD_CONFIG_FIELDS)
def test_sweep_bad_config_field_is_one_config_error_line(tmp_path, capsys, where, name, value):
    path = _corrupt(tmp_path, where, name, value)
    assert main(["sweep", "--config", str(path), "--etas", "0.005"]) == EXIT_CONFIG
    assert name in _one_error_line(capsys, "E_CONFIG")
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("kind", ["nonconvex", 7, None, [1], {"n": 1}])
def test_unknown_problem_kind_is_one_config_error_line(tmp_path, capsys, kind):
    path = _corrupt(tmp_path, "problem", "kind", kind)
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert f"problem: unknown kind {kind!r}" in _one_error_line(capsys, "E_CONFIG")


def _run_or_sweep(command, path):
    if command == "run":
        return main(["run", "--config", str(path)])
    return main(["sweep", "--config", str(path), "--etas", "0.005"])


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("name,value,message", [
    ("n", 1e19, "Maximum allowed dimension exceeded"),
    ("m", 5e17, "array is too big"),
])
def test_size_beyond_numpy_size_limit_is_one_config_error_line(
    tmp_path, capsys, command, name, value, message
):
    # NumPy rejects these shapes before it allocates anything: 1e19 rows
    # pass its element limit, 5e17 inner 3 x 3 matrices its byte limit
    path = _corrupt(tmp_path, "problem", name, value)
    assert _run_or_sweep(command, path) == EXIT_CONFIG
    line = _one_error_line(capsys, "E_CONFIG")
    assert "cannot be allocated" in line and message in line
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_other_value_error_from_a_maker_is_not_an_input_error(tmp_path, monkeypatch, command):
    # only NumPy's size-limit errors mean the sizes were too large
    def broken(n, m, dim_x, dim_w, seed):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(problems, "make_nonconvex_synthetic", broken)
    path, _ = _write_config(tmp_path)
    with pytest.raises(ValueError, match="could not be broadcast"):
        _run_or_sweep(command, path)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_unallocatable_size_is_one_config_error_line(tmp_path, capsys, monkeypatch, command):
    # a real allocation of this size could succeed under overcommit and
    # then fault its pages in, so the maker fails as NumPy would
    def refuse(n, m, dim_x, dim_w, seed):
        raise MemoryError(f"Unable to allocate 21.8 TiB for an array with shape ({n}, 3)")

    monkeypatch.setattr(problems, "make_nonconvex_synthetic", refuse)
    path = _corrupt(tmp_path, "problem", "n", 1e12)
    assert _run_or_sweep(command, path) == EXIT_CONFIG
    assert "21.8 TiB" in _one_error_line(capsys, "E_CONFIG")
    assert not (tmp_path / "trace.csv").exists()


def test_integral_float_sizes_are_accepted(tmp_path):
    path, cfg = _write_config(tmp_path)
    cfg["problem"]["n"] = 8.0
    cfg["algorithms"][0]["epochs_s"] = 4.0
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == EXIT_OK


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("sigma", [1.5, [1.5, 1.0, 2.0, 0.5, 1.5, 1.0, 2.0, 0.5]])
def test_sne_json_with_valid_sigma_runs(tmp_path, command, sigma):
    json_path = tmp_path / "problem.json"
    json_path.write_text(_sne_json_text(lambda o: {**o, "sigma": sigma}))
    path, _ = _write_config(
        tmp_path, problem={"kind": "sne_json", "path": str(json_path)}, budget=None,
        algorithms=[{"variant": "scvr2", "eta": 0.005, "epochs_s": 1, "inner_k": 2}],
    )
    extra = ["--etas", "0.005"] if command == "sweep" else []
    assert main([command, "--config", str(path), *extra]) == EXIT_OK


def _sne_json_text(mutate) -> str:
    data, _ = problems.make_cluster_data(8, clusters=2, dim=5, seed=9)
    obj = json.loads(problems.build_sne(data, sigma=1.5, embed_dim=2).to_json())
    out = mutate(obj)
    return out if isinstance(out, str) else json.dumps(out)


# (mutation of a valid sne_json file, text the error line must contain)
BAD_SNE_JSON = {
    "missing_p_matrix": (lambda o: {k: v for k, v in o.items() if k != "p_matrix"}, "p_matrix"),
    "missing_sigma": (lambda o: {k: v for k, v in o.items() if k != "sigma"}, "sigma"),
    "not_json": (lambda o: '{"n": 8, ', "does not parse"),
    "not_an_object": (lambda o: "[1, 2]", "object"),
    "n_not_numeric": (lambda o: {**o, "n": "eight"}, "'n'"),
    "embed_dim_not_numeric": (lambda o: {**o, "embed_dim": None}, "embed_dim"),
    "embed_dim_zero": (lambda o: {**o, "embed_dim": 0}, "embed_dim"),
    "p_matrix_shape_disagrees_with_n": (lambda o: {**o, "n": 5}, "p_matrix"),
    "p_matrix_not_numeric": (lambda o: {**o, "p_matrix": [["a"] * 8] * 8}, "p_matrix"),
    "p_matrix_nan": (lambda o: {**o, "p_matrix": [[float("nan")] * 8] * 8}, "finite"),
    "sigma_negative": (lambda o: {**o, "sigma": -3}, "sigma"),
    "sigma_nan": (lambda o: {**o, "sigma": float("nan")}, "sigma"),
    "sigma_string": (lambda o: {**o, "sigma": "1.5"}, "sigma"),
    "sigma_bool": (lambda o: {**o, "sigma": True}, "sigma"),
    "sigma_vector_with_zero": (lambda o: {**o, "sigma": [1.5] * 7 + [0.0]}, "sigma"),
    "sigma_vector_wrong_length": (lambda o: {**o, "sigma": [1.5] * 3}, "sigma"),
}


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("case", list(BAD_SNE_JSON))
def test_bad_sne_json_file_is_one_data_error_line(tmp_path, capsys, command, case):
    mutate, needle = BAD_SNE_JSON[case]
    json_path = tmp_path / "problem.json"
    json_path.write_text(_sne_json_text(mutate))
    path, _ = _write_config(
        tmp_path, problem={"kind": "sne_json", "path": str(json_path)}, budget=None,
        algorithms=[{"variant": "scvr2", "eta": 0.005, "epochs_s": 1, "inner_k": 2}],
    )
    extra = ["--etas", "0.005"] if command == "sweep" else []
    assert main([command, "--config", str(path), *extra]) == EXIT_DATA
    line = _one_error_line(capsys, "E_DATA")
    assert str(json_path) in line and needle in line
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_single_row_sne_data_is_one_data_error_line(tmp_path, capsys, command):
    data_path = tmp_path / "one.csv"
    data_path.write_text("0.5,1.5,2.5\n")
    path, _ = _write_config(
        tmp_path, problem={"kind": "sne", "data": str(data_path)}, budget=None,
        algorithms=[{"variant": "scvr2", "eta": 0.005, "epochs_s": 1, "inner_k": 2}],
    )
    extra = ["--etas", "0.005"] if command == "sweep" else []
    assert main([command, "--config", str(path), *extra]) == EXIT_DATA
    assert "two data rows" in _one_error_line(capsys, "E_DATA")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_config_directory_is_one_data_error_line(tmp_path, capsys, command):
    assert _run_or_sweep(command, tmp_path) == EXIT_DATA
    assert str(tmp_path) in _one_error_line(capsys, "E_DATA")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_non_utf8_config_is_one_config_error_line(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"seed": "\xff"}')
    assert _run_or_sweep(command, path) == EXIT_CONFIG
    assert "utf-8" in _one_error_line(capsys, "E_CONFIG")


def _embed(tmp_path, data_path, *extra):
    return main(["embed", "--data", str(data_path), "--epochs", "1", "--steps", "2",
                 "--output", str(tmp_path / "emb.csv"), *extra])


def test_embed_data_directory_is_one_data_error_line(tmp_path, capsys):
    assert _embed(tmp_path, tmp_path) == EXIT_DATA
    assert str(tmp_path) in _one_error_line(capsys, "E_DATA")
    assert not (tmp_path / "emb.csv").exists()


def test_embed_single_row_data_is_one_data_error_line_as_in_run(tmp_path, capsys):
    data_path = tmp_path / "one.csv"
    data_path.write_text("0.5,1.5,2.5\n")
    assert _embed(tmp_path, data_path) == EXIT_DATA
    assert "two data rows" in _one_error_line(capsys, "E_DATA")
    assert not (tmp_path / "emb.csv").exists()


@pytest.mark.parametrize("flag,value", [
    ("--sigma", "0"), ("--sigma", "-1"), ("--sigma", "nan"), ("--sigma", "inf"),
    ("--dim", "0"), ("--pca-dim", "0"),
])
def test_embed_bad_argument_is_one_config_error_line(tmp_path, capsys, flag, value):
    data, _ = problems.make_cluster_data(12, clusters=2, dim=5, seed=2)
    data_path = tmp_path / "clusters.csv"
    problems.save_matrix(data, data_path)
    assert _embed(tmp_path, data_path, flag, value) == EXIT_CONFIG
    _one_error_line(capsys, "E_CONFIG")
    assert not (tmp_path / "emb.csv").exists()


@pytest.mark.parametrize("budget", [0, -3, 5, 36])
def test_embed_budget_below_startup_is_one_config_error_line(tmp_path, capsys, budget):
    # 12 points: the snapshot costs 2m + n = 36 queries
    data, _ = problems.make_cluster_data(12, clusters=2, dim=5, seed=2)
    data_path = tmp_path / "clusters.csv"
    problems.save_matrix(data, data_path)
    assert _embed(tmp_path, data_path, "--budget", str(budget)) == EXIT_CONFIG
    line = _one_error_line(capsys, "E_CONFIG")
    assert f"budget {budget} does not cover the startup cost 36 of variant minibatch_v1" in line
    assert not (tmp_path / "emb.csv").exists()
    assert _embed(tmp_path, data_path, "--budget", "37") == EXIT_OK


def _nan_outer_gradient(self, i, w):
    return np.full(self.dim_w, np.nan)


def _nan_outer_gradients(self, is_, w):
    return np.full((len(is_), self.dim_w), np.nan)


def test_embed_non_finite_component_is_diverged(tmp_path, capsys, monkeypatch):
    data, _ = problems.make_cluster_data(12, clusters=2, dim=5, seed=2)
    data_path = tmp_path / "clusters.csv"
    problems.save_matrix(data, data_path)
    # both the per-component and the batch form, whichever the run calls
    monkeypatch.setattr(problems.SneProblem, "outer_component_gradient", _nan_outer_gradient)
    monkeypatch.setattr(problems.SneProblem, "outer_gradients", _nan_outer_gradients)
    code = main(["embed", "--data", str(data_path), "--epochs", "1", "--steps", "2",
                 "--output", str(tmp_path / "emb.csv")])
    assert code == harness.EXIT_DIVERGED
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error E_DIVERGED:")
    assert not (tmp_path / "emb.csv").exists()


def test_sweep_records_evaluation_error_as_diverged(tmp_path, capsys, monkeypatch):
    path, _ = _write_config(
        tmp_path, algorithms=[{"variant": "scvr1", "eta": 0.01, "epochs_s": 2, "inner_k": 3}],
    )
    real_run = harness.optimizers.run

    def run_blowing_up_at_large_eta(problem, config, x0=None, budget=None):
        if config.eta > 1.0:
            raise harness.EvaluationError("outer gradient 3 returned a non-finite value")
        return real_run(problem, config, x0=x0, budget=budget)

    monkeypatch.setattr(harness.optimizers, "run", run_blowing_up_at_large_eta)
    report_path = tmp_path / "sweep.json"
    code = main(["sweep", "--config", str(path), "--etas", "0.01,5",
                 "--report", str(report_path)])
    assert code == EXIT_OK
    grid = json.loads(report_path.read_text())["scvr1"]["grid"]
    assert [g["diverged"] for g in grid] == [False, True]


@pytest.mark.parametrize("etas", ["0.01,nan", "inf", "0.01,-0.5"])
def test_sweep_non_finite_or_negative_eta_is_config_error(tmp_path, capsys, etas):
    path, _ = _write_config(tmp_path)
    assert main(["sweep", "--config", str(path), "--etas", etas]) == EXIT_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error E_CONFIG:")


def test_sne_embed_dim_beyond_numpy_size_limit_is_one_data_error_line(tmp_path, capsys):
    # the iterate has n * embed_dim coordinates; the problem refuses it
    # before the run draws a start point that large
    path, _ = _sne_config(tmp_path, embed_dim=10**30)
    assert main(["run", "--config", str(path)]) == EXIT_DATA
    assert "embed_dim" in _one_error_line(capsys, "E_DATA")
    assert not (tmp_path / "trace.csv").exists()


# -- output paths --------------------------------------------------------------------


def _output_argv(tmp_path, output, target):
    """argv of a small command that writes its ``output`` to ``target``."""
    if output == "embed":
        data, _ = problems.make_cluster_data(12, clusters=2, dim=5, seed=2)
        problems.save_matrix(data, tmp_path / "clusters.csv")
        return ["embed", "--data", str(tmp_path / "clusters.csv"), "--epochs", "1",
                "--steps", "2", "--output", target]
    if output == "check-params":
        return ["check-params", "--n", "100", "--m", "100", "--output", target]
    if output.endswith("trace"):
        path, _ = _write_config(tmp_path, output=target)
    else:
        path, _ = _write_config(tmp_path)
    if output == "run-trace":
        return ["run", "--config", str(path)]
    report = ["--report", target] if output == "sweep-report" else []
    return ["sweep", "--config", str(path), "--etas", "0.05", *report]


@pytest.mark.parametrize("output", ["run-trace", "sweep-trace", "sweep-report", "embed",
                                    "check-params"])
def test_output_path_that_is_a_directory_is_one_data_error_line(tmp_path, capsys, output):
    target = tmp_path / "taken"
    target.mkdir()
    assert main(_output_argv(tmp_path, output, str(target))) == EXIT_DATA
    assert str(target) in _one_error_line(capsys, "E_DATA")


# -- wall timing ---------------------------------------------------------------------


def _wall_ms_by_variant(trace_path) -> dict[str, set[str]]:
    lines = trace_path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    walls: dict[str, set[str]] = {}
    for line in lines[1:]:
        fields = line.split(",")
        walls.setdefault(fields[0], set()).add(fields[-1])
    return walls


def test_run_timing_wall_records_one_whole_millisecond_count_per_variant(tmp_path):
    path, cfg = _write_config(tmp_path)
    trace = tmp_path / "trace.csv"
    assert main(["run", "--config", str(path), "--timing", "wall"]) == EXIT_OK
    walls = _wall_ms_by_variant(trace)
    assert sorted(walls) == sorted(entry["variant"] for entry in cfg["algorithms"])
    for values in walls.values():
        (value,) = values  # every row of a variant carries the same count
        assert value.isdigit() and str(int(value)) == value
    # the default leaves the column at 0
    assert main(["run", "--config", str(path)]) == EXIT_OK
    assert set().union(*_wall_ms_by_variant(trace).values()) == {"0"}

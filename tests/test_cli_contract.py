"""The CLI's error contract under corrupted input.

A small valid ``run`` config, or a small ``embed`` data CSV, has one
field or cell replaced by a value from a fixed set.  The command then
either succeeds, or prints exactly one ``error <CODE>:`` line on stderr
and exits with that code's status; a warning counts as a line.  The
configs carry a ``budget`` and only small sizes, so no replacement can
make a run long, and no replacement is a size NumPy would allocate: each
is below 1, not integral, or past NumPy's size limit.  Each example runs
in its own temporary directory, which relative paths resolve against.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from scvr import harness, problems

EXIT_OF_TAG = {
    "E_CONFIG": harness.EXIT_CONFIG,
    "E_ARGS": harness.EXIT_CONFIG,
    "E_DATA": harness.EXIT_DATA,
    "E_DIVERGED": harness.EXIT_DIVERGED,
}

DIRECTORY = object()  # stands for the path of an existing directory
REPLACEMENTS = ["abc", True, None, [], {}, -1, 0, 2.5, 1e300, float("nan"), float("inf"),
                10**30, DIRECTORY]

SYNTHETIC = {
    "problem": {"kind": "nonconvex_synthetic", "n": 6, "m": 6, "dim_x": 3, "dim_w": 3,
                "seed": 4},
    "algorithms": [
        {"variant": "scvr1", "eta": 0.05, "epochs_s": 2, "inner_k": 3, "sample_a": 2,
         "seed": 5, "record_every": 2},
        {"variant": "minibatch_v2", "eta": 0.05, "epochs_s": 2, "inner_k": 3, "sample_a": 2,
         "sample_b": 2, "batch_b": 2},
    ],
    "budget": 600,
    "record_every": 3,
    "seed": 11,
    "init_scale": 0.1,
    "output": "trace.csv",
}
SNE = {
    **SYNTHETIC,
    "problem": {"kind": "sne", "data": "data.csv", "sigma": 1.0, "embed_dim": 2, "pca_dim": 3},
    "algorithms": [{"variant": "scvr2", "eta": 0.005, "epochs_s": 2, "inner_k": 2}],
}
CONFIGS = {"synthetic": SYNTHETIC, "sne": SNE}


def _field_paths(obj, prefix=()):
    """The key path of every field and entry of a JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


CONFIG_FIELDS = [(name, path) for name, cfg in CONFIGS.items() for path in _field_paths(cfg)]


def _data_rows() -> list[list[str]]:
    data, _ = problems.make_cluster_data(8, clusters=2, dim=4, seed=3)
    return [[repr(float(v)) for v in row] for row in data.values]


DATA_ROWS = _data_rows()
DATA_CELLS = [(r, c) for r in range(len(DATA_ROWS)) for c in range(len(DATA_ROWS[0]))]


def _write_data(rows) -> None:
    Path("data.csv").write_text("".join(",".join(row) + "\n" for row in rows))


def _assert_contract(argv) -> None:
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = harness.main(argv)
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    if code == harness.EXIT_OK:
        assert lines == [], argv
        return
    assert len(lines) == 1, lines
    tag = lines[0].split(":", 1)[0].removeprefix("error ")
    assert EXIT_OF_TAG.get(tag) == code, (lines, code)


def _csv_text(replacement) -> str:
    if replacement is DIRECTORY:
        return str(Path.cwd())
    if isinstance(replacement, str):
        return replacement
    return json.dumps(replacement)  # NaN, Infinity, 1e+300, ... as JSON spells them


@given(field=st.sampled_from(CONFIG_FIELDS), replacement=st.sampled_from(REPLACEMENTS))
@settings(max_examples=60, deadline=None)
def test_run_config_with_one_corrupted_field_keeps_the_contract(field, replacement):
    name, path = field
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        _write_data(DATA_ROWS)
        cfg = copy.deepcopy(CONFIGS[name])
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = tmp if replacement is DIRECTORY else replacement
        Path("config.json").write_text(json.dumps(cfg))
        _assert_contract(["run", "--config", "config.json"])


@given(cell=st.sampled_from(DATA_CELLS), replacement=st.sampled_from(REPLACEMENTS))
@settings(max_examples=30, deadline=None)
def test_embed_data_with_one_corrupted_cell_keeps_the_contract(cell, replacement):
    row, col = cell
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        rows = copy.deepcopy(DATA_ROWS)
        rows[row][col] = _csv_text(replacement)
        _write_data(rows)
        _assert_contract(["embed", "--data", "data.csv", "--epochs", "1", "--steps", "2",
                          "--output", "emb.csv"])

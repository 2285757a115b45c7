"""The output comparison of scripts/same_outputs.py on fabricated records."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "same_outputs", Path(__file__).resolve().parent.parent / "scripts" / "same_outputs.py"
)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)

RECORD = {
    "fingerprint synth_vr seed 0": "ab" * 32,
    "trace criterion_10": "algorithm,epoch\nscvr1,0\nscvr1,1\n",
    "check-params n=100 m=100 b=1": '{\n  "n": 100\n}',
}


def _verdicts(parent, change):
    return {key: (same, detail) for key, same, detail in same_outputs.compare(parent, change)}


def test_identical_records_compare_identical():
    rows = same_outputs.compare(RECORD, dict(RECORD))
    assert [key for key, _, _ in rows] == sorted(RECORD)
    assert all(same and detail == "" for _, same, detail in rows)


def test_a_changed_fingerprint_is_different():
    change = {**RECORD, "fingerprint synth_vr seed 0": "cd" * 32}
    verdicts = _verdicts(RECORD, change)
    assert verdicts["fingerprint synth_vr seed 0"][0] is False
    assert verdicts["trace criterion_10"] == (True, "")


def test_a_changed_csv_line_is_named():
    change = {**RECORD, "trace criterion_10": "algorithm,epoch\nscvr1,0\nscvr1,2\n"}
    same, detail = _verdicts(RECORD, change)["trace criterion_10"]
    assert not same
    assert detail == "line 3: 'scvr1,1' != 'scvr1,2'"


def test_a_truncated_output_is_different():
    change = {**RECORD, "trace criterion_10": "algorithm,epoch\nscvr1,0\n"}
    assert _verdicts(RECORD, change)["trace criterion_10"] == (False, "3 lines != 2 lines")


def test_an_output_missing_on_either_side_is_different():
    extra = {**RECORD, "fingerprint sne_embed seed 0": "ef" * 32}
    assert _verdicts(RECORD, extra)["fingerprint sne_embed seed 0"] == (
        False, "missing on the parent side"
    )
    assert _verdicts(extra, RECORD)["fingerprint sne_embed seed 0"] == (
        False, "missing on the change side"
    )


def test_main_exits_nonzero_on_any_difference(monkeypatch, capsys):
    records = {}

    def fake_collect(root, seeds):
        return records[root == same_outputs.ROOT]

    monkeypatch.setattr(same_outputs, "collect", fake_collect)
    records.update({False: RECORD, True: dict(RECORD)})
    assert same_outputs.main(["--parent", "/elsewhere"]) == 0
    assert capsys.readouterr().out.count("identical ") == len(RECORD)
    records[True] = {**RECORD, "check-params n=100 m=100 b=1": '{\n  "n": 101\n}'}
    assert same_outputs.main(["--parent", "/elsewhere"]) == 1
    assert "DIFFERENT check-params n=100 m=100 b=1: line 2" in capsys.readouterr().out


def test_embed_outputs_hide_the_temporary_directory(tmp_path):
    from scvr import problems

    data_path = tmp_path / "clusters.csv"
    n_points, clusters, dim, seed = same_outputs.EMBED_DATA
    data, _ = problems.make_cluster_data(n_points, clusters=clusters, dim=dim, seed=seed)
    problems.save_matrix(data, data_path)
    coords, stdout = same_outputs._embed_outputs("scvr1", str(data_path), str(tmp_path))
    assert len(coords.splitlines()) == n_points
    assert stdout.startswith("wrote <workdir>/embed_scvr1.csv (20 rows x 2); objective ")
    assert str(tmp_path) not in stdout

#!/usr/bin/env python3
"""Check that two source checkouts produce the same outputs.

Usage:
    python scripts/same_outputs.py --parent DIR [--seeds 0,23]

DIR is the root of a source checkout, for example a clone of the parent
commit; the other side is the checkout that holds this script.  Each
side runs in its own process, importing ``scvr`` from its ``src/`` and
the workloads from its ``perfbench/`` with BLAS on one thread, and
collects:

- the sha256 of each benchmark workload's ``Outcome.fingerprint``
  (ledgers, traces, iterates, CSV bytes) at each seed
- the trace CSV of the acceptance suite's criterion-10 config, and of
  the same config with all seven variants
- the ``scvr check-params`` JSON for (n, m, b) in (100, 100, 1),
  (1000, 50, 4) and (10000, 10000, 2)
- the stdout of ``scvr verify``
- the coordinates CSV and stdout of ``scvr embed --algorithm <v>`` for
  each of the seven variants, on a small ``make_cluster_data`` CSV
  (2 epochs x 4 steps)

It prints one line per output, ``identical`` or ``DIFFERENT``, and exits
0 if every output is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = Path(__file__).resolve().parent

# The acceptance suite's criterion-10 config; the second trace runs it
# with every variant.
CRITERION_10 = {
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
}
ALL_VARIANTS = ("scvr1", "scvr2", "minibatch_v1", "minibatch_v2", "gd", "sgd", "svrg")
CHECK_PARAMS_SIZES = ((100, 100, 1), (1000, 50, 4), (10000, 10000, 2))
# make_cluster_data(n_points, clusters, dim, seed) of the embed runs
EMBED_DATA = (20, 2, 6, 4)


def _trace_csv(config: dict, workdir: str, name: str) -> str:
    from scvr import harness

    path = os.path.join(workdir, f"{name}.json")
    csv_path = os.path.join(workdir, f"{name}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**config, "output": csv_path}, fh)
    if harness.main(["run", "--config", path]) != 0:
        raise RuntimeError(f"scvr run failed on the {name} config")
    with open(csv_path, encoding="utf-8") as fh:
        return fh.read()


def _check_params(n: int, m: int, b: int, workdir: str) -> str:
    from scvr import harness

    path = os.path.join(workdir, f"check_params_{n}_{m}_{b}.json")
    argv = ["check-params", "--n", str(n), "--m", str(m), "--b", str(b), "--output", path]
    if harness.main(argv) != 0:
        raise RuntimeError(f"scvr check-params failed at n={n}, m={m}, b={b}")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _verify_stdout() -> str:
    """What ``scvr verify`` prints; a failing check shows as its FAIL line."""
    import contextlib
    import io

    from scvr import harness

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        harness.main(["verify"])
    return out.getvalue()


def _embed_outputs(variant: str, data_path: str, workdir: str) -> tuple[str, str]:
    """The coordinates CSV and stdout of ``scvr embed`` with ``variant``;
    the temporary directory in stdout reads ``<workdir>``."""
    import contextlib
    import io

    from scvr import harness

    csv_path = os.path.join(workdir, f"embed_{variant}.csv")
    argv = ["embed", "--data", data_path, "--algorithm", variant, "--epochs", "2",
            "--steps", "4", "--output", csv_path]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if harness.main(argv) != 0:
            raise RuntimeError(f"scvr embed failed with --algorithm {variant}")
    with open(csv_path, encoding="utf-8") as fh:
        return fh.read(), out.getvalue().replace(workdir, "<workdir>")


def probe(root: str, seeds: list[int]) -> None:
    """Print one JSON record of this process's outputs.  Runs inside the
    checkout ``root``, whose ``src/`` and ``perfbench/`` are on the path."""
    import contextlib
    import hashlib
    import io
    import tempfile

    import scvr
    import workloads

    for module in (scvr, workloads):
        if not Path(module.__file__).resolve().is_relative_to(Path(root).resolve()):
            raise RuntimeError(f"{module.__name__} imported from {module.__file__}, not {root}")
    record: dict = {}
    with tempfile.TemporaryDirectory() as workdir, contextlib.redirect_stdout(io.StringIO()):
        for name, workload in workloads.WORKLOADS.items():
            for seed in seeds:
                wl = workload(seed, workdir)
                outcome = wl.run(wl.setup())
                digest = hashlib.sha256(repr(outcome.fingerprint).encode()).hexdigest()
                record[f"fingerprint {name} seed {seed}"] = digest
        record["trace criterion_10"] = _trace_csv(CRITERION_10, workdir, "criterion_10")
        every = [
            {"variant": v, "eta": 0.05, "epochs_s": 3, "inner_k": 4,
             "sample_a": 2, "sample_b": 2, "batch_b": 3}
            for v in ALL_VARIANTS
        ]
        record["trace all_variants"] = _trace_csv(
            {**CRITERION_10, "algorithms": every}, workdir, "all_variants"
        )
        for n, m, b in CHECK_PARAMS_SIZES:
            record[f"check-params n={n} m={m} b={b}"] = _check_params(n, m, b, workdir)
        record["verify"] = _verify_stdout()
        from scvr import problems

        data_path = os.path.join(workdir, "clusters.csv")
        n_points, clusters, dim, seed = EMBED_DATA
        data, _ = problems.make_cluster_data(n_points, clusters=clusters, dim=dim, seed=seed)
        problems.save_matrix(data, data_path)
        for variant in ALL_VARIANTS:
            coords, stdout = _embed_outputs(variant, data_path, workdir)
            record[f"embed {variant} coordinates"] = coords
            record[f"embed {variant} stdout"] = stdout
    print(json.dumps(record))


def collect(root: Path, seeds: list[int]) -> dict:
    """The outputs of the checkout ``root``, from a fresh process."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root / "perfbench"), str(SCRIPTS)]
    )
    code = f"import same_outputs; same_outputs.probe({str(root)!r}, {seeds!r})"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: probe exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _first_difference(a: str, b: str) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for number, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        if la != lb:
            return f"line {number}: {la!r} != {lb!r}"
    return f"{len(lines_a)} lines != {len(lines_b)} lines"


def compare(parent: dict, change: dict) -> list[tuple[str, bool, str]]:
    """(output, identical, detail) for every output either side produced."""
    rows = []
    for key in sorted(set(parent) | set(change)):
        if key not in parent or key not in change:
            side = "parent" if key not in parent else "change"
            rows.append((key, False, f"missing on the {side} side"))
        elif parent[key] == change[key]:
            rows.append((key, True, ""))
        else:
            rows.append((key, False, _first_difference(parent[key], change[key])))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout root")
    parser.add_argument("--seeds", default="0,23", help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    rows = compare(collect(args.parent.resolve(), seeds), collect(ROOT, seeds))
    for key, same, detail in rows:
        print(f"identical {key}" if same else f"DIFFERENT {key}: {detail}")
    return 0 if all(same for _, same, _ in rows) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Neighbor embedding at growing n: set-up, snapshot, full gradient,
one optimizer epoch and peak memory, for two source checkouts.

Usage:
    python scripts/sne_scale.py --parent DIR [--change DIR] [--out BENCH_sne_scale.json]

DIR is the root of a source checkout; ``--change`` defaults to the
checkout holding this script.  For each n in SIZES the criterion-09
pipeline runs (``make_cluster_data(n, clusters=3, dim=40, seed=5)``,
``normalize``, ``pca_reduce`` to 30 dimensions, ``build_sne`` with
sigma 0.35 and d = 2), then at the harness start point it times one
``take_snapshot``, one ``full_gradient`` and EPOCH_RUNS runs of one
``minibatch_v1`` epoch (the criterion-09 configuration with
``epochs_s=1``: 5 steps and 2 trace records), reporting their median.
Each size of each checkout runs in its own process, with BLAS on one
thread, so ``ru_maxrss`` is that size's peak.  The other times are one
measurement each: at n = 960 the dense-Jacobian path needs minutes per
epoch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIZES = (240, 480, 960)
EPOCH_RUNS = 3
SIDES = ("parent", "change")


def measure(n: int) -> dict:
    """Time the pipeline at size n with the ``scvr`` on ``sys.path``."""
    import numpy as np

    from scvr import core, estimators, harness, optimizers, problems
    from scvr.optimizers import OptimizerConfig

    def timed(fn, *args, **kwargs):
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        return value, time.perf_counter() - start

    data, _ = problems.make_cluster_data(n, clusters=3, dim=40, seed=5)
    reduced = problems.pca_reduce(problems.normalize(data), 30)
    problem, build_s = timed(problems.build_sne, reduced, sigma=0.35, embed_dim=2)
    rss_after_build = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    x0 = harness.initial_point(problem, 0, 1e-2)
    snap, snapshot_s = timed(estimators.take_snapshot, problem, x0, core.QueryLedger())
    grad_tilde_norm = float(np.linalg.norm(snap.grad_tilde))
    del snap  # a run holds one snapshot of its own
    grad, full_gradient_s = timed(core.full_gradient, problem, x0, core.QueryLedger())
    cfg = OptimizerConfig(
        eta=0.01, epochs_s=1, inner_k=5, variant="minibatch_v1", sample_a=30,
        sample_b=30, batch_b=math.ceil(n ** (2.0 / 3.0)), seed=3, record_every=2500,
    )
    epochs = [timed(optimizers.run, problem, cfg, x0=x0) for _ in range(EPOCH_RUNS)]
    result = epochs[0][0]
    return {
        "n": n,
        "build_sne_s": build_s,
        "snapshot_s": snapshot_s,
        "full_gradient_s": full_gradient_s,
        "epoch_s": statistics.median(t for _, t in epochs),
        "epoch_runs_s": [t for _, t in epochs],
        "epoch_queries": result.ledger.total,
        "trace_records": len(result.trace),
        "grad_tilde_norm": grad_tilde_norm,
        "full_gradient_norm": float(np.linalg.norm(grad)),
        "peak_rss_after_build_mb": rss_after_build,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_size(root: Path, n: int) -> dict:
    """``measure(n)`` in a fresh process importing ``root/src``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); sys.path.insert(0, sys.argv[2]);"
        "import sne_scale; print(json.dumps(sne_scale.measure(int(sys.argv[3]))))"
    )
    cmd = [sys.executable, "-c", code, str(Path(__file__).resolve().parent),
           str(root / "src"), str(n)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{root} n={n} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def machine(root: Path) -> dict:
    """The machine record ``perfbench/run.py`` prints, taken in a fresh
    process with BLAS pinned to one thread as in the workers."""
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import run;"
        "print(json.dumps(run.machine_record()))"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(root / "perfbench")],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def commit(root: Path) -> str:
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout root")
    parser.add_argument("--change", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="changed checkout root (default: this checkout)")
    parser.add_argument("--out", type=Path, default=Path("BENCH_sne_scale.json"))
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "pipeline": "make_cluster_data(n, clusters=3, dim=40, seed=5), normalize, "
                    "pca_reduce(30), build_sne(sigma=0.35, embed_dim=2); minibatch_v1 "
                    "epoch: eta 0.01, inner_k 5, sample_a = sample_b = 30, "
                    "batch_b = ceil(n^(2/3)), seed 3, 2 trace records",
        "machine": machine(roots["change"]),
        "checkouts": {side: {"commit": commit(root)} for side, root in roots.items()},
        "sizes": {},
    }
    for n in SIZES:
        entry = {}
        for side in SIDES:
            entry[side] = run_size(roots[side], n)
            print(f"n={n} {side}: " + ", ".join(
                f"{k} {entry[side][k]:.4g}" for k in
                ("build_sne_s", "snapshot_s", "full_gradient_s", "epoch_s", "peak_rss_mb")
            ), flush=True)
        report["sizes"][str(n)] = entry
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Synthetic convergence benchmark: sweep step sizes for every
variance-reduced variant plus the svrg/sgd baselines on the nonconvex
composition problem, then write the best trace per method.

Usage:
    python scripts/benchmark_synthetic.py [--n 100] [--budget 500000] \
        [--out traces.csv] [--report sweep.json]

The output CSV has one row per recorded iterate (columns: algorithm,
epoch, inner_iter, total_queries, grad_norm_sq, objective, wall_ms);
plot total_queries against grad_norm_sq to compare methods.
"""

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scvr.harness import main as harness_main


def build_config(n: int, budget: int, out: str) -> dict:
    sample = max(1, math.ceil(n ** 0.4))
    batch = max(1, math.ceil(n ** (2.0 / 3.0)))
    inner_k = max(1, math.ceil(n ** 0.6))
    epochs = budget // (3 * n) + 1
    algo = lambda variant, **kw: {
        "variant": variant, "eta": 0.1, "epochs_s": epochs, "inner_k": inner_k,
        "sample_a": sample, "sample_b": sample, **kw,
    }
    return {
        "problem": {"kind": "nonconvex_synthetic", "n": n, "m": n,
                     "dim_x": 8, "dim_w": 8, "seed": 7},
        "algorithms": [
            algo("scvr1"),
            algo("scvr2"),
            algo("minibatch_v1", batch_b=batch),
            algo("minibatch_v2", batch_b=batch),
            algo("svrg"),
            algo("sgd"),
        ],
        "budget": budget,
        "record_every": 200,
        "seed": 11,
        "init_scale": 1.5,
        "output": out,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100, help="component count (m = n)")
    parser.add_argument("--budget", type=int, default=500_000)
    parser.add_argument("--etas", default="0.3,0.1,0.03")
    parser.add_argument("--out", default="traces.csv")
    parser.add_argument("--report", default="sweep.json")
    args = parser.parse_args()

    cfg = build_config(args.n, args.budget, args.out)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = str(Path(tmp) / "config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return harness_main([
            "sweep", "--config", cfg_path, "--etas", args.etas, "--report", args.report,
        ])


if __name__ == "__main__":
    sys.exit(main())

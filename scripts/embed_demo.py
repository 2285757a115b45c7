#!/usr/bin/env python3
"""Neighbor-embedding demo: generate Gaussian clusters, run the full
normalize -> PCA -> embedding pipeline, and report how well the
embedding separates the clusters.

Usage:
    python scripts/embed_demo.py [--points 60] [--clusters 3] [--sigma 0.35]
"""

import argparse
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scvr import problems
from scvr.harness import main as harness_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=60)
    parser.add_argument("--clusters", type=int, default=3)
    parser.add_argument("--dim", type=int, default=40, help="ambient data dimension")
    parser.add_argument("--sigma", type=float, default=0.35)
    parser.add_argument("--eta", type=float, default=0.01)
    parser.add_argument("--budget", type=int, default=700_000)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--out", default="embedding.csv")
    args = parser.parse_args()

    data, labels = problems.make_cluster_data(
        args.points, clusters=args.clusters, dim=args.dim, seed=args.seed
    )
    batch = math.ceil(args.points ** (2.0 / 3.0))
    with tempfile.TemporaryDirectory() as tmp:
        data_path = str(Path(tmp) / "data.csv")
        problems.save_matrix(data, data_path)
        code = harness_main([
            "embed", "--data", data_path, "--sigma", str(args.sigma),
            "--eta", str(args.eta), "--epochs", "2000", "--steps", "5",
            "--sample", "30", "--batch", str(batch),
            "--budget", str(args.budget), "--seed", "3", "--output", args.out,
        ])
    if code != 0:
        return code

    coords = problems.load_matrix(args.out).values
    centroids = np.stack(
        [coords[labels == c].mean(axis=0) for c in range(args.clusters)]
    )
    assigned = np.argmin(
        ((coords[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    accuracy = float((assigned == labels).mean())
    print(f"nearest-centroid accuracy over {args.clusters} clusters: {accuracy:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Paired benchmark runs of two source checkouts, summarized per metric.

Usage:
    python scripts/bench_pairs.py --parent DIR --change DIR --name NAME [--pairs 10]

DIR is the root of a source checkout (for example a clone of the parent
commit, and this repository).  The workloads and the run length T are
``workloads`` and ``run_seconds`` of the change checkout's
BENCHMARK.json.  For each seed S in 1..PAIRS and each workload W the
script runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, one after the other; the parent runs
first on odd seeds and the change first on even seeds.  Every run uses
the checkout's own ``perfbench/``.

It writes ``BENCH_<NAME>.json`` after every pair, holding the machine
record, each checkout's commit, and per workload and metric the
per-run values, median and quartiles of each side, the relative change
of the medians, in how many pairs the change read better (ties count
for neither side), and a ``verdict`` against the metric's ``bound`` in
BENCHMARK.json:

    regression    the change's median is worse by more than the bound
    gain          the change read better in at least 9/10 of the pairs
                  and its median is better by more than the parent's IQR
    unresolved    the parent's IQR/median exceeds the bound and not every
                  change run beats every parent run
    within_bound  anything else
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout root")
    parser.add_argument("--change", required=True, type=Path, help="changed checkout root")
    parser.add_argument("--name", required=True, help="output is BENCH_<name>.json")
    parser.add_argument("--pairs", type=int, default=10)
    return parser.parse_args(argv)


def checkout_record(root: Path) -> dict:
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    return {
        "commit": git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(git("status", "--porcelain")),
    }


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run; returns (machine record, result object)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    machine = next(
        (json.loads(line[len("# machine "):]) for line in lines if line.startswith("# machine ")),
        {},
    )
    return machine, json.loads(lines[-1])


def side_summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Paired runs of one metric, judged as the module docstring says;
    ``parent[k]`` and ``change[k]`` are pair k."""
    sign = 1.0 if better == "lower" else -1.0  # sign * value: lower is better
    p, c = side_summary(parent), side_summary(change)
    if sign * (c["median"] / p["median"] - 1.0) > bound:
        return "regression"
    iqr = p["q3"] - p["q1"]
    wins = sum(sign * cv < sign * pv for pv, cv in zip(parent, change))
    if 10 * wins >= 9 * len(parent) and sign * (p["median"] - c["median"]) > iqr:
        return "gain"
    if iqr / p["median"] > bound and not max(sign * v for v in change) < min(
        sign * v for v in parent
    ):
        return "unresolved"
    return "within_bound"


def summarize(results: dict, units: dict) -> dict:
    """Per workload: correctness and, per metric, both sides and the wins."""
    out = {}
    for workload, sides in results.items():
        pairs = min(len(sides["parent"]), len(sides["change"]))
        if pairs < 2:
            continue
        entry = {
            "pairs": pairs,
            "all_runs_correct": all(r["correct"] for side in SIDES for r in sides[side][:pairs]),
            "failed_runs": {side: sum(r["failed"] for r in sides[side][:pairs]) for side in SIDES},
            "attempted_runs": {side: sum(r["attempted"] for r in sides[side][:pairs])
                               for side in SIDES},
        }
        for metric in sides["parent"][0]["metrics"]:
            lower = units[metric]["better"] == "lower"
            values = {side: [r["metrics"][metric]["value"] for r in sides[side][:pairs]]
                      for side in SIDES}
            wins = sum(
                (c < p) if lower else (c > p)
                for p, c in zip(values["parent"], values["change"])
            )
            parent, change = side_summary(values["parent"]), side_summary(values["change"])
            entry[metric] = {
                "unit": units[metric]["unit"],
                "better": units[metric]["better"],
                "parent": parent,
                "change": change,
                "median_change_rel": change["median"] / parent["median"] - 1.0,
                "parent_iqr": parent["q3"] - parent["q1"],
                "change_wins_of_pairs": [wins, pairs],
                "verdict": verdict(values["parent"], values["change"],
                                   units[metric]["better"], units[metric]["bound"]),
            }
        out[workload] = entry
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    units = {m["name"]: m for m in bench["end_to_end"]}
    out_path = Path(f"BENCH_{args.name}.json")
    report = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "pairs": f"seeds 1-{args.pairs}, one run per "
                 "side per seed and workload; parent first on odd seeds, change first on even",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the per-run medians",
        "checkouts": {side: checkout_record(root) for side, root in roots.items()},
        "machine": {},
        "workloads": {},
    }
    results = {w: {side: [] for side in SIDES} for w in workloads}
    for seed in range(1, args.pairs + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                start = time.perf_counter()
                machine, result = run_once(roots[side], workload, seed, seconds)
                report["machine"] = report["machine"] or machine
                results[workload][side].append(result)
                run_s = result["metrics"].get("run_s", {}).get("value")
                print(f"seed {seed} {workload} {side}: run_s {run_s} correct "
                      f"{result['correct']} ({time.perf_counter() - start:.0f} s)", flush=True)
        report["workloads"] = summarize(results, units)
        out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One single-threaded process runs one workload (see
``workloads.py`` for the three and why each was chosen).

With ``--trace 0`` it repeats the workload (five set-ups, then the
optimizer runs) until ``--seconds`` are spent, and reports medians:
``setup_s``, ``run_s``, ``queries_per_s`` (algorithmic ledger total
over ``run_s``) and ``peak_rss_mb``.  Optimizer runs that raise or
fail a gate are counted in ``failed`` against ``attempted``.

With ``--trace 1`` it alternates traced and untraced repetitions and
reports the per-layer metrics of ``spans.layer_metrics``; counts must
repeat exactly and the traced results must equal the untraced ones bit
for bit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_out"

# The workloads run single-threaded; pin BLAS before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# Setting up takes milliseconds, so it is repeated before every run
# repetition: its samples then span the whole measurement, not only its
# first second.
SETUPS_PER_REP = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def machine_record() -> dict:
    import ctypes

    import numpy as np

    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        caches[f"L{level}_{kind}"] = _read(f"{index}/size")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }
    # ask the loaded OpenBLAS itself how many threads it will use
    libs = {
        line.split()[-1] for line in _read("/proc/self/maps").splitlines()
        if "openblas" in line.lower() and line.split()[-1].endswith(".so")
    }
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["blas_threads"] = fn()
                break
    return record


class Tally:
    """Optimizer runs attempted and failed, plus consistency errors."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference = None

    def add(self, out, label: str) -> None:
        self.attempted += out.runs
        self.failed += len(out.failed)
        for run_name, reasons in out.failed.items():
            self.errors.append(f"{label} {run_name}: {'; '.join(reasons)}")
        if self.reference is None:
            self.reference = out
        elif out.fingerprint != self.reference.fingerprint:
            self.errors.append(f"{label}: results differ from the first repetition")


def _timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def measure(wl, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics, tracing off."""
    begin = time.perf_counter()
    setup_times, run_times = [], []
    while True:
        for _ in range(SETUPS_PER_REP):
            state, dt = _timed(wl.setup)
            setup_times.append(dt)
        out, dt = _timed(wl.run, state)
        run_times.append(dt)
        tally.add(out, f"rep {len(run_times)}")
        if time.perf_counter() - begin + statistics.median(run_times) > seconds:
            break
    run_s = statistics.median(run_times)
    print(f"# {wl.name}: {len(run_times)} run reps {[round(t, 4) for t in run_times]}")
    print(f"# {wl.name}: {len(setup_times)} setup reps {[round(t, 5) for t in setup_times]}")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (run_s, "s"),
        "queries_per_s": (tally.reference.queries / run_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def measure_traced(wl, seconds: float, tally: Tally) -> dict:
    """Per-layer metrics from traced repetitions alternated with
    untraced ones; every traced result must equal the untraced one."""
    import spans

    begin = time.perf_counter()
    state = wl.setup()
    untraced, traced, per_rep = [], [], []
    summary = {}
    while True:
        out, dt = _timed(wl.run, state)
        untraced.append(dt)
        tally.add(out, f"untraced {len(untraced)}")
        gc.collect()
        recorder = spans.SpanRecorder()
        inst = spans.install(recorder)
        try:
            traced_state = recorder.wrap("bench.setup", wl.setup)()
            out = recorder.wrap("bench.run", wl.run)(traced_state)
        finally:
            inst.restore()
        label = f"traced {len(traced) + 1}"
        tally.add(out, label)
        summary = spans.summarize(recorder)
        metrics = spans.layer_metrics(summary, recorder.counts, out)
        del recorder
        traced.append(summary["bench.run"]["busy_ns"] / 1e9)
        tally.errors.extend(f"{label}: {e}" for e in spans.check_counts(metrics, out))
        per_rep.append(metrics)
        step = statistics.median(traced) + statistics.median(untraced)
        if time.perf_counter() - begin + step > seconds:
            break
    print(f"# {wl.name}: {len(traced)} traced reps {[round(t, 4) for t in traced]}, "
          f"untraced {[round(t, 4) for t in untraced]}")
    print("# spans " + json.dumps(summary, sort_keys=True))
    result = {}
    for name, (value, unit) in per_rep[0].items():
        values = [rep[name][0] for rep in per_rep]
        if unit in spans.EXACT_UNITS:
            if any(v != value for v in values):
                tally.errors.append(f"{name}: count differs between traced reps {values}")
            result[name] = (value, unit)
        else:
            result[name] = (statistics.median(values), unit)
    result["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio"
    )
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "scvr" / "__init__.py").is_file():
        print(f"error: no scvr sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print("# machine " + json.dumps(machine_record(), sort_keys=True))
    WORKDIR.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=WORKDIR) as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics = measure_traced(wl, args.seconds, tally)
        else:
            metrics = measure(wl, args.seconds, tally)
    try:
        WORKDIR.rmdir()
    except OSError:
        pass
    for error in tally.errors:
        print(f"# FAIL {error}")
    print(f"# {args.workload} seed {args.seed}: runs_failed {tally.failed} count "
          f"of {tally.attempted} attempted")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value} {unit}")
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

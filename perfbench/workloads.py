"""The benchmark's three workloads.

Each workload builds its inputs in ``setup`` (timed as ``setup_s``) and
runs its optimizer runs in ``run`` (timed as ``run_s``).  Runs are sized
by epochs x steps, never cut by a budget, so every ledger total must
equal ``optimizers.expected_total_queries``.  ``run`` returns an
``Outcome`` holding the gate failures and an exact fingerprint of what
the program produced, which later repetitions and the traced run must
reproduce bit for bit.

The workload seed moves only the algorithm seeds, that is the sampled
indices.  Problem instances and start points stay those of the
acceptance suite (problem seed 7 and run seed 11 for the synthetic
workloads, data seed 5 and run seed 3 for the embedding; seed 0 gives
exactly these), because the gate floors are properties of them.  At the
settings below, other problem seeds need from 54 to over 400 epochs to
cut the gradient norm 100x; two of the first six other data seeds do
not halve the SNE objective in 300 epochs; some other SNE start points
end below 0.9 centroid accuracy; and the sgd baseline's objective can
rise from other harness start points.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from scvr import harness, optimizers, problems
from scvr.core import EvaluationError
from scvr.optimizers import DivergenceError, OptimizerConfig


@dataclass
class Outcome:
    """What one repetition of a workload did."""

    runs: int
    failed: dict[str, list[str]] = field(default_factory=dict)
    queries: int = 0
    ledger: tuple[int, int, int, int] | None = None
    shadow_queries: int = 0
    steps: int = 0
    epochs: int = 0
    jacobian_shape: tuple[int, int] = (0, 0)
    clamp_events: int = 0
    trace_bytes: int = 0
    fingerprint: list = field(default_factory=list)


def _ledger(result) -> tuple[int, int, int, int]:
    led = result.ledger
    return (
        led.inner_value_queries,
        led.inner_jacobian_queries,
        led.outer_value_queries,
        led.outer_gradient_queries,
    )


def _trace_key(trace) -> tuple:
    return tuple(
        (r.epoch, r.inner_iter, r.total_queries, r.grad_norm_sq, r.objective) for r in trace
    )


def _expected(problem, cfg: OptimizerConfig) -> int:
    return optimizers.expected_total_queries(
        cfg.variant, cfg.epochs_s, cfg.inner_k, problem.m_inner, problem.n_outer,
        cfg.sample_a, cfg.sample_b, cfg.batch_b,
    )


def _shadow_per_record(problem) -> int:
    # optimizers._record: full_gradient (2m + n) plus objective (m + n)
    return 3 * problem.m_inner + 2 * problem.n_outer


def _run_gated(problem, cfg, x0, out: Outcome, gates) -> None:
    """One optimizer run, its ledger check and its workload gates."""
    want = _expected(problem, cfg)
    out.epochs += cfg.epochs_s
    out.steps += cfg.epochs_s * cfg.inner_k
    try:
        result = optimizers.run(problem, cfg, x0=x0)
    except (DivergenceError, EvaluationError) as exc:
        out.failed[cfg.variant] = [f"{type(exc).__name__}: {exc}"]
        out.fingerprint.append((cfg.variant, "raised", str(exc)))
        return
    ledger = _ledger(result)
    out.queries += sum(ledger)
    out.ledger = ledger if out.ledger is None else tuple(map(sum, zip(out.ledger, ledger)))
    out.shadow_queries += len(result.trace) * _shadow_per_record(problem)
    out.fingerprint.append(
        (cfg.variant, ledger, _trace_key(result.trace), result.x_last.tobytes(),
         result.x_out.tobytes())
    )
    reasons = list(gates(result))
    if sum(ledger) != want:
        reasons.append(f"ledger {sum(ledger)} != closed form {want}")
    if reasons:
        out.failed[cfg.variant] = reasons


class SynthVr:
    """Criterion-08 problem through ``optimizers.run`` with the four
    variance-reduced variants.  Components are 8x8, so per-call overhead
    (snapshot loops, estimator loops, finiteness checks) dominates."""

    name = "synth_vr"
    VARIANTS = ("scvr1", "scvr2", "minibatch_v1", "minibatch_v2")
    # 100 epochs cut the gradient norm 139x on this instance (floor 100x);
    # the algorithm seed moves that by about 2%.
    EPOCHS = 100

    def __init__(self, seed: int, workdir: str) -> None:
        self.run_seed = 11 + seed

    def setup(self):
        return problems.make_nonconvex_synthetic(n=100, m=100, dim_x=8, dim_w=8, seed=7)

    def run(self, problem) -> Outcome:
        out = Outcome(runs=len(self.VARIANTS), jacobian_shape=(problem.dim_w, problem.dim_x))
        x0 = np.ones(problem.dim_x) * 1.5
        for variant in self.VARIANTS:
            cfg = OptimizerConfig(
                eta=0.1, epochs_s=self.EPOCHS, inner_k=16, variant=variant,
                sample_a=6, sample_b=6, batch_b=22 if variant.startswith("minibatch") else 1,
                seed=self.run_seed, record_every=200,
            )
            _run_gated(problem, cfg, x0, out, self._gates)
        return out

    @staticmethod
    def _gates(result):
        first, last = result.trace[0].grad_norm_sq, result.trace[-1].grad_norm_sq
        if not first >= 100.0 * last:
            yield f"gradient norm cut {first / last:.3g}x, floor 100x"


class SynthFullCli:
    """The same problem through the harness' public sequence, with the
    full-evaluation baselines and dense trace recording."""

    name = "synth_full_cli"

    def __init__(self, seed: int, workdir: str) -> None:
        self.config_path = os.path.join(workdir, "experiment.json")
        self.csv_path = os.path.join(workdir, "trace.csv")
        # sgd takes the smaller step and twice the steps: its single-j
        # Jacobian is noisy enough that 320 steps at eta 0.1 can raise
        # the objective.
        algos = [
            {"variant": "svrg", "eta": 0.1, "epochs_s": 20, "inner_k": 16, "seed": 11 + seed},
            {"variant": "sgd", "eta": 0.05, "epochs_s": 40, "inner_k": 16, "seed": 11 + seed},
            {"variant": "gd", "eta": 0.1, "epochs_s": 20, "inner_k": 16, "seed": 11 + seed},
        ]
        config = {
            "problem": {"kind": "nonconvex_synthetic", "n": 100, "m": 100,
                        "dim_x": 8, "dim_w": 8, "seed": 7},
            "algorithms": algos,
            "record_every": 4,
            "seed": 11,
            "init_scale": 1.5,
            "output": "trace.csv",
        }
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)

    def setup(self):
        cfg = harness.load_experiment(self.config_path)
        return harness.prepare_experiment(cfg)

    def run(self, prepared) -> Outcome:
        problem, configs, meta = prepared
        out = Outcome(runs=len(configs), jacobian_shape=(problem.dim_w, problem.dim_x))
        try:
            sections = harness.run_experiment(problem, configs, meta)
        except (DivergenceError, EvaluationError) as exc:
            out.fingerprint.append(("raised", str(exc)))
            for oc in configs:
                out.failed[oc.variant] = [f"run_experiment: {type(exc).__name__}: {exc}"]
            return out
        harness.write_trace_csv(self.csv_path, sections)
        with open(self.csv_path, "rb") as fh:
            data = fh.read()
        out.trace_bytes = len(data)
        out.fingerprint.append(hashlib.sha256(data).hexdigest())
        for oc, (variant, trace, _wall) in zip(configs, sections):
            out.fingerprint.append((variant, _trace_key(trace)))
            out.epochs += oc.epochs_s
            out.steps += oc.epochs_s * oc.inner_k
            out.shadow_queries += len(trace) * _shadow_per_record(problem)
            total = trace[-1].total_queries
            out.queries += total
            want = _expected(problem, oc)
            reasons = []
            if not trace[-1].objective < trace[0].objective:
                reasons.append(
                    f"objective {trace[0].objective:.6g} -> {trace[-1].objective:.6g}"
                )
            if total != want:
                reasons.append(f"ledger {total} != closed form {want}")
            if reasons:
                out.failed[variant] = reasons
        return out


class SneEmbed:
    """Criterion-09 pipeline: cluster data, normalize, PCA, SNE problem,
    then ``minibatch_v1``.  Each Jacobian is a dense 180x120 array, so
    the run is bound by compute and memory traffic."""

    name = "sne_embed"
    # From this start point, 150 epochs leave the objective at 0.46
    # of its start (floor 0.5) at centroid accuracy 0.97 (floor 0.9).
    EPOCHS = 150

    def __init__(self, seed: int, workdir: str) -> None:
        self.run_seed = 3 + seed

    def setup(self):
        data, labels = problems.make_cluster_data(60, clusters=3, dim=40, seed=5)
        reduced = problems.pca_reduce(problems.normalize(data), 30)
        return problems.build_sne(reduced, sigma=0.35, embed_dim=2), labels

    def run(self, state) -> Outcome:
        problem, labels = state
        out = Outcome(runs=1, jacobian_shape=(problem.dim_w, problem.dim_x))
        x0 = harness.initial_point(problem, 0, 1e-2)
        cfg = OptimizerConfig(
            eta=0.01, epochs_s=self.EPOCHS, inner_k=5, variant="minibatch_v1",
            sample_a=30, sample_b=30, batch_b=16, seed=self.run_seed, record_every=2500,
        )
        problem.clamp_events = 0

        def gates(result):
            f0, f1 = result.trace[0].objective, result.trace[-1].objective
            if not f1 <= 0.5 * f0:
                yield f"objective {f0:.6g} -> {f1:.6g}, floor: halved"
            embedding = result.x_last.reshape(problem.n_points, problem.embed_dim)
            acc = centroid_accuracy(embedding, labels)
            if not acc >= 0.9:
                yield f"centroid accuracy {acc:.3f}, floor 0.9"

        _run_gated(problem, cfg, x0, out, gates)
        out.clamp_events = problem.clamp_events
        out.fingerprint.append(("clamp_events", out.clamp_events))
        return out


def centroid_accuracy(embedding: np.ndarray, labels: np.ndarray) -> float:
    """Share of points nearest to their own cluster's centroid."""
    clusters = int(labels.max()) + 1
    centroids = np.stack([embedding[labels == c].mean(axis=0) for c in range(clusters)])
    dist = ((embedding[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float((np.argmin(dist, axis=1) == labels).mean())


WORKLOADS = {wl.name: wl for wl in (SynthVr, SynthFullCli, SneEmbed)}

"""Command-line front-end: configured benchmark runs with CSV traces,
parameter suggestions, the invariant suite's report, neighbor-embedding
runs, and step-size sweeps.

Subcommands
-----------
run           execute the algorithms listed in a JSON config, write a
              combined trace CSV
check-params  print suggested parameters, premise checks and
              query-complexity exponents for given problem sizes
verify        print the fast invariant suite of ``verification``, one
              line per check; exit 0 iff everything passes
embed         normalize -> PCA -> neighbor embedding -> coordinates CSV
sweep         re-run one config over a step-size grid, keep the best

Relative output paths resolve against $SCVR_OUT_DIR when it is set.
Commands raise; :func:`main` alone turns a failure into one line
``error <CODE>: <message>`` on stderr and an exit status: E_ARGS and
E_CONFIG (2) for a bad argument, a bad config field (path fields must be
non-empty strings) or unallocatable sizes, E_DATA (3) for a file a
command reads or writes that is missing, unreadable, unwritable or
cannot form a problem, and E_DIVERGED (4) for a run that left the
finite box or met a non-finite component value.

Trace CSVs carry a wall_ms column.  Timing is off by default (the
column reads 0) so that identical config and seed reproduce the file
byte for byte; pass ``--timing wall`` to record real elapsed
milliseconds at the cost of that reproducibility.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from scvr import optimizers, problems, theory, verification
from scvr.core import EvaluationError, SampleStream, SmoothnessConstants
from scvr.optimizers import DivergenceError, OptimizerConfig, TraceRecord

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

TRACE_HEADER = "algorithm,epoch,inner_iter,total_queries,grad_norm_sq,objective,wall_ms"


class ConfigError(ValueError):
    pass


class CliFailure(Exception):
    def __init__(self, code: int, tag: str, message: str):
        super().__init__(message)
        self.code = code
        self.tag = tag


def _out_path(path: str) -> str:
    base = os.environ.get("SCVR_OUT_DIR", "")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

_ALGO_FIELDS = {
    "variant", "eta", "epochs_s", "inner_k",
    "sample_a", "sample_b", "batch_b", "seed", "record_every",
}
_TOP_FIELDS = {"problem", "algorithms", "output", "seed", "record_every", "init_scale", "budget"}
_SIZE_FIELDS = {"kind", "n", "m", "dim_x", "dim_w", "seed"}
_PROBLEM_FIELDS = {
    "affine_quadratic": _SIZE_FIELDS,
    "nonconvex_synthetic": _SIZE_FIELDS,
    "sne": {"kind", "data", "pca_dim", "sigma", "embed_dim"},
    "sne_json": {"kind", "path"},
}


def _known_fields(block: dict, known: set, where: str) -> None:
    """A :class:`ConfigError` naming every field of ``block`` not in
    ``known``: a misspelled field is never silently left at its default."""
    unknown = set(block) - known
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}")


def _field(block: dict, name: str, default, convert, where: str):
    """``convert(block[name])`` (or of ``default``) for ``convert`` int or
    float.  A value that is not a JSON number (a string, a bool, null),
    or is not integral where ``convert`` is int, is a
    :class:`ConfigError` naming the field: nothing is truncated."""
    value = block.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: field {name!r} must be a number, got {value!r}")
    if convert is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where}: field {name!r} must be an integer, got {value!r}")
    try:
        return convert(value)
    except OverflowError as exc:
        raise ConfigError(f"{where}: field {name!r} is out of range, got {value!r}") from exc


def _path_field(block: dict, name: str, default, where: str) -> str:
    """``block[name]`` (or ``default``) as a file path: anything but a
    non-empty JSON string is a :class:`ConfigError` naming the field, so
    no number is taken for a file descriptor."""
    value = block.get(name, default)
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where}: field {name!r} must be a non-empty path string, got {value!r}")
    return value


def build_problem(block: dict):
    """Instantiate the problem described by the config's problem block."""
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("problem: missing field 'kind'")
    kind = block["kind"]
    if not isinstance(kind, str) or kind not in _PROBLEM_FIELDS:
        raise ConfigError(f"problem: unknown kind {kind!r}")
    _known_fields(block, _PROBLEM_FIELDS[kind], "problem")

    def num(name, default, convert=int):
        return _field(block, name, default, convert, "problem")

    def size(name, default, least=1):
        value = num(name, default)
        if value < least:
            raise ConfigError(f"problem: field {name!r} must be at least {least}, got {value!r}")
        return value

    if kind == "affine_quadratic":
        return problems.make_affine_quadratic(
            n=size("n", 10), m=size("m", 10), dim_x=size("dim_x", 4), dim_w=size("dim_w", 4),
            seed=size("seed", 0, least=0),
        )
    if kind == "nonconvex_synthetic":
        return problems.make_nonconvex_synthetic(
            n=size("n", 100), m=size("m", 100), dim_x=size("dim_x", 8),
            dim_w=size("dim_w", 8), seed=size("seed", 0, least=0),
        )
    if kind == "sne":
        path = _path_field(block, "data", None, "problem")
        target = size("pca_dim", 30)
        sigma = num("sigma", 1.0, float)
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ConfigError(f"problem: field 'sigma' must be finite and positive, got {sigma!r}")
        return sne_from_csv(path, sigma, size("embed_dim", 2), target)
    # sne_json
    path = _path_field(block, "path", None, "problem")
    try:
        with open(path, encoding="utf-8") as fh:
            return problems.SneProblem.from_json(fh.read())
    except (problems.ProblemConstructionError, UnicodeDecodeError) as exc:
        raise problems.ProblemConstructionError(f"{path}: {exc}") from exc


# What a file the CLI reads or writes raises when it is missing,
# unreadable, unwritable or malformed: E_DATA (exit 3).
_DATA_ERRORS = (problems.MatrixParseError, problems.ProblemConstructionError, OSError)


def sne_from_csv(path: str, sigma: float, embed_dim: int, pca_dim: int):
    """CSV -> normalize -> PCA to at most ``pca_dim`` columns -> the
    embedding problem, for ``run``'s problem kind ``sne`` and for
    ``embed``.  The caller checks that sigma is finite and positive and
    the dimensions at least 1, so every error raised here is one of
    :data:`_DATA_ERRORS`."""
    data = problems.load_matrix(path)
    if data.rows < 2:
        raise problems.ProblemConstructionError(f"{path}: sne needs at least two data rows")
    data = problems.normalize(data)
    data = problems.pca_reduce(data, min(pca_dim, data.rows - 1, data.cols))
    return problems.build_sne(data, sigma, embed_dim)


def _algo_config(entry: dict, default_seed: int, default_record: int) -> OptimizerConfig:
    if not isinstance(entry, dict):
        raise ConfigError(f"algorithms: each entry must be an object, got {entry!r}")
    _known_fields(entry, _ALGO_FIELDS, "algorithms")
    if "variant" not in entry:
        raise ConfigError("algorithms: missing field 'variant'")
    if "eta" not in entry:
        raise ConfigError(f"algorithms[{entry['variant']}]: missing field 'eta'")
    variant = str(entry["variant"])

    def num(name, default, convert=int):
        return _field(entry, name, default, convert, f"algorithms[{variant}]")

    fields = dict(
        eta=num("eta", None, float),
        epochs_s=num("epochs_s", 1),
        inner_k=num("inner_k", 1),
        sample_a=num("sample_a", 1),
        sample_b=num("sample_b", 1),
        batch_b=num("batch_b", 1),
        seed=num("seed", default_seed),
        record_every=num("record_every", default_record),
    )
    try:
        return OptimizerConfig(variant=variant, **fields)
    except ValueError as exc:
        raise ConfigError(f"algorithms[{variant}]: {exc}") from exc


def load_experiment(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


_NUMPY_SIZE_ERRORS = ("Maximum allowed dimension exceeded", "array is too big")


def prepare_experiment(cfg: dict):
    """Validate a config dict; returns (problem, [OptimizerConfig], meta)."""
    _known_fields(cfg, _TOP_FIELDS, "config")
    for required in ("problem", "algorithms"):
        if required not in cfg:
            raise ConfigError(f"missing field '{required}'")
    output = _path_field(cfg, "output", "trace.csv", "config")
    try:
        problem = build_problem(cfg["problem"])
    except (MemoryError, ValueError) as exc:
        # NumPy refuses sizes it cannot allocate (MemoryError), or a shape
        # past its size limit before allocating (a plain ValueError); any
        # other error, ConfigError and the data errors included, is passed on
        if isinstance(exc, ValueError) and not (
            type(exc) is ValueError and str(exc).startswith(_NUMPY_SIZE_ERRORS)
        ):
            raise
        raise ConfigError(f"problem sizes cannot be allocated: {exc}") from exc
    seed = _field(cfg, "seed", 0, int, "config")
    record_every = _field(cfg, "record_every", 1, int, "config")
    init_scale = _field(cfg, "init_scale", 0.1, float, "config")
    algos = cfg["algorithms"]
    if not isinstance(algos, list) or not algos:
        raise ConfigError("algorithms: need at least one entry")
    configs = [_algo_config(entry, seed, record_every) for entry in algos]
    variants = [oc.variant for oc in configs]
    if len(set(variants)) != len(variants):
        raise ConfigError(
            "algorithms: each variant may appear only once per experiment "
            "(use the sweep subcommand to compare step sizes)"
        )
    budget = cfg.get("budget")
    if budget is not None:
        budget = _field(cfg, "budget", None, int, "config")
        _check_budget(budget, configs, problem)
    meta = {
        "seed": seed,
        "budget": budget,
        "output": output,
        "init_scale": init_scale,
    }
    return problem, configs, meta


def _check_budget(budget: int | None, configs, problem) -> None:
    """A :class:`ConfigError` unless ``budget`` (None: unlimited) covers
    the startup cost of every configured variant."""
    for oc in configs:
        need = optimizers.startup_query_cost(oc, problem.m_inner, problem.n_outer)
        if budget is not None and budget <= need:
            raise ConfigError(
                f"budget {budget} does not cover the startup cost "
                f"{need} of variant {oc.variant}"
            )


def initial_point(problem, seed: int, scale: float) -> np.ndarray:
    """Deterministic start shared by all algorithms of one experiment."""
    stream = SampleStream(seed ^ 0xD1F3A5C9)
    return stream.normal_vector(problem.dim_x, scale)


def _format_float(v: float) -> str:
    return repr(float(v))


def trace_rows(variant: str, trace: list[TraceRecord], wall_ms: int = 0):
    for rec in trace:
        yield (
            f"{variant},{rec.epoch},{rec.inner_iter},{rec.total_queries},"
            f"{_format_float(rec.grad_norm_sq)},{_format_float(rec.objective)},{wall_ms}"
        )


def write_trace_csv(path: str, sections: list[tuple[str, list[TraceRecord], int]]) -> None:
    sections = sorted(sections, key=lambda s: s[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TRACE_HEADER + "\n")
        for variant, trace, wall in sections:
            for row in trace_rows(variant, trace, wall):
                fh.write(row + "\n")


def run_experiment(problem, configs, meta, timing: str = "none"):
    """Run every configured algorithm; returns the CSV sections."""
    x0 = initial_point(problem, meta["seed"], meta["init_scale"])
    sections = []
    for oc in configs:
        start = time.perf_counter()
        result = optimizers.run(problem, oc, x0=x0, budget=meta["budget"])
        elapsed = int(round((time.perf_counter() - start) * 1000.0))
        wall = elapsed if timing == "wall" else 0
        sections.append((oc.variant, result.trace, wall))
    return sections


# ---------------------------------------------------------------------------
# Subcommand: run
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = load_experiment(args.config)
    if args.budget is not None:
        cfg["budget"] = args.budget
    if args.output is not None:
        cfg["output"] = args.output
    if args.seed is not None:
        cfg["seed"] = args.seed
    problem, configs, meta = prepare_experiment(cfg)
    sections = run_experiment(problem, configs, meta, timing=args.timing)
    out = _out_path(meta["output"])
    write_trace_csv(out, sections)
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommand: check-params
# ---------------------------------------------------------------------------


def _constants_from_args(args) -> SmoothnessConstants:
    return SmoothnessConstants(
        b_g=args.bg, l_g=args.lg, b_f=args.bf, l_f_outer=args.lf_outer, l_f=args.lf
    )


def check_params_report(n: int, m: int, constants: SmoothnessConstants, b: int) -> dict:
    """Suggestions, premise diagnostics and exponents as one JSON-able dict."""
    report: dict = {"n": n, "m": m, "b": b}
    qc = theory.predict_query_complexity(n, m, b=b)
    report["m0"] = qc.m0
    report["exponents"] = {
        "scvr": qc.scvr_exponent,
        "svrg": qc.svrg_exponent,
        "minibatch_parallel_outer": qc.minibatch_parallel_outer_exponent,
        "minibatch_parallel_full": qc.minibatch_parallel_full_exponent,
        "minibatch_nonparallel": qc.minibatch_nonparallel_exponent,
    }
    report["alpha"] = {"scvr": qc.scvr_alpha, "svrg": qc.svrg_alpha}
    report["recommendation"] = qc.better
    report["suggestions"] = {}
    for algo in theory.RECURSION_ALGORITHMS:
        params = theory.suggest_parameters(n, m, constants, algorithm=algo, b=b)
        diag = theory.recursion(algo, params, constants)
        report["suggestions"][algo] = {
            **dataclasses.asdict(params),
            "c0h": diag.c0h,
            "u_min": diag.u_min,
            "u_max": diag.u_max,
            "premise_ok": diag.premise_ok,
        }
    return report


def cmd_check_params(args) -> int:
    if args.n < 2:
        raise CliFailure(EXIT_CONFIG, "E_ARGS", "n must be at least 2 (the size ratio m0 "
                         "is undefined at n=1)")
    if args.m < 1:
        raise CliFailure(EXIT_CONFIG, "E_ARGS", "m must be at least 1")
    try:
        report = check_params_report(args.n, args.m, _constants_from_args(args), args.b)
    except ValueError as exc:  # a non-positive constant or batch size
        raise CliFailure(EXIT_CONFIG, "E_ARGS", str(exc)) from exc
    text = json.dumps(report, indent=2)
    if args.output:
        out = _out_path(args.output)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {out}")
    else:
        print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommand: verify  (fast invariant suite)
# ---------------------------------------------------------------------------


def cmd_verify(_args) -> int:
    all_ok = True
    for name, ok, detail in verification.run_verify_checks():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok &= ok
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# Subcommand: embed
# ---------------------------------------------------------------------------


def cmd_embed(args) -> int:
    if not (math.isfinite(args.sigma) and args.sigma > 0.0):
        raise ConfigError(f"--sigma must be finite and positive, got {args.sigma!r}")
    for flag, value in (("--dim", args.dim), ("--pca-dim", args.pca_dim)):
        if value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")
    problem = sne_from_csv(args.data, args.sigma, args.dim, args.pca_dim)
    n = problem.n_points
    batch = args.batch if args.batch is not None else math.ceil(n ** (2.0 / 3.0))
    sample = args.sample if args.sample is not None else max(1, math.ceil(n ** 0.4))
    try:
        cfg = OptimizerConfig(
            eta=args.eta,
            epochs_s=args.epochs,
            inner_k=args.steps,
            variant=args.algorithm,
            sample_a=sample,
            sample_b=sample,
            batch_b=batch,
            seed=args.seed,
            record_every=max(1, args.steps // 4),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _check_budget(args.budget, [cfg], problem)
    x0 = initial_point(problem, args.seed, 1e-2)
    result = optimizers.run(problem, cfg, x0=x0, budget=args.budget)
    coords = result.x_last.reshape(n, args.dim)
    out = _out_path(args.output)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        for row in coords:
            fh.write(",".join(_format_float(v) for v in row) + "\n")
    first, last = result.trace[0], result.trace[-1]
    print(
        f"wrote {out} ({n} rows x {args.dim});"
        f" objective {first.objective:.6g} -> {last.objective:.6g}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommand: sweep
# ---------------------------------------------------------------------------


def sweep_experiment(problem, configs, meta, etas: list[float]):
    """Run each algorithm once per step size; pick the step with the best
    final gradient norm.  Diverged steps, including those where a
    component evaluation turned non-finite, are reported, not fatal."""
    x0 = initial_point(problem, meta["seed"], meta["init_scale"])
    outcome: dict = {}
    best_sections = []
    for oc in configs:
        per_eta = []
        best = None
        for eta in etas:
            candidate = dataclasses.replace(oc, eta=eta)
            try:
                result = optimizers.run(problem, candidate, x0=x0, budget=meta["budget"])
                final = result.trace[-1].grad_norm_sq
                per_eta.append({"eta": eta, "final_grad_norm_sq": final, "diverged": False})
                if best is None or final < best[1]:
                    best = (eta, final, result)
            except (DivergenceError, EvaluationError):
                per_eta.append({"eta": eta, "final_grad_norm_sq": None, "diverged": True})
        if best is None:
            raise CliFailure(
                EXIT_DIVERGED, "E_DIVERGED",
                f"every step size diverged for variant {oc.variant}",
            )
        outcome[oc.variant] = {"best_eta": best[0], "grid": per_eta}
        best_sections.append((oc.variant, best[2].trace, 0))
    return outcome, best_sections


def cmd_sweep(args) -> int:
    cfg = load_experiment(args.config)
    if args.budget is not None:
        cfg["budget"] = args.budget
    try:
        etas = [float(v) for v in args.etas.split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"cannot parse eta grid {args.etas!r}") from exc
    if not etas:
        raise ConfigError("eta grid is empty")
    if not all(math.isfinite(eta) and eta >= 0.0 for eta in etas):
        raise ConfigError(f"eta grid {args.etas!r} needs finite non-negative steps")
    problem, configs, meta = prepare_experiment(cfg)
    outcome, best_sections = sweep_experiment(problem, configs, meta, etas)
    out = _out_path(meta["output"])
    write_trace_csv(out, best_sections)
    report_path = _out_path(args.report) if args.report else None
    text = json.dumps(outcome, indent=2)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scvr",
        description="Variance-reduced composition optimization benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run configured algorithms, write trace CSV")
    p_run.add_argument("--config", required=True, help="JSON experiment config")
    p_run.add_argument("--budget", type=int, default=None, help="query budget override")
    p_run.add_argument("--output", default=None, help="trace CSV path override")
    p_run.add_argument("--seed", type=int, default=None, help="seed override")
    p_run.add_argument(
        "--timing", choices=("none", "wall"), default="none",
        help="wall_ms column source (default none keeps traces byte-reproducible)",
    )
    p_run.set_defaults(fn=cmd_run)

    p_chk = sub.add_parser("check-params", help="suggest parameters and exponents")
    p_chk.add_argument("--n", type=int, required=True, help="outer component count")
    p_chk.add_argument("--m", type=int, required=True, help="inner component count")
    p_chk.add_argument("--b", type=int, default=1, help="outer mini-batch size")
    p_chk.add_argument("--bg", type=float, default=1.0, help="inner Jacobian bound")
    p_chk.add_argument("--lg", type=float, default=1.0, help="inner Jacobian Lipschitz")
    p_chk.add_argument("--bf", type=float, default=1.0, help="outer gradient bound")
    p_chk.add_argument("--lf-outer", dest="lf_outer", type=float, default=1.0,
                       help="outer gradient Lipschitz")
    p_chk.add_argument("--lf", type=float, default=1.0, help="composite smoothness")
    p_chk.add_argument("--output", default=None, help="write the JSON report here")
    p_chk.set_defaults(fn=cmd_check_params)

    p_ver = sub.add_parser("verify", help="run the fast invariant suite")
    p_ver.set_defaults(fn=cmd_verify)

    p_emb = sub.add_parser("embed", help="neighbor embedding of a CSV dataset")
    p_emb.add_argument("--data", required=True, help="CSV matrix, one sample per row")
    p_emb.add_argument("--sigma", type=float, default=1.0, help="data-side bandwidth")
    p_emb.add_argument("--dim", type=int, default=2, help="embedding dimension")
    p_emb.add_argument("--pca-dim", dest="pca_dim", type=int, default=30)
    p_emb.add_argument("--algorithm", default="minibatch_v1", choices=optimizers.VARIANTS)
    p_emb.add_argument("--eta", type=float, default=0.02)
    p_emb.add_argument("--epochs", type=int, default=30)
    p_emb.add_argument("--steps", type=int, default=40)
    p_emb.add_argument("--sample", type=int, default=None, help="inner batch size")
    p_emb.add_argument("--batch", type=int, default=None, help="outer batch size")
    p_emb.add_argument("--budget", type=int, default=None)
    p_emb.add_argument("--seed", type=int, default=0)
    p_emb.add_argument("--output", default="embedding.csv")
    p_emb.set_defaults(fn=cmd_embed)

    p_swp = sub.add_parser("sweep", help="step-size sweep, keep the best trace")
    p_swp.add_argument("--config", required=True)
    p_swp.add_argument("--etas", required=True, help="comma-separated step sizes")
    p_swp.add_argument("--budget", type=int, default=None)
    p_swp.add_argument("--report", default=None, help="JSON sweep report path")
    p_swp.set_defaults(fn=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: the only place where a failure becomes an
    error line and an exit status.  Any other exception is a fault."""
    args = _build_parser().parse_args(argv)
    try:
        # every component value and iterate is checked for finiteness, so
        # NumPy's floating-point warnings would only add lines to stderr
        with np.errstate(all="ignore"):
            return args.fn(args)
    except CliFailure as exc:
        code, tag, message = exc.code, exc.tag, str(exc)
    except ConfigError as exc:
        code, tag, message = EXIT_CONFIG, "E_CONFIG", str(exc)
    except _DATA_ERRORS as exc:
        code, tag, message = EXIT_DATA, "E_DATA", str(exc)
    except DivergenceError as exc:
        code, tag, message = EXIT_DIVERGED, "E_DIVERGED", f"run diverged: {exc}"
    except EvaluationError as exc:
        code, tag, message = EXIT_DIVERGED, "E_DIVERGED", f"component evaluation blew up: {exc}"
    print(f"error {tag}: {message}", file=sys.stderr)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

"""Variance-reduced stochastic optimization for two-level finite-sum
composition objectives  f(x) = (1/n) sum_i F_i( (1/m) sum_j G_j(x) ),
with exact per-component query accounting.

Subpackages:

- ``core``          dense primitives, the composition-problem interface,
                    query ledger, deterministic sampling
- ``estimators``    variance-reduced inner-value / Jacobian / gradient
                    estimators
- ``optimizers``    epoch-structured loops (scvr1, scvr2, mini-batch,
                    svrg, sgd, gd)
- ``theory``        convergence-recursion diagnostics, parameter
                    suggestions, query-complexity exponents
- ``problems``      synthetic fixtures and the neighbor-embedding problem
- ``verification``  the reference layer: independent numerical oracles
                    and the invariant suite ``scvr verify`` prints
- ``harness``       CLI front-end (run / check-params / verify / embed /
                    sweep)
"""

from scvr.core import (
    CompositionProblem,
    QueryLedger,
    SampleStream,
    SmoothnessConstants,
)
from scvr.optimizers import OptimizerConfig, OptResult, run

__all__ = [
    "CompositionProblem",
    "QueryLedger",
    "SampleStream",
    "SmoothnessConstants",
    "OptimizerConfig",
    "OptResult",
    "run",
]

__version__ = "0.1.0"

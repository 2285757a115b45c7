"""The per-metric verdict of scripts/bench_pairs.py on hand-made pairs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

NARROW = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
WIDE = [1.0, 2.0] * 5  # median 1.5, IQR 1.0: IQR/median 0.67


@pytest.mark.parametrize(
    "parent,change,better,want",
    [
        # median 30% worse against a 25% bound
        (NARROW, [1.3 * v for v in NARROW], "lower", "regression"),
        (NARROW, [0.7 * v for v in NARROW], "higher", "regression"),
        # better in 10/10 pairs, gap 0.9 against a parent IQR of 0.0125
        (NARROW, [0.1 * v for v in NARROW], "lower", "gain"),
        (NARROW, [2.0 * v for v in NARROW], "higher", "gain"),
        # spread beyond the bound, runs interleave: 5/10 wins, same median
        (WIDE, [1.1, 1.9] * 5, "lower", "unresolved"),
        # no resolvable move inside a narrow spread
        (NARROW, list(reversed(NARROW)), "lower", "within_bound"),
        # spread beyond the bound, but every change run beats every parent
        # run while the gap (0.6) stays inside the parent IQR (1.0)
        (WIDE, [0.9] * 10, "lower", "within_bound"),
    ],
    ids=[
        "regression_lower", "regression_higher", "gain_lower", "gain_higher",
        "unresolved", "within_bound", "within_bound_all_change_runs_better",
    ],
)
def test_verdict(parent, change, better, want):
    assert bench_pairs.verdict(parent, change, better, 0.25) == want


def test_gain_needs_nine_of_ten_pairs():
    change = [0.1 * v for v in NARROW]
    change[0] = change[1] = 5.0  # 8/10 wins, medians still far apart
    assert bench_pairs.verdict(NARROW, change, "lower", 0.25) == "within_bound"

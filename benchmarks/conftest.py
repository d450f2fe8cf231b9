"""Shared configuration for the benchmark harnesses.

Every module in this tree regenerates one table or figure of the paper
(see DESIGN.md's experiment index E1-E12). Each benchmark:

* runs the corresponding ``repro.experiments`` harness once (wrapped in
  ``benchmark.pedantic`` so pytest-benchmark reports its wall time),
* prints the same rows/series the paper reports (visible with ``-s`` or in
  the captured output of a failure), and
* asserts the paper's *qualitative* claims — who wins, by roughly what
  factor, where crossovers fall. Absolute numbers differ (our cost model
  is a Timeloop-style substitute, not the authors' testbed).

Budgets are laptop-scale; set REPRO_BENCH_SCALE=2 (or higher) to multiply
search budgets for tighter, slower runs.
"""

from __future__ import annotations

import os
import time

import pytest


def _scale() -> int:
    try:
        return max(1, int(os.environ.get("REPRO_BENCH_SCALE", "1")))
    except ValueError:
        return 1


@pytest.fixture(scope="session")
def bench_scale() -> int:
    """Multiplier applied to search budgets (env REPRO_BENCH_SCALE)."""
    return _scale()


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def best_of(fn, rounds):
    """``(result of the last run, best wall seconds)`` over ``rounds`` runs."""
    best_s = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best_s = min(best_s, time.perf_counter() - start)
    return result, best_s

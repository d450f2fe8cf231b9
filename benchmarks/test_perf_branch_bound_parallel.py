"""Parallel branch-and-bound benchmark: work-sharing speedup, bit-exact.

The headline criterion for subtree work-sharing: on a real ResNet-50
layer's Eyeriss mapspace, branch-and-bound with 4 workers must find the
*same* best-EDP mapping as the serial walk at >= 1.8x the speed. The
shared incumbent makes cross-process cuts as tight as serial ones, so
the win must come from genuine parallelism — not from pruning more (or
fewer) subtrees.

Exactness is asserted unconditionally; the speedup gate needs >= 4
physical cores and is skipped (with the measurements still printed)
on smaller machines.

Run with: pytest benchmarks/test_perf_branch_bound_parallel.py --benchmark-only -s
"""

from __future__ import annotations

import os

import pytest
from conftest import best_of, run_once

from repro.arch import eyeriss_like
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.mapspace.factory import pfm_mapspace
from repro.model import Evaluator
from repro.search.branch_bound import BranchBoundSearch
from repro.zoo.resnet50 import RESNET50_LAYERS

WORKERS = 4
SPEEDUP_FLOOR = 1.8


def _conv5_expand_setup():
    arch = eyeriss_like()
    by_name = {layer.name: layer for layer, _ in RESNET50_LAYERS}
    workload = by_name["conv5_expand"].workload()
    constraints = eyeriss_row_stationary()
    return arch, workload, constraints


def test_resnet_layer_parallel_speedup(benchmark):
    """4-worker B&B >= 1.8x over serial on conv5_expand, same optimum."""
    arch, workload, constraints = _conv5_expand_setup()

    def search(workers):
        return BranchBoundSearch(
            pfm_mapspace(arch, workload, constraints=constraints),
            Evaluator(arch, workload),
            objective="edp",
            seed=0,
            workers=workers,
        ).run()

    rounds = 2
    serial, serial_s = best_of(lambda: search(1), rounds)
    parallel, parallel_s = best_of(lambda: search(WORKERS), rounds)
    run_once(benchmark, lambda: search(WORKERS))

    pool = parallel.stats["pool"]
    speedup = serial_s / parallel_s
    cores = os.cpu_count() or 1
    print(
        f"\nconv5_expand pfm: serial {serial_s:.2f}s, "
        f"{WORKERS}-worker {parallel_s:.2f}s ({speedup:.1f}x on {cores} "
        f"cores), pool={parallel.stats['pool_mode']} "
        f"units={pool['num_units']}"
    )
    # Exactness is unconditional: work-sharing must never change the
    # answer, whatever the core count or pool mode.
    assert parallel.best_metric == serial.best_metric
    assert parallel.stats["bnb"]["subtrees_pruned"] > 0
    if cores < WORKERS:
        pytest.skip(
            f"speedup gate needs >= {WORKERS} cores (have {cores}); "
            f"parity checked, measurements printed"
        )
    assert parallel.stats["pool_mode"] in ("fork", "spawn"), (
        "pool degraded to sequential on a multi-core machine"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"parallel branch-and-bound speedup {speedup:.2f}x below the "
        f"{SPEEDUP_FLOOR}x criterion on {cores} cores"
    )

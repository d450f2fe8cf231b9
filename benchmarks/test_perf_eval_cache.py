"""Smoke benchmark for the evaluation-cache fast path.

Acceptance criterion from the cache PR: re-evaluating an already-seen
mapping must be at least 10x faster than a cold evaluation (in practice
it is orders of magnitude faster — a dict lookup vs. the full
validity -> access-counts -> energy pipeline), and caching must never
change which mapping a search returns. Run via ``make bench-cache`` so
throughput regressions on the search hot path are visible in CI.
"""

import random
import time

import pytest
from conftest import run_once

from repro.arch import eyeriss_like
from repro.mapspace import ruby_s_mapspace
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.model import EvaluationCache, Evaluator
from repro.zoo.resnet50 import RESNET50_LAYERS


@pytest.fixture(scope="module")
def setting():
    arch = eyeriss_like()
    by_name = {layer.name: layer for layer, _ in RESNET50_LAYERS}
    workload = by_name["conv3_3x3"].workload()
    space = ruby_s_mapspace(arch, workload, eyeriss_row_stationary())
    rng = random.Random(0)
    mappings = [space.sample(rng) for _ in range(64)]
    return arch, workload, mappings


def _time(fn, rounds):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_cached_reevaluation_at_least_10x_faster(benchmark, setting):
    arch, workload, mappings = setting
    cold = Evaluator(arch, workload)
    cache = EvaluationCache()
    warm = Evaluator(arch, workload, cache=cache)
    for mapping in mappings:  # prime the cache
        warm.evaluate(mapping)

    def sweep(evaluator):
        for mapping in mappings:
            evaluator.evaluate(mapping)

    rounds = 5
    cold_s = _time(lambda: sweep(cold), rounds)
    warm_s = _time(lambda: sweep(warm), rounds)
    run_once(benchmark, lambda: sweep(warm))
    speedup = cold_s / warm_s
    print(
        f"\n{len(mappings)} evaluations: cold {cold_s * 1e3:.2f} ms, "
        f"cached {warm_s * 1e3:.3f} ms -> {speedup:.0f}x "
        f"(hit rate {cache.hit_rate:.1%})"
    )
    assert cache.hits >= rounds * len(mappings)
    assert speedup >= 10.0


def test_cache_preserves_search_results(benchmark, setting):
    # Same seed and budget, cache on vs. off: identical best mapping and
    # metric. Serial search is the path that still takes a cache.
    from repro.search import RandomSearch

    arch, workload, _ = setting
    space = ruby_s_mapspace(arch, workload, eyeriss_row_stationary())

    def search(cache):
        return RandomSearch(
            space,
            Evaluator(arch, workload, cache=cache),
            max_evaluations=600,
            patience=None,
            seed=17,
        ).run()

    cached = run_once(benchmark, lambda: search(EvaluationCache()))
    uncached = search(None)
    assert cached.best_metric == uncached.best_metric
    assert cached.best.mapping == uncached.best.mapping
    # Hit *counts* depend on how often a huge mapspace re-draws duplicates;
    # only the counters' presence is part of the contract here.
    assert cached.stats["cache"]["hits"] >= 0

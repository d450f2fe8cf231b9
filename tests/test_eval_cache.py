"""Regression tests for mapping signatures and the evaluation cache.

The cache is only admissible if (a) equal signatures imply equal cost and
(b) cache hits are observationally identical to cold evaluations. These
tests pin both properties, the LRU mechanics, and search-result parity
with the cache on vs. off.
"""

import random

import pytest

from repro.arch import toy_glb_architecture
from repro.exceptions import SearchError
from repro.mapping.loop import Loop
from repro.mapping.nest import Mapping
from repro.mapspace import ruby_s_mapspace
from repro.model import EvaluationCache, Evaluator
from repro.problem.gemm import vector_workload
from repro.search.random_search import RandomSearch


def _base_mapping() -> Mapping:
    return Mapping.from_blocks(
        [
            ("DRAM", [Loop("C", 4), Loop("M", 2)], []),
            (
                "GLB",
                [Loop("C", 2)],
                [Loop("M", 2, spatial=True), Loop("P", 3, spatial=True)],
            ),
        ]
    )


class TestMappingSignature:
    def test_stable_across_calls_and_copies(self):
        a = _base_mapping()
        b = _base_mapping()
        assert a.signature() == a.signature()
        assert a.signature() == b.signature()
        assert hash(a.signature()) == hash(b.signature())

    def test_trivial_perfect_loops_are_dropped(self):
        noisy = Mapping.from_blocks(
            [
                ("DRAM", [Loop("P", 1), Loop("C", 4), Loop("M", 2)], []),
                (
                    "GLB",
                    [Loop("C", 2), Loop("R", 1)],
                    [Loop("M", 2, spatial=True), Loop("P", 3, spatial=True)],
                ),
            ]
        )
        assert noisy.signature() == _base_mapping().signature()

    def test_perfect_spatial_order_is_canonicalized(self):
        swapped = Mapping.from_blocks(
            [
                ("DRAM", [Loop("C", 4), Loop("M", 2)], []),
                (
                    "GLB",
                    [Loop("C", 2)],
                    [Loop("P", 3, spatial=True), Loop("M", 2, spatial=True)],
                ),
            ]
        )
        assert swapped.signature() == _base_mapping().signature()

    def test_imperfect_spatial_order_is_preserved(self):
        # Reordering an imperfect chain changes its coverage (the remainder
        # applies to the globally-last pass), so these must NOT collide.
        def with_spatial(spatial):
            return Mapping.from_blocks(
                [("DRAM", [Loop("C", 4)], []), ("GLB", [], spatial)]
            )

        a = with_spatial(
            [Loop("M", 7, spatial=True), Loop("M", 5, 2, spatial=True)]
        )
        b = with_spatial(
            [Loop("M", 5, 2, spatial=True), Loop("M", 7, spatial=True)]
        )
        assert a.signature() != b.signature()

    def test_distinguishes_bounds_remainders_and_bypass(self):
        base = _base_mapping()
        other_bound = Mapping.from_blocks(
            [
                ("DRAM", [Loop("C", 8), Loop("M", 2)], []),
                (
                    "GLB",
                    [Loop("C", 2)],
                    [Loop("M", 2, spatial=True), Loop("P", 3, spatial=True)],
                ),
            ]
        )
        imperfect = Mapping.from_blocks(
            [
                ("DRAM", [Loop("C", 4, 3), Loop("M", 2)], []),
                (
                    "GLB",
                    [Loop("C", 2)],
                    [Loop("M", 2, spatial=True), Loop("P", 3, spatial=True)],
                ),
            ]
        )
        bypassed = base.with_bypass([("GLB", "Inputs")])
        signatures = {
            base.signature(),
            other_bound.signature(),
            imperfect.signature(),
            bypassed.signature(),
        }
        assert len(signatures) == 4


class TestEvaluationCache:
    def test_hit_miss_counters(self):
        cache = EvaluationCache(max_entries=4)
        assert cache.get("a") is None
        cache.put("a", "eval-a")
        assert cache.get("a") == "eval-a"
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = EvaluationCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": now "b" is least recently used
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_clear_keeps_counters(self):
        cache = EvaluationCache()
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["size"] == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(SearchError):
            EvaluationCache(max_entries=0)


@pytest.fixture
def setting():
    arch = toy_glb_architecture(6, 1024)
    workload = vector_workload("v100", 100)
    return arch, workload, ruby_s_mapspace(arch, workload)


class TestEvaluatorCaching:
    def test_hit_returns_identical_metrics(self, setting):
        arch, workload, space = setting
        cache = EvaluationCache()
        cached = Evaluator(arch, workload, cache=cache)
        plain = Evaluator(arch, workload)
        rng = random.Random(5)
        for _ in range(50):
            mapping = space.sample(rng)
            first = cached.evaluate(mapping)
            second = cached.evaluate(mapping)
            reference = plain.evaluate(mapping)
            assert second.valid == reference.valid
            if reference.valid:
                assert second.energy_pj == reference.energy_pj
                assert second.cycles == reference.cycles
                assert second.edp == reference.edp
            assert first.mapping == mapping and second.mapping == mapping
        # Each mapping is re-evaluated once (>= 50 hits); duplicate draws
        # among the 50 samples add more hits and reduce misses.
        assert cache.hits >= 50
        assert cache.misses <= 50

    def test_invalid_evaluations_are_cached_too(self):
        arch = toy_glb_architecture(num_pes=6, glb_bytes=4)  # nothing fits
        workload = vector_workload("v100", 100)
        space = ruby_s_mapspace(arch, workload)
        cache = EvaluationCache()
        evaluator = Evaluator(arch, workload, cache=cache)
        mapping = space.sample(random.Random(0))
        a = evaluator.evaluate(mapping)
        b = evaluator.evaluate(mapping)
        assert not a.valid and not b.valid
        assert a.violations == b.violations
        assert cache.hits == 1

    def test_equivalent_mapping_hit_carries_requested_mapping(self, setting):
        arch, workload, _ = setting
        cache = EvaluationCache()
        evaluator = Evaluator(arch, workload, cache=cache)
        plain = Mapping.from_blocks(
            [
                ("DRAM", [Loop("D", 100)], []),
                ("GlobalBuffer", [], []),
                ("PERegister", [], []),
            ]
        )
        noisy = Mapping.from_blocks(
            [
                ("DRAM", [Loop("D", 100)], []),
                ("GlobalBuffer", [Loop("D", 1)], []),
                ("PERegister", [], []),
            ]
        )
        assert plain != noisy
        assert plain.signature() == noisy.signature()
        reference = evaluator.evaluate(plain)
        hit = evaluator.evaluate(noisy)
        assert cache.hits == 1
        assert hit.mapping == noisy  # not the equivalent mapping priced first
        assert hit.valid == reference.valid
        assert hit.energy_pj == reference.energy_pj


class TestSearchParityWithCache:
    def test_random_search_identical_with_and_without_cache(self, setting):
        arch, workload, space = setting
        with_cache = RandomSearch(
            space,
            Evaluator(arch, workload, cache=EvaluationCache()),
            max_evaluations=400,
            patience=None,
            seed=123,
        ).run()
        without_cache = RandomSearch(
            space,
            Evaluator(arch, workload),
            max_evaluations=400,
            patience=None,
            seed=123,
        ).run()
        assert with_cache.best_metric == without_cache.best_metric
        assert with_cache.best.mapping == without_cache.best.mapping
        assert with_cache.num_valid == without_cache.num_valid
        assert [p.evaluations for p in with_cache.curve] == [
            p.evaluations for p in without_cache.curve
        ]

    def test_stats_payload(self, setting):
        # Row-wise pricing is the path that looks the cache up.
        arch, workload, space = setting
        result = RandomSearch(
            space,
            Evaluator(arch, workload, cache=EvaluationCache()),
            max_evaluations=200,
            patience=None,
            seed=9,
            use_batch=False,
        ).run()
        assert result.stats["evals_per_sec"] > 0
        assert result.stats["elapsed_s"] > 0
        cache_stats = result.stats["cache"]
        assert cache_stats["hits"] + cache_stats["misses"] == 200
        assert 0.0 <= cache_stats["hit_rate"] <= 1.0

    def test_hit_rate_none_when_no_lookups(self, setting):
        """A cache that saw zero lookups reports hit_rate None, not 0.0.

        Zero would claim "every lookup missed"; None says the rate is
        unknowable because there were no lookups to score.
        """
        from repro.search.result import throughput_stats

        arch, workload, _ = setting
        cache = EvaluationCache()
        Evaluator(arch, workload, cache=cache)  # attached, never consulted
        stats = throughput_stats(0, 0.5, cache=cache)
        assert stats["cache"]["hits"] == 0
        assert stats["cache"]["misses"] == 0
        assert stats["cache"]["hit_rate"] is None

    def test_hit_rate_none_with_shared_cache_baseline(self, setting):
        """Per-run deltas of zero lookups also yield hit_rate None."""
        from repro.search.result import throughput_stats

        arch, workload, space = setting
        cache = EvaluationCache()
        RandomSearch(
            space,
            Evaluator(arch, workload, cache=cache),
            max_evaluations=50,
            patience=None,
            seed=1,
            use_batch=False,
        ).run()
        # A second "run" that reuses the warm cache but performs no
        # lookups: the baseline swallows the prior run's counts.
        stats = throughput_stats(
            0, 0.1, cache=cache, cache_baseline=(cache.hits, cache.misses)
        )
        assert stats["cache"]["hit_rate"] is None

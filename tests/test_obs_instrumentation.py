"""Integration tests: searches and evaluators under an obs scope.

Verifies that the instrumentation layered into the evaluators and the
search drivers publishes spans and counters when a scope is active, stays
silent (and unchanged in output) when it is not, and that the
SearchResult.stats schema is identical across the scalar, cached,
batched, and parallel paths (satellite: schema stability).
"""

import pytest

from repro.mapspace import pfm_mapspace, ruby_mapspace, ruby_s_mapspace
from repro.model import Evaluator
from repro.model.eval_cache import EvaluationCache
from repro.obs import MetricsRegistry, Tracer, obs_scope, read_trace
from repro.search import (
    ExhaustiveSearch,
    GeneticSearch,
    RandomSearch,
)
from repro.search.campaign import CampaignJob, search_job


def _seeds_job(arch, workload, seeds, budget):
    return CampaignJob(
        job_id="seeds", arch=arch, workload=workload, kind="pfm",
        max_evaluations=budget, patience=None, seeds=seeds,
    )


def _span_names(tracer):
    return {record["name"] for record in tracer.records}


class TestSearchSpans:
    def test_random_search_emits_spans_and_counters(
        self, toy_arch, vector100, toy_evaluator
    ):
        space = pfm_mapspace(toy_arch, vector100)
        registry = MetricsRegistry()
        tracer = Tracer()
        with obs_scope(registry=registry, tracer=tracer):
            result = RandomSearch(
                space, toy_evaluator, seed=0, max_evaluations=200
            ).run()
        names = _span_names(tracer)
        assert "search.run" in names
        # Each chunk's time splits into sampling and pricing, both nested
        # directly under its search.batch span.
        by_id = {record["span_id"]: record for record in tracer.records}
        batches = [r for r in tracer.records if r["name"] == "search.batch"]
        assert batches
        assert all(by_id[r["parent_id"]]["name"] == "search.run" for r in batches)
        for child in ("search.sample", "search.price"):
            spans = [r for r in tracer.records if r["name"] == child]
            assert len(spans) == len(batches)
            assert all(
                by_id[r["parent_id"]]["name"] == "search.batch" for r in spans
            )
        assert registry.counter("search.runs").value(driver="random") == 1.0
        assert (
            registry.counter("search.candidates").value(driver="random")
            == result.num_evaluated
        )
        assert registry.gauge("search.best_metric").value(
            driver="random"
        ) == pytest.approx(result.best_metric)

    def test_exhaustive_search_emits_spans(
        self, toy_arch, vector100, toy_evaluator
    ):
        space = pfm_mapspace(toy_arch, vector100)
        registry = MetricsRegistry()
        tracer = Tracer()
        with obs_scope(registry=registry, tracer=tracer):
            ExhaustiveSearch(space, toy_evaluator).run()
        names = _span_names(tracer)
        assert "search.run" in names
        assert registry.counter("search.runs").value(driver="exhaustive") == 1.0

    def test_batch_traffic_spans_count_the_live_rows(
        self, toy_arch, vector100, set_batch_size
    ):
        """``batch.traffic`` spans cover exactly the rows the kernel prices
        in full: valid, not pruned against the incumbent, not fallback."""
        set_batch_size(64)
        space = ruby_mapspace(toy_arch, vector100)
        tracer = Tracer()
        with obs_scope(registry=MetricsRegistry(), tracer=tracer):
            result = ExhaustiveSearch(
                space, Evaluator(toy_arch, vector100)
            ).run()
        batch = result.stats["batch"]
        assert batch["pruned"] > 0 and batch["fallback"] == 0
        assert result.num_valid < result.num_evaluated
        spans = [r for r in tracer.records if r["name"] == "batch.traffic"]
        assert spans
        by_id = {record["span_id"]: record for record in tracer.records}
        assert all(by_id[r["parent_id"]]["name"] == "search.batch" for r in spans)
        assert sum(r["attrs"]["rows"] for r in spans) == (
            result.num_valid - batch["pruned"]
        )

    def test_sample_spans_wrap_each_draw_loop(
        self, toy_arch, vector100, toy_evaluator
    ):
        """``mapspace.sample`` opens once per ``sample_batch`` call, inside
        the chunk's ``search.sample``, and its ``draws`` sum to the run's
        ``mapspace.samples``."""
        space = ruby_s_mapspace(toy_arch, vector100)
        registry = MetricsRegistry()
        tracer = Tracer()
        with obs_scope(registry=registry, tracer=tracer):
            RandomSearch(
                space, toy_evaluator, seed=0, max_evaluations=200
            ).run()
        by_id = {record["span_id"]: record for record in tracer.records}
        samples = [r for r in tracer.records if r["name"] == "mapspace.sample"]
        chunks = [r for r in tracer.records if r["name"] == "search.sample"]
        assert samples and len(samples) == len(chunks)
        assert all(
            by_id[r["parent_id"]]["name"] == "search.sample" for r in samples
        )
        assert sum(r["attrs"]["draws"] for r in samples) == (
            registry.counter("mapspace.samples").total()
        )

    def test_sample_span_is_null_when_off(self, monkeypatch, toy_arch, vector100):
        """With obs off ``mapspace.sample`` is the shared null span."""
        import random

        from repro.obs import scope

        opened = []
        original = scope.trace

        def spy(name, **attrs):
            span = original(name, **attrs)
            opened.append((name, span))
            return span

        monkeypatch.setattr(scope, "trace", spy)
        ruby_s_mapspace(toy_arch, vector100).sample_batch(random.Random(0), 8)
        assert [name for name, _ in opened] == ["mapspace.sample"]
        assert opened[0][1] is scope._NULL_SPAN

    def test_enumerate_and_validity_spans(
        self, toy_arch, vector100, set_batch_size
    ):
        """``mapspace.enumerate`` wraps the index-row steps (generation and
        capacity prefilter) of an exhaustive sweep, ``batch.validity`` the
        kernel's validity stage once per priced batch and ``batch.cycles``
        its cycle stage; the prefilter's dropped candidates are counted
        once, as ``infeasible``."""
        set_batch_size(64)
        space = ruby_mapspace(toy_arch, vector100)
        count = space.count_completions()
        registry = MetricsRegistry()
        tracer = Tracer()
        with obs_scope(registry=registry, tracer=tracer):
            result = ExhaustiveSearch(
                space, Evaluator(toy_arch, vector100)
            ).run()
        by_id = {record["span_id"]: record for record in tracer.records}
        enumerate_spans = [
            r for r in tracer.records if r["name"] == "mapspace.enumerate"
        ]
        validity = [r for r in tracer.records if r["name"] == "batch.validity"]
        assert enumerate_spans and validity
        assert all(
            by_id[r["parent_id"]]["name"] == "search.run"
            for r in enumerate_spans
        )
        assert all(
            by_id[r["parent_id"]]["name"] == "search.batch" for r in validity
        )
        cycles = [r for r in tracer.records if r["name"] == "batch.cycles"]
        assert [r["attrs"] for r in cycles] == [r["attrs"] for r in validity]
        assert all(
            by_id[r["parent_id"]]["name"] == "search.batch" for r in cycles
        )
        batch = result.stats["batch"]
        assert len(validity) == batch["batches"]
        assert sum(r["attrs"]["rows"] for r in validity) == batch["candidates"]
        assert batch["infeasible"] > 0
        assert batch["candidates"] + batch["infeasible"] == count
        assert result.num_evaluated == count
        assert registry.counter("batch.infeasible").total() == batch["infeasible"]

    def test_enumerate_and_validity_spans_are_null_when_off(
        self, monkeypatch, toy_arch, vector100, small_gemm, set_batch_size
    ):
        """With obs off every span is the shared null span."""
        set_batch_size(64)
        from repro import obs
        from repro.obs import scope
        from repro.search import BranchBoundSearch

        opened = []
        original = scope.trace

        def spy(name, **attrs):
            span = original(name, **attrs)
            opened.append((name, span))
            return span

        # The kernels call ``repro.obs.trace``, enumeration the scope's own.
        monkeypatch.setattr(obs, "trace", spy)
        monkeypatch.setattr(scope, "trace", spy)
        ExhaustiveSearch(
            ruby_mapspace(toy_arch, vector100),
            Evaluator(toy_arch, vector100),
        ).run()
        # Branch-and-bound adds its leaf pricing and, for its final best,
        # a fresh evaluation.
        BranchBoundSearch(
            pfm_mapspace(toy_arch, small_gemm),
            Evaluator(toy_arch, small_gemm), seed=0, leaf_width=16,
        ).run()
        names = {name for name, _ in opened}
        assert {
            "mapspace.enumerate", "batch.validity", "batch.cycles",
            "search.leaf_price", "search.leaf_flush", "evaluator.fresh",
        } <= names
        assert all(span is scope._NULL_SPAN for _, span in opened)

    def test_leaf_spans_under_branch_bound(self, toy_arch, small_gemm):
        """``search.leaf_price`` opens once per pricing pass of the leaf
        regime and its ``rows`` sum to the kernel rows the walk priced;
        ``search.leaf_flush`` wraps each flush's bookkeeping, and the only
        ``evaluator.fresh`` is the final best's, built after the walk."""
        from repro.search import BranchBoundSearch
        from repro.search.branch_bound import DEFAULT_WARM_SAMPLES

        registry = MetricsRegistry()
        tracer = Tracer()
        with obs_scope(registry=registry, tracer=tracer):
            result = BranchBoundSearch(
                pfm_mapspace(toy_arch, small_gemm),
                Evaluator(toy_arch, small_gemm), seed=0, leaf_width=16,
            ).run()
        by_name = {}
        for record in tracer.records:
            by_name.setdefault(record["name"], []).append(record)
        priced = by_name["search.leaf_price"]
        assert sum(r["attrs"]["rows"] for r in priced) == (
            result.stats["batch"]["candidates"] - DEFAULT_WARM_SAMPLES
        )
        assert all(r["attrs"]["cells"] >= r["attrs"]["rows"] for r in priced)
        assert by_name["search.leaf_flush"]
        assert len(result.curve) > 1
        assert len(by_name["evaluator.fresh"]) == 1

    def test_bound_spans_one_per_call_under_search_run(
        self, monkeypatch, toy_arch, small_gemm
    ):
        """``bound.child`` / ``bound.suffix`` open once per
        ``child_bounds`` / ``suffix_bounds`` call, inside ``search.run``."""
        from repro.model.batch import PartialBoundEngine
        from repro.search import BranchBoundSearch

        calls = {"child_bounds": 0, "suffix_bounds": 0}
        for method in calls:
            original = getattr(PartialBoundEngine, method)

            def counted(self, *args, _original=original, _method=method, **kw):
                calls[_method] += 1
                return _original(self, *args, **kw)

            monkeypatch.setattr(PartialBoundEngine, method, counted)
        space = pfm_mapspace(toy_arch, small_gemm)
        tracer = Tracer()
        with obs_scope(registry=MetricsRegistry(), tracer=tracer):
            # This leaf width makes the walk both branch and flush.
            BranchBoundSearch(
                space, Evaluator(toy_arch, small_gemm), seed=0, leaf_width=16
            ).run()
        by_id = {record["span_id"]: record for record in tracer.records}

        def ancestors(record):
            while record["parent_id"] is not None:
                record = by_id[record["parent_id"]]
                yield record["name"]

        for name, method in (
            ("bound.child", "child_bounds"),
            ("bound.suffix", "suffix_bounds"),
        ):
            spans = [r for r in tracer.records if r["name"] == name]
            assert len(spans) == calls[method] > 0
            assert all("search.run" in ancestors(r) for r in spans)

    def test_genetic_search_emits_generation_spans(
        self, toy_arch, vector100, toy_evaluator
    ):
        space = ruby_s_mapspace(toy_arch, vector100)
        registry = MetricsRegistry()
        tracer = Tracer()
        with obs_scope(registry=registry, tracer=tracer):
            GeneticSearch(
                space,
                toy_evaluator,
                seed=0,
                population_size=8,
                max_evaluations=32,
            ).run()
        names = _span_names(tracer)
        assert "search.run" in names
        assert "search.generation" in names
        assert registry.counter("search.runs").value(driver="genetic") == 1.0

    def test_evaluator_and_cache_counters(self, toy_arch, vector100):
        space = pfm_mapspace(toy_arch, vector100)
        evaluator = Evaluator(
            toy_arch, vector100, cache=EvaluationCache(max_entries=256)
        )
        registry = MetricsRegistry()
        with obs_scope(registry=registry):
            RandomSearch(
                space,
                evaluator,
                seed=0,
                max_evaluations=200,
                use_batch=False,
            ).run()
        assert registry.counter("evaluator.evals").total() > 0
        lookups = (
            registry.counter("evaluator.cache_hits").total()
            + registry.counter("evaluator.cache_misses").total()
        )
        assert lookups > 0

    def test_batch_engine_counters(self, toy_arch, vector100, toy_evaluator):
        space = pfm_mapspace(toy_arch, vector100)
        registry = MetricsRegistry()
        with obs_scope(registry=registry):
            result = RandomSearch(
                space, toy_evaluator, seed=0, max_evaluations=200
            ).run()
        if not result.stats["batch"]["candidates"]:
            pytest.skip("batch path unsupported for this mapspace")
        assert registry.counter("batch.batches").total() > 0
        assert (
            registry.counter("batch.candidates").total()
            == result.stats["batch"]["candidates"]
        )

    def test_no_registry_leak_when_inactive(
        self, toy_arch, vector100, toy_evaluator
    ):
        from repro.obs import default_registry

        default_registry().reset()
        space = pfm_mapspace(toy_arch, vector100)
        RandomSearch(space, toy_evaluator, seed=0, max_evaluations=100).run()
        assert default_registry().names() == []


class TestRunLedgerCounts:
    """Each non-tree searcher counts through one ledger on both paths."""

    @pytest.mark.parametrize("use_batch", [False, True])
    @pytest.mark.parametrize(
        "driver", ["random", "exhaustive", "genetic", "pareto"]
    )
    def test_candidates_and_improvements_match_result(
        self, toy_arch, vector100, driver, use_batch, set_batch_size
    ):
        from repro.search.pareto_search import ParetoSearch

        set_batch_size(64)
        space = ruby_s_mapspace(toy_arch, vector100)
        evaluator = Evaluator(toy_arch, vector100)
        runs = {
            "random": lambda: RandomSearch(
                space, evaluator, seed=0, max_evaluations=150,
                use_batch=use_batch,
            ).run(),
            "exhaustive": lambda: ExhaustiveSearch(
                space, evaluator, use_batch=use_batch
            ).run(),
            "genetic": lambda: GeneticSearch(
                space, evaluator, population_size=8, max_evaluations=32,
                seed=0, use_batch=use_batch,
            ).run(),
            "pareto": lambda: ParetoSearch(
                space, evaluator, max_evaluations=150, seed=0,
                use_batch=use_batch,
            ).run(),
        }
        registry = MetricsRegistry()
        with obs_scope(registry=registry):
            result = runs[driver]()
        candidates = registry.counter("search.candidates").value(driver=driver)
        assert candidates == result.num_evaluated > 0
        # Pareto keeps a frontier, not a scalar incumbent: no curve, and
        # no improvement counts.
        curve = getattr(result, "curve", [])
        improvements = registry.counter("search.improvements").value(
            driver=driver
        )
        assert improvements == len(curve)
        assert (result.stats["batch"]["candidates"] > 0) == use_batch


class TestParallelObs:
    def test_worker_snapshots_merge_into_ambient_registry(
        self, toy_arch, vector100
    ):
        registry = MetricsRegistry()
        with obs_scope(registry=registry):
            result = search_job(
                _seeds_job(toy_arch, vector100, (7, 8), 100), workers=2
            )
        # The transient per-worker snapshot never reaches callers.
        assert "_obs_registry" not in result.stats
        # Worker-side counters (one search.run per worker) merged in,
        # plus the pool-level run from the driver. Candidates are counted
        # once, by the workers that priced them.
        assert registry.counter("search.runs").value(driver="random") == 2.0
        assert registry.counter("search.runs").value(driver="seeds") == 1.0
        assert (
            registry.counter("search.candidates").total()
            == registry.counter("search.candidates").value(driver="random")
            == result.num_evaluated
        )

    def test_no_snapshot_key_when_obs_inactive(self, toy_arch, vector100):
        result = search_job(
            _seeds_job(toy_arch, vector100, (7, 8), 100), workers=2
        )
        assert "_obs_registry" not in result.stats


STATS_TOP_KEYS = {"elapsed_s", "evals_per_sec"}
CACHE_KEYS = {"hits", "misses", "hit_rate", "size", "max_entries"}
BATCH_KEYS = {
    "batches", "candidates", "pruned", "prune_rate", "fallback", "infeasible",
}


class TestStatsSchemaStability:
    """SearchResult.stats keys are path-independent (satellite 4)."""

    def _check(self, stats, expect_cache, expect_batch):
        assert STATS_TOP_KEYS <= set(stats)
        assert ("cache" in stats) == expect_cache
        if expect_cache:
            assert set(stats["cache"]) == CACHE_KEYS
        # The batch sub-dict is schema-uniform: always present with the
        # full key set; all-zero counters on paths the engine never ran.
        assert set(stats["batch"]) == BATCH_KEYS
        if expect_batch:
            assert stats["batch"]["candidates"] > 0
        else:
            assert stats["batch"]["candidates"] == 0

    @pytest.mark.parametrize("with_obs", [False, True])
    def test_schema_across_paths(self, toy_arch, vector100, with_obs):
        space = pfm_mapspace(toy_arch, vector100)

        def run_all():
            scalar = RandomSearch(
                space,
                Evaluator(toy_arch, vector100),
                seed=0,
                max_evaluations=100,
                use_batch=False,
            ).run()
            cached = RandomSearch(
                space,
                Evaluator(
                    toy_arch,
                    vector100,
                    cache=EvaluationCache(max_entries=128),
                ),
                seed=0,
                max_evaluations=100,
                use_batch=False,
            ).run()
            batched = RandomSearch(
                space,
                Evaluator(toy_arch, vector100),
                seed=0,
                max_evaluations=100,
                use_batch=True,
            ).run()
            pooled = search_job(
                _seeds_job(toy_arch, vector100, (3, 4), 50), workers=2
            )
            return scalar, cached, batched, pooled

        if with_obs:
            with obs_scope(registry=MetricsRegistry()):
                scalar, cached, batched, pooled = run_all()
        else:
            scalar, cached, batched, pooled = run_all()

        self._check(scalar.stats, expect_cache=False, expect_batch=False)
        self._check(cached.stats, expect_cache=True, expect_batch=False)
        engine_ran = batched.stats["batch"]["candidates"] > 0
        self._check(
            batched.stats, expect_cache=False, expect_batch=engine_ran
        )
        # Pool workers price uncached, so the merged stats carry no cache.
        pool_engine_ran = pooled.stats["batch"]["candidates"] > 0
        self._check(
            pooled.stats, expect_cache=False, expect_batch=pool_engine_ran
        )


class TestUniformStatsSchema:
    """All five searchers emit one top-level stats key set (satellite:
    schema uniformity, including the ``progress`` sub-dict)."""

    def test_six_searchers_identical_top_level_keys(self, toy_arch, vector100):
        from repro.obs import empty_progress_stats
        from repro.search.loop import _bnb_stats as empty_bnb_stats
        from repro.search.branch_bound import BranchBoundSearch
        from repro.search.pareto_search import ParetoSearch

        space = pfm_mapspace(toy_arch, vector100)

        def evaluator():
            return Evaluator(toy_arch, vector100)

        stats_by_driver = {
            "random": RandomSearch(
                space, evaluator(), seed=0, max_evaluations=50
            ).run().stats,
            "exhaustive": ExhaustiveSearch(space, evaluator()).run().stats,
            "genetic": GeneticSearch(
                space, evaluator(), population_size=8, max_evaluations=24,
                seed=0,
            ).run().stats,
            "branch-bound": BranchBoundSearch(
                space, evaluator(), seed=0
            ).run().stats,
            "pareto": ParetoSearch(
                space, evaluator(), max_evaluations=50, seed=0
            ).run().stats,
        }
        baseline = set(stats_by_driver["random"])
        for driver, stats in stats_by_driver.items():
            assert set(stats) == baseline, driver
            assert set(stats["progress"]) == set(empty_progress_stats())
            assert set(stats["bnb"]) == set(empty_bnb_stats())
            assert stats["progress"]["completed_units"] > 0


class TestOneRootSpan:
    """A traced run is one span tree: the result, with its lazily priced
    final best, is built inside ``search.run``, and the run's clock stops
    there too."""

    @pytest.mark.parametrize(
        "driver",
        ["random", "genetic", "exhaustive", "pareto", "branch-bound", "seeds"],
    )
    def test_final_best_nests_under_search_run(
        self, toy_arch, vector100, driver
    ):
        from repro.search.branch_bound import BranchBoundSearch
        from repro.search.pareto_search import ParetoSearch

        space = pfm_mapspace(toy_arch, vector100)
        evaluator = Evaluator(toy_arch, vector100)
        runs = {
            "random": lambda: RandomSearch(
                space, evaluator, seed=0, max_evaluations=100
            ).run(),
            "genetic": lambda: GeneticSearch(
                space, evaluator, population_size=8, max_evaluations=24,
                seed=0,
            ).run(),
            "exhaustive": lambda: ExhaustiveSearch(space, evaluator).run(),
            "pareto": lambda: ParetoSearch(
                space, evaluator, max_evaluations=100, seed=0
            ).run(),
            "branch-bound": lambda: BranchBoundSearch(
                space, evaluator, seed=0
            ).run(),
            "seeds": lambda: search_job(
                _seeds_job(toy_arch, vector100, (1, 2), 100)
            ),
        }
        tracer = Tracer()
        with obs_scope(registry=MetricsRegistry(), tracer=tracer):
            result = runs[driver]()
        records = tracer.records
        roots = [r for r in records if r["parent_id"] is None]
        assert [r["name"] for r in roots] == ["search.run"]
        by_id = {r["span_id"]: r for r in records}

        def under_search_run(record):
            while record["parent_id"] is not None:
                record = by_id[record["parent_id"]]
                if record["name"] == "search.run":
                    return True
            return False

        fresh = [r for r in records if r["name"] == "evaluator.fresh"]
        assert fresh
        assert all(under_search_run(r) for r in fresh)
        assert 0 < result.stats["elapsed_s"] <= roots[0]["duration_s"] + 0.05


class TestTraceFileFromSearch:
    def test_trace_written_and_valid(self, tmp_path, toy_arch, vector100):
        from repro.obs import validate_span

        space = pfm_mapspace(toy_arch, vector100)
        path = tmp_path / "trace.jsonl"
        with obs_scope(registry=MetricsRegistry(), trace_path=path):
            RandomSearch(
                space,
                Evaluator(toy_arch, vector100),
                seed=0,
                max_evaluations=100,
            ).run()
        records = read_trace(path)
        assert records
        for record in records:
            assert validate_span(record) == []
        roots = [r for r in records if r["parent_id"] is None]
        assert any(r["name"] == "search.run" for r in roots)
        # Child spans cannot outlast their root.
        root = max(roots, key=lambda r: r["duration_s"])
        for record in records:
            assert record["duration_s"] <= root["duration_s"] + 1e-6

"""Unit tests for the parallel multi-start search."""

import pytest

from repro.arch import toy_glb_architecture
from repro.core.mapper import MapperConfig, find_best_mapping
from repro.exceptions import SearchError
from repro.mapspace import ruby_s_mapspace
from repro.model import EvaluationCache, Evaluator
from repro.problem.gemm import vector_workload
from repro.search import RandomSearch
from repro.search.parallel import parallel_random_search


@pytest.fixture
def setting():
    return toy_glb_architecture(6, 1024), vector_workload("v100", 100)


class TestParallelSearch:
    def test_single_worker_runs(self, setting):
        arch, workload = setting
        result = parallel_random_search(
            arch, workload, workers=1, max_evaluations=300,
            patience=None, seed=0,
        )
        assert result.best is not None and result.best.valid
        assert result.num_evaluated == 300

    def test_multi_worker_aggregates_counts(self, setting):
        arch, workload = setting
        result = parallel_random_search(
            arch, workload, workers=3, max_evaluations=200,
            patience=None, seed=0,
        )
        assert result.best is not None
        assert result.num_evaluated == 600
        assert result.num_valid <= 600

    def test_deterministic_given_seed(self, setting):
        arch, workload = setting
        a = parallel_random_search(
            arch, workload, workers=2, max_evaluations=150,
            patience=None, seed=11,
        )
        b = parallel_random_search(
            arch, workload, workers=2, max_evaluations=150,
            patience=None, seed=11,
        )
        assert a.best_metric == b.best_metric

    def test_more_workers_never_worse(self, setting):
        arch, workload = setting
        one = parallel_random_search(
            arch, workload, workers=1, max_evaluations=150,
            patience=None, seed=3,
        )
        # Same seed stream: the 1-worker stream is the first of the
        # 4-worker streams, so the merged best can only improve.
        four = parallel_random_search(
            arch, workload, workers=4, max_evaluations=150,
            patience=None, seed=3,
        )
        assert four.best_metric <= one.best_metric

    def test_rejects_bad_workers(self, setting):
        arch, workload = setting
        with pytest.raises(SearchError):
            parallel_random_search(arch, workload, workers=0)

    def test_stats_expose_pool_and_workers(self, setting):
        arch, workload = setting
        result = parallel_random_search(
            arch, workload, workers=3, max_evaluations=100,
            patience=None, seed=5,
        )
        stats = result.stats
        assert stats["pool_mode"] in ("fork", "spawn", "sequential")
        assert stats["evals_per_sec"] > 0
        rows = stats["workers"]
        assert len(rows) == 3
        assert sum(row["num_evaluated"] for row in rows) == result.num_evaluated
        assert sum(row["num_valid"] for row in rows) == result.num_valid
        # Workers price uncached: a parallel run is N serial streams.
        assert "cache" not in stats
        assert not any("cache_hit_rate" in row for row in rows)

    def test_cache_never_changes_results(self, setting):
        # Caching lives on the serial path only (batch and scalar pricers).
        arch, workload = setting
        space = ruby_s_mapspace(arch, workload)
        for use_batch in (True, False):

            def run(cache):
                return RandomSearch(
                    space, Evaluator(arch, workload, cache=cache),
                    max_evaluations=150, patience=None, seed=21,
                    use_batch=use_batch,
                ).run()

            cached = run(EvaluationCache())
            uncached = run(None)
            assert cached.best_metric == uncached.best_metric
            assert cached.best.mapping == uncached.best.mapping
            assert cached.num_valid == uncached.num_valid
            # Only the row-wise path looks the cache up, once per draw.
            cache = cached.stats["cache"]
            assert cache["hits"] + cache["misses"] == (
                0 if use_batch else cached.num_evaluated
            )
            assert "cache" not in uncached.stats

    def test_no_valid_reports_none(self, setting):
        # An impossible architecture: nothing valid to find.
        from repro.arch import toy_glb_architecture

        arch = toy_glb_architecture(num_pes=6, glb_bytes=4)
        _, workload = setting
        result = parallel_random_search(
            arch, workload, kind="pfm", workers=2, max_evaluations=50,
            patience=None, seed=0,
        )
        assert result.best is None
        assert result.num_evaluated == 100


class TestMapperWorkers:
    """``MapperConfig.workers`` is the one parallelism setting."""

    @pytest.mark.parametrize("strategy", ["exhaustive", "genetic"])
    def test_rejected_for_strategies_without_a_pool(self, strategy):
        with pytest.raises(SearchError, match="workers"):
            MapperConfig(strategy=strategy, workers=2)

    @pytest.mark.parametrize("strategy", ["random", "branch-bound"])
    def test_accepted_for_pooled_strategies(self, strategy):
        assert MapperConfig(strategy=strategy, workers=2).workers == 2

    def test_rejects_no_workers(self):
        with pytest.raises(SearchError, match="workers"):
            MapperConfig(workers=0)

    @pytest.mark.parametrize("seed", [0, 9])
    def test_random_workers_run_the_parallel_pool(self, setting, seed):
        arch, workload = setting
        kwargs = dict(
            kind="ruby-s", max_evaluations=150, patience=60,
            workers=2, seed=seed,
        )
        mapped = find_best_mapping(
            arch, workload, strategy="random", **kwargs
        )
        pooled = parallel_random_search(arch, workload, **kwargs)
        assert mapped.best_metric == pooled.best_metric
        assert mapped.num_evaluated == pooled.num_evaluated
        assert len(mapped.stats["workers"]) == 2


class TestStartMethods:
    """The pool must be genuinely parallel under fork AND spawn (the
    paper's 24-thread setup must not silently degrade to one core on
    spawn-only platforms), with identical results in every mode."""

    def _run(self, setting, **kwargs):
        arch, workload = setting
        return parallel_random_search(
            arch, workload, workers=4, max_evaluations=80,
            patience=None, seed=13, **kwargs,
        )

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_forced_start_method_runs_multiprocess(self, setting, method):
        result = self._run(setting, start_method=method)
        assert result.stats["pool_mode"] == method
        assert result.best is not None
        assert result.num_evaluated == 320

    def test_spawn_parity_with_single_worker_and_fork(self, setting):
        spawn = self._run(setting, start_method="spawn")
        fork = self._run(setting, start_method="fork")
        arch, workload = setting
        one = parallel_random_search(
            arch, workload, workers=1, max_evaluations=80,
            patience=None, seed=13,
        )
        # Same seed stream everywhere: worker 0's stream IS the 1-worker
        # run, so the merged best can only improve on it — and fork vs
        # spawn must agree exactly.
        assert spawn.best_metric == fork.best_metric
        assert spawn.best.mapping == fork.best.mapping
        assert spawn.num_valid == fork.num_valid
        assert spawn.best_metric <= one.best_metric
        assert one.stats["pool_mode"] == "sequential"

    def test_unusable_method_falls_back_to_sequential_all_jobs(
        self, setting, monkeypatch
    ):
        def explode(*args, **kwargs):
            raise ValueError("no process pools here")

        monkeypatch.setattr(
            "multiprocessing.get_context", explode, raising=True
        )
        result = self._run(setting)
        assert result.stats["pool_mode"] == "sequential"
        # The fallback still runs every job, not just the first.
        assert result.num_evaluated == 320
        assert len(result.stats["workers"]) == 4


class TestWorkerErrorContext:
    """A failing worker must report which (index, seed) job died."""

    def _raise_in_search(self, monkeypatch):
        def explode(self, *args, **kwargs):
            raise RuntimeError("synthetic search failure")

        monkeypatch.setattr(RandomSearch, "run", explode)

    @staticmethod
    def _worker_seeds(base_seed, workers):
        from repro.utils.rng import make_rng

        rng = make_rng(base_seed)
        return [rng.getrandbits(32) for _ in range(workers)]

    def test_single_worker_reports_index_and_seed(self, setting, monkeypatch):
        from repro.exceptions import WorkerError

        self._raise_in_search(monkeypatch)
        arch, workload = setting
        with pytest.raises(WorkerError) as info:
            parallel_random_search(
                arch, workload, workers=1, max_evaluations=50,
                patience=None, seed=7,
            )
        assert info.value.index == 0
        assert info.value.seed == self._worker_seeds(7, 1)[0]
        assert "synthetic search failure" in str(info.value)
        payload = info.value.payload()
        assert payload["index"] == 0 and payload["seed"] == info.value.seed

    def test_sequential_fallback_reports_failing_job(
        self, setting, monkeypatch
    ):
        from repro.exceptions import WorkerError

        def explode(*args, **kwargs):
            raise ValueError("no process pools here")

        monkeypatch.setattr(
            "multiprocessing.get_context", explode, raising=True
        )
        self._raise_in_search(monkeypatch)
        arch, workload = setting
        with pytest.raises(WorkerError) as info:
            parallel_random_search(
                arch, workload, workers=3, max_evaluations=50,
                patience=None, seed=5,
            )
        assert info.value.index == 0  # jobs run in order; first one dies
        assert info.value.seed == self._worker_seeds(5, 3)[0]

    @pytest.mark.skipif(
        not hasattr(__import__("os"), "fork"), reason="needs fork"
    )
    def test_fork_pool_surfaces_worker_error(self, setting, monkeypatch):
        """Monkeypatches propagate into fork children, so the raised
        WorkerError crosses the pool boundary with its context intact."""
        from repro.exceptions import WorkerError

        self._raise_in_search(monkeypatch)
        arch, workload = setting
        with pytest.raises(WorkerError) as info:
            parallel_random_search(
                arch, workload, workers=2, max_evaluations=50,
                patience=None, seed=9, start_method="fork",
            )
        seeds = self._worker_seeds(9, 2)
        assert info.value.index in (0, 1)
        assert info.value.seed == seeds[info.value.index]


@pytest.mark.skipif(not hasattr(__import__("os"), "fork"), reason="needs fork")
def test_killed_worker_fails_the_search(crash_run):
    """A worker SIGKILLed mid-search raises WorkerError for its job
    instead of hanging the driver, and every other worker is reaped."""
    report = crash_run("""
        import repro.search.parallel as parallel
        from repro.arch import toy_glb_architecture
        from repro.problem.gemm import vector_workload

        attributed = parallel.worker_errors


        def killing(index, seed):
            if index == 1:
                kill_self()
            return attributed(index, seed)


        def run():
            parallel.worker_errors = killing  # forked workers inherit it
            parallel.parallel_random_search(
                toy_glb_architecture(6, 1024), vector_workload("v100", 100),
                workers=2, max_evaluations=50, patience=None, seed=3,
                start_method="fork",
            )
    """)
    assert report == {"index": 1, "children": 0}

"""Unit tests for the best-of-seeds search and its worker pool."""

import pytest

from repro.arch import toy_glb_architecture
from repro.core.mapper import Mapper, MapperConfig, find_best_mapping
from repro.energy.accelergy import estimate_energy_table
from repro.exceptions import SearchError
from repro.mapspace import ruby_s_mapspace
from repro.model import EvaluationCache, Evaluator
from repro.problem.gemm import vector_workload
from repro.search import RandomSearch
from repro.search.campaign import CampaignJob, search_job
from repro.utils.rng import make_rng


@pytest.fixture
def setting():
    return toy_glb_architecture(6, 1024), vector_workload("v100", 100)


def _job(setting, seeds, budget, kind="ruby-s", patience=None):
    arch, workload = setting
    return CampaignJob(
        job_id="seeds", arch=arch, workload=workload, kind=kind,
        max_evaluations=budget, patience=patience, seeds=tuple(seeds),
    )


def _mapper_seeds(base_seed, workers):
    """The streams ``find_best_mapping(workers=N, seed=s)`` runs."""
    rng = make_rng(base_seed)
    return tuple(rng.getrandbits(32) for _ in range(workers))


class TestParallelSearch:
    def test_single_worker_runs(self, setting):
        result = search_job(_job(setting, [0], 300))
        assert result.best is not None and result.best.valid
        assert result.num_evaluated == 300
        assert result.stats["pool_mode"] == "sequential"

    def test_multi_worker_aggregates_counts(self, setting):
        result = search_job(_job(setting, [0, 1, 2], 200), workers=3)
        assert result.best is not None
        assert result.num_evaluated == 600
        assert result.num_valid <= 600

    def test_deterministic_given_seed(self, setting):
        arch, workload = setting
        a, b = (
            find_best_mapping(
                arch, workload, workers=2, max_evaluations=150,
                patience=None, seed=11,
            )
            for _ in range(2)
        )
        assert a.best_metric == b.best_metric
        assert a.best.mapping == b.best.mapping

    def test_more_workers_never_worse(self, setting):
        one = search_job(_job(setting, [3], 150))
        # The one-seed stream is the first of the four, so the merged
        # best can only improve.
        four = search_job(_job(setting, [3, 4, 5, 6], 150), workers=4)
        assert four.best_metric <= one.best_metric

    def test_rejects_bad_workers(self, setting):
        with pytest.raises(SearchError, match="workers"):
            search_job(_job(setting, [0], 50), workers=0)

    def test_stats_expose_pool_and_workers(self, setting):
        result = search_job(_job(setting, [5, 6, 7], 100), workers=3)
        stats = result.stats
        assert stats["pool_mode"] in ("fork", "spawn", "sequential")
        assert stats["evals_per_sec"] > 0
        rows = stats["workers"]
        assert [row["seed"] for row in rows] == [5, 6, 7]
        assert sum(row["num_evaluated"] for row in rows) == result.num_evaluated
        assert sum(row["num_valid"] for row in rows) == result.num_valid
        # Seeds price uncached: a best-of-seeds run is N serial streams.
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
        _, workload = setting
        impossible = (toy_glb_architecture(num_pes=6, glb_bytes=4), workload)
        result = search_job(
            _job(impossible, _mapper_seeds(0, 2), 50, kind="pfm"), workers=2
        )
        assert result.best is None
        assert result.num_evaluated == 100

    def test_shared_stack_matches_one_search_per_seed(self, setting):
        # One mapspace and evaluator serve every seed; each seed still
        # draws and prices the stream a search of its own would.
        arch, workload = setting
        merged = search_job(_job(setting, [1, 2, 3], 120, patience=40))
        alone = [
            find_best_mapping(
                arch, workload, max_evaluations=120, patience=40, seed=seed,
            )
            for seed in (1, 2, 3)
        ]
        assert merged.num_evaluated == sum(r.num_evaluated for r in alone)
        assert merged.num_valid == sum(r.num_valid for r in alone)
        winner = min(alone, key=lambda r: r.best_metric)
        assert merged.best.mapping == winner.best.mapping
        assert merged.curve == winner.curve
        assert merged.terminated_by == winner.terminated_by


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
        mapped = find_best_mapping(
            arch, workload, strategy="random", kind="ruby-s",
            max_evaluations=150, patience=60, workers=2, seed=seed,
        )
        pooled = search_job(
            _job(setting, _mapper_seeds(seed, 2), 150, patience=60),
            workers=2,
        )
        assert mapped.best_metric == pooled.best_metric
        assert mapped.best.mapping == pooled.best.mapping
        assert mapped.num_evaluated == pooled.num_evaluated
        assert len(mapped.stats["workers"]) == 2

    def test_random_workers_price_with_the_mappers_energy_table(
        self, setting
    ):
        arch, workload = setting
        table = estimate_energy_table(arch).scaled(3.0)
        config = MapperConfig(
            max_evaluations=100, patience=None, seed=0, workers=2
        )
        best = Mapper(arch, workload, config, energy_table=table).run().best
        priced = Evaluator(arch, workload, table).evaluate(best.mapping)
        assert best.energy_pj == priced.energy_pj


class TestStartMethods:
    """The pool must be genuinely parallel under fork AND spawn (the
    paper's 24-thread setup must not silently degrade to one core on
    spawn-only platforms), with identical results in every mode."""

    SEEDS = _mapper_seeds(13, 4)

    def _run(self, setting, **kwargs):
        return search_job(_job(setting, self.SEEDS, 80), workers=4, **kwargs)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_forced_start_method_runs_multiprocess(self, setting, method):
        result = self._run(setting, start_method=method)
        assert result.stats["pool_mode"] == method
        assert result.best is not None
        assert result.num_evaluated == 320

    def test_spawn_parity_with_single_worker_and_fork(self, setting):
        spawn = self._run(setting, start_method="spawn")
        fork = self._run(setting, start_method="fork")
        one = search_job(_job(setting, self.SEEDS[:1], 80))
        # Same seed stream everywhere: seed 0's stream IS the one-seed
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

    def test_single_worker_reports_index_and_seed(self, setting, monkeypatch):
        from repro.exceptions import WorkerError

        # One seed on the pool path runs in this process, still
        # attributed to its (index, seed).
        self._raise_in_search(monkeypatch)
        with pytest.raises(WorkerError) as info:
            search_job(_job(setting, [7], 50), workers=2)
        assert info.value.index == 0
        assert info.value.seed == 7
        assert "synthetic search failure" in str(info.value)
        payload = info.value.payload()
        assert payload["index"] == 0 and payload["seed"] == info.value.seed

    def test_inline_seeds_raise_the_search_error(self, setting, monkeypatch):
        # With one worker no pool runs, so nothing wraps the error.
        self._raise_in_search(monkeypatch)
        with pytest.raises(RuntimeError, match="synthetic search failure"):
            search_job(_job(setting, [7, 8], 50))

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
        with pytest.raises(WorkerError) as info:
            search_job(_job(setting, [5, 6, 7], 50), workers=3)
        assert info.value.index == 0  # jobs run in order; first one dies
        assert info.value.seed == 5

    @pytest.mark.skipif(
        not hasattr(__import__("os"), "fork"), reason="needs fork"
    )
    def test_fork_pool_surfaces_worker_error(self, setting, monkeypatch):
        """Monkeypatches propagate into fork children, so the raised
        WorkerError crosses the pool boundary with its context intact."""
        from repro.exceptions import WorkerError

        self._raise_in_search(monkeypatch)
        seeds = (9, 10)
        with pytest.raises(WorkerError) as info:
            search_job(
                _job(setting, seeds, 50), workers=2, start_method="fork"
            )
        assert info.value.index in (0, 1)
        assert info.value.seed == seeds[info.value.index]


@pytest.mark.skipif(not hasattr(__import__("os"), "fork"), reason="needs fork")
def test_killed_worker_fails_the_search(crash_run):
    """A worker SIGKILLed mid-search raises WorkerError for its job
    instead of hanging the driver, and every other worker is reaped."""
    report = crash_run("""
        import repro.search.worker_pool as worker_pool
        from repro.arch import toy_glb_architecture
        from repro.problem.gemm import vector_workload
        from repro.search.campaign import CampaignJob, search_job

        attributed = worker_pool.worker_errors


        def killing(index, seed):
            if index == 1:
                kill_self()
            return attributed(index, seed)


        def run():
            worker_pool.worker_errors = killing  # forked workers inherit it
            job = CampaignJob(
                job_id="killed", arch=toy_glb_architecture(6, 1024),
                workload=vector_workload("v100", 100), kind="ruby-s",
                max_evaluations=50, patience=None, seeds=(3, 4),
            )
            search_job(job, workers=2, start_method="fork")
    """)
    assert report == {"index": 1, "children": 0}

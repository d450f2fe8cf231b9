"""Count parity: every count has one owner, and every reader agrees.

A run's candidate, improvement and batch-kernel counts are owned by its
:class:`~repro.search.loop.RunLedger`; ``SearchResult.stats``, the
registry behind ``/metrics`` and the tracker behind ``/progress`` are
all fed from it. These tests run every driver on both pricers, serial
and parallel branch-and-bound, a pooled best-of-seeds search and a second
service job on a reused evaluator-pool entry, each under its own
registry, and check that the readers report the same numbers.
"""

from __future__ import annotations

import time

import pytest

from repro.arch import eyeriss_like, toy_glb_architecture
from repro.mapspace import MapspaceKind, ruby_s_mapspace
from repro.mapspace.factory import make_mapspace
from repro.model import Evaluator
from repro.model.eval_cache import EvaluationCache
from repro.obs import MetricsRegistry, obs_scope
from repro.problem import GemmLayer
from repro.search import (
    BranchBoundSearch,
    ExhaustiveSearch,
    GeneticSearch,
    RandomSearch,
)
from repro.search.campaign import CampaignJob, search_job
from repro.search.pareto_search import ParetoSearch
from repro.service import JobManager

#: Per-run copies of counts owned elsewhere; nothing may publish them.
DELETED_FAMILIES = {"search.evaluations", "cache.hits", "cache.misses"}


def assert_counts_agree(result, registry, scalar_incumbent=True):
    """The registry, ``stats`` and the result agree on the run's counts."""
    counter = registry.counter
    assert not DELETED_FAMILIES & set(registry.names())
    assert counter("search.candidates").total() == result.num_evaluated > 0
    stats = result.stats
    batch = stats["batch"]
    # The batch kernel priced this run's rows and nothing else: every
    # candidate not proved capacity-infeasible before packing, or none on
    # the scalar path. The live batch.* counters say the same.
    if batch["candidates"]:
        assert (
            batch["candidates"] + batch["infeasible"] == result.num_evaluated
        )
    for key in ("batches", "candidates", "pruned", "fallback", "infeasible"):
        assert counter(f"batch.{key}").total() == batch[key], key
    if scalar_incumbent:
        improvements = counter("search.improvements").total()
        assert improvements == len(result.curve)
        assert improvements == stats["progress"]["improvements"]
    return batch


@pytest.fixture
def toy_space():
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = GemmLayer("g12x10x8", m=12, n=10, k=8).workload()
    return ruby_s_mapspace(arch, workload)


def _evaluator(space, cached=False):
    cache = EvaluationCache(max_entries=4096) if cached else None
    return Evaluator(space.arch, space.workload, cache=cache)


class TestSerialDrivers:
    @pytest.mark.parametrize("use_batch", [False, True])
    @pytest.mark.parametrize(
        "driver", ["random", "exhaustive", "genetic", "pareto"]
    )
    def test_counts_agree(self, toy_space, driver, use_batch, set_batch_size):
        set_batch_size(256 if driver == "exhaustive" else 64)
        evaluator = _evaluator(toy_space)
        runs = {
            "random": lambda: RandomSearch(
                toy_space, evaluator, seed=0, max_evaluations=300,
                use_batch=use_batch,
            ).run(),
            "exhaustive": lambda: ExhaustiveSearch(
                toy_space, evaluator, use_batch=use_batch,
            ).run(),
            "genetic": lambda: GeneticSearch(
                toy_space, evaluator, population_size=8, max_evaluations=32,
                seed=0, use_batch=use_batch,
            ).run(),
            "pareto": lambda: ParetoSearch(
                toy_space, evaluator, max_evaluations=300, seed=0,
                use_batch=use_batch,
            ).run(),
        }
        registry = MetricsRegistry()
        with obs_scope(registry=registry):
            result = runs[driver]()
        # Pareto keeps a frontier, not a scalar incumbent.
        batch = assert_counts_agree(
            result, registry, scalar_incumbent=driver != "pareto"
        )
        assert (batch["candidates"] > 0) == use_batch

    def test_cached_batch_run_counts_only_kernel_rows(self, toy_space):
        evaluator = _evaluator(toy_space, cached=True)
        # The first run fills the cache with its improvements; the second
        # run with the same seed never looks them up: the kernels price
        # every row again.
        RandomSearch(toy_space, evaluator, seed=0, max_evaluations=300).run()
        assert len(evaluator.cache) > 0
        registry = MetricsRegistry()
        with obs_scope(registry=registry):
            result = RandomSearch(
                toy_space, evaluator, seed=0, max_evaluations=300
            ).run()
        cache = result.stats["cache"]
        assert cache["hits"] + cache["misses"] == 0
        assert result.stats["batch"]["candidates"] == result.num_evaluated
        assert_counts_agree(result, registry)


class TestParallelDrivers:
    def test_branch_bound_serial_and_parallel(self):
        arch = eyeriss_like()
        workload = GemmLayer("g8x4x4", m=8, n=4, k=4).workload()
        for workers in (1, 2):
            # No warm start: worker claims must be re-priced by the driver.
            space = make_mapspace(arch, workload, MapspaceKind.PFM)
            registry = MetricsRegistry()
            with obs_scope(registry=registry):
                result = BranchBoundSearch(
                    space, Evaluator(arch, workload), seed=0,
                    warm_samples=0, workers=workers,
                ).run()
            assert_counts_agree(result, registry)
            assert (
                registry.counter("search.subtrees_pruned").total()
                == result.stats["bnb"]["subtrees_pruned"]
            )

    def test_parallel_random(self, toy_space):
        registry = MetricsRegistry()
        with obs_scope(registry=registry):
            result = search_job(
                CampaignJob(
                    job_id="seeds", arch=toy_space.arch,
                    workload=toy_space.workload, kind="ruby-s",
                    max_evaluations=200, patience=None, seeds=(3, 4),
                ),
                workers=2,
            )
        # Its curve is the winning seed's by design, so only the
        # candidate and batch counts are summed over seeds.
        batch = assert_counts_agree(result, registry, scalar_incumbent=False)
        assert batch["candidates"] == result.num_evaluated


def _wait(manager, job_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = manager.get(job_id)
        if job.terminal:
            return job
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never finished")


@pytest.mark.service
def test_second_service_job_on_a_reused_pool_entry():
    manager = JobManager(workers=1)
    manager.start()
    try:
        jobs = []
        for seed in (1, 2):
            registry = MetricsRegistry()
            with obs_scope(registry=registry):
                job, _ = manager.submit({
                    "arch": "toy16",
                    "workload": {"gemm": {"m": 32, "n": 8, "k": 16}},
                    "max_evaluations": 500,
                    "patience": None,
                    "seed": seed,
                })
                job = _wait(manager, job.id)
            assert job.state == "ok"
            jobs.append((job, registry))
    finally:
        manager.stop()
    assert manager.stats()["pool"]["reuses"] == 1
    job, registry = jobs[1]
    result = job.result
    stats = result["stats"]
    assert registry.counter("search.candidates").total() == 500
    assert result["num_evaluated"] == 500
    # The job payload carries no curve; the tracker stands in for it.
    assert (
        registry.counter("search.improvements").total()
        == stats["progress"]["improvements"]
        > 0
    )
    batch = stats["batch"]
    assert batch["candidates"] == 500 - stats["cache"]["hits"] > 0
    for key in ("batches", "candidates", "pruned", "fallback"):
        assert registry.counter(f"batch.{key}").total() == batch[key], key
    assert not DELETED_FAMILIES & set(registry.names())

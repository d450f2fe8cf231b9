"""Unit tests for the reusable worker pool and the incumbent protocol.

:mod:`repro.search.worker_pool` is shared infrastructure for every
parallel searcher, so its contracts are pinned independently of any one
driver: dispatch-order results across all pool modes, context-matched
shared-state construction, the fork→spawn→sequential ladder, worker
error propagation (never swallowed by the ladder), and the strictly-
monotone incumbent cell in both its local and cross-process forms.
"""

from __future__ import annotations

import math
import multiprocessing
import os

import pytest

from repro import obs
from repro.exceptions import SearchError, WorkerError
from repro.obs import MetricsRegistry, obs_scope
from repro.search.branch_bound import LocalIncumbent
from repro.search.worker_pool import (
    OBS_SNAPSHOT_KEY,
    SharedIncumbent,
    collect_worker_obs,
    run_jobs,
    run_under_worker_obs,
    worker_errors,
    worker_stack,
)


def _square_entry(state, job):
    return state.get("offset", 0) + job * job


def _incumbent_entry(state, job):
    incumbent = state["incumbent"]
    incumbent.offer(float(job))
    return incumbent.read()


def _failing_entry(state, job):
    if job == state["bad_job"]:
        raise WorkerError(job, 0, "synthetic unit failure")
    return job


class TestRunJobs:
    def test_sequential_for_single_worker(self):
        results, mode, shared = run_jobs(
            _square_entry, {"offset": 1}, [1, 2, 3], workers=1
        )
        assert results == [2, 5, 10]
        assert mode == "sequential"
        assert shared == {}

    def test_pool_results_in_dispatch_order(self):
        jobs = list(range(12))
        results, mode, _ = run_jobs(
            _square_entry, {}, jobs, workers=2, start_method="fork"
        )
        assert mode == "fork"
        assert results == [job * job for job in jobs]

    def test_shared_factory_merges_into_state(self):
        calls = []

        def factory(ctx):
            calls.append(ctx)
            return {"incumbent": LocalIncumbent()}

        results, mode, shared = run_jobs(
            _incumbent_entry, {}, [5, 3, 9], workers=1,
            shared_factory=factory,
        )
        assert mode == "sequential"
        assert calls == [None]
        # One incumbent instance spans all sequential jobs: monotone min.
        assert results == [5.0, 3.0, 3.0]
        assert shared["incumbent"].read() == 3.0

    def test_shared_incumbent_tightens_across_pool(self):
        results, mode, shared = run_jobs(
            _incumbent_entry, {}, [8, 6, 4, 2], workers=2,
            start_method="fork",
            shared_factory=SharedIncumbent.factory(),
        )
        assert mode == "fork"
        # Every read is <= the job's own offer (some other worker may
        # have tightened further), and the final cell holds the min.
        assert all(
            value <= job for value, job in zip(results, [8, 6, 4, 2])
        )
        assert shared["incumbent"].read() == 2.0

    def test_ladder_falls_back_to_sequential(self, monkeypatch):
        def explode(*args, **kwargs):
            raise ValueError("no contexts available")

        monkeypatch.setattr(
            "multiprocessing.get_context", explode, raising=True
        )
        results, mode, _ = run_jobs(
            _square_entry, {}, [1, 2, 3, 4], workers=4
        )
        assert mode == "sequential"
        assert results == [1, 4, 9, 16]

    def test_worker_error_not_swallowed_by_ladder(self):
        # WorkerError subclasses SearchError, not RuntimeError: the
        # ladder's except clause must let it propagate instead of
        # retrying the failed attempt on the next start method.
        with pytest.raises(WorkerError) as info:
            run_jobs(
                _failing_entry, {"bad_job": 2}, [1, 2, 3], workers=2,
                start_method="fork",
            )
        assert info.value.index == 2

    def test_rejects_bad_workers(self):
        with pytest.raises(SearchError):
            run_jobs(_square_entry, {}, [1], workers=0)


class TestWorkerDeath:
    """A worker that dies mid-job fails the run; no worker outlives it."""

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_killed_worker_raises_for_its_job(self, crash_run, method):
        report = crash_run(f"""
            from repro.search.worker_pool import run_jobs


            def entry(state, job):
                if job == 3:
                    kill_self()
                return job


            def run():
                run_jobs(
                    entry, {{}}, range(6), workers=2, start_method={method!r}
                )
        """)
        assert report == {"index": 3, "children": 0}

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/stat"), reason="reads /proc"
    )
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_killed_driver_takes_its_busy_worker_down(self, crash_run, method):
        report = crash_run(f"""
            import tempfile, time
            from repro.search.worker_pool import WorkerSet, start_contexts


            def hold(pidfile, job):
                with open(pidfile, "w") as out:
                    out.write(str(os.getpid()))
                time.sleep(60)


            def drive(pidfile):
                workers = WorkerSet(hold, pidfile, 1, start_contexts({method!r}))
                workers.submit(0, None)
                workers.wait()


            def alive(pid):  # a zombie has exited
                try:
                    with open(f"/proc/{{pid}}/stat") as stat:
                        return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
                except FileNotFoundError:
                    return False


            def run():
                pidfile = os.path.join(tempfile.mkdtemp(), "worker.pid")
                driver = multiprocessing.get_context("fork").Process(
                    target=drive, args=(pidfile,)
                )
                driver.start()
                while not (os.path.exists(pidfile) and open(pidfile).read()):
                    time.sleep(0.05)
                worker = int(open(pidfile).read())
                os.kill(driver.pid, signal.SIGKILL)
                driver.join()
                deadline = time.monotonic() + 5
                while alive(worker) and time.monotonic() < deadline:
                    time.sleep(0.05)
                if alive(worker):
                    os.kill(worker, signal.SIGKILL)
                    raise AssertionError("the worker outlived its driver by 5 s")
        """)
        assert report == {"index": None, "children": 0}


class TestIncumbents:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: LocalIncumbent(),
            lambda: SharedIncumbent(multiprocessing.get_context("fork")),
        ],
        ids=["local", "shared"],
    )
    def test_protocol(self, make):
        cell = make()
        assert cell.read() == math.inf
        assert cell.offer(10.0) is True
        assert cell.read() == 10.0
        # Equal offers lose: strictly-better keeps the cell monotone and
        # the accept return value meaningful for cut bookkeeping.
        assert cell.offer(10.0) is False
        assert cell.offer(11.0) is False
        assert cell.read() == 10.0
        assert cell.offer(9.5) is True
        assert cell.read() == 9.5

    def test_factory_is_context_matched(self):
        build = SharedIncumbent.factory(42.0)
        local = build(None)["incumbent"]
        assert isinstance(local, LocalIncumbent)
        assert local.read() == 42.0
        ctx = multiprocessing.get_context("fork")
        shared = build(ctx)["incumbent"]
        assert isinstance(shared, SharedIncumbent)
        assert shared.read() == 42.0


class TestObsSnapshots:
    def _work(self):
        obs.inc("search.subtrees_pruned", 7, driver="branch-bound")
        return "done"

    def test_disabled_returns_no_snapshot(self):
        result, snapshot = run_under_worker_obs(False, self._work)
        assert result == "done"
        assert snapshot is None

    def test_snapshot_roundtrip_merges_into_driver_scope(self):
        result, snapshot = run_under_worker_obs(True, self._work)
        assert result == "done"
        assert snapshot is not None
        stats_a = {OBS_SNAPSHOT_KEY: snapshot, "other": 1}
        _, snapshot_b = run_under_worker_obs(True, self._work)
        stats_b = {OBS_SNAPSHOT_KEY: snapshot_b}
        registry = MetricsRegistry()
        with obs_scope(registry=registry):
            collect_worker_obs([stats_a, stats_b])
        # Transport keys are stripped; counters sum across workers.
        assert OBS_SNAPSHOT_KEY not in stats_a
        assert OBS_SNAPSHOT_KEY not in stats_b
        assert stats_a["other"] == 1
        assert (
            registry.counter("search.subtrees_pruned").value(
                driver="branch-bound"
            )
            == 14
        )

    def test_collect_safe_without_active_scope(self):
        _, snapshot = run_under_worker_obs(True, self._work)
        stats = {OBS_SNAPSHOT_KEY: snapshot}
        collect_worker_obs([stats])
        assert OBS_SNAPSHOT_KEY not in stats


class TestWorkerHelpers:
    def _state(self):
        from repro.arch import toy_glb_architecture
        from repro.energy.accelergy import estimate_energy_table
        from repro.mapspace import MapspaceKind
        from repro.problem.gemm import vector_workload

        arch = toy_glb_architecture(6, 1024)
        return {
            "arch": arch,
            "workload": vector_workload("v12", 12),
            "kind": MapspaceKind.PFM,
            "constraints": None,
            "energy_table": estimate_energy_table(arch),
        }

    def test_stack_is_uncached_and_built_once_per_state(self):
        state = self._state()
        first = worker_stack(state)
        assert first["evaluator"].cache is None
        assert worker_stack(state) is first
        assert worker_stack(self._state()) is not first

    def test_errors_carry_the_job(self):
        with pytest.raises(WorkerError) as info:
            with worker_errors(3, 77):
                raise KeyError("boom")
        assert (info.value.index, info.value.seed) == (3, 77)
        assert "KeyError" in str(info.value)
        # A WorkerError raised inside keeps its own attribution.
        with pytest.raises(WorkerError) as info:
            with worker_errors(3, 77):
                raise WorkerError(1, 2, "inner")
        assert (info.value.index, info.value.seed) == (1, 2)

    def test_batch_stats_sum(self):
        # Pool drivers sum per-worker batch counts through BatchCounts,
        # the owner of the ``stats["batch"]`` payload.
        from repro.search.loop import BatchCounts

        total = BatchCounts()
        total += BatchCounts(batches=2, candidates=10, pruned=4, fallback=1)
        total += BatchCounts(batches=1, candidates=30, pruned=6, fallback=0)
        assert total.payload() == {
            "batches": 3, "candidates": 40, "pruned": 10,
            "prune_rate": 0.25, "fallback": 1, "infeasible": 0,
        }
        assert BatchCounts().payload()["prune_rate"] == 0.0

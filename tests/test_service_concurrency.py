"""Mapper-service concurrency tests: coalescing under parallel clients,
journal integrity, monotone per-job progress, warm-cache reuse, and the
worker processes (parallel runs, warm-pair dispatch, a killed worker,
clean stop, fork safety).

Determinism under concurrency comes from construction, not sleeps: a
gate holds the single worker on a blocker job while client threads race
their submissions in, so "identical requests coalesce to one job" is a
hard invariant here, not a timing hope.
"""

import json
import multiprocessing
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.io.journal import Journal
from repro.obs import progress_owner
from repro.obs.metrics import MetricsRegistry
from repro.obs import progress as progress_module
from repro.obs.progress import ProgressTracker, active_trackers
from repro.service import MappingService

pytestmark = pytest.mark.service


def post_json(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8")
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def get_json(url):
    with urllib.request.urlopen(url) as response:
        return json.loads(response.read())


def spec(seed, max_evaluations=300, **overrides):
    payload = {
        "arch": "toy16",
        "workload": {"gemm": {"m": 48, "n": 12, "k": 24}},
        "max_evaluations": max_evaluations,
        "patience": None,
        "seed": seed,
    }
    payload.update(overrides)
    return payload


def wait_all_terminal(url, job_ids, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        states = {
            job["job_id"]: job["state"]
            for job in get_json(url + "/v1/jobs")["jobs"]
        }
        if all(
            states.get(job_id) in ("ok", "failed", "cancelled")
            for job_id in job_ids
        ):
            return states
        time.sleep(0.05)
    raise AssertionError(f"jobs never finished: {states}")


class TestConcurrentClients:
    BLOCKER_SEED = 999_999

    def test_racing_identical_requests_coalesce_to_one_job(self, tmp_path):
        registry = MetricsRegistry()
        journal_path = str(tmp_path / "service.jsonl")
        service = MappingService(
            registry, workers=1, journal_path=journal_path
        )
        with service:
            manager = service.manager
            original = manager._execute
            gate = threading.Event()

            def gated(job):
                if job.spec.config.seed == self.BLOCKER_SEED:
                    assert gate.wait(timeout=60)
                return original(job)

            manager._execute = gated
            _, blocker = post_json(
                service.url + "/v1/search", spec(self.BLOCKER_SEED)
            )
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                job = get_json(
                    f"{service.url}/v1/jobs/{blocker['job_id']}"
                )
                if job["state"] == "running":
                    break
                time.sleep(0.01)
            assert job["state"] == "running"

            # 12 identical + 6 distinct submissions race in from threads
            # while the worker is pinned, so every outcome is forced:
            # the identical twelve MUST share one job id. The distinct six
            # price row-wise, the one path that looks the cache up.
            payloads = [spec(7)] * 12 + [
                spec(seed, use_batch=False) for seed in range(6)
            ]
            results = [None] * len(payloads)

            def client(index):
                results[index] = post_json(
                    service.url + "/v1/search", payloads[index]
                )

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(payloads))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert all(status == 202 for status, _ in results)

            identical_ids = {
                body["job_id"] for _, body in results[:12]
            }
            distinct_ids = {
                body["job_id"] for _, body in results[12:]
            }
            assert len(identical_ids) == 1
            assert len(distinct_ids) == 6
            assert distinct_ids.isdisjoint(identical_ids)

            gate.set()
            all_ids = (
                {blocker["job_id"]} | identical_ids | distinct_ids
            )
            states = wait_all_terminal(service.url, all_ids)
            assert all(states[job_id] == "ok" for job_id in all_ids)

            stats = get_json(service.url + "/v1/stats")
            assert stats["coalesced"] == 11
            # Distinct jobs shared one warm (arch, workload) evaluator:
            # row-wise random search re-draws duplicates, so the shared
            # cache must have answered a meaningful share of lookups.
            assert stats["pool"]["size"] == 1
            assert stats["pool"]["cache"]["hits"] > 0
            # One worker runs the jobs one at a time, so each job's cache
            # window holds only its own lookups: the kernel-priced jobs
            # made none.
            for job_id in {blocker["job_id"]} | identical_ids:
                cache = get_json(f"{service.url}/v1/jobs/{job_id}")[
                    "result"
                ]["stats"]["cache"]
                assert cache["hits"] + cache["misses"] == 0

        # Journal integrity after the storm: every line parses, one
        # request record per distinct job, exactly one terminal record
        # per accepted job, no torn interleavings.
        records = Journal(journal_path).read()
        requests = [r for r in records if r.get("kind") == "request"]
        terminals = [r for r in records if r.get("kind") == "job"]
        assert {r["job_id"] for r in requests} == all_ids
        assert len(requests) == len(all_ids)
        terminal_ids = [r["job_id"] for r in terminals]
        assert sorted(terminal_ids) == sorted(all_ids)
        assert len(set(terminal_ids)) == len(terminal_ids)

    def test_identical_rerun_after_completion_hits_warm_cache(self):
        registry = MetricsRegistry()
        service = MappingService(registry, workers=1)
        with service:
            # Row-wise path: the only one that looks the shared cache up,
            # and it stores EVERY evaluation (the kernels store only
            # improvements), so the rerun's hit-rate floor is a hard
            # guarantee.
            payload = spec(31, max_evaluations=400, use_batch=False)
            _, first = post_json(service.url + "/v1/search", payload)
            states = wait_all_terminal(service.url, [first["job_id"]])
            assert states[first["job_id"]] == "ok"
            # The job finished, so an identical request is NEW work —
            # but it replays the same seeded draws against the warm
            # cache, so (almost) every evaluation is a hit and the
            # result is bit-identical.
            _, second = post_json(service.url + "/v1/search", payload)
            assert second["coalesced"] is False
            assert second["job_id"] != first["job_id"]
            wait_all_terminal(service.url, [second["job_id"]])
            first_body = get_json(
                f"{service.url}/v1/jobs/{first['job_id']}"
            )
            second_body = get_json(
                f"{service.url}/v1/jobs/{second['job_id']}"
            )
            assert (
                first_body["result"]["best"]["edp"]
                == second_body["result"]["best"]["edp"]
            )
            cache = second_body["result"]["stats"].get("cache")
            assert cache is not None
            assert cache["hit_rate"] is not None
            assert cache["hit_rate"] >= 0.5

    def test_progress_is_monotone_and_owned_per_job(self):
        registry = MetricsRegistry()
        service = MappingService(registry, workers=2)
        with service:
            _, body = post_json(
                service.url + "/v1/search",
                spec(77, max_evaluations=60_000),
            )
            job_id = body["job_id"]
            observed = []
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                progress = get_json(
                    f"{service.url}/v1/jobs/{job_id}/progress"
                )
                for snapshot in progress["searches"]:
                    assert snapshot["owner"] == job_id
                    observed.append(snapshot["completed_units"])
                if progress["state"] in ("ok", "failed"):
                    break
                time.sleep(0.01)
            assert progress["state"] == "ok"
            assert observed == sorted(observed), (
                "per-job completed_units went backwards"
            )


class TestProgressOwnershipIsolation:
    """Regression: concurrent searches must not cross-contaminate the
    shared ``search.progress_fraction`` gauge or each other's
    ``/progress`` views (the pre-service obs server keyed everything on
    the single ambient scope)."""

    def test_active_trackers_filter_by_owner(self):
        with progress_owner("job-a"):
            tracker_a = ProgressTracker(driver="random", total_units=10)
        with progress_owner("job-b"):
            tracker_b = ProgressTracker(driver="random", total_units=10)
        unowned = ProgressTracker(driver="random", total_units=10)
        try:
            owned_a = active_trackers(owner="job-a")
            assert tracker_a in owned_a
            assert tracker_b not in owned_a
            assert unowned not in owned_a
            everything = active_trackers()
            assert {tracker_a, tracker_b, unowned} <= set(everything)
        finally:
            tracker_a.finish()
            tracker_b.finish()
            unowned.finish()

    def test_owned_trackers_publish_job_labelled_gauges(self):
        from repro.obs import obs_scope

        registry = MetricsRegistry()
        with obs_scope(registry=registry):
            with progress_owner("job-x"):
                tracker_x = ProgressTracker(driver="random", total_units=10)
            with progress_owner("job-y"):
                tracker_y = ProgressTracker(driver="random", total_units=10)
            tracker_x.advance(5)
            tracker_y.advance(2)
            gauge = registry.gauge("search.progress_fraction")
            assert gauge.value(driver="random", job="job-x") == 0.5
            assert gauge.value(driver="random", job="job-y") == 0.2
            # Two concurrent owned searches never collapse onto the
            # single unowned series.
            assert gauge.value(driver="random") is None
            tracker_x.finish()
            tracker_y.finish()

    def test_unowned_tracker_keeps_legacy_single_series(self):
        from repro.obs import obs_scope

        registry = MetricsRegistry()
        with obs_scope(registry=registry):
            tracker = ProgressTracker(driver="random", total_units=10)
            tracker.advance(4)
            gauge = registry.gauge("search.progress_fraction")
            assert gauge.value(driver="random") == 0.4
            tracker.finish()


def job_interval(body):
    """(start, end) of a job's run on the server's wall clock."""
    start = body["submitted_s"] + body["queue_wait_s"]
    return start, start + body["run_s"]


class TestWorkerProcesses:
    """Each service worker is a forked process running one search at a
    time; the server keeps the queue, the journal and the figures."""

    def test_two_jobs_run_at_once_in_two_worker_processes(self):
        with MappingService(MetricsRegistry(), workers=2) as service:
            pids = {row["pid"] for row in
                    get_json(service.url + "/v1/stats")["workers"]}
            assert len(pids) == 2 and os.getpid() not in pids
            ids = [
                post_json(service.url + "/v1/search",
                          spec(seed, max_evaluations=20_000))[1]["job_id"]
                for seed in (1, 2)
            ]
            states = wait_all_terminal(service.url, ids)
            assert all(states[job_id] == "ok" for job_id in ids)
            bodies = [get_json(f"{service.url}/v1/jobs/{job_id}")
                      for job_id in ids]
            assert {body["worker_pid"] for body in bodies} == pids
            (start_a, end_a), (start_b, end_b) = map(job_interval, bodies)
            assert start_a < end_b and start_b < end_a
            for body in bodies:
                assert 0 < body["search_s"] <= body["run_s"]
            stats = get_json(service.url + "/v1/stats")
            assert [row["jobs_run"] for row in stats["workers"]] == [1, 1]
            assert stats["pool"]["admissions"] == sum(
                row["pool"]["admissions"] for row in stats["workers"]
            ) == 2

    def test_a_repeat_goes_to_the_worker_with_its_pair_warm(self):
        with MappingService(MetricsRegistry(), workers=2) as service:
            payload = spec(5, use_batch=False)
            _, first = post_json(service.url + "/v1/search", payload)
            wait_all_terminal(service.url, [first["job_id"]])
            _, second = post_json(service.url + "/v1/search", payload)
            wait_all_terminal(service.url, [second["job_id"]])
            first, second = (
                get_json(f"{service.url}/v1/jobs/{body['job_id']}")
                for body in (first, second)
            )
            assert second["worker_pid"] == first["worker_pid"]
            assert second["result"]["stats"]["cache"]["hit_rate"] >= 0.5

    def test_killed_worker_fails_only_its_job(self, tmp_path):
        journal_path = str(tmp_path / "service.jsonl")
        service = MappingService(
            MetricsRegistry(), workers=1, journal_path=journal_path
        )
        with service:
            (victim,) = [row["pid"] for row in
                         get_json(service.url + "/v1/stats")["workers"]]
            _, body = post_json(service.url + "/v1/search",
                                spec(3, max_evaluations=10_000_000))
            job_id = body["job_id"]
            # Published progress means the search is under way there.
            deadline = time.monotonic() + 60
            while not get_json(
                f"{service.url}/v1/jobs/{job_id}/progress"
            )["searches"]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            listed = get_json(f"{service.url}/progress?job={job_id}")
            assert [s["owner"] for s in listed["searches"]] == [job_id]
            os.kill(victim, signal.SIGKILL)
            wait_all_terminal(service.url, [job_id])
            failed = get_json(f"{service.url}/v1/jobs/{job_id}")
            assert failed["state"] == "failed"
            assert failed["error"]["type"] == "WorkerError"
            assert failed["error"]["http_status"] == 422
            assert str(victim) in failed["error"]["message"]

            _, body = post_json(service.url + "/v1/search", spec(4))
            wait_all_terminal(service.url, [body["job_id"]])
            after = get_json(f"{service.url}/v1/jobs/{body['job_id']}")
            assert after["state"] == "ok"
            assert after["worker_pid"] not in (None, victim)
        terminal = {
            record["job_id"]: record["status"]
            for record in Journal(journal_path).read()
            if record.get("kind") == "job"
        }
        assert terminal == {job_id: "failed", body["job_id"]: "ok"}

    def test_stop_leaves_no_child_process(self):
        with MappingService(MetricsRegistry(), workers=2) as service:
            _, body = post_json(service.url + "/v1/search", spec(6))
            wait_all_terminal(service.url, [body["job_id"]])
            assert len(multiprocessing.active_children()) >= 2
        assert multiprocessing.active_children() == []

    def test_workers_fork_safely_while_another_thread_holds_tracker_lock(
        self,
    ):
        # Workers fork before the service starts a thread, but another
        # thread of the process may hold a repro lock at the fork: the
        # child resets the locks its search takes (the progress tracker
        # registry's here), so the search still runs.
        held, release = threading.Event(), threading.Event()

        def hold():
            with progress_module._TRACKERS_LOCK:
                held.set()
                release.wait(timeout=60)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(timeout=10)
            with MappingService(MetricsRegistry(), workers=1) as service:
                _, body = post_json(service.url + "/v1/search", spec(8))
                states = wait_all_terminal(
                    service.url, [body["job_id"]], timeout_s=30
                )
                assert states[body["job_id"]] == "ok"
        finally:
            release.set()
            holder.join()

#!/usr/bin/env python
"""End-to-end smoke test for the mapper service (``make service-smoke``).

Drives a real ``repro serve`` subprocess through the acceptance contract:

1. a live server absorbs 20+ concurrent requests (mixed identical and
   distinct specs) with every submission accepted, every job reaching
   ``ok``, at least two worker processes serving them, and the coalesce
   counter > 0 (identical in-flight requests shared one job); the
   ``use_batch: false`` requests earn warm-cache hits, and the
   kernel-priced ones make no cache lookups;
2. the service's best-EDP answer is bit-identical to a direct in-process
   :func:`find_best_mapping` run with the same seed and config;
3. per-job ``/progress`` and ``/metrics`` are served from the same
   listener;
4. a SIGKILLed server leaves no worker process alive after a grace
   period, and restarted with ``--resume`` it finishes every job it had
   accepted — no lost work, exactly one terminal record per job.

Runs in well under a minute; exits nonzero on any failure.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.arch import toy_linear_architecture  # noqa: E402
from repro.core import find_best_mapping  # noqa: E402
from repro.io.journal import Journal  # noqa: E402
from repro.problem import GemmLayer  # noqa: E402

CONCURRENT_CLIENTS = 20
IDENTICAL_CLIENTS = 8  # submissions sharing one spec (must coalesce)
PARITY_SEED = 7
PARITY_BUDGET = 500
#: Seconds a SIGKILLed server's workers get to notice and exit.
WORKER_EXIT_GRACE_S = 5.0


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(condition: bool, message: str) -> None:
    if not condition:
        fail(message)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def post_json(url: str, payload: dict):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8")
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def get_json(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read())


def spec(seed: int, max_evaluations: int = PARITY_BUDGET) -> dict:
    return {
        "arch": "toy16",
        "workload": {"gemm": {"m": 48, "n": 12, "k": 24}},
        "max_evaluations": max_evaluations,
        "patience": None,
        "seed": seed,
    }


def row_wise_spec(seed: int, max_evaluations: int) -> dict:
    """A ``use_batch: false`` request, the one path that looks the cache
    up, on its own workload so its pool entry (and cache) is not shared
    with the kernel-priced requests of :func:`spec`."""
    return {
        **spec(seed, max_evaluations),
        "workload": {"gemm": {"m": 24, "n": 12, "k": 48}},
        "use_batch": False,
    }


def alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:
        pass  # no procfs: ask the kernel instead
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def launch(journal: str, resume: bool = False) -> tuple:
    args = [
        sys.executable, "-m", "repro", "serve",
        "--workers", "2", "--queue-limit", "64", "--journal", journal,
    ]
    if resume:
        args.append("--resume")
    proc = subprocess.Popen(
        args, env=_env(), cwd=REPO, stdout=subprocess.PIPE, text=True
    )
    url = None
    deadline = time.time() + 30
    while time.time() < deadline:
        line = proc.stdout.readline()
        check(
            bool(line) or proc.poll() is None,
            "serve exited before announcing its URL",
        )
        found = re.search(r"serving mapper API at (http://\S+)", line or "")
        if found:
            url = found.group(1)
            break
    check(url is not None, "no 'serving mapper API at' banner on stdout")
    return proc, url


def wait_terminal(url: str, job_ids, timeout_s: float = 120.0) -> dict:
    deadline = time.time() + timeout_s
    while time.time() < deadline:
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
    fail(f"jobs did not finish in {timeout_s:.0f}s: {states}")


def concurrent_load(url: str) -> None:
    """20 racing clients: accepted, coalesced, completed, measured."""
    distinct = CONCURRENT_CLIENTS - IDENTICAL_CLIENTS
    kernel_clients = IDENTICAL_CLIENTS + distinct // 2
    payloads = (
        [spec(PARITY_SEED, 4000)] * IDENTICAL_CLIENTS
        + [spec(seed, 400) for seed in range(distinct // 2)]
        + [
            row_wise_spec(seed, 400)
            for seed in range(distinct // 2, distinct)
        ]
    )
    results = [None] * len(payloads)
    submitted = time.monotonic()

    def client(index: int) -> None:
        results[index] = post_json(url + "/v1/search", payloads[index])

    threads = [
        threading.Thread(target=client, args=(i,))
        for i in range(len(payloads))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    check(
        all(result is not None and result[0] == 202 for result in results),
        f"not every concurrent submission was accepted: "
        f"{[r[0] for r in results if r]}",
    )
    job_ids = {body["job_id"] for _, body in results}
    states = wait_terminal(url, job_ids)
    elapsed = time.monotonic() - submitted
    check(
        all(states[job_id] == "ok" for job_id in job_ids),
        f"not every job finished ok: {states}",
    )

    identical_ids = {body["job_id"] for _, body in results[:IDENTICAL_CLIENTS]}
    check(
        len(identical_ids) == 1,
        f"identical in-flight requests did not share one job: {identical_ids}",
    )
    bodies = [get_json(f"{url}/v1/jobs/{job_id}") for job_id in job_ids]
    pids = {body["worker_pid"] for body in bodies}
    check(
        len(pids) >= 2,
        f"{len(job_ids)} concurrent jobs ran in {len(pids)} worker "
        f"process(es): {pids}",
    )
    stats = get_json(url + "/v1/stats")
    check(
        stats["coalesced"] > 0,
        f"coalesce counter is {stats['coalesced']} after duplicate load",
    )
    check(
        stats["pool"]["cache"]["hits"] > 0,
        "shared evaluation cache saw no hits from the use_batch=false "
        "requests under load",
    )
    # The kernel-priced jobs share a pool entry only with each other, so
    # each job's cache window holds kernel lookups alone: there are none.
    for job_id in {body["job_id"] for _, body in results[:kernel_clients]}:
        cache = get_json(f"{url}/v1/jobs/{job_id}")["result"]["stats"]["cache"]
        check(
            cache["hits"] + cache["misses"] == 0,
            f"batch-path job {job_id} looked the cache up: {cache}",
        )
    print(
        f"load: {len(payloads)} concurrent requests -> {len(job_ids)} jobs "
        f"on {len(pids)} worker processes, coalesced={stats['coalesced']}, "
        f"cache hits={stats['pool']['cache']['hits']}, {elapsed:.2f}s wall"
    )


def parity(url: str) -> None:
    """The service's answer equals the direct in-process search, bit for bit."""
    status, body = post_json(url + "/v1/search", spec(PARITY_SEED))
    check(status == 202, f"parity submission rejected: {status}")
    job_id = body["job_id"]
    wait_terminal(url, [job_id])
    served = get_json(f"{url}/v1/jobs/{job_id}")["result"]["best"]
    direct = find_best_mapping(
        toy_linear_architecture(16),
        GemmLayer("request", m=48, n=12, k=24).workload(),
        max_evaluations=PARITY_BUDGET,
        patience=None,
        seed=PARITY_SEED,
    )
    check(
        served["edp"] == direct.best.edp
        and served["cycles"] == direct.best.cycles
        and served["energy_pj"] == direct.best.energy_pj,
        f"service best diverged from direct search: "
        f"served edp={served['edp']}, direct edp={direct.best.edp}",
    )
    print(f"parity: served EDP {served['edp']} == direct (bit-identical)")


def crash_recovery(journal: str) -> None:
    """SIGKILL mid-queue: its workers exit; --resume finishes every
    accepted job."""
    proc, url = launch(journal)
    accepted = []
    try:
        workers = [row["pid"] for row in get_json(url + "/v1/stats")["workers"]]
        for seed in range(100, 105):
            status, body = post_json(
                url + "/v1/search", spec(seed, 5000)
            )
            check(status == 202, f"crash-test submission rejected: {status}")
            accepted.append(body["job_id"])
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
    print(f"crash: SIGKILLed server with {len(accepted)} accepted jobs")
    deadline = time.time() + WORKER_EXIT_GRACE_S
    while any(alive(pid) for pid in workers) and time.time() < deadline:
        time.sleep(0.05)
    survivors = [pid for pid in workers if alive(pid)]
    check(
        not survivors,
        f"workers {survivors} outlived the SIGKILLed server by "
        f"{WORKER_EXIT_GRACE_S:.0f}s",
    )
    print(f"crash: all {len(workers)} workers of the killed server exited")

    resumed, resumed_url = launch(journal, resume=True)
    try:
        deadline = time.time() + 120
        terminal = {}
        while time.time() < deadline:
            terminal = {
                record["job_id"]: record["status"]
                for record in Journal(journal).read()
                if record.get("kind") == "job"
            }
            if set(accepted) <= set(terminal):
                break
            time.sleep(0.2)
        lost = set(accepted) - set(terminal)
        check(not lost, f"accepted jobs lost across SIGKILL: {lost}")
        check(
            all(terminal[job_id] == "ok" for job_id in accepted),
            f"recovered jobs did not all finish ok: {terminal}",
        )
        # Exactly one terminal record per accepted job across both
        # server lifetimes (the pre-kill one may have finished some).
        all_terminals = [
            record["job_id"]
            for record in Journal(journal).read()
            if record.get("kind") == "job"
        ]
        check(
            len(all_terminals) == len(set(all_terminals)),
            "duplicate terminal records after resume",
        )
    finally:
        resumed.terminate()
        resumed.wait(timeout=10)
    print(
        f"crash: --resume finished all {len(accepted)} accepted jobs, "
        "one terminal record each"
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        journal = str(Path(tmp) / "service.jsonl")
        proc, url = launch(journal)
        try:
            health = urllib.request.urlopen(url + "/healthz", timeout=10)
            check(health.read().decode().strip() == "ok", "healthz not ok")
            concurrent_load(url)
            parity(url)
            metrics = (
                urllib.request.urlopen(url + "/metrics", timeout=10)
                .read().decode()
            )
            check(
                "repro_service_jobs_ok" in metrics,
                "/metrics is missing service counters",
            )
            print("obs: /healthz + /metrics live on the service listener")
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    with tempfile.TemporaryDirectory() as tmp:
        crash_recovery(str(Path(tmp) / "service.jsonl"))

    print("OK: service smoke passed")


if __name__ == "__main__":
    main()

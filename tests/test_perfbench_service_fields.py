"""The service fields the benchmark's ``service_mixed`` workload reads.

``perfbench/service_load.py`` drives a ``repro serve`` subprocess over
HTTP and reads a fixed set of response keys, the pool bound and one
library entry point. A renamed key would only fail the benchmark's own
runs, so this reads the same fields from a live service.
"""

import json
import time
import urllib.request

import pytest

from repro.arch import toy_linear_architecture
from repro.core.mapper import find_best_mapping
from repro.obs.metrics import MetricsRegistry
from repro.problem import GemmLayer
from repro.service import MappingService
from repro.service.coalesce import DEFAULT_POOL_SIZE

pytestmark = pytest.mark.service

#: A toy16 GEMM spec shaped like the benchmark's row-wise requests.
SPEC = {
    "arch": "toy16", "workload": {"gemm": {"m": 48, "n": 12, "k": 24}},
    "max_evaluations": 150, "patience": None, "seed": 3, "use_batch": False,
}


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read())


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8")
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def test_pool_bound_fits_the_benchmark_pairs():
    # service_mixed sends 8 distinct (arch, workload) pairs and checks
    # that none is evicted.
    assert isinstance(DEFAULT_POOL_SIZE, int) and DEFAULT_POOL_SIZE >= 8


def test_served_fields_match_the_benchmark_reads():
    with MappingService(MetricsRegistry(), workers=1) as service:
        jobs = []
        for _ in range(2):  # the repeat coalesces or reads a warm cache
            status, body = _post(service.url + "/v1/search", SPEC)
            assert status == 202
            assert isinstance(body["coalesced"], bool)
            job_url = f"{service.url}/v1/jobs/{body['job_id']}"
            job = _get(job_url)
            deadline = time.monotonic() + 60
            while job["state"] not in ("ok", "failed", "cancelled"):
                assert time.monotonic() < deadline
                time.sleep(0.02)
                job = _get(job_url)
            jobs.append(job)
        stats = _get(service.url + "/v1/stats")

    for job in jobs:
        assert job["state"] == "ok"
        assert job["queue_wait_s"] >= 0 and job["run_s"] > 0
        assert job["result"]["num_evaluated"] == SPEC["max_evaluations"]
    assert stats["pool"]["evictions"] == 0
    cache = stats["pool"]["cache"]
    assert cache["misses"] > 0 and cache["hits"] >= 0
    assert stats["coalesced"] in (0, 1)

    direct = find_best_mapping(
        toy_linear_architecture(16),
        GemmLayer("request", **SPEC["workload"]["gemm"]).workload(),
        max_evaluations=SPEC["max_evaluations"], patience=SPEC["patience"],
        seed=SPEC["seed"], use_batch=SPEC["use_batch"],
    )
    assert jobs[0]["result"]["best"]["edp"] == direct.best.edp

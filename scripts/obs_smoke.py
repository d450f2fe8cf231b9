#!/usr/bin/env python
"""End-to-end smoke test for the observability layer (``make obs-smoke``).

Runs a toy exhaustive search with tracing and metrics enabled, then
checks the full observability contract:

1. every record in the trace JSONL validates against the span schema;
2. the root ``search.run`` span's duration matches the reported
   ``stats["elapsed_s"]``, and each level of the span tree nests inside
   its parent (children's total never exceeds the parent's duration);
3. the metrics registry agrees with the search on every count: its
   ``search.candidates`` equal ``num_evaluated``, its
   ``search.improvements`` equal the curve length and
   ``stats["progress"]["improvements"]``, and its ``batch.*`` counters
   equal ``stats["batch"]``; the JSON exporter round-trips through
   ``merge``;
4. ``repro obs dump`` and ``repro obs summarize`` both accept the file;
5. with no scope active, instrumentation publishes nothing (the
   near-zero-overhead guarantee is a behavioural one: no ambient scope
   means no registry traffic at all);
6. a real CLI search launched with ``--serve-metrics 0`` serves live
   ``/progress`` (nonzero, monotonically nondecreasing fraction while
   the search is still running) and ``/metrics`` (Prometheus text with
   the live progress gauge) from its ephemeral port.

Runs in a few seconds; exits nonzero on any failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.request
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.arch import toy_glb_architecture  # noqa: E402
from repro.mapspace import pfm_mapspace  # noqa: E402
from repro.model import Evaluator  # noqa: E402
from repro.obs import (  # noqa: E402
    MetricsRegistry,
    obs_scope,
    read_trace,
    validate_span,
)
from repro.problem.gemm import vector_workload  # noqa: E402
from repro.search import ExhaustiveSearch  # noqa: E402

#: Tolerance between the root span and the timer's elapsed_s. Both are
#: perf_counter differences taken a few microseconds apart; 50 ms absorbs
#: scheduler noise on loaded CI machines without hiding real breakage.
TOLERANCE_S = 0.05


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


def main() -> None:
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = vector_workload("v100", 100)
    space = pfm_mapspace(arch, workload)

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.jsonl"

        registry = MetricsRegistry()
        with obs_scope(registry=registry, trace_path=trace_path):
            result = ExhaustiveSearch(space, Evaluator(arch, workload)).run()
        print(
            f"search: {result.num_evaluated} evaluated, "
            f"best {result.best_metric:.4g}"
        )

        # -- 1. every span validates against the schema ----------------
        records = read_trace(trace_path)
        check(bool(records), "trace file contains no span records")
        for record in records:
            problems = validate_span(record)
            check(not problems, f"invalid span {record}: {problems}")
        print(f"trace: {len(records)} spans, all valid")

        # -- 2. durations nest: root matches stats, levels sum ---------
        roots = [r for r in records if r["parent_id"] is None]
        check(len(roots) == 1, f"expected one root span, got {len(roots)}")
        root = roots[0]
        check(root["name"] == "search.run", f"root span is {root['name']}")
        drift = abs(root["duration_s"] - result.stats["elapsed_s"])
        check(
            drift < TOLERANCE_S,
            f"root span {root['duration_s']:.4f}s vs stats elapsed_s "
            f"{result.stats['elapsed_s']:.4f}s (drift {drift:.4f}s)",
        )
        children = defaultdict(list)
        by_id = {r["span_id"]: r for r in records}
        for record in records:
            if record["parent_id"] is not None:
                children[record["parent_id"]].append(record)
        for parent_id, kids in children.items():
            parent = by_id[parent_id]
            kid_total = sum(k["duration_s"] for k in kids)
            check(
                kid_total <= parent["duration_s"] + TOLERANCE_S,
                f"children of {parent['name']} sum to {kid_total:.4f}s > "
                f"parent {parent['duration_s']:.4f}s",
            )
        print(
            f"spans: root {root['duration_s']:.4f}s ~ "
            f"elapsed_s {result.stats['elapsed_s']:.4f}s "
            f"(drift {drift:.4f}s), nesting consistent"
        )

        # -- 3. registry agrees with the run; JSON export merges back --
        candidates = registry.counter("search.candidates").total()
        check(
            candidates == result.num_evaluated,
            f"registry counted {candidates} candidates, "
            f"search reported {result.num_evaluated}",
        )
        improvements = registry.counter("search.improvements").total()
        progress_improvements = result.stats["progress"]["improvements"]
        check(
            improvements == len(result.curve) == progress_improvements,
            f"registry counted {improvements} improvements, curve has "
            f"{len(result.curve)}, progress has {progress_improvements}",
        )
        for key in ("batches", "candidates", "pruned", "fallback"):
            counted = registry.counter(f"batch.{key}").total()
            check(
                counted == result.stats["batch"][key],
                f"registry batch.{key}={counted}, "
                f"stats batch {key}={result.stats['batch'][key]}",
            )
        payload = registry.to_json()
        check(payload["schema"] == 1, "metrics JSON schema != 1")
        reimported = MetricsRegistry()
        reimported.merge(json.loads(json.dumps(payload))["metrics"])
        check(
            reimported.counter("search.candidates").total() == candidates,
            "metrics JSON did not round-trip through merge",
        )
        print(
            f"metrics: {int(candidates)} candidates, {int(improvements)} "
            "improvements and batch counts agree with the run; JSON "
            "round-trips"
        )

        # -- 4. the CLI accepts the trace ------------------------------
        for sub in ("dump", "summarize"):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "obs", sub, str(trace_path)],
                env=_env(),
                cwd=REPO,
                capture_output=True,
                text=True,
            )
            check(
                proc.returncode == 0,
                f"repro obs {sub} exited {proc.returncode}: {proc.stderr}",
            )
        print("cli: obs dump / obs summarize accept the trace")

    # -- 5. no ambient scope, no registry traffic ----------------------
    from repro.obs import default_registry

    default_registry().reset()
    ExhaustiveSearch(space, Evaluator(arch, workload)).run()
    leaked = default_registry().names()
    check(not leaked, f"instrumentation leaked metrics without a scope: {leaked}")
    print("overhead: no scope active -> no registry traffic")

    # -- 6. live endpoints on a real CLI search ------------------------
    check_live_endpoints()

    print("OK: observability smoke passed")


def _http_get(url: str, timeout: float = 5.0) -> str:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


def check_live_endpoints() -> None:
    """Launch ``repro search --serve-metrics 0`` and scrape it mid-run.

    The scalar (``--no-batch``) random search over a big GEMM runs for
    many seconds, leaving a wide window to observe a fraction that is
    nonzero, strictly below 1, and monotonically nondecreasing across
    polls — i.e. genuinely live progress, not a post-hoc summary.
    """
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "search",
            "--gemm",
            "M=256,N=64,K=256",
            "--kind",
            "ruby-s",
            "--searcher",
            "random",
            "--budget",
            "500000",
            "--patience",
            "500000",
            "--no-batch",
            "--serve-metrics",
            "0",
        ],
        env=_env(),
        cwd=REPO,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        url = None
        deadline = time.time() + 30.0
        while time.time() < deadline:
            line = proc.stdout.readline()
            check(
                bool(line) or proc.poll() is None,
                "search exited before announcing its telemetry URL",
            )
            if line.startswith("serving live telemetry at "):
                url = line.split(" at ", 1)[1].strip()
                break
        check(url is not None, "no 'serving live telemetry at' line on stdout")
        print(f"live: search serving at {url}")

        def progress_fraction():
            payload = json.loads(_http_get(url + "/progress"))
            check(payload["schema"] == 1, "/progress schema != 1")
            searches = [
                s for s in payload["searches"] if s["driver"] == "random"
            ]
            if not searches or searches[0]["fraction"] is None:
                return None
            return searches[0]["fraction"]

        fraction = None
        while time.time() < deadline:
            check(proc.poll() is None, "search finished before a mid-run poll")
            fraction = progress_fraction()
            if fraction:
                break
            time.sleep(0.05)
        check(
            fraction is not None and 0.0 < fraction < 1.0,
            f"no mid-run progress fraction observed (got {fraction})",
        )

        later = progress_fraction()
        check(
            later is not None and later >= fraction,
            f"progress fraction moved backwards: {fraction} -> {later}",
        )
        print(
            f"live: /progress fraction {fraction:.3g} -> {later:.3g} "
            "(nonzero, monotone, mid-run)"
        )

        metrics = _http_get(url + "/metrics")
        check(
            "repro_search_progress_fraction" in metrics,
            "/metrics is missing the live progress gauge",
        )
        check(
            "# TYPE" in metrics and "repro_evaluator_evals_total" in metrics,
            "/metrics is not Prometheus text exposition",
        )
        print("live: /metrics serves Prometheus text with progress gauge")
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    main()

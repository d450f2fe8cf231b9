"""Job table, worker pool, and journal-backed persistence for the service.

A submitted search becomes a :class:`ServiceJob`: parsed spec, canonical
signature, priority, and a lifecycle ``queued -> running -> ok | failed``
(or ``cancelled`` while still queued). The :class:`JobManager` owns the
priority queue, the worker threads that drain it, the per-(arch, workload)
warm-evaluator pool, and — when given a journal path — a crash-safe record
of every accepted request, so ``repro serve --resume`` re-enqueues exactly
the jobs that were accepted but never finished.

Journal record kinds (sharing the campaign journal's framing — fsynced
single-line appends, torn-tail-tolerant reads):

* ``{"kind": "service", "event": "start" | "resume", ...}`` — one per
  server process, an audit trail of service lifetimes.
* ``{"kind": "request", "job_id": ..., "spec": {...}, ...}`` — one per
  *accepted* (non-coalesced) request; carries the normalized spec so
  resume can re-run it without the original client.
* ``{"kind": "job", "job_id": ..., "status": "ok" | "failed" |
  "cancelled", ...}`` — the terminal record; resume skips jobs that
  have one.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.arch import ARCH_PRESETS
from repro.arch.spec import Architecture
from repro.core.mapper import Mapper, MapperConfig
from repro.exceptions import ReproError, SearchError, ServiceError, SpecError
from repro.io.journal import Journal
from repro.io.serde import (
    architecture_from_dict,
    architecture_to_dict,
    mapping_to_dict,
    workload_from_dict,
    workload_to_dict,
)
from repro.obs.progress import progress_owner
from repro.problem.shorthand import shorthand_workload
from repro.problem.workload import Workload
from repro.search.result import SearchResult
from repro.service.admission import (
    DEFAULT_QUEUE_LIMIT,
    PRIORITY_RANK,
    AdmissionController,
    validate_priority,
)
from repro.service.coalesce import EvaluatorPool, canonical_signature

#: Search-config request keys and their MapperConfig defaults. ``workers``
#: and ``start_method`` are deliberately absent: process-pool search inside
#: a threaded service is a resource-management decision the operator makes
#: via server flags, not individual requests.
_SEARCH_KEYS = (
    "kind",
    "objective",
    "strategy",
    "max_evaluations",
    "patience",
    "seed",
    "use_batch",
)

_TOP_LEVEL_KEYS = frozenset(("arch", "workload", "priority") + _SEARCH_KEYS)

JOB_STATES = ("queued", "running", "ok", "failed", "cancelled")


@dataclass(frozen=True)
class SearchSpec:
    """A parsed, validated search request.

    ``normalized`` is the canonical JSON form (serde dicts + resolved
    search config) — the coalescing signature hashes it, the journal
    stores it, and resume re-parses it, so a preset-name request and its
    expanded-dict equivalent are literally the same spec.
    """

    arch: Architecture
    workload: Workload
    config: MapperConfig
    normalized: Dict[str, Any]
    priority: str

    @property
    def signature(self) -> str:
        return canonical_signature(self.normalized)


def parse_search_spec(payload: Any) -> SearchSpec:
    """Parse a ``POST /v1/search`` body into a :class:`SearchSpec`.

    Accepted shape (all search keys optional, MapperConfig defaults)::

        {
          "arch": "eyeriss" | {<architecture dict>},
          "workload": {"gemm": {"m": 64, ...}}
                    | {"conv": {"c": 64, ...}}
                    | {<workload dict>},
          "kind": "ruby-s", "objective": "edp", "strategy": "random",
          "max_evaluations": 500, "patience": null, "seed": 0,
          "use_batch": true,
          "priority": "high" | "normal" | "low"
        }

    Unknown top-level keys are rejected loudly (:class:`SpecError`), so a
    typoed ``"max_evals"`` fails the request instead of silently running
    a 10k-budget default search. So are the values :class:`MapperConfig`
    refuses: an unknown kind, objective or strategy, a count that is not
    an integer in range, or a ``use_batch`` that is not a bool.
    """
    if not isinstance(payload, dict):
        raise SpecError(
            f"search request must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    unknown = sorted(set(payload) - _TOP_LEVEL_KEYS)
    if unknown:
        raise SpecError(
            f"unknown search request keys {unknown}; allowed: "
            f"{sorted(_TOP_LEVEL_KEYS)}"
        )
    arch = _parse_arch(payload.get("arch", "eyeriss"))
    workload = _parse_workload(payload.get("workload"))
    priority = validate_priority(payload.get("priority"))

    overrides: Dict[str, Any] = {}
    for key in _SEARCH_KEYS:
        if key in payload:
            overrides[key] = payload[key]
    try:
        config = MapperConfig(**overrides)
    except (TypeError, SearchError) as error:
        raise SpecError(f"bad search configuration: {error}") from error
    # Resolve every search key (default or override) into the normalized
    # form so "omitted" and "explicitly the default" coalesce.
    search = {key: getattr(config, key) for key in _SEARCH_KEYS}
    search["kind"] = str(getattr(search["kind"], "value", search["kind"]))
    normalized = {
        "arch": architecture_to_dict(arch),
        "workload": workload_to_dict(workload),
        "search": search,
    }
    return SearchSpec(
        arch=arch,
        workload=workload,
        config=config,
        normalized=normalized,
        priority=priority,
    )


def _parse_arch(value: Any) -> Architecture:
    if isinstance(value, str):
        if value not in ARCH_PRESETS:
            raise SpecError(
                f"unknown architecture preset {value!r}; use one of "
                f"{sorted(ARCH_PRESETS)} or pass a full architecture dict"
            )
        return ARCH_PRESETS[value]()
    if isinstance(value, dict):
        return architecture_from_dict(value)
    raise SpecError(
        f"'arch' must be a preset name or an architecture dict, got "
        f"{type(value).__name__}"
    )


def _parse_workload(value: Any) -> Workload:
    if not isinstance(value, dict):
        raise SpecError(
            "'workload' must be a dict: {'gemm': {...}}, {'conv': {...}}, "
            "or a serialized workload"
        )
    if "gemm" in value or "conv" in value:
        extra = set(value) - {"gemm", "conv", "name"}
        if extra or ("gemm" in value and "conv" in value):
            raise SpecError(
                "workload shorthand takes exactly one of 'gemm'/'conv' "
                "plus an optional 'name'"
            )
        op = "gemm" if "gemm" in value else "conv"
        shape = value[op]
        if not isinstance(shape, dict):
            raise SpecError("workload shape must be a dict of DIM: SIZE")
        return shorthand_workload(op, shape, value.get("name", "request"))
    return workload_from_dict(value)


class ServiceJob:
    """One accepted search request and its lifecycle."""

    def __init__(
        self, job_id: str, spec: SearchSpec, seq: int
    ) -> None:
        self.id = job_id
        self.spec = spec
        self.seq = seq
        self.priority = spec.priority
        self.state = "queued"
        self.submitted_s = time.time()
        self.submitted_monotonic = time.monotonic()
        self.started_monotonic: Optional[float] = None
        self.finished_monotonic: Optional[float] = None
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[Dict[str, Any]] = None
        #: Requests served by this job beyond the first (coalesced).
        self.attached = 0

    @property
    def signature(self) -> str:
        return self.spec.signature

    @property
    def terminal(self) -> bool:
        return self.state in ("ok", "failed", "cancelled")

    def queue_wait_s(self) -> Optional[float]:
        if self.started_monotonic is None:
            return None
        return self.started_monotonic - self.submitted_monotonic

    def run_s(self) -> Optional[float]:
        if self.started_monotonic is None or self.finished_monotonic is None:
            return None
        return self.finished_monotonic - self.started_monotonic

    def payload(self, include_result: bool = True) -> Dict[str, Any]:
        """JSON body for ``GET /v1/jobs/<id>``."""
        body: Dict[str, Any] = {
            "job_id": self.id,
            "state": self.state,
            "priority": self.priority,
            "signature": self.signature,
            "submitted_s": self.submitted_s,
            "queue_wait_s": self.queue_wait_s(),
            "run_s": self.run_s(),
            "coalesced_requests": self.attached,
        }
        if include_result and self.result is not None:
            body["result"] = self.result
        if self.error is not None:
            body["error"] = self.error
        return body


def result_payload(result: SearchResult) -> Dict[str, Any]:
    """Serialize a :class:`SearchResult` for the job's JSON body."""
    body: Dict[str, Any] = {
        "objective": result.objective,
        "num_evaluated": result.num_evaluated,
        "num_valid": result.num_valid,
        "terminated_by": result.terminated_by,
        "stats": result.stats,
        "best": None,
    }
    if result.best is not None:
        best = result.best
        body["best"] = {
            "metric": best.metric(result.objective),
            "edp": best.edp,
            "energy_pj": best.energy_pj,
            "cycles": best.cycles,
            "utilization": best.utilization,
            "mapping": mapping_to_dict(best.mapping),
        }
    return body


class JobManager:
    """Priority queue + worker pool + journal behind the service routes.

    Args:
        workers: worker-thread count (each runs one search at a time).
        queue_limit: admission bound on queued jobs (429 beyond it).
        journal_path: when given, accepted requests and terminal outcomes
            are journaled for ``--resume``.
        pool_size / cache_entries: warm-evaluator pool shape
            (see :class:`~repro.service.coalesce.EvaluatorPool`).
    """

    def __init__(
        self,
        workers: int = 2,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        journal_path: Optional[str] = None,
        pool_size: Optional[int] = None,
        cache_entries: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.admission = AdmissionController(queue_limit=queue_limit)
        pool_kwargs: Dict[str, Any] = {}
        if pool_size is not None:
            pool_kwargs["max_entries"] = pool_size
        if cache_entries is not None:
            pool_kwargs["cache_entries"] = cache_entries
        self.pool = EvaluatorPool(**pool_kwargs)
        self.journal = Journal(journal_path) if journal_path else None

        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._jobs: Dict[str, ServiceJob] = {}
        #: signature -> job id for jobs still in flight (queued/running).
        self._inflight: Dict[str, str] = {}
        #: heap of (priority_rank, seq, job_id); cancelled entries are
        #: skipped lazily on pop.
        self._queue: List[Tuple[int, int, str]] = []
        self._seq = itertools.count(1)
        self._threads: List[threading.Thread] = []
        self._shutdown = False
        self.coalesced = 0
        self.completed = 0
        self.failed = 0

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Journal the service start and launch the worker threads."""
        if self._threads:
            raise ServiceError("job manager already started")
        if self.journal is not None:
            self.journal.append(
                {
                    "kind": "service",
                    "event": "start",
                    "time": time.time(),
                    "workers": self.workers,
                    "queue_limit": self.admission.queue_limit,
                }
            )
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop workers after their current job; queued jobs stay journaled."""
        with self._work:
            self._shutdown = True
            self._work.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout_s)
        self._threads = []

    def resume(self) -> int:
        """Re-enqueue journaled requests that never reached a terminal state.

        Returns the number of jobs recovered. Must run before
        :meth:`start` (single-threaded: no locking subtleties).
        """
        if self.journal is None or not self.journal.exists():
            return 0
        records = self.journal.read()
        requests: Dict[str, Dict[str, Any]] = {}
        terminal = set()
        max_seq = 0
        for record in records:
            kind = record.get("kind")
            if kind == "request":
                requests[record["job_id"]] = record
                max_seq = max(max_seq, int(record.get("seq", 0)))
            elif kind == "job" and record.get("status") in (
                "ok",
                "failed",
                "cancelled",
            ):
                terminal.add(record["job_id"])
        # Restart the seq counter above every journaled request so
        # recovered and fresh jobs never collide on (rank, seq).
        self._seq = itertools.count(max_seq + 1)
        recovered = 0
        for job_id, record in requests.items():
            if job_id in terminal:
                continue
            normalized = record["spec"]
            try:
                spec = parse_search_spec(
                    {
                        "arch": normalized["arch"],
                        "workload": normalized["workload"],
                        "priority": record.get("priority"),
                        **normalized["search"],
                    }
                )
            except SpecError as error:
                # Journaled under a request schema this version no longer
                # accepts: fail that job alone, and recover the rest.
                self._journal_unparsable(job_id, error)
                continue
            seq = int(record.get("seq", 0)) or next(self._seq)
            job = ServiceJob(job_id, spec, seq)
            self._jobs[job.id] = job
            self._inflight[job.signature] = job.id
            heapq.heappush(
                self._queue, (PRIORITY_RANK[job.priority], seq, job.id)
            )
            recovered += 1
        if recovered or records:
            self.journal.append(
                {
                    "kind": "service",
                    "event": "resume",
                    "time": time.time(),
                    "recovered": recovered,
                }
            )
        obs.inc("service.resumed_jobs", recovered)
        return recovered

    def _journal_unparsable(self, job_id: str, error: SpecError) -> None:
        """Record a journaled request that no longer parses as failed."""
        self.failed += 1
        obs.inc("service.jobs_failed")
        self.journal.append(
            {
                "kind": "job",
                "job_id": job_id,
                "status": "failed",
                "time": time.time(),
                "error": error.payload(),
            }
        )

    # ------------------------------------------------------------ submission

    def submit(self, payload: Any) -> Tuple[ServiceJob, bool]:
        """Parse, coalesce-or-admit, and enqueue one request.

        Returns ``(job, coalesced)`` — ``coalesced`` means the request
        attached to an already in-flight identical job instead of
        creating a new one. Raises :class:`SpecError` (400) on a bad
        spec and :class:`~repro.exceptions.AdmissionError` (429) when
        the queue is at its bound.
        """
        spec = parse_search_spec(payload)
        signature = spec.signature
        with self._work:
            if self._shutdown:
                raise ServiceError("service is shutting down")
            existing_id = self._inflight.get(signature)
            if existing_id is not None:
                job = self._jobs[existing_id]
                job.attached += 1
                self.coalesced += 1
                obs.inc("service.coalesced")
                return job, True
            queued = sum(
                1 for _, _, jid in self._queue
                if self._jobs[jid].state == "queued"
            )
            self.admission.admit(queued, self.workers)
            seq = next(self._seq)
            job_id = f"j{seq:06d}-{signature[:8]}"
            job = ServiceJob(job_id, spec, seq)
            # Register (so duplicates coalesce immediately) but do NOT
            # enqueue yet: the request record must hit the journal before
            # a worker can produce its terminal record, so a SIGKILL at
            # any point leaves either no trace (client got no response)
            # or a resumable request — never a lost accepted job.
            self._jobs[job.id] = job
            self._inflight[signature] = job.id
        if self.journal is not None:
            self.journal.append(
                {
                    "kind": "request",
                    "job_id": job.id,
                    "seq": job.seq,
                    "priority": job.priority,
                    "signature": signature,
                    "spec": spec.normalized,
                    "time": time.time(),
                }
            )
        with self._work:
            heapq.heappush(
                self._queue, (PRIORITY_RANK[job.priority], seq, job.id)
            )
            obs.inc("service.accepted")
            obs.set_gauge("service.queue_depth", float(queued + 1))
            self._work.notify()
        return job, False

    def get(self, job_id: str) -> Optional[ServiceJob]:
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> ServiceJob:
        """Cancel a *queued* job; running/terminal jobs raise 409.

        Searches have no preemption point, so a running job cannot be
        cancelled — the client polls it to completion (it stays cached
        for any identical future request anyway).
        """
        with self._work:
            job = self._jobs.get(job_id)
            if job is None:
                error = SpecError(f"no such job {job_id!r}")
                error.http_status = 404
                raise error
            if job.state != "queued":
                error = ServiceError(
                    f"job {job_id!r} is {job.state}; only queued jobs "
                    f"can be cancelled"
                )
                error.http_status = 409
                raise error
            job.state = "cancelled"
            job.finished_monotonic = time.monotonic()
            self._inflight.pop(job.signature, None)
            obs.inc("service.cancelled")
        self._journal_terminal(job)
        return job

    def jobs(self) -> List[ServiceJob]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            states: Dict[str, int] = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                states[job.state] += 1
            return {
                "jobs": states,
                "coalesced": self.coalesced,
                "rejected": self.admission.rejected,
                "completed": self.completed,
                "failed": self.failed,
                "workers": self.workers,
                "queue_limit": self.admission.queue_limit,
                "mean_latency_s": self.admission.mean_latency_s(),
                "pool": self.pool.stats(),
            }

    # ------------------------------------------------------------- execution

    def _next_job(self) -> Optional[ServiceJob]:
        """Block for the next runnable job; None means shutdown."""
        with self._work:
            while True:
                if self._shutdown:
                    # Queued jobs stay journaled for --resume rather
                    # than stretching shutdown by a whole queue drain.
                    return None
                while self._queue:
                    _, _, job_id = heapq.heappop(self._queue)
                    job = self._jobs[job_id]
                    if job.state != "queued":
                        continue  # cancelled while queued
                    job.state = "running"
                    job.started_monotonic = time.monotonic()
                    return job
                self._work.wait()

    def _worker_loop(self) -> None:
        while True:
            job = self._next_job()
            if job is None:
                return
            wait_s = job.queue_wait_s() or 0.0
            obs.observe("service.queue_wait_s", wait_s)
            try:
                result = self._execute(job)
                job.result = result_payload(result)
                job.error = None
                status = "ok"
            except ReproError as error:
                job.error = error.payload()
                status = "failed"
            except Exception as error:  # noqa: BLE001 - job boundary
                job.error = {
                    "type": type(error).__name__,
                    "message": str(error),
                    "exit_code": 1,
                    "http_status": 500,
                }
                status = "failed"
            finished = time.monotonic()
            with self._work:
                job.state = status
                job.finished_monotonic = finished
                self._inflight.pop(job.signature, None)
                if status == "ok":
                    self.completed += 1
                else:
                    self.failed += 1
            run_s = job.run_s() or 0.0
            self.admission.observe_latency(run_s)
            obs.observe("service.search_latency_s", run_s)
            obs.inc(f"service.jobs_{status}")
            self._journal_terminal(job)

    def _execute(self, job: ServiceJob) -> SearchResult:
        """Run one job's search against the warm pool, owning its progress."""
        spec = job.spec
        entry, reused = self.pool.acquire(spec.arch, spec.workload)
        if reused:
            obs.inc("service.pool_reuse")
        try:
            with progress_owner(job.id), obs.trace(
                "service.job",
                job_id=job.id,
                strategy=spec.config.strategy,
                reused_evaluator=reused,
            ):
                mapper = Mapper(
                    entry.arch,
                    entry.workload,
                    spec.config,
                    evaluator=entry.evaluator,
                    batch_engine=entry.engine,
                )
                return mapper.run()
        finally:
            self.pool.release(entry)

    def _journal_terminal(self, job: ServiceJob) -> None:
        if self.journal is None:
            return
        record: Dict[str, Any] = {
            "kind": "job",
            "job_id": job.id,
            "status": job.state,
            "time": time.time(),
            "queue_wait_s": job.queue_wait_s(),
            "run_s": job.run_s(),
        }
        if job.error is not None:
            record["error"] = job.error
        if job.result is not None and job.result.get("best") is not None:
            # Journal the scalar outcome, not the full mapping: enough to
            # audit bit-identical resume behaviour without bloating lines.
            best = job.result["best"]
            record["best"] = {
                "metric": best["metric"],
                "edp": best["edp"],
                "cycles": best["cycles"],
            }
        self.journal.append(record)

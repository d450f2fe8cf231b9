"""Job table, worker processes, and journal-backed persistence for the service.

A submitted search becomes a :class:`ServiceJob`: parsed spec, canonical
signature, priority, and a lifecycle ``queued -> running -> ok | failed``
(or ``cancelled`` while still queued). The :class:`JobManager` owns the
priority queue, the worker processes that run the searches, and — when
given a journal path — a crash-safe record of every accepted request, so
``repro serve --resume`` re-enqueues exactly the jobs that were accepted
but never finished.

Queueing, coalescing, admission and the journal stay in the server
process. Each of the ``workers`` processes is a one-worker
:class:`~repro.search.worker_pool.WorkerSet` with its own warm
:class:`~repro.service.coalesce.EvaluatorPool`, fed one job at a time by
its own server thread. A queued job goes to an idle worker that has its
(arch, workload) pair warm, else to any idle worker. The reply carries
the :class:`SearchResult`, the worker's pool figures and its metrics
snapshot; while the search runs, the worker copies its progress tracker
into an array it shares with the server.

Fork safety: every worker forks in :meth:`JobManager.start`, before the
service starts a thread, and again only to replace a worker that died.
Other threads of the process (an embedder's, another service's) may hold
locks at a fork, so the repro module locks a worker touches are reset in
the child (``os.register_at_fork`` in :mod:`repro.obs.progress`), and
the worker never records into the metrics scope it inherited.

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
import math
import mmap
import os
import signal
import struct
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.arch import ARCH_PRESETS
from repro.arch.spec import Architecture
from repro.core.mapper import Mapper, MapperConfig
from repro.exceptions import (
    ReproError,
    SearchError,
    ServiceError,
    SpecError,
    WorkerError,
)
from repro.io.journal import Journal
from repro.io.serde import (
    architecture_from_dict,
    architecture_to_dict,
    mapping_to_dict,
    workload_from_dict,
    workload_to_dict,
)
from repro.obs.progress import active_trackers, progress_owner
from repro.problem.shorthand import shorthand_workload
from repro.problem.workload import Workload
from repro.search.result import SearchResult
from repro.search.worker_pool import (
    OBS_SNAPSHOT_KEY,
    WorkerSet,
    collect_worker_obs,
    run_under_worker_obs,
    start_contexts,
)
from repro.service.admission import (
    DEFAULT_QUEUE_LIMIT,
    PRIORITY_RANK,
    AdmissionController,
    validate_priority,
)
from repro.service.coalesce import (
    EvaluatorPool,
    canonical_signature,
    pair_signature,
)

#: Search-config request keys and their MapperConfig defaults. ``workers``
#: and ``start_method`` are deliberately absent: the service's worker
#: processes are a resource-management decision the operator makes via
#: server flags, not individual requests.
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
        #: The (arch, workload) pair: a worker's pool key.
        self.pair = pair_signature(spec.arch, spec.workload)
        #: The worker process that ran the job, and the seconds its
        #: search took there (``run_s`` minus this is dispatch and IPC).
        self.worker_pid: Optional[int] = None
        self.search_s: Optional[float] = None

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
            "search_s": self.search_s,
            "worker_pid": self.worker_pid,
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


#: Tracker figures a worker publishes for its running search, in the
#: slots after the job tag (NaN stands for null).
PROGRESS_FIELDS = (
    "total_units",
    "completed_units",
    "fraction",
    "eta_s",
    "rate_units_per_s",
    "improvements",
    "best_metric",
    "elapsed_s",
)

#: Seconds between a worker's progress publications.
PROGRESS_PUBLISH_S = 0.05

#: Fork order of service worker processes, across managers.
_FORKS = itertools.count(1)


class _Stopped(Exception):
    """The service closed a job's worker before the job finished."""


class _ProgressCell:
    """A job tag and that job's :data:`PROGRESS_FIELDS` in an anonymous
    shared mapping, written by a forked worker and read by the server
    (NaN stands for null)."""

    _TAG = struct.Struct("d")
    _FIGURES = struct.Struct(f"{len(PROGRESS_FIELDS)}d")

    def __init__(self) -> None:
        self._memory = mmap.mmap(-1, self._TAG.size + self._FIGURES.size)

    def begin(self, tag: int) -> None:
        """Clear the figures, then tag them as job ``tag``'s: a reader
        that sees its tag before and after a read never mixes two jobs'
        figures."""
        self._TAG.pack_into(self._memory, 0, -1.0)
        self._FIGURES.pack_into(
            self._memory, self._TAG.size, *[math.nan] * len(PROGRESS_FIELDS)
        )
        self._TAG.pack_into(self._memory, 0, float(tag))

    def publish(self, snapshot: Dict[str, Any]) -> None:
        self._FIGURES.pack_into(
            self._memory,
            self._TAG.size,
            *[
                math.nan if snapshot[name] is None else float(snapshot[name])
                for name in PROGRESS_FIELDS
            ],
        )

    def read(self, tag: int) -> Optional[Dict[str, Any]]:
        """Job ``tag``'s figures, or None before its worker published."""
        (before,) = self._TAG.unpack_from(self._memory)
        values = self._FIGURES.unpack_from(self._memory, self._TAG.size)
        (after,) = self._TAG.unpack_from(self._memory)
        figures = dict(zip(PROGRESS_FIELDS, values))
        if before != tag or after != tag or math.isnan(
            figures["completed_units"]
        ):
            return None
        return {
            name: None if math.isnan(value) else value
            for name, value in figures.items()
        }


@contextmanager
def _publishing(cell: _ProgressCell, owner: str, tag: int) -> Iterator[None]:
    """Copy the newest tracker ``owner`` owns into ``cell`` every
    :data:`PROGRESS_PUBLISH_S` while the body runs."""
    cell.begin(tag)
    stop = threading.Event()

    def publish() -> None:
        while not stop.wait(PROGRESS_PUBLISH_S):
            trackers = active_trackers(owner)
            if trackers:
                cell.publish(trackers[-1].snapshot())

    thread = threading.Thread(
        target=publish, name="repro-service-progress", daemon=True
    )
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def _serve_job(
    state: Dict[str, Any], request: Tuple[str, int, SearchSpec, bool]
) -> Dict[str, Any]:
    """Worker-process body of one job: its search on this process's pool.

    ``request`` is ``(job_id, tag, spec, observe)``. The search records
    into a private registry whenever a scope is active here: a forked
    worker inherits the server's scope, whose lock another server thread
    may have held at the fork. The registry snapshot is shipped back only
    when the server observes (``observe``).
    """
    job_id, tag, spec, observe = request
    pool = state.get("pool")
    if pool is None:
        pool = state["pool"] = EvaluatorPool(**state["pool_kwargs"])

    def search() -> SearchResult:
        evaluator, reused = pool.acquire(spec.arch, spec.workload)
        if reused:
            obs.inc("service.pool_reuse")
        with progress_owner(job_id), _publishing(
            state["progress"], job_id, tag
        ):
            return Mapper(
                spec.arch, spec.workload, spec.config, evaluator=evaluator
            ).run()

    start = time.perf_counter()
    result, snapshot = run_under_worker_obs(
        observe or obs.active_obs() is not None, search
    )
    return {
        "result": result,
        "search_s": time.perf_counter() - start,
        "pid": os.getpid(),
        "pool": pool.stats(),
        "warm": pool.signatures(),
        OBS_SNAPSHOT_KEY: snapshot if observe else None,
    }


class _ServiceWorker:
    """One worker process and the server thread that feeds it jobs.

    ``job`` is the job dispatched to it (None while idle); ``pid``,
    ``jobs_run``, ``pool`` and ``warm`` (its pool's pair signatures) are
    the process's figures as of its last reply. The owning
    :class:`JobManager`'s lock guards ``job``.
    """

    def __init__(self, index: int, pool_kwargs: Dict[str, Any]) -> None:
        self.index = index
        self.cell = _ProgressCell()
        self.processes = WorkerSet(
            _serve_job,
            {"pool_kwargs": pool_kwargs, "progress": self.cell},
            1,
            start_contexts("fork"),
        )
        self.job: Optional[ServiceJob] = None
        self.thread: Optional[threading.Thread] = None
        self.forked = 0  # fork order, for _close_workers
        # A bad pool shape fails here, in the server, not in every job.
        self._empty_pool = EvaluatorPool(**pool_kwargs).stats()
        self.pid: Optional[int] = None
        self.jobs_run = 0
        self.pool = self._empty_pool
        self.warm: List[str] = []

    def start(self) -> None:
        """Fork the worker process (again, after a crash) with SIGINT
        blocked: the child inherits the mask, so a terminal's Ctrl-C
        reaches only the server, which stops its workers itself."""
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            pids = self.processes.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        if self.processes.inline:
            raise ServiceError("service workers need the fork start method")
        self.forked = next(_FORKS)
        self.pid, self.jobs_run = pids[0], 0
        self.pool, self.warm = self._empty_pool, []

    def run(self, job: ServiceJob, observe: bool) -> Dict[str, Any]:
        """Send ``job`` to the process and block for its reply.

        A job whose process died fails as :class:`WorkerError`, and a
        fresh process takes the worker's next job.
        """
        self.processes.submit(job.id, (job.id, job.seq, job.spec, observe))
        done: Dict[Any, Tuple[bool, Any]] = {}
        while not done:
            if not self.processes.running:
                raise _Stopped(job.id)
            done = self.processes.wait()
        ok, reply = done[job.id]
        if not ok:
            pid = self.pid
            self.start()
            raise WorkerError(
                job.seq,
                job.spec.config.seed,
                f"service worker process {pid} died (exitcode {reply})",
            )
        return reply

    def record(self, reply: Dict[str, Any]) -> None:
        self.pid = reply["pid"]
        self.jobs_run += 1
        self.pool = reply["pool"]
        self.warm = reply["warm"]

    def row(self) -> Dict[str, Any]:
        """This worker's ``/v1/stats`` row."""
        return {"pid": self.pid, "jobs_run": self.jobs_run, "pool": self.pool}

    def progress(self, job: ServiceJob) -> Optional[Dict[str, Any]]:
        """``job``'s tracker snapshot as last published, or None before
        its search published one."""
        figures = self.cell.read(job.seq)
        if figures is None:
            return None
        figures["improvements"] = int(figures["improvements"])
        return {
            "driver": job.spec.config.strategy,
            "owner": job.id,
            **figures,
            "done": False,
            "timeline": [],
        }


def _sum_pools(pools: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-worker pool figures summed key by key."""
    total = {
        key: sum(pool[key] for pool in pools)
        for key in pools[0]
        if key != "cache"
    }
    total["cache"] = {
        key: sum(pool["cache"][key] for pool in pools)
        for key in pools[0]["cache"]
    }
    return total


class JobManager:
    """Priority queue + worker processes + journal behind the service routes.

    Args:
        workers: worker-process count (each runs one search at a time).
        queue_limit: admission bound on queued jobs (429 beyond it).
        journal_path: when given, accepted requests and terminal outcomes
            are journaled for ``--resume``.
        pool_size / cache_entries: each worker's warm-evaluator pool shape
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
        self._workers = [
            _ServiceWorker(index, pool_kwargs) for index in range(workers)
        ]
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
        self._started = False
        self._shutdown = False
        self.coalesced = 0
        self.completed = 0
        self.failed = 0

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Journal the service start, fork the workers, then start the
        threads that feed them."""
        if self._started:
            raise ServiceError("job manager already started")
        self._started = True
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
        try:
            for worker in self._workers:
                worker.start()
        except BaseException:
            self._close_workers()
            raise
        for worker in self._workers:
            worker.thread = threading.Thread(
                target=self._serve,
                args=(worker,),
                name=f"repro-service-worker-{worker.index}",
                daemon=True,
            )
            worker.thread.start()
        with self._work:
            self._dispatch_locked()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop after the running jobs finish, or after ``timeout_s``, when
        their workers are stopped and the jobs left unjournaled; queued
        jobs stay journaled."""
        with self._work:
            self._shutdown = True
            self._work.notify_all()
        deadline = time.monotonic() + timeout_s
        for worker in self._workers:
            if worker.thread is not None:
                worker.thread.join(max(0.0, deadline - time.monotonic()))
                worker.thread = None
        self._close_workers()

    def _close_workers(self) -> None:
        # Newest first: a forked worker holds copies of the pipe ends of
        # the workers forked before it, so each sees EOF only once every
        # later one is gone.
        for worker in sorted(
            self._workers, key=lambda worker: worker.forked, reverse=True
        ):
            worker.processes.close()

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
            self._dispatch_locked()
        return job, False

    def get(self, job_id: str) -> Optional[ServiceJob]:
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> ServiceJob:
        """Cancel a *queued* job; running/terminal jobs raise 409.

        A running job cannot be cancelled — the client polls it to
        completion (it stays cached for any identical future request
        anyway).
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
            rows = [worker.row() for worker in self._workers]
            return {
                "jobs": states,
                "coalesced": self.coalesced,
                "rejected": self.admission.rejected,
                "completed": self.completed,
                "failed": self.failed,
                "workers": rows,
                "queue_limit": self.admission.queue_limit,
                "mean_latency_s": self.admission.mean_latency_s(),
                "pool": _sum_pools([row["pool"] for row in rows]),
            }

    def progress(self, job_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """Tracker snapshots of the running searches (only ``job_id``'s
        when given), as their workers last published them."""
        with self._lock:
            running = [
                (worker, worker.job)
                for worker in self._workers
                if worker.job is not None
                and job_id in (None, worker.job.id)
            ]
        snapshots = [worker.progress(job) for worker, job in running]
        return [snapshot for snapshot in snapshots if snapshot is not None]

    # ------------------------------------------------------------- execution

    def _dispatch_locked(self) -> None:
        """Hand queued jobs, best first, to idle workers: to one that has
        the job's (arch, workload) pair warm, else to any."""
        if self._shutdown or not self._started:
            return
        idle = [worker for worker in self._workers if worker.job is None]
        while idle and self._queue:
            _, _, job_id = heapq.heappop(self._queue)
            job = self._jobs[job_id]
            if job.state != "queued":
                continue  # cancelled while queued
            worker = next(
                (worker for worker in idle if job.pair in worker.warm),
                idle[0],
            )
            idle.remove(worker)
            job.state = "running"
            job.started_monotonic = time.monotonic()
            worker.job = job
            self._work.notify_all()

    def _next_job(self, worker: _ServiceWorker) -> Optional[ServiceJob]:
        """Block for the job dispatched to ``worker``; None means shutdown.

        Queued jobs stay journaled for --resume rather than stretching
        shutdown by a whole queue drain.
        """
        with self._work:
            while worker.job is None and not self._shutdown:
                self._work.wait()
            return worker.job

    def _serve(self, worker: _ServiceWorker) -> None:
        """Server-thread body: run each job dispatched to ``worker``."""
        while True:
            job = self._next_job(worker)
            if job is None:
                return
            wait_s = job.queue_wait_s() or 0.0
            obs.observe("service.queue_wait_s", wait_s)
            try:
                result = self._execute(job)
                job.result = result_payload(result)
                job.error = None
                status = "ok"
            except _Stopped:
                return  # stop() closed the worker: --resume reruns the job
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
                worker.job = None
                self._dispatch_locked()
            run_s = job.run_s() or 0.0
            self.admission.observe_latency(run_s)
            obs.observe("service.search_latency_s", run_s)
            obs.inc(f"service.jobs_{status}")
            self._journal_terminal(job)

    def _execute(self, job: ServiceJob) -> SearchResult:
        """Run one job's search on the worker it was dispatched to."""
        with self._lock:
            worker = next(w for w in self._workers if w.job is job)
        with obs.trace(
            "service.job",
            job_id=job.id,
            strategy=job.spec.config.strategy,
            worker=worker.index,
        ):
            reply = worker.run(job, obs.active_obs() is not None)
        collect_worker_obs([reply])
        with self._lock:
            worker.record(reply)
        job.worker_pid = reply["pid"]
        job.search_s = reply["search_s"]
        return reply["result"]

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

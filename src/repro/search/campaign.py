"""Fault-tolerant search campaigns: journal, timeouts, retry, resume.

The paper's headline figures come from long multi-start random-search
sweeps over whole workload zoos — exactly the runs that die halfway when
one worker hangs on a pathological mapping or the driver is killed. This
module runs a set of :class:`CampaignJob` s with:

* an **append-only JSONL journal** (:class:`repro.io.journal.Journal`) of
  terminal job records, fsynced per append, so an interrupted campaign
  resumes by skipping journaled entries and a SIGKILL costs at most the
  jobs that were in flight;
* **per-job wall-clock timeouts** enforced by running each job in its own
  worker process that the driver can reap, with bounded retry and
  exponential backoff;
* **quarantine**: a job that exhausts its retries becomes a structured
  failure record (`status: "quarantined"` with the last error payload)
  instead of aborting the sweep — ``InvalidMappingError`` /
  ``MapspaceError`` / ``SearchError`` from one layer never kills the
  campaign;
* a **fault-injection seam** (:class:`repro.utils.faults.FaultPlan`)
  shipped into the workers so hangs, exceptions, and hard crashes can be
  scheduled deterministically in tests.

Execution degrades gracefully: ``fork`` is tried first, then ``spawn``,
then an inline (same-process) mode that still retries and journals but
cannot enforce timeouts or survive crashes.

The experiment drivers (fig. 8–13) opt in through a
:func:`campaign_scope`; see :mod:`repro.experiments.common`.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.arch.spec import Architecture
from repro.exceptions import (
    CampaignError,
    EvaluationError,
    JobCrashError,
    JobTimeoutError,
    ReproError,
    SearchError,
)
from repro.io.journal import TERMINAL_STATUSES, Journal
from repro.obs import ProgressTracker
from repro.mapspace.constraints import ConstraintSet
from repro.mapspace.generator import MapspaceKind
from repro.problem.workload import Workload
from repro.utils.faults import FaultPlan

logger = logging.getLogger(__name__)

DEFAULT_RETRIES = 2
DEFAULT_BACKOFF_S = 0.5
DEFAULT_BACKOFF_FACTOR = 2.0
_POLL_INTERVAL_S = 0.02
_REAP_GRACE_S = 2.0


# ------------------------------------------------------------------- jobs


@dataclass(frozen=True)
class CampaignJob:
    """One unit of campaign work: a multi-seed search of one mapspace.

    Everything here must be picklable — jobs ship whole into worker
    processes under both ``fork`` and ``spawn``.
    """

    job_id: str
    arch: Architecture
    workload: Workload
    kind: str = "ruby-s"
    objective: str = "edp"
    max_evaluations: int = 2_000
    patience: Optional[int] = None
    seeds: Tuple[int, ...] = (1, 2, 3)
    constraints: Optional[ConstraintSet] = None


@dataclass
class JobOutcome:
    """Terminal state of one job (fresh or replayed from the journal)."""

    job_id: str
    status: str  # "ok" | "quarantined"
    attempts: int = 1
    elapsed_s: float = 0.0
    from_journal: bool = False
    metrics: Optional[Dict[str, Any]] = None
    mapping: Optional[Dict[str, Any]] = None
    num_evaluated: int = 0
    num_valid: int = 0
    error: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def record(self, job: Optional[CampaignJob] = None) -> Dict[str, Any]:
        """The journal form of this outcome."""
        data: Dict[str, Any] = {
            "kind": "job",
            "job_id": self.job_id,
            "status": self.status,
            "attempts": self.attempts,
            "elapsed_s": round(self.elapsed_s, 6),
        }
        if job is not None:
            data["arch"] = job.arch.name
            data["workload"] = job.workload.name
            data["mapspace"] = job.kind
        if self.status == "ok":
            data["metrics"] = self.metrics
            data["mapping"] = self.mapping
            data["num_evaluated"] = self.num_evaluated
            data["num_valid"] = self.num_valid
        if self.error is not None:
            data["error"] = self.error
        return data

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "JobOutcome":
        return cls(
            job_id=record["job_id"],
            status=record["status"],
            attempts=record.get("attempts", 1),
            elapsed_s=record.get("elapsed_s", 0.0),
            from_journal=True,
            metrics=record.get("metrics"),
            mapping=record.get("mapping"),
            num_evaluated=record.get("num_evaluated", 0),
            num_valid=record.get("num_valid", 0),
            error=record.get("error"),
        )


@dataclass
class CampaignResult:
    """All terminal outcomes of a campaign run, in job order."""

    outcomes: List[JobOutcome] = field(default_factory=list)
    journal_path: Optional[str] = None
    pool_mode: str = "inline"
    complete: bool = True

    def by_id(self) -> Dict[str, JobOutcome]:
        return {outcome.job_id: outcome for outcome in self.outcomes}

    @property
    def num_ok(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def num_quarantined(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "quarantined")

    @property
    def num_resumed(self) -> int:
        return sum(1 for o in self.outcomes if o.from_journal)

    def best_edp(self) -> Dict[str, float]:
        """Per-job best EDP of the completed jobs (parity checks)."""
        return {
            o.job_id: o.metrics["edp"]
            for o in self.outcomes
            if o.ok and o.metrics is not None
        }


# ------------------------------------------------------- worker execution


def search_job(job: CampaignJob) -> Tuple[Any, int, int]:
    """Run a job's seeds through ``find_best_mapping``, best one wins.

    The one description of a best-of-seeds search: campaign workers run
    it under the journal and ``multi_seed_search`` runs it inline, so
    journaled and direct experiments compute the same figure. Returns
    ``(best Evaluation, num_evaluated, num_valid)`` summed over seeds.
    The mapper is imported lazily so this module never participates in
    the ``repro.search`` ↔ ``repro.core`` import cycle.
    """
    from repro.core.mapper import find_best_mapping

    best = None
    num_evaluated = 0
    num_valid = 0
    for seed in job.seeds:
        result = find_best_mapping(
            job.arch,
            job.workload,
            kind=job.kind,
            objective=job.objective,
            seed=seed,
            max_evaluations=job.max_evaluations,
            patience=job.patience,
            constraints=job.constraints,
        )
        num_evaluated += result.num_evaluated
        num_valid += result.num_valid
        if result.best is None:
            continue
        if best is None or result.best.metric(job.objective) < best.metric(
            job.objective
        ):
            best = result.best
    if best is None:
        raise SearchError(
            f"no valid {MapspaceKind(job.kind).value} mapping found for "
            f"{job.workload.name} on {job.arch.name}"
        )
    return best, num_evaluated, num_valid


def _execute_job(job: CampaignJob) -> Dict[str, Any]:
    """Run one job's search; returns the journal payload."""
    from repro.io.serde import mapping_to_dict

    best, num_evaluated, num_valid = search_job(job)
    return {
        "metrics": {
            "edp": best.edp,
            "energy_pj": best.energy_pj,
            "cycles": best.cycles,
            "utilization": best.utilization,
        },
        "mapping": mapping_to_dict(best.mapping),
        "num_evaluated": num_evaluated,
        "num_valid": num_valid,
    }


def _run_job_guarded(
    job: CampaignJob, attempt: int, fault_plan: Optional[FaultPlan]
) -> Tuple[str, Dict[str, Any]]:
    """Execute one job attempt, mapping every failure to a payload.

    This is the graceful-degradation choke point: a ``ReproError`` from
    any layer (invalid mapping, unbuildable mapspace, fruitless search)
    comes back as a structured ``("error", payload)`` — never an
    exception that could abort the campaign.
    """
    try:
        if fault_plan is not None:
            fault_plan.inject(job.job_id, attempt)
        return "ok", _execute_job(job)
    except ReproError as error:
        return "error", error.payload()
    except Exception as error:  # model blowups become EvaluationError
        wrapped = EvaluationError(
            f"job {job.job_id!r} failed: {type(error).__name__}: {error}"
        )
        return "error", wrapped.payload()


def _job_entry(job: CampaignJob, attempt: int, fault_plan, conn) -> None:
    """Worker-process entry point: run one attempt, report through the pipe."""
    try:
        conn.send(_run_job_guarded(job, attempt, fault_plan))
    finally:
        conn.close()


def _pick_context(start_method: Optional[str]):
    """Choose a multiprocessing context (fork, then spawn) or inline mode."""
    from repro.search.worker_pool import spawn_usable

    methods = (start_method,) if start_method else ("fork", "spawn")
    for method in methods:
        if method == "spawn" and not spawn_usable():
            logger.warning("campaign: spawn skipped (__main__ not importable)")
            continue
        try:
            import multiprocessing

            return multiprocessing.get_context(method), method
        except (ImportError, ValueError) as error:
            logger.debug("campaign: start method %r unavailable: %s", method, error)
    logger.warning(
        "campaign: no multiprocessing start method usable; running inline "
        "(per-job timeouts and crash isolation are disabled)"
    )
    return None, "inline"


# ------------------------------------------------------------- the runner


@dataclass
class _Pending:
    job: CampaignJob
    attempt: int = 0
    eligible_at: float = 0.0
    started_first: Optional[float] = None  # across attempts


@dataclass
class _Running:
    job: CampaignJob
    attempt: int
    proc: Any
    conn: Any
    started: float
    started_first: float
    deadline: Optional[float]


def run_campaign(
    jobs: Sequence[CampaignJob],
    journal_path: Optional[Union[str, Path]] = None,
    workers: int = 1,
    timeout_s: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
    backoff_s: float = DEFAULT_BACKOFF_S,
    backoff_factor: float = DEFAULT_BACKOFF_FACTOR,
    fault_plan: Optional[FaultPlan] = None,
    resume: bool = True,
    retry_quarantined: bool = False,
    start_method: Optional[str] = None,
    max_jobs: Optional[int] = None,
    header_config: Optional[Dict[str, Any]] = None,
    heartbeats: bool = True,
) -> CampaignResult:
    """Run ``jobs`` with journaling, per-job timeouts, retry, and quarantine.

    Args:
        jobs: the work list; ids must be unique (they key the journal).
        journal_path: append-only JSONL journal. ``None`` disables
            persistence (no resume) but keeps timeout/retry semantics.
        workers: jobs in flight simultaneously (each in its own process).
        timeout_s: per-attempt wall-clock budget; ``None`` means no limit.
        retries: failed attempts retried this many times before the job is
            quarantined (so a job runs at most ``retries + 1`` times).
        backoff_s / backoff_factor: attempt ``n`` (0-based) re-queues
            after ``backoff_s * backoff_factor**n`` seconds.
        fault_plan: deterministic fault schedule for tests.
        resume: skip jobs that already have a terminal journal record.
        retry_quarantined: treat journaled quarantines as pending again.
        start_method: force "fork" or "spawn"; default tries both, then
            degrades to inline execution (no timeout enforcement).
        max_jobs: stop launching new work after this many *fresh* terminal
            outcomes (interruption simulation / chunked execution); the
            result's ``complete`` flag reports whether work remains.
        header_config: when given, a ``kind: "campaign"`` header carrying
            this config is appended (marked ``resumed`` on a non-empty
            journal) — the batch CLI uses it so ``campaign resume`` can
            rebuild the job list from the journal alone.
        heartbeats: append ``kind: "heartbeat"`` lifecycle records
            (start/retry/timeout/ok/quarantine, one per event) to the
            journal so ``campaign_status`` / ``repro campaign status``
            can report live per-job progress while the run is in flight.

    Every journal record carries both ``time`` (wall clock, for humans)
    and ``monotonic_s`` (``time.monotonic()``, for durations): deltas
    between monotonic stamps written by the same driver process are
    immune to NTP steps and suspend/resume wall-clock jumps.

    Returns:
        A :class:`CampaignResult` with one terminal outcome per processed
        job, in the order jobs were given.
    """
    if workers < 1:
        raise CampaignError("workers must be >= 1")
    if retries < 0:
        raise CampaignError("retries must be >= 0")
    ids = [job.job_id for job in jobs]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise CampaignError(f"duplicate job ids: {dupes}")

    journal = Journal(journal_path) if journal_path is not None else None
    replayed: Dict[str, JobOutcome] = {}
    if journal is not None:
        existing = journal.terminal_jobs() if resume else {}
        had_records = journal.exists() and bool(journal.read())
        if header_config is not None or not had_records:
            header: Dict[str, Any] = {
                "kind": "campaign",
                "config": header_config or {},
                "jobs": ids,
                "time": time.time(),
                "monotonic_s": time.monotonic(),
            }
            if had_records:
                header["resumed"] = True
            journal.append(header)
        for job_id, record in existing.items():
            if record["status"] == "quarantined" and retry_quarantined:
                continue
            replayed[job_id] = JobOutcome.from_record(record)

    pending: Deque[_Pending] = deque(
        _Pending(job=job) for job in jobs if job.job_id not in replayed
    )
    context, pool_mode = (None, "inline")
    if pending:
        context, pool_mode = _pick_context(start_method)
        if context is None and timeout_s is not None:
            logger.warning(
                "campaign: timeout_s=%s cannot be enforced in inline mode",
                timeout_s,
            )

    fresh: Dict[str, JobOutcome] = {}
    running: Dict[str, _Running] = {}
    budget_left = max_jobs if max_jobs is not None else None

    # One unit per job; journal-replayed jobs count as already done, so a
    # resumed campaign starts at the fraction it previously reached.
    tracker = ProgressTracker(driver="campaign", total_units=len(jobs))
    if replayed:
        tracker.advance(len(replayed))

    def beat(event: str, job_id: str, attempt: int) -> None:
        """Record one lifecycle event: registry counter + journal record."""
        obs.inc("campaign.events", event=event)
        if journal is None or not heartbeats:
            return
        journal.append(
            {
                "kind": "heartbeat",
                "event": event,
                "job_id": job_id,
                "attempt": attempt,
                "time": time.time(),
                "monotonic_s": time.monotonic(),
            }
        )

    def finish(
        pend_or_run, status: str, attempt: int, payload: Dict[str, Any]
    ) -> None:
        nonlocal budget_left
        job = pend_or_run.job
        now = time.monotonic()
        elapsed = now - (pend_or_run.started_first or now)
        outcome = JobOutcome(
            job_id=job.job_id,
            status=status,
            attempts=attempt + 1,
            elapsed_s=elapsed,
        )
        if status == "ok":
            outcome.metrics = payload["metrics"]
            outcome.mapping = payload["mapping"]
            outcome.num_evaluated = payload["num_evaluated"]
            outcome.num_valid = payload["num_valid"]
        else:
            outcome.error = payload
        beat("ok" if status == "ok" else "quarantine", job.job_id, attempt)
        if journal is not None:
            record = outcome.record(job)
            record["time"] = time.time()
            record["monotonic_s"] = time.monotonic()
            journal.append(record)
        fresh[job.job_id] = outcome
        tracker.advance(1)
        if budget_left is not None:
            budget_left -= 1

    def fail_attempt(job: CampaignJob, attempt: int, payload: Dict[str, Any],
                     started_first: float) -> None:
        """Journal a failed attempt; re-queue with backoff or quarantine."""
        if journal is not None:
            journal.append(
                {
                    "kind": "attempt",
                    "job_id": job.job_id,
                    "attempt": attempt,
                    "error": payload,
                    "time": time.time(),
                    "monotonic_s": time.monotonic(),
                }
            )
        if attempt < retries:
            beat("retry", job.job_id, attempt)
            delay = backoff_s * (backoff_factor ** attempt)
            logger.info(
                "campaign: job %r attempt %d failed (%s); retrying in %.2fs",
                job.job_id, attempt, payload.get("type"), delay,
            )
            pending.append(
                _Pending(
                    job=job,
                    attempt=attempt + 1,
                    eligible_at=time.monotonic() + delay,
                    started_first=started_first,
                )
            )
        else:
            logger.warning(
                "campaign: job %r quarantined after %d attempts (%s)",
                job.job_id, attempt + 1, payload.get("type"),
            )
            holder = _Pending(job=job, started_first=started_first)
            finish(holder, "quarantined", attempt, payload)

    def reap(run: _Running) -> None:
        run.proc.terminate()
        run.proc.join(_REAP_GRACE_S)
        if run.proc.is_alive():
            run.proc.kill()
            run.proc.join()

    try:
        while pending or running:
            now = time.monotonic()
            progressed = False

            # Launch eligible pending jobs into free slots.
            eligible = [p for p in pending if p.eligible_at <= now]
            while (
                eligible
                and len(running) < workers
                and (budget_left is None or budget_left > 0)
            ):
                item = eligible.pop(0)
                pending.remove(item)
                started = time.monotonic()
                started_first = (
                    item.started_first if item.started_first is not None else started
                )
                beat("start", item.job.job_id, item.attempt)
                if context is None:
                    # Inline mode: synchronous, no timeout enforcement.
                    status, payload = _run_job_guarded(
                        item.job, item.attempt, fault_plan
                    )
                    if status == "ok":
                        holder = _Pending(
                            job=item.job, started_first=started_first
                        )
                        finish(holder, "ok", item.attempt, payload)
                    else:
                        fail_attempt(
                            item.job, item.attempt, payload, started_first
                        )
                    progressed = True
                    continue
                parent_conn, child_conn = context.Pipe(duplex=False)
                proc = context.Process(
                    target=_job_entry,
                    args=(item.job, item.attempt, fault_plan, child_conn),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                running[item.job.job_id] = _Running(
                    job=item.job,
                    attempt=item.attempt,
                    proc=proc,
                    conn=parent_conn,
                    started=started,
                    started_first=started_first,
                    deadline=(started + timeout_s) if timeout_s else None,
                )
                progressed = True

            # Poll running jobs for completion, crash, or timeout.
            now = time.monotonic()
            for job_id, run in list(running.items()):
                if not run.proc.is_alive():
                    run.proc.join()
                    # A crashed worker's pipe reports readable at EOF, so
                    # poll() alone cannot distinguish "sent a result" from
                    # "died mid-write": treat EOF/short reads as a crash.
                    try:
                        message = run.conn.recv() if run.conn.poll() else None
                    except (EOFError, OSError):
                        message = None
                    run.conn.close()
                    del running[job_id]
                    progressed = True
                    if message is None:
                        crash = JobCrashError(
                            job_id, run.proc.exitcode, run.attempt
                        )
                        fail_attempt(
                            run.job, run.attempt, crash.payload(),
                            run.started_first,
                        )
                    else:
                        status, payload = message
                        if status == "ok":
                            holder = _Pending(
                                job=run.job, started_first=run.started_first
                            )
                            finish(holder, "ok", run.attempt, payload)
                        else:
                            fail_attempt(
                                run.job, run.attempt, payload,
                                run.started_first,
                            )
                elif run.deadline is not None and now >= run.deadline:
                    reap(run)
                    run.conn.close()
                    del running[job_id]
                    progressed = True
                    beat("timeout", job_id, run.attempt)
                    timeout = JobTimeoutError(job_id, timeout_s, run.attempt)
                    fail_attempt(
                        run.job, run.attempt, timeout.payload(),
                        run.started_first,
                    )

            # Out of budget with nothing in flight: stop early.
            if budget_left is not None and budget_left <= 0 and not running:
                break
            if not progressed:
                time.sleep(_POLL_INTERVAL_S)
    finally:
        for run in running.values():
            reap(run)
            run.conn.close()

    outcomes: List[JobOutcome] = []
    for job in jobs:
        outcome = replayed.get(job.job_id) or fresh.get(job.job_id)
        if outcome is not None:
            outcomes.append(outcome)
    complete = len(outcomes) == len(jobs)
    if complete:
        # Early-stopped runs (max_jobs) keep their honest fraction.
        tracker.finish()
    return CampaignResult(
        outcomes=outcomes,
        journal_path=str(journal_path) if journal_path is not None else None,
        pool_mode=pool_mode,
        complete=complete,
    )


# ------------------------------------------------------------------ status


class CampaignStatusTracker:
    """Incremental campaign-status folder for live followers.

    Holds the folded state (expected jobs, attempt counts, terminal
    records, heartbeat counters) plus the journal byte offset already
    consumed. Each :meth:`poll` reads only the records appended since
    the previous poll (via :meth:`~repro.io.journal.Journal.read_incremental`,
    which tolerates a torn trailing line by leaving it for the next
    poll) and returns the same summary dict :func:`campaign_status`
    produces — so ``campaign status --follow`` costs O(new records) per
    tick instead of re-reading the whole journal.
    """

    def __init__(self, journal_path: Union[str, Path]) -> None:
        self.journal_path = journal_path
        self._journal = Journal(journal_path)
        self._offset = 0
        self._expected: List[str] = []
        self._attempts: Dict[str, int] = {}
        self._terminal: Dict[str, Dict[str, Any]] = {}
        self._counters: Dict[str, Dict[str, int]] = {}
        self._config: Dict[str, Any] = {}
        self._seen_any = False

    def poll(self) -> Dict[str, Any]:
        """Fold any new journal records and return the current summary."""
        if not self._journal.exists():
            raise CampaignError(f"no journal at {self.journal_path}")
        records, self._offset = self._journal.read_incremental(self._offset)
        for record in records:
            self._fold(record)
            self._seen_any = True
        if not self._seen_any:
            raise CampaignError(f"journal {self.journal_path} is empty")
        return self._summary()

    def _fold(self, record: Dict[str, Any]) -> None:
        kind = record.get("kind")
        if kind == "campaign":
            self._config = record.get("config", self._config) or self._config
            for job_id in record.get("jobs", ()):
                if job_id not in self._expected:
                    self._expected.append(job_id)
        elif kind == "attempt":
            job_id = record["job_id"]
            self._attempts[job_id] = self._attempts.get(job_id, 0) + 1
            if job_id not in self._expected:
                self._expected.append(job_id)
        elif kind == "heartbeat":
            job_id = record["job_id"]
            event = record.get("event", "unknown")
            per_job = self._counters.setdefault(job_id, {})
            per_job[event] = per_job.get(event, 0) + 1
            if job_id not in self._expected:
                self._expected.append(job_id)
        elif kind == "job":
            job_id = record["job_id"]
            if record.get("status") in TERMINAL_STATUSES:
                self._terminal[job_id] = record
            if job_id not in self._expected:
                self._expected.append(job_id)

    def _summary(self) -> Dict[str, Any]:
        ok = sorted(
            j for j, r in self._terminal.items() if r["status"] == "ok"
        )
        quarantined = sorted(
            j
            for j, r in self._terminal.items()
            if r["status"] == "quarantined"
        )
        pendings = [j for j in self._expected if j not in self._terminal]
        # Every started attempt eventually lands either a failed-attempt
        # record or a terminal record; a surplus of starts means an
        # attempt is in flight at the journal's tail.
        running = [
            j
            for j in pendings
            if self._counters.get(j, {}).get("start", 0)
            > self._attempts.get(j, 0)
        ]
        return {
            "journal": str(self.journal_path),
            "config": self._config,
            "total": len(self._expected),
            "ok": ok,
            "quarantined": quarantined,
            "pending": pendings,
            "running": running,
            "failed_attempts": dict(self._attempts),
            "counters": {
                job_id: dict(events)
                for job_id, events in self._counters.items()
            },
            "complete": not pendings,
        }


def campaign_status(journal_path: Union[str, Path]) -> Dict[str, Any]:
    """Summarize a campaign journal: done / quarantined / pending / attempts.

    Derives the expected job set from the union of all header records'
    job lists (scoped experiment runs may append several) plus every job
    id that shows up in an attempt, heartbeat, or terminal record.

    Heartbeat records (when the campaign ran with ``heartbeats=True``)
    additionally yield per-job lifecycle ``counters`` (start / retry /
    timeout / ok / quarantine events) and a ``running`` list: jobs whose
    latest started attempt has neither failed nor reached a terminal
    record yet — i.e. what is in flight *right now* while the journal is
    still being written.

    One-shot wrapper over :class:`CampaignStatusTracker`; followers that
    poll repeatedly should hold a tracker instead so each poll reads
    only the journal's new tail.
    """
    return CampaignStatusTracker(journal_path).poll()


# ------------------------------------------- experiment-driver integration


@dataclass
class CampaignConfig:
    """Fault-tolerance settings the experiment drivers thread through.

    Passing one of these to ``run_fig8`` … ``run_fig13`` (or entering a
    :func:`campaign_scope`) makes every per-layer search inside run as a
    journaled campaign job with timeout/retry/quarantine semantics.
    """

    journal: Union[str, Path]
    timeout_s: Optional[float] = None
    retries: int = DEFAULT_RETRIES
    backoff_s: float = DEFAULT_BACKOFF_S
    backoff_factor: float = DEFAULT_BACKOFF_FACTOR
    start_method: Optional[str] = None
    fault_plan: Optional[FaultPlan] = None
    retry_quarantined: bool = False
    heartbeats: bool = True


_ACTIVE_CONFIG: Optional[CampaignConfig] = None


def active_campaign() -> Optional[CampaignConfig]:
    """The campaign config installed by the innermost :func:`campaign_scope`."""
    return _ACTIVE_CONFIG


@contextmanager
def campaign_scope(config: Optional[CampaignConfig]) -> Iterator[None]:
    """Install ``config`` as the ambient campaign for nested searches.

    ``None`` is a no-op scope, so drivers can wrap their bodies
    unconditionally: ``with campaign_scope(campaign): ...``.
    """
    global _ACTIVE_CONFIG
    previous = _ACTIVE_CONFIG
    if config is not None:
        _ACTIVE_CONFIG = config
    try:
        yield
    finally:
        _ACTIVE_CONFIG = previous


def run_job_under_scope(config: CampaignConfig, job: CampaignJob):
    """Run one scoped job and return its best :class:`Evaluation`.

    The job executes (or replays from the journal) under the scope's
    timeout/retry settings. A quarantined job raises
    :class:`CampaignError` — an experiment cannot compute its figure with
    a layer missing — but the journal keeps every other job's result, so
    a rerun resumes instead of starting over.
    """
    result = run_campaign(
        [job],
        journal_path=config.journal,
        workers=1,
        timeout_s=config.timeout_s,
        retries=config.retries,
        backoff_s=config.backoff_s,
        backoff_factor=config.backoff_factor,
        fault_plan=config.fault_plan,
        resume=True,
        retry_quarantined=config.retry_quarantined,
        start_method=config.start_method,
        heartbeats=config.heartbeats,
    )
    outcome = result.outcomes[0]
    if not outcome.ok:
        raise CampaignError(
            f"job {job.job_id!r} quarantined after {outcome.attempts} "
            f"attempts: {outcome.error and outcome.error.get('message')}"
        )
    return evaluation_from_outcome(job, outcome)


def evaluation_from_outcome(job: CampaignJob, outcome: JobOutcome):
    """Rebuild the best Evaluation recorded for ``job``.

    The journal stores the winning mapping; re-evaluating it through the
    (deterministic) cost model reproduces the exact metrics the search
    found, so resumed campaigns are bit-identical to uninterrupted ones.
    """
    from repro.io.serde import mapping_from_dict
    from repro.model.evaluator import Evaluator

    if outcome.mapping is None:
        raise CampaignError(
            f"job {job.job_id!r}: journal record carries no mapping"
        )
    mapping = mapping_from_dict(outcome.mapping)
    evaluation = Evaluator(job.arch, job.workload).evaluate(mapping)
    if not evaluation.valid:
        raise CampaignError(
            f"job {job.job_id!r}: journaled mapping is invalid for "
            f"{job.workload.name} on {job.arch.name} — stale journal?"
        )
    return evaluation


def default_job_id(
    arch: Architecture,
    workload: Workload,
    kind: Union[str, MapspaceKind],
    objective: str,
    max_evaluations: int,
    patience: Optional[int],
    seeds: Sequence[int],
) -> str:
    """Deterministic job id for scoped experiment searches.

    Encodes every parameter that changes the search outcome, so two
    searches share a journal entry only when they would produce identical
    results.
    """
    seed_part = ",".join(str(seed) for seed in seeds)
    return (
        f"{arch.name}|{workload.name}|{MapspaceKind(kind).value}|{objective}"
        f"|me{max_evaluations}|pa{patience}|s{seed_part}"
    )

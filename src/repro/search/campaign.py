"""Fault-tolerant search campaigns: journal, timeouts, retry, resume.

The paper's headline figures come from long multi-start random-search
sweeps over whole workload zoos — exactly the runs that die halfway when
one worker hangs on a pathological mapping or the driver is killed. A
:class:`CampaignSession` runs :class:`CampaignJob` s with:

* an **append-only JSONL journal** (:class:`repro.io.journal.Journal`) of
  terminal job records, fsynced per append and read once per session, so
  an interrupted campaign resumes by skipping journaled entries and a
  SIGKILL costs at most the jobs that were in flight;
* **per-attempt wall-clock timeouts**, enforced by running attempts in
  long-lived worker processes (:class:`repro.search.worker_pool.WorkerSet`)
  that the driver can terminate and replace, with bounded retry and
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

:func:`run_campaign` runs one job list in its own session; a caller
wraps a figure harness (fig. 8–13) in a :func:`campaign_scope` whose
session every nested search joins; see :mod:`repro.experiments.common`.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple,
    Union,
)

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
from repro.io.journal import TERMINAL_STATUSES, Journal, terminal_records
from repro.obs import ProgressTracker
from repro.mapspace.constraints import ConstraintSet
from repro.problem.workload import Workload
from repro.utils.faults import FaultPlan

if TYPE_CHECKING:  # the generator (and NumPy) load only when a job runs
    from repro.energy.table import EnergyTable
    from repro.mapspace.generator import MapspaceKind
    from repro.search.result import SearchResult

logger = logging.getLogger(__name__)

DEFAULT_RETRIES = 2
DEFAULT_BACKOFF_S = 0.5
_BACKOFF_FACTOR = 2.0


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


def search_job(
    job: CampaignJob,
    workers: int = 1,
    start_method: Optional[str] = None,
    use_batch: bool = True,
    energy_table: Optional["EnergyTable"] = None,
) -> "SearchResult":
    """Run one :class:`RandomSearch` per seed of ``job``; the best wins.

    The one best-of-seeds body (the paper's independent search threads),
    behind campaign jobs, ``multi_seed_search`` and the mapper's random
    strategy with ``workers > 1``. Each process prices all its seeds on
    one mapspace and evaluator, with ``energy_table`` (estimated once here
    when omitted). One worker runs the seeds here, in order; more fan them
    out over :func:`~repro.search.worker_pool.run_jobs`, where a failing
    seed raises :class:`~repro.exceptions.WorkerError`.

    Budget and patience apply per seed. Counts and ``stats["batch"]`` are
    summed over seeds; ``best`` (``None`` if no seed found a valid
    mapping), ``curve`` and ``terminated_by`` are the winner's, the
    earliest seed winning a tie. ``stats`` adds ``pool_mode`` and one
    ``workers`` row per seed.
    """
    from repro.energy.accelergy import estimate_energy_table
    from repro.search.loop import (
        BatchCounts, RunLedger, check_int, check_kind, check_objective,
    )
    from repro.search.result import SearchResult

    objective = check_objective(job.objective)
    check_kind(job.kind)
    check_int("max_evaluations", job.max_evaluations, minimum=1)
    if not job.seeds:
        raise SearchError(f"job {job.job_id!r} has no seeds to search")
    state = {
        "job": job,
        "energy_table": energy_table or estimate_energy_table(job.arch),
        "use_batch": use_batch,
        "obs": obs.active_obs() is not None,
    }
    # Progress advances a whole seed at a time (finishing snaps it).
    ledger = RunLedger(
        None, "seeds", objective,
        total_units=len(job.seeds) * job.max_evaluations,
    )

    def on_result(result: "SearchResult") -> None:
        # Each seed's own ledger published its counts: sum them, only.
        ledger.evaluations += result.num_evaluated
        ledger.num_valid += result.num_valid
        batch = result.stats["batch"]
        ledger.batch += BatchCounts(
            batch["batches"], batch["candidates"], batch["pruned"],
            batch["fallback"], batch["infeasible"],
        )
        ledger.progress.advance(result.num_evaluated)
        if result.best is not None:
            metric = result.best.metric(objective)
            if metric < ledger.best_metric:
                ledger.best_metric = metric
                ledger.progress.improved(metric)

    with ledger, obs.trace(
        "search.run", driver="seeds", workers=workers, objective=objective
    ):
        if workers == 1:
            results, pool_mode = [], "sequential"
            for seed in job.seeds:
                results.append(_seed_search(state, seed))
                on_result(results[-1])
        else:
            from repro.search import worker_pool

            results, pool_mode, _ = worker_pool.run_jobs(
                _pool_seed_search, state, list(enumerate(job.seeds)),
                workers, start_method=start_method, on_result=on_result,
            )
            worker_pool.collect_worker_obs(result.stats for result in results)
        winner = min(
            (result for result in results if result.best is not None),
            key=lambda result: result.best.metric(objective),
            default=None,
        )
        ledger.stop()
    stats = ledger.stats()
    del stats["bnb"]  # no tree walk
    stats["pool_mode"] = pool_mode
    stats["workers"] = [
        {"worker": index, "seed": seed, "num_evaluated": result.num_evaluated,
         "num_valid": result.num_valid, "terminated_by": result.terminated_by,
         "elapsed_s": result.stats["elapsed_s"],
         "evals_per_sec": result.stats["evals_per_sec"]}
        for index, (seed, result) in enumerate(zip(job.seeds, results))
    ]
    return SearchResult(
        best=winner.best if winner else None,
        objective=objective,
        num_evaluated=ledger.evaluations,
        num_valid=ledger.num_valid,
        terminated_by=winner.terminated_by if winner else "budget",
        curve=winner.curve if winner else [],
        stats=stats,
    )


def _seed_search(state: Dict[str, Any], seed: int) -> "SearchResult":
    """One seed's search on the job's stack, built at the first seed a
    process runs (each pool worker holds its own ``state``)."""
    from repro.search.random_search import RandomSearch

    job = state["job"]
    if "stack" not in state:
        from repro.mapspace.factory import make_mapspace
        from repro.model.evaluator import Evaluator

        state["stack"] = (
            make_mapspace(job.arch, job.workload, job.kind, job.constraints),
            Evaluator(job.arch, job.workload, state["energy_table"]),
        )
    return RandomSearch(
        *state["stack"], objective=job.objective, seed=seed,
        max_evaluations=job.max_evaluations, patience=job.patience,
        use_batch=state["use_batch"],
    ).run()


def _pool_seed_search(
    state: Dict[str, Any], work: Tuple[int, int]
) -> "SearchResult":
    """Pool entry point: :func:`_seed_search` of ``work = (index, seed)``,
    under a private registry whose snapshot rides back in the stats when
    the driver had an observability scope."""
    from repro.search.worker_pool import (
        OBS_SNAPSHOT_KEY, run_under_worker_obs, worker_errors,
    )

    with worker_errors(*work):
        result, snapshot = run_under_worker_obs(
            state["obs"], lambda: _seed_search(state, work[1])
        )
    if snapshot is not None:
        result.stats[OBS_SNAPSHOT_KEY] = snapshot
    return result


def best_of_seeds(job: CampaignJob) -> "SearchResult":
    """:func:`search_job` here, or :class:`SearchError` when no seed
    found a valid mapping (what a figure or campaign job needs)."""
    from repro.mapspace.generator import MapspaceKind

    result = search_job(job)
    if result.best is None:
        raise SearchError(
            f"no valid {MapspaceKind(job.kind).value} mapping found for "
            f"{job.workload.name} on {job.arch.name}"
        )
    return result


def _execute_job(job: CampaignJob) -> Dict[str, Any]:
    """Run one job's search; returns the journal payload."""
    from repro.io.serde import mapping_to_dict

    result = best_of_seeds(job)
    best = result.best
    return {
        "metrics": {
            "edp": best.edp,
            "energy_pj": best.energy_pj,
            "cycles": best.cycles,
            "utilization": best.utilization,
        },
        "mapping": mapping_to_dict(best.mapping),
        "num_evaluated": result.num_evaluated,
        "num_valid": result.num_valid,
    }


def _run_job_guarded(
    fault_plan: Optional[FaultPlan], work: Tuple[CampaignJob, int]
) -> Tuple[str, Dict[str, Any]]:
    """Execute one ``(job, attempt)``, mapping every failure to a payload.

    The campaign's worker entry point. This is the graceful-degradation
    choke point: a ``ReproError`` from any layer (invalid mapping,
    unbuildable mapspace, fruitless search) comes back as a structured
    ``("error", payload)`` — never an exception that could abort the
    campaign.
    """
    job, attempt = work
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


# ---------------------------------------------------------------- settings


def _real(value: Any, types: tuple = (int, float)) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


@dataclass(frozen=True)
class CampaignConfig:
    """Every campaign setting, validated once when the config is built.

    ``journal`` is the append-only JSONL checkpoint; ``None`` keeps the
    timeout/retry semantics but persists nothing (no resume). ``workers``
    jobs run at once, each attempt within ``timeout_s`` seconds of wall
    clock (``None``: no limit). A failed attempt ``n`` (0-based) is retried
    after ``backoff_s * 2**n`` seconds, at most ``retries`` times, and then
    the job is quarantined. ``start_method`` forces "fork" or "spawn"; the
    default tries both, then runs jobs inline (no timeouts, no crash
    containment). ``fault_plan`` schedules faults for tests. ``resume``
    skips jobs the journal already finished, except quarantined ones
    when ``retry_quarantined`` is set.

    Entering a :func:`campaign_scope` with one around ``run_fig8`` …
    ``run_fig13`` runs every search inside as a journaled job.
    """

    journal: Optional[Union[str, Path]] = None
    workers: int = 1
    timeout_s: Optional[float] = None
    retries: int = DEFAULT_RETRIES
    backoff_s: float = DEFAULT_BACKOFF_S
    start_method: Optional[str] = None
    fault_plan: Optional[FaultPlan] = None
    resume: bool = True
    retry_quarantined: bool = False

    def __post_init__(self) -> None:
        timeout_s, backoff_s = self.timeout_s, self.backoff_s
        for name, ok, rule in (
            ("timeout_s", timeout_s is None or _real(timeout_s) and timeout_s > 0,
             "None or a number > 0"),
            ("retries", _real(self.retries, int) and self.retries >= 0, "an int >= 0"),
            ("backoff_s", _real(backoff_s) and backoff_s >= 0, "a number >= 0"),
            ("workers", _real(self.workers, int) and self.workers >= 1, "an int >= 1"),
        ):
            if not ok:
                value = getattr(self, name)
                raise CampaignError(f"{name} must be {rule}, got {value!r}")


# ------------------------------------------------------------- the session


@dataclass
class _Attempt:
    job: CampaignJob
    number: int = 0
    eligible_at: float = 0.0
    started_first: Optional[float] = None  # across attempts
    deadline: Optional[float] = None


class CampaignSession:
    """One campaign's journal and worker set, shared by its runs.

    The journal is read once, at opening; its terminal records and the
    jobs the session finishes are what later runs replay. The worker set
    (:class:`~repro.search.worker_pool.WorkerSet`, ``config.workers``
    processes) is built at the first job that needs one and lives until
    :meth:`close`. A crash or hang costs only the attempt in flight: the
    worker is reaped and the next launch starts a fresh one.
    """

    def __init__(self, config: CampaignConfig) -> None:
        self.config = config
        self.journal = Journal(config.journal) if config.journal is not None else None
        records = self.journal.read() if self.journal is not None else []
        self._has_records = bool(records)
        self._done: Dict[str, JobOutcome] = {}
        if config.resume:
            for job_id, record in terminal_records(records).items():
                if record["status"] == "quarantined" and config.retry_quarantined:
                    continue
                self._done[job_id] = JobOutcome.from_record(record)
        self._workers: Any = None

    def close(self) -> None:
        """Stop every worker."""
        if self._workers is not None:
            self._workers.close()

    @property
    def pool_mode(self) -> str:
        """The workers' start method, or "inline"."""
        return getattr(self._workers, "mode", None) or "inline"

    def submit(self, job: CampaignJob):
        """Run (or replay) one job and return its best :class:`Evaluation`.

        A quarantined job raises :class:`CampaignError` — an experiment
        cannot compute its figure with a layer missing — but the journal
        keeps every other job's result, so a rerun resumes instead of
        starting over.
        """
        outcome = self.run([job]).outcomes[0]
        if not outcome.ok:
            raise CampaignError(
                f"job {job.job_id!r} quarantined after {outcome.attempts} "
                f"attempts: {outcome.error and outcome.error.get('message')}"
            )
        return evaluation_from_outcome(job, outcome)

    def _append(self, record: Dict[str, Any]) -> None:
        record["time"] = time.time()
        record["monotonic_s"] = time.monotonic()
        self.journal.append(record)
        self._has_records = True

    def _beat(self, event: str, job_id: str, attempt: int) -> None:
        """Record one lifecycle event: registry counter + journal record."""
        obs.inc("campaign.events", event=event)
        if self.journal is not None:
            self._append(
                {"kind": "heartbeat", "event": event, "job_id": job_id,
                 "attempt": attempt}
            )

    def run(
        self,
        jobs: Sequence[CampaignJob],
        max_jobs: Optional[int] = None,
        header_config: Optional[Dict[str, Any]] = None,
    ) -> CampaignResult:
        """Run ``jobs`` (unique ids) with journaling, timeouts, retry and
        quarantine; outcomes come back in job order.

        Jobs with a terminal record are replayed, not rerun. ``max_jobs``
        stops launching after that many *fresh* terminal outcomes (see
        ``complete``). ``header_config`` is journaled in a ``kind:
        "campaign"`` header (``resumed`` on a non-empty journal) that
        ``campaign resume`` rebuilds the jobs from; an empty journal gets
        a header either way.
        """
        config = self.config
        ids = [job.job_id for job in jobs]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise CampaignError(f"duplicate job ids: {dupes}")
        if self.journal is not None and (
            header_config is not None or not self._has_records
        ):
            header: Dict[str, Any] = {
                "kind": "campaign", "config": header_config or {}, "jobs": ids
            }
            if self._has_records:
                header["resumed"] = True
            self._append(header)

        replayed = {i: self._done[i] for i in ids if i in self._done}
        pending: Deque[_Attempt] = deque(
            _Attempt(job=job) for job in jobs if job.job_id not in replayed
        )
        if pending and self._workers is None:
            from repro.search.worker_pool import WorkerSet, start_contexts

            self._workers = WorkerSet(
                _run_job_guarded,
                config.fault_plan,
                config.workers,
                start_contexts(config.start_method),
            )
        workers = self._workers
        fresh: Dict[str, JobOutcome] = {}
        running: Dict[str, _Attempt] = {}
        budget_left = max_jobs

        # One unit per job; journal-replayed jobs count as already done, so a
        # resumed campaign starts at the fraction it previously reached.
        tracker = ProgressTracker(driver="campaign", total_units=len(jobs))
        if replayed:
            tracker.advance(len(replayed))

        def finish(item: _Attempt, status: str, payload: Dict[str, Any]) -> None:
            nonlocal budget_left
            job = item.job
            now = time.monotonic()
            outcome = JobOutcome(
                job_id=job.job_id,
                status=status,
                attempts=item.number + 1,
                elapsed_s=now - (item.started_first or now),
            )
            if status == "ok":
                outcome.metrics = payload["metrics"]
                outcome.mapping = payload["mapping"]
                outcome.num_evaluated = payload["num_evaluated"]
                outcome.num_valid = payload["num_valid"]
            else:
                outcome.error = payload
            self._beat("ok" if status == "ok" else "quarantine", job.job_id,
                       item.number)
            if self.journal is not None:
                record = outcome.record(job)
                self._append(record)
                if config.resume:
                    self._done[job.job_id] = JobOutcome.from_record(record)
            fresh[job.job_id] = outcome
            tracker.advance(1)
            if budget_left is not None:
                budget_left -= 1

        def settle(item: _Attempt, status: str, payload: Dict[str, Any]) -> None:
            """Finish ``item`` on success; otherwise journal the failed
            attempt and re-queue it with backoff, or quarantine it."""
            if status == "ok":
                finish(item, status, payload)
                return
            job, number = item.job, item.number
            if self.journal is not None:
                self._append(
                    {"kind": "attempt", "job_id": job.job_id,
                     "attempt": number, "error": payload}
                )
            if number < config.retries:
                self._beat("retry", job.job_id, number)
                delay = config.backoff_s * (_BACKOFF_FACTOR ** number)
                logger.info(
                    "campaign: job %r attempt %d failed (%s); retrying in %.2fs",
                    job.job_id, number, payload.get("type"), delay,
                )
                pending.append(
                    _Attempt(
                        job=job,
                        number=number + 1,
                        eligible_at=time.monotonic() + delay,
                        started_first=item.started_first,
                    )
                )
            else:
                logger.warning(
                    "campaign: job %r quarantined after %d attempts (%s)",
                    job.job_id, number + 1, payload.get("type"),
                )
                finish(item, "quarantined", payload)

        try:
            while pending or running:
                # Launch eligible pending attempts into free slots.
                now = time.monotonic()
                eligible = [p for p in pending if p.eligible_at <= now]
                while (
                    eligible
                    and workers.has_room()
                    and (budget_left is None or budget_left > 0)
                ):
                    item = eligible.pop(0)
                    pending.remove(item)
                    started = time.monotonic()
                    if item.started_first is None:
                        item.started_first = started
                    self._beat("start", item.job.job_id, item.number)
                    running[item.job.job_id] = item
                    workers.submit(item.job.job_id, (item.job, item.number))
                    # Inline attempts ran synchronously: no timeout.
                    if config.timeout_s is not None and not workers.inline:
                        item.deadline = started + config.timeout_s

                # Out of budget with nothing in flight: stop early.
                if budget_left is not None and budget_left <= 0 and not running:
                    break
                # Sleep until a result, a death, a deadline or a backoff ends.
                wake = [r.deadline for r in running.values() if r.deadline is not None]
                if workers.has_room() and (
                    budget_left is None or budget_left > 0
                ):
                    wake += [p.eligible_at for p in pending]
                timeout = max(0.0, min(wake) - time.monotonic()) if wake else None
                if not running:
                    time.sleep(timeout or 0.0)
                    continue
                done = workers.wait(timeout)

                now = time.monotonic()
                for job_id, run in list(running.items()):
                    if job_id in done:
                        del running[job_id]
                        replied, message = done[job_id]
                        if not replied:  # the worker died: a crash
                            crash = JobCrashError(job_id, message, run.number)
                            message = ("error", crash.payload())
                        settle(run, *message)
                    elif run.deadline is not None and now >= run.deadline:
                        workers.terminate(job_id)
                        del running[job_id]
                        self._beat("timeout", job_id, run.number)
                        late = JobTimeoutError(job_id, config.timeout_s, run.number)
                        settle(run, "error", late.payload())
        finally:
            for job_id in running:
                workers.terminate(job_id)

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
            journal_path=str(config.journal) if config.journal is not None else None,
            pool_mode=self.pool_mode,
            complete=complete,
        )


def run_campaign(
    jobs: Sequence[CampaignJob],
    config: CampaignConfig,
    max_jobs: Optional[int] = None,
    header_config: Optional[Dict[str, Any]] = None,
) -> CampaignResult:
    """Run ``jobs`` in one :class:`CampaignSession` (see its :meth:`~CampaignSession.run`)."""
    with closing(CampaignSession(config)) as session:
        return session.run(jobs, max_jobs=max_jobs, header_config=header_config)


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

    Heartbeat records yield per-job lifecycle ``counters`` (start /
    retry / timeout / ok / quarantine events) and a ``running`` list:
    jobs whose latest started attempt has neither failed nor reached a
    terminal record yet, i.e. what is in flight right now.

    One-shot wrapper over :class:`CampaignStatusTracker`; followers that
    poll repeatedly should hold a tracker instead so each poll reads
    only the journal's new tail.
    """
    return CampaignStatusTracker(journal_path).poll()


# ------------------------------------------- experiment-driver integration


_ACTIVE_SESSION: Optional[CampaignSession] = None


def active_session() -> Optional[CampaignSession]:
    """The session opened by the innermost :func:`campaign_scope`."""
    return _ACTIVE_SESSION


@contextmanager
def campaign_scope(
    config: Optional[CampaignConfig],
) -> Iterator[Optional[CampaignSession]]:
    """Open a :class:`CampaignSession` for the searches nested inside.

    The session is closed (its workers stopped) at scope exit. ``None``
    keeps the enclosing session, if any, so drivers can wrap their bodies
    unconditionally: ``with campaign_scope(campaign): ...``.
    """
    global _ACTIVE_SESSION
    if config is None:
        yield _ACTIVE_SESSION
        return
    previous = _ACTIVE_SESSION
    with closing(CampaignSession(config)) as session:
        _ACTIVE_SESSION = session
        try:
            yield session
        finally:
            _ACTIVE_SESSION = previous


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
    from repro.mapspace.generator import MapspaceKind

    seed_part = ",".join(str(seed) for seed in seeds)
    return (
        f"{arch.name}|{workload.name}|{MapspaceKind(kind).value}|{objective}"
        f"|me{max_evaluations}|pa{patience}|s{seed_part}"
    )

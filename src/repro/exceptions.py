"""Exception hierarchy for the repro package.

Every error carries a distinct ``exit_code`` (used by the CLI to map
failures to process exit statuses without printing tracebacks) and a
machine-readable :meth:`~ReproError.payload` so failures can be journaled
by the campaign layer and inspected by tooling instead of being reduced
to a string.

Errors that cross process boundaries (worker pools, campaign job
subprocesses) implement ``__reduce__`` so they survive pickling with
their structured fields intact.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class for all errors raised by this package."""

    #: Process exit status the CLI maps this error class to. Subclasses
    #: override with distinct nonzero codes; see ``repro.cli.main``.
    exit_code = 1

    #: HTTP response status the mapper service maps this error class to
    #: (``repro.service``). Caller-input errors override with 4xx codes;
    #: everything else is a server-side 500-family failure.
    http_status = 500

    def payload(self) -> Dict[str, Any]:
        """Machine-readable description (journaled by the campaign layer
        and returned as the service's JSON error body)."""
        return {
            "type": type(self).__name__,
            "message": str(self),
            "exit_code": self.exit_code,
            "http_status": self.http_status,
        }


class SpecError(ReproError):
    """An architecture, workload, or mapping specification is malformed."""

    exit_code = 2
    http_status = 400


class InvalidMappingError(ReproError):
    """A mapping violates a hard constraint (coverage, capacity, fanout)."""

    exit_code = 3
    http_status = 400


class MapspaceError(ReproError):
    """A mapspace cannot be constructed or sampled for the given inputs."""

    exit_code = 4
    http_status = 400


class SearchError(ReproError):
    """A search failed to produce any valid mapping."""

    exit_code = 5
    http_status = 422


class WorkerError(SearchError):
    """A parallel-search worker job failed.

    Raised by the parallel drivers (through
    :func:`repro.search.worker_pool.worker_errors`) in place of whatever
    bare exception a worker died with, so the caller learns *which* job —
    ``(index, seed)`` — failed. ``__reduce__`` keeps the
    structured fields across the pool's exception pickling.
    """

    def __init__(self, index: int, seed: int, message: str) -> None:
        super().__init__(f"worker job {index} (seed {seed}) failed: {message}")
        self.index = index
        self.seed = seed
        self.message = message

    def __reduce__(self):
        return (type(self), (self.index, self.seed, self.message))

    def payload(self) -> Dict[str, Any]:
        data = super().payload()
        data.update({"index": self.index, "seed": self.seed})
        return data


class EvaluationError(ReproError):
    """The cost model failed unexpectedly while evaluating a mapping.

    Invalid mappings are *not* errors (they come back as
    ``Evaluation(valid=False)``); this wraps genuine model failures —
    arithmetic blowups, malformed intermediate state — so one pathological
    mapping becomes a recorded per-job failure instead of an anonymous
    crash deep in a sweep.
    """

    exit_code = 6


class JobTimeoutError(ReproError):
    """A campaign job exceeded its per-job wall-clock budget."""

    exit_code = 7
    http_status = 504

    def __init__(self, job_id: str, timeout_s: float, attempt: int = 0) -> None:
        super().__init__(
            f"job {job_id!r} exceeded {timeout_s:g}s wall-clock budget "
            f"(attempt {attempt})"
        )
        self.job_id = job_id
        self.timeout_s = timeout_s
        self.attempt = attempt

    def __reduce__(self):
        return (type(self), (self.job_id, self.timeout_s, self.attempt))

    def payload(self) -> Dict[str, Any]:
        data = super().payload()
        data.update(
            {
                "job_id": self.job_id,
                "timeout_s": self.timeout_s,
                "attempt": self.attempt,
            }
        )
        return data


class CampaignError(ReproError):
    """A campaign cannot run: bad journal, bad configuration, or a
    failure of the campaign machinery itself (job failures are *recorded*,
    not raised — see ``repro.search.campaign``)."""

    exit_code = 8


class VerificationError(ReproError):
    """The differential verification harness found paths in disagreement.

    Raised by ``repro verify`` when generated mappings price differently
    across the scalar, cached, batch, or reference-simulator paths, or
    when a metamorphic invariant is violated. The divergence details and
    any dumped counterexample paths are in the printed report.
    """

    exit_code = 9


class BenchLedgerError(ReproError):
    """The benchmark ledger cannot answer the question asked of it:
    nothing recordable in the given payloads, or fewer than two records
    to compare. Distinct from a *regression*, which ``repro bench
    compare`` reports through its exit status, not an exception."""

    exit_code = 10


class ServiceError(ReproError):
    """The mapper service cannot serve: bad server state, an
    unrecoverable job-table inconsistency, or a malformed service journal.
    Per-request failures are *recorded* on the job and returned through
    its status payload — this class is for the service machinery itself."""

    exit_code = 11
    http_status = 503


class AdmissionError(ServiceError):
    """The service declined a request at admission (queue full).

    Maps to HTTP 429 with a ``Retry-After`` hint derived from the current
    queue depth and recent per-job latency — backpressure, not failure:
    the request was never accepted, so nothing needs cleanup.
    """

    http_status = 429

    def __init__(
        self, queue_depth: int, limit: int, retry_after_s: float = 1.0
    ) -> None:
        super().__init__(
            f"search queue is full ({queue_depth}/{limit} jobs); "
            f"retry in {retry_after_s:g}s"
        )
        self.queue_depth = queue_depth
        self.limit = limit
        self.retry_after_s = retry_after_s

    def __reduce__(self):
        return (type(self), (self.queue_depth, self.limit, self.retry_after_s))

    def payload(self) -> Dict[str, Any]:
        data = super().payload()
        data.update(
            {
                "queue_depth": self.queue_depth,
                "limit": self.limit,
                "retry_after_s": self.retry_after_s,
            }
        )
        return data


class JobCrashError(CampaignError):
    """A campaign job's worker process died without reporting a result."""

    def __init__(
        self, job_id: str, exitcode: Optional[int] = None, attempt: int = 0
    ) -> None:
        super().__init__(
            f"job {job_id!r} worker crashed "
            f"(exitcode {exitcode}, attempt {attempt})"
        )
        self.job_id = job_id
        self.exitcode = exitcode
        self.attempt = attempt

    def __reduce__(self):
        return (type(self), (self.job_id, self.exitcode, self.attempt))

    def payload(self) -> Dict[str, Any]:
        data = super().payload()
        data.update(
            {
                "job_id": self.job_id,
                "worker_exitcode": self.exitcode,
                "attempt": self.attempt,
            }
        )
        return data

"""The mapper service: ``/v1/*`` search API mounted on the obs server.

One listener serves both planes: the ``/v1`` request API here and the
telemetry routes (``/healthz``, ``/metrics``, ``/progress``, ``/flame``)
from :func:`repro.obs.server.obs_routes`, so an operator probes and
scrapes the same port clients submit to.

==============================  ==========================================
route                           behaviour
==============================  ==========================================
``POST /v1/search``             submit a search; ``202`` + job body (an
                                identical in-flight request coalesces to
                                the same ``job_id``); ``429`` +
                                ``Retry-After`` when the queue is full
``GET /v1/jobs``                all jobs, oldest first
``GET /v1/jobs/<id>``           one job's state / result / error
``GET /v1/jobs/<id>/progress``  job state + the live tracker snapshot its
                                worker publishes
``DELETE /v1/jobs/<id>``        cancel a *queued* job (running: ``409``)
``GET /v1/stats``               queue/pool/coalescing counters and one
                                row per worker process
``GET /progress``               every running job's tracker snapshot
                                (``?job=<id>`` keeps one job's)
==============================  ==========================================

Errors map through the exception taxonomy: every
:class:`~repro.exceptions.ReproError` renders as its ``payload()`` under
its class ``http_status`` (SpecError 400, SearchError 422, AdmissionError
429 + ``Retry-After``, ServiceError 503, ...), so service clients see the
same structured errors campaign journals record.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro import obs
from repro.exceptions import AdmissionError, ReproError, SpecError
from repro.obs.metrics import MetricsRegistry
from repro.obs.server import (
    PROGRESS_SCHEMA,
    ObsServer,
    RouteRequest,
    RouteResponse,
    RouteSet,
)
from repro.obs.tracing import Tracer
from repro.service.admission import DEFAULT_QUEUE_LIMIT
from repro.service.jobs import JobManager

#: Versioned envelope for service payloads (job bodies, stats).
SERVICE_SCHEMA = 1


def error_response(error: ReproError) -> RouteResponse:
    """Render a repro error as its taxonomy-assigned HTTP response."""
    headers = {}
    if isinstance(error, AdmissionError):
        # RFC 7231 wants delay-seconds as an integer; round up so a
        # compliant client never retries before the hinted window.
        headers["Retry-After"] = str(max(1, int(-(-error.retry_after_s // 1))))
    return RouteResponse.json(
        {"schema": SERVICE_SCHEMA, "error": error.payload()},
        status=error.http_status,
        headers=headers,
    )


def _guarded(handler):
    """Wrap a route so ReproErrors become structured HTTP errors."""

    def wrapped(request: RouteRequest) -> RouteResponse:
        try:
            return handler(request)
        except ReproError as error:
            obs.inc("service.http_errors", status=str(error.http_status))
            return error_response(error)

    return wrapped


def _progress_body(
    manager: JobManager, job_id: Optional[str] = None
) -> Dict[str, Any]:
    """The ``/progress`` schema over the searches the workers run."""
    return {
        "schema": PROGRESS_SCHEMA,
        "time": time.time(),
        "searches": manager.progress(job_id),
    }


def service_routes(manager: JobManager) -> RouteSet:
    """The ``/v1`` route bundle over one :class:`JobManager`, plus the
    ``/progress`` that replaces the telemetry plane's: the searches run
    in worker processes, not in the server's own trackers."""
    routes = RouteSet()

    def submit(request: RouteRequest) -> RouteResponse:
        try:
            payload = request.json()
        except (ValueError, UnicodeDecodeError) as error:
            raise SpecError(f"request body is not valid JSON: {error}")
        job, coalesced = manager.submit(payload)
        body = job.payload(include_result=False)
        body.update({"schema": SERVICE_SCHEMA, "coalesced": coalesced})
        return RouteResponse.json(body, status=202)

    def list_jobs(_request: RouteRequest) -> RouteResponse:
        return RouteResponse.json(
            {
                "schema": SERVICE_SCHEMA,
                "jobs": [
                    job.payload(include_result=False)
                    for job in manager.jobs()
                ],
            }
        )

    def _job(request: RouteRequest):
        job_id = request.param("job_id")
        job = manager.get(job_id)
        if job is None:
            error = SpecError(f"no such job {job_id!r}")
            error.http_status = 404
            raise error
        return job

    def get_job(request: RouteRequest) -> RouteResponse:
        body = _job(request).payload()
        body["schema"] = SERVICE_SCHEMA
        return RouteResponse.json(body)

    def job_progress(request: RouteRequest) -> RouteResponse:
        job = _job(request)
        body = _progress_body(manager, job.id)
        body.update(
            {
                "job_id": job.id,
                "state": job.state,
                "queue_wait_s": job.queue_wait_s(),
            }
        )
        return RouteResponse.json(body)

    def cancel_job(request: RouteRequest) -> RouteResponse:
        job = manager.cancel(request.param("job_id"))
        body = job.payload(include_result=False)
        body["schema"] = SERVICE_SCHEMA
        return RouteResponse.json(body)

    def stats(_request: RouteRequest) -> RouteResponse:
        body = manager.stats()
        body["schema"] = SERVICE_SCHEMA
        return RouteResponse.json(body)

    def progress(request: RouteRequest) -> RouteResponse:
        return RouteResponse.json(
            _progress_body(manager, request.query.get("job"))
        )

    job_path = r"/v1/jobs/(?P<job_id>[A-Za-z0-9_.\-]+)"
    routes.add("POST", "/v1/search", _guarded(submit))
    routes.add("GET", "/v1/jobs", _guarded(list_jobs))
    routes.add("GET", "/v1/stats", _guarded(stats))
    routes.add("GET", "/progress", progress)
    routes.add_pattern("GET", job_path, _guarded(get_job))
    routes.add_pattern("GET", job_path + "/progress", _guarded(job_progress))
    routes.add_pattern("DELETE", job_path, _guarded(cancel_job))
    return routes


class MappingService:
    """One process's mapper service: job manager + combined HTTP listener.

    Args:
        registry: metrics registry the telemetry routes expose (install
            it as the ambient obs scope so searches record into it).
        tracer: span source for ``/flame``.
        host / port: bind address (``port=0`` picks an ephemeral port).
        workers: search worker processes.
        queue_limit: admission bound (429 beyond it).
        journal_path: service journal for crash recovery; ``None``
            disables persistence.
        resume: recover journaled unfinished jobs before serving.
        pool_size / cache_entries: each worker's warm-evaluator pool shape.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        tracer: Optional[Tracer] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        journal_path: Optional[str] = None,
        resume: bool = False,
        pool_size: Optional[int] = None,
        cache_entries: Optional[int] = None,
    ) -> None:
        self.manager = JobManager(
            workers=workers,
            queue_limit=queue_limit,
            journal_path=journal_path,
            pool_size=pool_size,
            cache_entries=cache_entries,
        )
        self._resume = resume
        self._registry = registry
        self._tracer = tracer
        self._scope = None
        self.server = ObsServer(
            registry,
            tracer,
            host=host,
            port=port,
            extra_routes=service_routes(self.manager),
        )
        self.recovered = 0

    def start(self) -> "MappingService":
        """Recover (when asked), fork the workers, then bind the listener.

        Installs the service's registry as the ambient obs scope for its
        lifetime so the workers' search metrics (merged from each reply)
        and the service's own counters land on the ``/metrics`` this
        listener serves, without requiring every embedder to wrap the
        service in ``obs_scope``.
        """
        if self._scope is None:
            from repro.obs import obs_scope

            self._scope = obs_scope(
                registry=self._registry, tracer=self._tracer
            )
            self._scope.__enter__()
        try:
            if self._resume:
                self.recovered = self.manager.resume()
            self.manager.start()
            self.server.start()
        except BaseException:
            # A failed start leaves no scope, worker or listener behind.
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """Stop accepting, then stop workers after their current job."""
        self.server.stop()
        self.manager.stop()
        if self._scope is not None:
            self._scope.__exit__(None, None, None)
            self._scope = None

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def port(self) -> int:
        return self.server.port

    def __enter__(self) -> "MappingService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

"""Live telemetry over HTTP: ``/metrics``, ``/progress``, ``/flame``.

The ROADMAP's mapper-as-a-service direction needs the service's missing
sense: what is this process doing *right now*? :class:`ObsServer` is a
dependency-free stdlib :class:`~http.server.ThreadingHTTPServer` run as
a daemon thread inside any search / experiment / campaign process (the
CLI's ``--serve-metrics PORT`` flag), exposing read-only views of the
in-process observability state:

===============  =========================================================
route            payload
===============  =========================================================
``/healthz``     ``ok`` (liveness probe)
``/metrics``     Prometheus text exposition of the scoped registry
``/metrics.json``  the ``to_json()`` envelope (``{"schema": 1, ...}``)
``/progress``    JSON: every live :class:`ProgressTracker` snapshot —
                 fraction, ETA, throughput, convergence timeline;
                 ``?job=<id>`` filters to trackers owned by one job
``/flame``       flame-style text rollup of the in-memory span stream
===============  =========================================================

Handler registration is factored into a :class:`RouteSet` — a mapping
from ``(method, path)`` to plain callables over :class:`RouteRequest` —
so other servers can mount these routes next to their own instead of
duplicating the HTTP plumbing. :mod:`repro.service.server` does exactly
that: one :class:`ObsServer` carries both the telemetry routes above and
the ``/v1/*`` mapping-request API.

Everything the obs routes serve is a snapshot read of already-thread-safe
structures — the server never blocks or mutates the search it observes,
and when the flag is off no server (and no thread) exists at all,
preserving the layer's zero-cost-when-off rule. The server binds
``127.0.0.1`` by default and serves whatever the process already
collects; it performs no authentication, so bind wider interfaces
deliberately.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Pattern, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import active_trackers
from repro.obs.tracing import Tracer, flame_summary

logger = logging.getLogger(__name__)

#: Versioned envelope field for the ``/progress`` payload.
PROGRESS_SCHEMA = 1

#: Content type for Prometheus text exposition (format version 0.0.4).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def progress_payload(job: Optional[str] = None) -> Dict[str, Any]:
    """The ``/progress`` JSON body: one snapshot per live tracker.

    Schema (documented in docs/observability.md): ``{"schema": 1,
    "time": <epoch>, "searches": [ProgressTracker.snapshot(), ...]}``.
    ``job`` restricts the snapshots to trackers owned by that job id
    (see :func:`repro.obs.progress.progress_owner`), so the service can
    serve per-job progress without cross-contaminating concurrent runs.
    """
    return {
        "schema": PROGRESS_SCHEMA,
        "time": time.time(),
        "searches": [
            tracker.snapshot() for tracker in active_trackers(owner=job)
        ],
    }


# ------------------------------------------------------------------ routing


@dataclass
class RouteRequest:
    """One parsed HTTP request handed to a route callable."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: Regex match for pattern routes (named groups carry path params).
    match: Optional["re.Match[str]"] = None

    def param(self, name: str) -> str:
        """A named path parameter captured by a pattern route."""
        if self.match is None:
            raise KeyError(f"route has no path parameters (wanted {name!r})")
        return self.match.group(name)

    def json(self) -> Any:
        """The request body parsed as JSON (raises ``ValueError`` on bad
        bytes — HTTP-facing callers should map that to a 400)."""
        return json.loads(self.body.decode("utf-8"))


@dataclass
class RouteResponse:
    """What a route callable returns; rendered by the request handler."""

    status: int = 200
    content_type: str = "application/json"
    body: Any = ""
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(
        cls,
        payload: Any,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> "RouteResponse":
        return cls(
            status=status,
            content_type="application/json",
            body=json.dumps(payload),
            headers=dict(headers or {}),
        )

    @classmethod
    def text(
        cls,
        body: str,
        status: int = 200,
        content_type: str = "text/plain; charset=utf-8",
    ) -> "RouteResponse":
        return cls(status=status, content_type=content_type, body=body)


RouteHandler = Callable[[RouteRequest], RouteResponse]


class RouteSet:
    """Registered HTTP routes: exact paths plus regex patterns.

    Exact routes win over patterns; patterns are tried in registration
    order. Methods are matched exactly (``GET`` / ``POST`` / ``DELETE``),
    so registering only ``GET /metrics`` leaves ``POST /metrics`` a 405.
    """

    def __init__(self) -> None:
        self._exact: Dict[Tuple[str, str], RouteHandler] = {}
        self._patterns: List[Tuple[str, Pattern[str], RouteHandler]] = []

    def add(self, method: str, path: str, handler: RouteHandler) -> "RouteSet":
        """Register an exact-path route (idempotent overwrite)."""
        self._exact[(method.upper(), path)] = handler
        return self

    def add_pattern(
        self, method: str, pattern: str, handler: RouteHandler
    ) -> "RouteSet":
        """Register a regex route; named groups become path parameters
        (read back via :meth:`RouteRequest.param`). The pattern is
        anchored on both ends."""
        compiled = re.compile(pattern if pattern.endswith("$") else pattern + "$")
        self._patterns.append((method.upper(), compiled, handler))
        return self

    def merge(self, other: "RouteSet") -> "RouteSet":
        """Fold ``other``'s routes into this set (other wins on clashes)."""
        self._exact.update(other._exact)
        self._patterns.extend(other._patterns)
        return self

    def resolve(
        self, method: str, path: str
    ) -> Tuple[Optional[RouteHandler], Optional["re.Match[str]"], bool]:
        """``(handler, match, path_known)`` for one request.

        ``path_known`` is True when the path exists under *some* method —
        the request handler uses it to answer 405 instead of 404.
        """
        method = method.upper()
        handler = self._exact.get((method, path))
        if handler is not None:
            return handler, None, True
        path_known = any(known == path for (_, known) in self._exact)
        for registered_method, compiled, candidate in self._patterns:
            match = compiled.match(path)
            if match is None:
                continue
            path_known = True
            if registered_method == method:
                return candidate, match, True
        return None, None, path_known


def obs_routes(
    registry: MetricsRegistry, tracer: Optional[Tracer] = None
) -> RouteSet:
    """The telemetry route bundle every obs-capable server mounts.

    Factored out of the request handler so the mapper service can serve
    ``/healthz`` + ``/metrics`` + ``/progress`` on the same listener as
    its ``/v1/*`` API instead of running a second server.
    """
    routes = RouteSet()

    def healthz(_request: RouteRequest) -> RouteResponse:
        return RouteResponse.text("ok\n")

    def metrics(_request: RouteRequest) -> RouteResponse:
        return RouteResponse.text(
            registry.to_prometheus(), content_type=PROMETHEUS_CONTENT_TYPE
        )

    def metrics_json(_request: RouteRequest) -> RouteResponse:
        return RouteResponse.json(registry.to_json())

    def progress(request: RouteRequest) -> RouteResponse:
        return RouteResponse.json(
            progress_payload(job=request.query.get("job"))
        )

    def flame(_request: RouteRequest) -> RouteResponse:
        if tracer is None:
            return RouteResponse.text("(no tracer attached)\n")
        return RouteResponse.text(flame_summary(tracer.snapshot_records()) + "\n")

    routes.add("GET", "/", healthz)
    routes.add("GET", "/healthz", healthz)
    routes.add("GET", "/metrics", metrics)
    routes.add("GET", "/metrics.json", metrics_json)
    routes.add("GET", "/progress", progress)
    routes.add("GET", "/flame", flame)
    return routes


class _RoutingRequestHandler(BaseHTTPRequestHandler):
    """Dispatches requests through the server's :class:`RouteSet`."""

    server_version = "repro-obs"

    # The handler reaches its routes through self.server
    # (ThreadingHTTPServer instantiates handlers per request).

    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        try:
            parts = urlsplit(self.path)
            path = parts.path.rstrip("/") or "/"
            query = {
                key: values[-1]
                for key, values in parse_qs(parts.query).items()
            }
            handler, match, path_known = self.server.routes.resolve(
                method, path
            )
            if handler is None:
                if path_known:
                    self._send(
                        RouteResponse.text("method not allowed\n", status=405)
                    )
                else:
                    self._send(RouteResponse.text("not found\n", status=404))
                return
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length) if length else b""
            request = RouteRequest(
                method=method, path=path, query=query, body=body, match=match
            )
            self._send(handler(request))
        except Exception:  # pragma: no cover - defensive: never kill the probe
            logger.exception("obs server failed serving %s", self.path)
            try:
                self._send(RouteResponse.text("error\n", status=500))
            except OSError:
                pass

    def _send(self, response: RouteResponse) -> None:
        body = response.body
        payload = body.encode("utf-8") if isinstance(body, str) else bytes(body)
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: Any) -> None:
        # Scrapes are high-frequency noise; keep them off stderr.
        logger.debug("obs server: " + format, *args)


class _ObsHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # Searches outlive sockets; rebinding the same port across runs must
    # not fail on TIME_WAIT.
    allow_reuse_address = True
    # A burst of concurrent clients (the service takes 20+ submissions at
    # once) must queue, not overflow the default backlog of 5 and reset.
    request_queue_size = 128

    routes: RouteSet


class ObsServer:
    """The live-telemetry endpoint bundle, run as a daemon thread.

    Args:
        registry: metrics source for ``/metrics`` / ``/metrics.json``
            (typically the registry the ambient scope installs).
        tracer: span source for ``/flame``; ``None`` serves a
            placeholder body.
        host: bind address (loopback by default).
        port: TCP port; ``0`` picks an ephemeral port — read the bound
            one back from :attr:`port` (the CLI prints the resolved URL
            so tooling can scrape it).
        extra_routes: additional :class:`RouteSet` mounted on the same
            listener (they win over the telemetry routes on a clash);
            how :class:`repro.service.server.MappingService` adds its
            ``/v1/*`` API.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        tracer: Optional[Tracer] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        extra_routes: Optional[RouteSet] = None,
    ) -> None:
        self.registry = registry
        self.tracer = tracer
        self.routes = obs_routes(registry, tracer)
        if extra_routes is not None:
            self.routes.merge(extra_routes)
        self._requested = (host, int(port))
        self._httpd: Optional[_ObsHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ObsServer":
        """Bind and begin serving in a daemon thread (idempotent)."""
        if self._httpd is not None:
            return self
        httpd = _ObsHTTPServer(self._requested, _RoutingRequestHandler)
        httpd.routes = self.routes
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            name="obs-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the listener down and join the serving thread."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    @property
    def host(self) -> str:
        if self._httpd is not None:
            return self._httpd.server_address[0]
        return self._requested[0]

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

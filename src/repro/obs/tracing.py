"""Span tracing: nested, monotonic-duration spans exported as JSONL.

A span is one timed region of work — ``search.run``, ``search.batch``,
``campaign.job`` — with a name, attributes, a parent, and a duration
measured on the monotonic clock. Spans nest through a thread-local
stack, so instrumented code never threads a tracer object through call
signatures: the ambient :func:`repro.obs.scope.trace` helper finds the
active tracer (or no-ops).

The on-disk format reuses the :mod:`repro.io.journal` framing — one JSON
record per line, a ``schema`` field, torn-trailing-line tolerance on
read — so ``repro obs dump`` and campaign tooling share one parser.
Unlike the campaign journal, span writes are flushed but **not** fsynced
per record: traces are diagnostics, not checkpoints, and an fsync per
span would throttle the searches being observed.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.metrics import TIMING_BUCKETS, MetricsRegistry


class Span:
    """A live span handle; ``set()`` attaches attributes before close."""

    __slots__ = ("name", "span_id", "parent_id", "depth", "attrs", "_started")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        depth: int,
        attrs: Dict[str, Any],
        started: float,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.attrs = attrs
        self._started = started

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)


class _SpanContext:
    """Context manager that opens a span on enter and records it on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._span = tracer._open(name, attrs)

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close(self._span, error=exc_type is not None)


class Tracer:
    """Collects spans in memory and (optionally) streams them to JSONL.

    Args:
        path: JSONL output file. ``None`` keeps spans in memory only
            (``records`` still accumulates, for tests and in-process
            summaries — it is what the live ``/flame`` endpoint rolls
            up).
        registry: when given, every closed span also lands one
            observation in the ``span.duration_seconds`` histogram
            (labeled by span name, on the fine :data:`TIMING_BUCKETS`
            grid), so span latency distributions are scrapeable without
            parsing the trace.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        from repro.io.journal import JOURNAL_SCHEMA

        self.path = Path(path) if path is not None else None
        self._schema = JOURNAL_SCHEMA
        self.registry = registry
        self.records: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self._origin = time.perf_counter()
        self._handle = None
        if self.path is not None:
            if self.path.parent and not self.path.parent.exists():
                self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a")

    # -- span lifecycle ---------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a nested span: ``with tracer.span("search.run"): ...``."""
        return _SpanContext(self, name, attrs)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _open(self, name: str, attrs: Dict[str, Any]) -> Span:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent_id = stack[-1].span_id if stack else None
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=parent_id,
            depth=len(stack),
            attrs=dict(attrs),
            started=time.perf_counter(),
        )
        stack.append(span)
        return span

    def _close(self, span: Span, error: bool = False) -> None:
        ended = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        record: Dict[str, Any] = {
            "kind": "span",
            "schema": self._schema,
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "depth": span.depth,
            "start_s": round(span._started - self._origin, 9),
            "duration_s": round(ended - span._started, 9),
            "time": time.time(),
            "attrs": span.attrs,
        }
        if error:
            record["error"] = True
        with self._lock:
            self.records.append(record)
            if self._handle is not None:
                self._handle.write(json.dumps(record, sort_keys=True) + "\n")
                self._handle.flush()
        if self.registry is not None:
            self.registry.histogram(
                "span.duration_seconds", buckets=TIMING_BUCKETS
            ).observe(record["duration_s"], name=span.name)

    def snapshot_records(self) -> List[Dict[str, Any]]:
        """A consistent copy of the in-memory span records (safe to read
        while other threads are still closing spans — the live ``/flame``
        endpoint uses this)."""
        with self._lock:
            return list(self.records)

    def close(self) -> None:
        """Flush and release the output file (idempotent)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


#: Span-record keys every exporter/validator can rely on.
SPAN_REQUIRED_KEYS = (
    "kind",
    "schema",
    "name",
    "span_id",
    "parent_id",
    "depth",
    "start_s",
    "duration_s",
    "time",
    "attrs",
)


def validate_span(record: Dict[str, Any]) -> List[str]:
    """Schema-check one span record; returns human-readable problems."""
    problems = []
    for key in SPAN_REQUIRED_KEYS:
        if key not in record:
            problems.append(f"missing key {key!r}")
    if record.get("kind") != "span":
        problems.append(f"kind is {record.get('kind')!r}, expected 'span'")
    if not isinstance(record.get("name"), str) or not record.get("name"):
        problems.append("name must be a non-empty string")
    duration = record.get("duration_s")
    if not isinstance(duration, (int, float)) or duration < 0:
        problems.append(f"duration_s must be a non-negative number: {duration!r}")
    depth = record.get("depth")
    if not isinstance(depth, int) or depth < 0:
        problems.append(f"depth must be a non-negative int: {depth!r}")
    if record.get("parent_id") is None and record.get("depth") != 0:
        problems.append("parentless span must have depth 0")
    return problems


def read_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load span records from a JSONL trace (journal framing: torn-tail
    tolerant; non-span records — e.g. interleaved campaign records — are
    skipped). A trace file that does not exist is a :class:`SpecError`."""
    from repro.exceptions import SpecError
    from repro.io.journal import Journal

    journal = Journal(path)
    if not journal.exists():
        raise SpecError(f"trace {journal.path}: no such file")
    return [r for r in journal.read() if r.get("kind") == "span"]


# -- flame summary --------------------------------------------------------


def flame_summary(records: List[Dict[str, Any]]) -> str:
    """Aggregate spans into an indented flame-style text summary.

    Spans are grouped by their *path* (ancestor names joined with ``/``),
    so repeated children (every ``search.batch`` under one ``search.run``)
    collapse into one line with a count, total, and share of the root
    wall-clock. Parentless spans form the roots.
    """
    if not records:
        return "(empty trace)"
    by_id = {r["span_id"]: r for r in records}

    def path_of(record: Dict[str, Any]) -> tuple:
        names: List[str] = []
        cursor: Optional[Dict[str, Any]] = record
        seen = set()
        while cursor is not None:
            if cursor["span_id"] in seen:  # corrupt parent loop
                break
            seen.add(cursor["span_id"])
            names.append(cursor["name"])
            parent = cursor.get("parent_id")
            cursor = by_id.get(parent) if parent is not None else None
        return tuple(reversed(names))

    groups: Dict[tuple, Dict[str, Any]] = {}
    order: List[tuple] = []
    for record in records:
        path = path_of(record)
        group = groups.get(path)
        if group is None:
            group = {"count": 0, "total_s": 0.0, "max_s": 0.0}
            groups[path] = group
            order.append(path)
        group["count"] += 1
        group["total_s"] += record["duration_s"]
        group["max_s"] = max(group["max_s"], record["duration_s"])
    order.sort()
    root_total = sum(
        g["total_s"] for path, g in groups.items() if len(path) == 1
    )
    lines = [
        f"{'span':<48} {'count':>7} {'total':>10} {'mean':>10} {'share':>7}"
    ]
    for path in order:
        group = groups[path]
        indent = "  " * (len(path) - 1)
        label = indent + path[-1]
        mean = group["total_s"] / group["count"]
        share = (group["total_s"] / root_total) if root_total > 0 else 0.0
        lines.append(
            f"{label:<48} {group['count']:>7,} {group['total_s']:>9.3f}s "
            f"{mean * 1e3:>8.2f}ms {share:>6.1%}"
        )
    return "\n".join(lines)

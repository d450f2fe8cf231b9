"""Ambient observability scope (mirrors ``campaign_scope``).

Instrumented code — evaluators, searchers, the batch engine, campaign
workers — calls the module-level helpers (:func:`inc`, :func:`observe`,
:func:`set_gauge`, :func:`trace`) unconditionally. With no scope active
they are near-free no-ops (one global read and a ``None`` check), so
uninstrumented runs pay nothing measurable; entering :func:`obs_scope`
routes them to a registry and (optionally) a tracer without threading
objects through every call signature:

    with obs_scope(trace_path="run.trace.jsonl") as obs:
        result = RandomSearch(space, evaluator).run()
    print(obs.registry.to_prometheus())

Scopes nest like :func:`repro.search.campaign.campaign_scope`: the
innermost wins, and ``obs_scope()`` with no arguments enables metrics
into the process-wide default registry.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Optional, Union

from repro.obs.metrics import MetricsRegistry, default_registry

if TYPE_CHECKING:  # tracing loads only when a tracer is built
    from repro.obs.tracing import Tracer


@dataclass
class ObsContext:
    """What an active scope routes to: a registry plus optional tracer."""

    registry: MetricsRegistry
    tracer: Optional[Tracer] = None


_ACTIVE: Optional[ObsContext] = None

# A single reusable no-op context manager for inactive trace() calls —
# nullcontext is stateless, so sharing one instance is safe and keeps
# the disabled path allocation-free.
_NULL_SPAN = nullcontext(None)


def active_obs() -> Optional[ObsContext]:
    """The context installed by the innermost :func:`obs_scope`, or None."""
    return _ACTIVE


@contextmanager
def obs_scope(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    trace_path: Optional[Union[str, Path]] = None,
) -> Iterator[ObsContext]:
    """Install an ambient observability context for the ``with`` body.

    Args:
        registry: metrics destination; defaults to the process-wide
            registry (:func:`repro.obs.metrics.default_registry`).
        tracer: span destination; caller owns its lifecycle.
        trace_path: convenience — build (and close on exit) a
            :class:`~repro.obs.tracing.Tracer` writing JSONL here.
            Mutually exclusive with ``tracer``.
    """
    global _ACTIVE
    if tracer is not None and trace_path is not None:
        raise ValueError("pass either tracer or trace_path, not both")
    resolved_registry = registry if registry is not None else default_registry()
    # The owned tracer feeds span durations back into the same registry
    # (span.duration_seconds), so a bare trace_path gets both views.
    owned_tracer = None
    if trace_path is not None:
        from repro.obs.tracing import Tracer

        owned_tracer = Tracer(trace_path, registry=resolved_registry)
    context = ObsContext(
        registry=resolved_registry,
        tracer=tracer if tracer is not None else owned_tracer,
    )
    previous = _ACTIVE
    _ACTIVE = context
    try:
        yield context
    finally:
        _ACTIVE = previous
        if owned_tracer is not None:
            owned_tracer.close()


# -- no-op-when-inactive instrumentation helpers --------------------------


def inc(name: str, amount: float = 1.0, **labels: Any) -> None:
    """Increment a counter in the ambient registry (no-op when inactive)."""
    context = _ACTIVE
    if context is not None:
        context.registry.counter(name).inc(amount, **labels)


def set_gauge(name: str, value: float, **labels: Any) -> None:
    """Set a gauge in the ambient registry (no-op when inactive)."""
    context = _ACTIVE
    if context is not None:
        context.registry.gauge(name).set(value, **labels)


def observe(
    name: str, value: float, buckets: Optional[Any] = None, **labels: Any
) -> None:
    """Record a histogram observation (no-op when inactive).

    ``buckets`` overrides the instrument's bucket grid on first use
    (ignored if the histogram already exists — buckets are fixed at
    construction so cross-process merges never have to rebin). Every
    caller observing one series should pass the same grid.
    """
    context = _ACTIVE
    if context is not None:
        if buckets is not None:
            histogram = context.registry.histogram(name, buckets=buckets)
        else:
            histogram = context.registry.histogram(name)
        histogram.observe(value, **labels)


def trace(name: str, **attrs: Any):
    """Open an ambient span: ``with trace("search.step", i=3): ...``.

    Yields the live :class:`~repro.obs.tracing.Span` when a tracer is
    active, or ``None`` (via a shared null context) otherwise — callers
    must tolerate a ``None`` span if they use the yielded value.
    """
    context = _ACTIVE
    if context is None or context.tracer is None:
        return _NULL_SPAN
    return context.tracer.span(name, **attrs)

"""Mapper-as-a-service: a long-lived search server over the library.

``repro serve`` turns the one-shot :func:`~repro.core.mapper.find_best_mapping`
flow into a process that accepts JSON search requests over HTTP, runs them
in worker processes behind admission control, coalesces identical
in-flight requests, keeps evaluators (and their evaluation caches) warm
in each worker across requests, and journals accepted work so ``--resume``
recovers after a crash. See docs/service.md for the API and operational policies.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".admission": (
        "DEFAULT_QUEUE_LIMIT",
        "PRIORITY_RANK",
        "AdmissionController",
        "validate_priority",
    ),
    ".coalesce": (
        "EvaluatorPool",
        "canonical_signature",
        "pair_signature",
    ),
    ".jobs": (
        "JobManager",
        "SearchSpec",
        "ServiceJob",
        "parse_search_spec",
        "result_payload",
    ),
    ".server": (
        "SERVICE_SCHEMA",
        "MappingService",
        "error_response",
        "service_routes",
    ),
})

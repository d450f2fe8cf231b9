"""Serialization: architectures, workloads, and mappings as JSON-able dicts.

Timeloop consumes YAML specs; this package provides the equivalent
interchange layer so architectures, workloads, and found mappings can be
saved, versioned, and re-evaluated without Python code.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".serde": (
        "architecture_from_dict",
        "architecture_to_dict",
        "mapping_from_dict",
        "mapping_to_dict",
        "workload_from_dict",
        "workload_to_dict",
        "load_json",
        "save_json",
        "write_text_atomic",
    ),
    ".journal": ("Journal",),
})

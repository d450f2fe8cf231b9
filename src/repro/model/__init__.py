"""The analytical cost model (the Timeloop-model substitute).

Given (architecture, workload, mapping), compute exact access counts per
storage level and tensor, compute cycles with imperfect-spatial utilization,
price energy with an :class:`~repro.energy.table.EnergyTable`, and roll up
to EDP. The remainder-aware math is exact for the quantities that drive the
paper's results: total operations, temporal steps, and per-sweep element
traffic of relevant dimensions.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".batch": (
        "DEFAULT_BATCH_SIZE",
        "BatchEvaluator",
        "BatchLayout",
        "BatchOutcome",
        "MappingBatch",
        "pack_mappings",
    ),
    ".dataflow": ("TensorPath", "tensor_paths"),
    ".access_counts": ("AccessCounts", "compute_access_counts"),
    ".latency": ("compute_cycles", "compute_utilization"),
    ".eval_cache": ("DEFAULT_CACHE_SIZE", "EvaluationCache"),
    ".evaluator": ("Evaluation", "Evaluator"),
    ".analysis": ("MappingReport", "explain_mapping", "format_report"),
    ".reference_sim": ("SimulationResult", "simulate"),
    ".roofline": ("RooflinePoint", "roofline_point"),
    ".diff": ("EvaluationDiff", "diff_evaluations", "format_diff"),
    ".sparsity": ("gated_evaluation",),
})

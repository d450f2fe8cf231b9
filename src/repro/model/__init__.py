"""The analytical cost model (the Timeloop-model substitute).

Given (architecture, workload, mapping), compute exact access counts per
storage level and tensor, compute cycles with imperfect-spatial utilization,
price energy with an :class:`~repro.energy.table.EnergyTable`, and roll up
to EDP. The remainder-aware math is exact for the quantities that drive the
paper's results: total operations, temporal steps, and per-sweep element
traffic of relevant dimensions.
"""

from repro.model.dataflow import TensorPath, tensor_paths
from repro.model.access_counts import AccessCounts, compute_access_counts
from repro.model.latency import compute_cycles, compute_utilization
from repro.model.eval_cache import DEFAULT_CACHE_SIZE, EvaluationCache
from repro.model.evaluator import Evaluation, Evaluator
from repro.model.analysis import MappingReport, explain_mapping, format_report
from repro.model.reference_sim import SimulationResult, simulate
from repro.model.roofline import RooflinePoint, roofline_point
from repro.model.diff import EvaluationDiff, diff_evaluations, format_diff
from repro.model.sparsity import gated_evaluation
from repro.model.batch import (
    DEFAULT_BATCH_SIZE,
    BatchEvaluator,
    BatchLayout,
    BatchOutcome,
    MappingBatch,
    pack_mappings,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "BatchEvaluator",
    "BatchLayout",
    "BatchOutcome",
    "MappingBatch",
    "pack_mappings",
    "TensorPath",
    "tensor_paths",
    "AccessCounts",
    "compute_access_counts",
    "compute_cycles",
    "compute_utilization",
    "DEFAULT_CACHE_SIZE",
    "EvaluationCache",
    "Evaluation",
    "Evaluator",
    "MappingReport",
    "explain_mapping",
    "format_report",
    "SimulationResult",
    "simulate",
    "RooflinePoint",
    "roofline_point",
    "EvaluationDiff",
    "diff_evaluations",
    "format_diff",
    "gated_evaluation",
]

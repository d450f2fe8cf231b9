"""Fig. 11: DeepBench on the Eyeriss-like baseline, Ruby-S vs PFM.

Vision kernels (ImageNet-style, factor-7 feature maps) map well under
perfect factorization, so Ruby-S roughly matches PFM there; speech,
speaker-ID, face, and OCR shapes misalign with the 14x12 array and give
Ruby-S its wins (paper: up to 33-45% lower EDP, ~10% suite average).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.arch.eyeriss import eyeriss_like
from repro.core.metrics import geometric_mean
from repro.core.report import format_table
from repro.experiments.common import best_metrics_by_kind
from repro.experiments.fig10 import LayerComparison
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.zoo.deepbench import deepbench_workloads


@dataclass
class Fig11Result:
    """Per-workload comparisons, grouped by application domain."""

    comparisons: List[LayerComparison] = field(default_factory=list)
    domains: Dict[str, str] = field(default_factory=dict)

    def ratios_by_domain(self) -> Dict[str, List[float]]:
        grouped: Dict[str, List[float]] = {}
        for comparison in self.comparisons:
            domain = self.domains[comparison.name]
            grouped.setdefault(domain, []).append(comparison.edp_ratio)
        return grouped

    @property
    def geomean_edp_ratio(self) -> float:
        return geometric_mean([c.edp_ratio for c in self.comparisons])

    @property
    def geomean_cycles_ratio(self) -> float:
        return geometric_mean([c.cycles_ratio for c in self.comparisons])

    @property
    def best_improvement_percent(self) -> float:
        return 100.0 * (1.0 - min(c.edp_ratio for c in self.comparisons))


def run_fig11(
    seeds: Sequence[int] = (1, 2),
    max_evaluations: int = 2_500,
    patience: Optional[int] = 800,
    subset: Optional[Sequence[str]] = None,
    objective: str = "edp",
) -> Fig11Result:
    """DeepBench suite on Eyeriss-like: Ruby-S vs PFM per workload.

    GEMM workloads run unconstrained (the row-stationary split is a conv
    dataflow); conv workloads use the Eyeriss constraint set.
    ``objective="delay"`` is the paper's latency variant: "When targeting
    latency instead of EDP, Ruby-S generates mappings that reduce the
    latency 14% compared to PFMs."
    """
    arch = eyeriss_like()
    conv_constraints = eyeriss_row_stationary()
    result = Fig11Result()
    for workload, domain in deepbench_workloads():
        if subset is not None and workload.name not in subset:
            continue
        is_conv = "R" in workload.dim_names
        best = best_metrics_by_kind(
            arch,
            workload,
            kinds=("pfm", "ruby-s"),
            objective=objective,
            seeds=seeds,
            max_evaluations=max_evaluations,
            patience=patience,
            constraints=conv_constraints if is_conv else None,
        )
        result.comparisons.append(
            LayerComparison(
                name=workload.name,
                count=1,
                baseline=best["pfm"],
                challenger=best["ruby-s"],
            )
        )
        result.domains[workload.name] = domain
    return result


def format_fig11(result: Fig11Result, chart: bool = True) -> str:
    rows = []
    for comparison in result.comparisons:
        rows.append(
            [
                comparison.name,
                result.domains[comparison.name],
                comparison.edp_ratio,
                comparison.cycles_ratio,
                comparison.challenger.utilization,
                comparison.baseline.utilization,
            ]
        )
    rows.append(["GEOMEAN", "", result.geomean_edp_ratio, "", "", ""])
    table = format_table(
        ["workload", "domain", "EDP", "cycles", "util(ruby-s)", "util(pfm)"],
        rows,
        title="Fig. 11: DeepBench on Eyeriss-like (normalized to PFM)",
    )
    if not chart:
        return table
    from repro.core.plots import ascii_bar_chart

    bars = ascii_bar_chart(
        [c.name for c in result.comparisons],
        [c.edp_ratio for c in result.comparisons],
        reference=1.0,
        title="EDP normalized to PFM (| marks 1.0)",
    )
    return table + "\n\n" + bars

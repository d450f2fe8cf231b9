"""Fig. 10: ResNet-50 on the Eyeriss-like baseline, Ruby-S vs PFM.

Per layer (grouped into the paper's layer-type buckets) and for the whole
network: EDP, energy, and cycles of the best Ruby-S mapping normalized to
the best PFM mapping. The paper reports a 14% network EDP improvement from
a 17% cycle reduction at a 2% energy increase, dominated by pointwise and
dense layers whose dims misalign with the 14x12 array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.eyeriss import eyeriss_like
from repro.arch.spec import Architecture
from repro.core.report import format_table
from repro.experiments.common import best_metrics_by_kind
from repro.mapspace.constraints import ConstraintSet, eyeriss_row_stationary
from repro.model.evaluator import Evaluation
from repro.problem.workload import Workload
from repro.zoo.resnet50 import resnet50_representative, resnet50_workloads


@dataclass(frozen=True)
class LayerComparison:
    """Best PFM and Ruby-S evaluations of one layer (+ its network count)."""

    name: str
    count: int
    baseline: Evaluation
    challenger: Evaluation

    @property
    def edp_ratio(self) -> float:
        """Challenger EDP / baseline EDP (< 1 means the challenger wins)."""
        return self.challenger.edp / self.baseline.edp

    @property
    def energy_ratio(self) -> float:
        return self.challenger.energy_pj / self.baseline.energy_pj

    @property
    def cycles_ratio(self) -> float:
        return self.challenger.cycles / self.baseline.cycles


@dataclass
class NetworkComparison:
    """Per-layer comparisons plus count-weighted network totals."""

    layers: List[LayerComparison] = field(default_factory=list)

    def network_totals(self) -> Dict[str, float]:
        """Count-weighted total energy/cycles/EDP for both mapspaces."""
        totals = {
            "baseline_energy": 0.0,
            "baseline_cycles": 0.0,
            "challenger_energy": 0.0,
            "challenger_cycles": 0.0,
        }
        for layer in self.layers:
            totals["baseline_energy"] += layer.baseline.energy_pj * layer.count
            totals["baseline_cycles"] += layer.baseline.cycles * layer.count
            totals["challenger_energy"] += layer.challenger.energy_pj * layer.count
            totals["challenger_cycles"] += layer.challenger.cycles * layer.count
        totals["baseline_edp"] = (
            totals["baseline_energy"] * totals["baseline_cycles"]
        )
        totals["challenger_edp"] = (
            totals["challenger_energy"] * totals["challenger_cycles"]
        )
        return totals

    @property
    def network_edp_ratio(self) -> float:
        totals = self.network_totals()
        return totals["challenger_edp"] / totals["baseline_edp"]

    @property
    def network_cycles_ratio(self) -> float:
        totals = self.network_totals()
        return totals["challenger_cycles"] / totals["baseline_cycles"]

    @property
    def network_energy_ratio(self) -> float:
        totals = self.network_totals()
        return totals["challenger_energy"] / totals["baseline_energy"]

    @property
    def best_layer_edp_ratio(self) -> float:
        return min(layer.edp_ratio for layer in self.layers)


def compare_network(
    arch: Architecture,
    workloads: Sequence[Tuple[Workload, int]],
    baseline_kind: str = "pfm",
    challenger_kind: str = "ruby-s",
    constraints: Optional[ConstraintSet] = None,
    seeds: Sequence[int] = (1, 2, 3),
    max_evaluations: int = 3_000,
    patience: Optional[int] = 1_000,
) -> NetworkComparison:
    """Search both mapspaces for every layer of a network.

    Inside a :func:`~repro.search.campaign.campaign_scope`, every
    per-layer search is a journaled campaign job: a killed run resumes
    from the journal, hung searches are timed out and retried, and
    repeated failures are quarantined.
    """
    comparison = NetworkComparison()
    for workload, count in workloads:
        best = best_metrics_by_kind(
            arch,
            workload,
            kinds=(baseline_kind, challenger_kind),
            seeds=seeds,
            max_evaluations=max_evaluations,
            patience=patience,
            constraints=constraints,
        )
        comparison.layers.append(
            LayerComparison(
                name=workload.name,
                count=count,
                baseline=best[baseline_kind],
                challenger=best[challenger_kind],
            )
        )
    return comparison


def run_fig10(
    representative: bool = True,
    seeds: Sequence[int] = (1, 2, 3),
    max_evaluations: int = 3_000,
    patience: Optional[int] = 1_000,
    mesh_x: int = 14,
    mesh_y: int = 12,
) -> NetworkComparison:
    """ResNet-50 on Eyeriss-like: Ruby-S vs PFM per layer."""
    arch = eyeriss_like(mesh_x, mesh_y)
    workloads = (
        resnet50_representative() if representative else resnet50_workloads()
    )
    return compare_network(
        arch,
        workloads,
        constraints=eyeriss_row_stationary(),
        seeds=seeds,
        max_evaluations=max_evaluations,
        patience=patience,
    )


def format_fig10(
    comparison: NetworkComparison,
    title: str = "Fig. 10: ResNet-50 on Eyeriss-like (normalized to PFM)",
) -> str:
    """Render per-layer ratios plus the network summary row."""
    rows = []
    for layer in comparison.layers:
        rows.append(
            [
                layer.name,
                layer.count,
                layer.edp_ratio,
                layer.energy_ratio,
                layer.cycles_ratio,
                layer.challenger.utilization,
                layer.baseline.utilization,
            ]
        )
    rows.append(
        [
            "NETWORK",
            "",
            comparison.network_edp_ratio,
            comparison.network_energy_ratio,
            comparison.network_cycles_ratio,
            "",
            "",
        ]
    )
    return format_table(
        ["layer", "x", "EDP", "energy", "cycles", "util(ruby-s)", "util(pfm)"],
        rows,
        title=title,
    )

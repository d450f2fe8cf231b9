"""Fig. 12: ResNet-50 on a Simba-like architecture, Ruby-S vs PFM.

The Simba-like design restricts PE-level parallelism to the channel dims
(C and M) and nests a second spatial level (vector-MAC lanes) inside each
PE. The paper evaluates a 15-PE configuration (four 4-wide vector MACs per
PE, ~10% net EDP improvement) and a 9-PE configuration (three 3-wide,
~45% improvement) — odd PE counts that channel dims rarely divide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.arch.simba import simba_like
from repro.experiments.fig10 import NetworkComparison, compare_network, format_fig10
from repro.zoo.resnet50 import resnet50_representative, resnet50_workloads


@dataclass
class Fig12Result:
    """Network comparisons for the two Simba configurations."""

    config15: NetworkComparison
    config9: Optional[NetworkComparison] = None


def run_fig12(
    representative: bool = True,
    include_9pe: bool = True,
    seeds: Sequence[int] = (1, 2),
    max_evaluations: int = 2_500,
    patience: Optional[int] = 800,
) -> Fig12Result:
    """ResNet-50 on Simba-like, for the paper's two configurations."""
    workloads = (
        resnet50_representative() if representative else resnet50_workloads()
    )
    config15 = compare_network(
        simba_like(num_pes=15, vector_macs_per_pe=4, vector_width=4),
        workloads,
        seeds=seeds,
        max_evaluations=max_evaluations,
        patience=patience,
    )
    config9 = None
    if include_9pe:
        config9 = compare_network(
            simba_like(num_pes=9, vector_macs_per_pe=3, vector_width=3),
            workloads,
            seeds=seeds,
            max_evaluations=max_evaluations,
            patience=patience,
        )
    return Fig12Result(config15=config15, config9=config9)


def format_fig12(result: Fig12Result) -> str:
    parts = [
        format_fig10(
            result.config15,
            title="Fig. 12: ResNet-50 on Simba-like, 15 PEs x (4x4-wide) "
            "(normalized to PFM)",
        )
    ]
    if result.config9 is not None:
        parts.append(
            format_fig10(
                result.config9,
                title="Fig. 12 (companion): 9 PEs x (3x3-wide)",
            )
        )
    return "\n\n".join(parts)

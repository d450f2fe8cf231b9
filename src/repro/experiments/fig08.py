"""Fig. 8: Ruby-S vs PFM vs PFM+padding across dimension sizes.

A single tensor of ``D`` elements is allocated across 16 linear PEs. The
padding strategy rounds ``D`` up to the next multiple of 16 so perfect
factorization can parallelize fully — at the cost of ineffectual zero
work (no sparsity hardware is modelled, matching the paper). Ruby-S packs
the array without padding. The paper's callouts: at the prime D = 127,
PFM cannot parallelize at all while padding and Ruby-S both take 8 cycles;
at D = 113 padding wastes ~12% of its computations and loses ~20% EDP to
Ruby-S.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.arch.toy import toy_linear_architecture
from repro.core.report import format_table
from repro.experiments.common import multi_seed_search
from repro.model.evaluator import Evaluation
from repro.problem.padding import pad_dimension
from repro.zoo.toy import fig8_workload

DEFAULT_SIZES = (96, 100, 108, 113, 116, 120, 127, 128)
STRATEGIES = ("ruby-s", "pfm", "pfm+pad")


@dataclass
class Fig8Result:
    """Per-size EDP of each strategy (absolute and Ruby-S-normalized)."""

    sizes: List[int] = field(default_factory=list)
    edp: Dict[str, List[float]] = field(default_factory=dict)
    cycles: Dict[str, List[int]] = field(default_factory=dict)

    def normalized(self, strategy: str, size: int) -> float:
        index = self.sizes.index(size)
        return self.edp[strategy][index] / self.edp["ruby-s"][index]


def _evaluate_strategy(
    arch, size: int, strategy: str, seeds, max_evaluations: int
) -> Evaluation:
    workload = fig8_workload(size)
    if strategy == "pfm+pad":
        workload = pad_dimension(workload, "D", 16).workload
        kind = "pfm"
    else:
        kind = strategy
    return multi_seed_search(
        arch,
        workload,
        kind,
        seeds=seeds,
        max_evaluations=max_evaluations,
        patience=max_evaluations // 4,
    )


def run_fig8(
    sizes: Sequence[int] = DEFAULT_SIZES,
    num_pes: int = 16,
    seeds: Sequence[int] = (1, 2),
    max_evaluations: int = 1_500,
) -> Fig8Result:
    """Sweep dimension sizes for the three strategies.

    Inside a :func:`~repro.search.campaign.campaign_scope`, every
    (size, strategy) search runs as a journaled campaign job.
    """
    arch = toy_linear_architecture(num_pes)
    result = Fig8Result(sizes=list(sizes))
    for strategy in STRATEGIES:
        result.edp[strategy] = []
        result.cycles[strategy] = []
    for size in sizes:
        for strategy in STRATEGIES:
            best = _evaluate_strategy(
                arch, size, strategy, seeds, max_evaluations
            )
            result.edp[strategy].append(best.edp)
            result.cycles[strategy].append(best.cycles)
    return result


def format_fig8(result: Fig8Result) -> str:
    """Render EDP normalized to Ruby-S (the paper's y-axis)."""
    headers = ["D"] + [f"{s} (norm)" for s in STRATEGIES] + ["cycles ruby-s/pfm/pad"]
    rows = []
    for i, size in enumerate(result.sizes):
        ruby = result.edp["ruby-s"][i]
        rows.append(
            [size]
            + [result.edp[s][i] / ruby for s in STRATEGIES]
            + [
                f"{result.cycles['ruby-s'][i]}/"
                f"{result.cycles['pfm'][i]}/"
                f"{result.cycles['pfm+pad'][i]}"
            ]
        )
    return format_table(
        headers,
        rows,
        title="Fig. 8: EDP normalized to Ruby-S, 16-PE linear array",
    )

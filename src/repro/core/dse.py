"""Architectural design-space exploration (Figs. 13 and 14).

Sweeps PE-array shapes (2x7 ... 16x16 in the paper), searches each mapspace
on every design for every workload, and aggregates network-level EDP
against accelerator area. The paper's claim: Ruby-S points form a new
Pareto frontier below the PFM (and PFM+padding) points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.arch.eyeriss import eyeriss_like
from repro.arch.spec import Architecture
from repro.energy.area import estimate_area_mm2
from repro.mapspace.constraints import ConstraintSet
from repro.mapspace.generator import MapspaceKind
from repro.problem.workload import Workload
from repro.utils.pareto import ParetoPoint, pareto_frontier
from repro.utils.rng import make_rng

DEFAULT_ARRAY_SHAPES: Tuple[Tuple[int, int], ...] = (
    (2, 7),
    (4, 7),
    (7, 7),
    (8, 8),
    (14, 12),
    (12, 14),
    (16, 12),
    (16, 16),
)


@dataclass(frozen=True)
class DesignPoint:
    """One (array shape, mapspace kind) outcome of a sweep.

    ``edp`` is network-level: total energy times total cycles across the
    weighted workload list.
    """

    mesh_x: int
    mesh_y: int
    kind: MapspaceKind
    area_mm2: float
    energy_pj: float
    cycles: int
    per_workload_edp: Tuple[Tuple[str, float], ...] = ()
    label: Optional[str] = None

    @property
    def num_pes(self) -> int:
        return self.mesh_x * self.mesh_y

    @property
    def edp(self) -> float:
        return self.energy_pj * self.cycles

    @property
    def shape_label(self) -> str:
        """Design identity within a sweep (mesh shape, or a custom label
        when the sweep varies another axis, e.g. GLB capacity)."""
        return self.label or f"{self.mesh_x}x{self.mesh_y}"


@dataclass
class SweepResult:
    """All design points of a sweep, with Pareto helpers."""

    points: List[DesignPoint] = field(default_factory=list)

    def of_kind(self, kind: Union[str, MapspaceKind]) -> List[DesignPoint]:
        kind = MapspaceKind(kind)
        return [p for p in self.points if p.kind == kind]

    def pareto_points(self, kind: Union[str, MapspaceKind]) -> List[ParetoPoint]:
        """Area-vs-EDP Pareto frontier of one mapspace kind."""
        candidates = [
            ParetoPoint(
                x=p.area_mm2,
                y=p.edp,
                payload={"shape": p.shape_label, "kind": p.kind.value},
            )
            for p in self.of_kind(kind)
        ]
        return pareto_frontier(candidates)

    def improvement_by_shape(
        self,
        challenger: Union[str, MapspaceKind],
        baseline: Union[str, MapspaceKind],
    ) -> Dict[str, float]:
        """Per-shape percent EDP improvement of challenger over baseline."""
        challenger_edp = {p.shape_label: p.edp for p in self.of_kind(challenger)}
        baseline_edp = {p.shape_label: p.edp for p in self.of_kind(baseline)}
        improvements = {}
        for shape, base in baseline_edp.items():
            if shape in challenger_edp and base > 0:
                improvements[shape] = 100.0 * (base - challenger_edp[shape]) / base
        return improvements


def evaluate_network(
    arch: Architecture,
    workloads: Sequence[Tuple[Workload, int]],
    kind: Union[str, MapspaceKind],
    constraints: Optional[ConstraintSet] = None,
    max_evaluations: int = 2_000,
    patience: Optional[int] = 500,
    objective: str = "edp",
    seed: Optional[Union[int, random.Random]] = None,
    restarts: int = 1,
) -> Tuple[float, int, List[Tuple[str, float]]]:
    """Search every layer; return (total energy, total cycles, per-layer EDP).

    ``workloads`` pairs each unique layer with its occurrence count in the
    network (ResNet-50 repeats layer shapes many times). ``restarts``
    independent searches run per layer and the best wins — the laptop-scale
    stand-in for the paper's 24-thread searches. Each layer's restart
    seeds are drawn up front from the sweep rng and the layer runs through
    :func:`repro.experiments.common.multi_seed_search`, so inside a
    campaign scope every layer is one journaled job and a resumed or
    replayed sweep returns the same figures as a direct one.
    """
    from repro.experiments.common import multi_seed_search

    rng = make_rng(seed)
    total_energy = 0.0
    total_cycles = 0
    per_layer: List[Tuple[str, float]] = []
    for workload, count in workloads:
        with obs.trace(
            "dse.layer",
            workload=workload.name,
            kind=MapspaceKind(kind).value,
            count=count,
        ):
            seeds = tuple(rng.getrandbits(32) for _ in range(max(1, restarts)))
            best = multi_seed_search(
                arch,
                workload,
                kind,
                objective=objective,
                seeds=seeds,
                max_evaluations=max_evaluations,
                patience=patience,
                constraints=constraints,
            )
            total_energy += best.energy_pj * count
            total_cycles += best.cycles * count
            per_layer.append((workload.name, best.edp))
    return total_energy, total_cycles, per_layer


def sweep_pe_arrays(
    workloads: Sequence[Tuple[Workload, int]],
    kinds: Sequence[Union[str, MapspaceKind]] = (
        MapspaceKind.PFM,
        MapspaceKind.RUBY_S,
    ),
    array_shapes: Sequence[Tuple[int, int]] = DEFAULT_ARRAY_SHAPES,
    arch_builder: Callable[[int, int], Architecture] = eyeriss_like,
    constraints: Optional[ConstraintSet] = None,
    max_evaluations: int = 2_000,
    patience: Optional[int] = 500,
    seed: Optional[int] = None,
    restarts: int = 1,
) -> SweepResult:
    """Run the Fig. 13/14 sweep: every shape x every mapspace kind."""
    rng = make_rng(seed)
    result = SweepResult()
    for mesh_x, mesh_y in array_shapes:
        arch = arch_builder(mesh_x, mesh_y)
        area = estimate_area_mm2(arch)
        for kind in kinds:
            energy, cycles, per_layer = evaluate_network(
                arch,
                workloads,
                kind,
                constraints=constraints,
                max_evaluations=max_evaluations,
                patience=patience,
                seed=rng,
                restarts=restarts,
            )
            result.points.append(
                DesignPoint(
                    mesh_x=mesh_x,
                    mesh_y=mesh_y,
                    kind=MapspaceKind(kind),
                    area_mm2=area,
                    energy_pj=energy,
                    cycles=cycles,
                    per_workload_edp=tuple(per_layer),
                )
            )
    return result


DEFAULT_GLB_SWEEP_BYTES: Tuple[int, ...] = (
    32 * 1024,
    64 * 1024,
    128 * 1024,
    256 * 1024,
    512 * 1024,
)


def sweep_glb_sizes(
    workloads: Sequence[Tuple[Workload, int]],
    kinds: Sequence[Union[str, MapspaceKind]] = (
        MapspaceKind.PFM,
        MapspaceKind.RUBY_S,
    ),
    glb_bytes_options: Sequence[int] = DEFAULT_GLB_SWEEP_BYTES,
    mesh_x: int = 14,
    mesh_y: int = 12,
    constraints: Optional[ConstraintSet] = None,
    max_evaluations: int = 2_000,
    patience: Optional[int] = 500,
    seed: Optional[int] = None,
    restarts: int = 1,
) -> SweepResult:
    """Co-design along the buffer axis: sweep the global-buffer capacity.

    Complements the PE-array sweep of Figs. 13/14 — the other lever an
    architect trades against EDP. Points reuse :class:`DesignPoint`; the
    GLB size is recoverable from the area (monotone) and the point label.
    """
    rng = make_rng(seed)
    result = SweepResult()
    for glb_bytes in glb_bytes_options:
        arch = eyeriss_like(
            mesh_x,
            mesh_y,
            glb_bytes=glb_bytes,
            name=f"eyeriss-like-{mesh_x}x{mesh_y}-glb{glb_bytes // 1024}k",
        )
        area = estimate_area_mm2(arch)
        for kind in kinds:
            energy, cycles, per_layer = evaluate_network(
                arch,
                workloads,
                kind,
                constraints=constraints,
                max_evaluations=max_evaluations,
                patience=patience,
                seed=rng,
                restarts=restarts,
            )
            result.points.append(
                DesignPoint(
                    mesh_x=mesh_x,
                    mesh_y=mesh_y,
                    kind=MapspaceKind(kind),
                    area_mm2=area,
                    energy_pj=energy,
                    cycles=cycles,
                    per_workload_edp=tuple(per_layer),
                    label=f"glb{glb_bytes // 1024}k",
                )
            )
    return result

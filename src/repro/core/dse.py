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
from repro.core.mapper import Mapper, MapperConfig
from repro.energy.area import estimate_area_mm2
from repro.exceptions import SearchError
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
    strategy: str = "random",
) -> Tuple[float, int, List[Tuple[str, float]]]:
    """Search every layer; return (total energy, total cycles, per-layer EDP).

    ``workloads`` pairs each unique layer with its occurrence count in the
    network (ResNet-50 repeats layer shapes many times). ``restarts``
    independent searches run per layer and the best wins — the laptop-scale
    stand-in for the paper's 24-thread searches. ``strategy`` selects the
    per-layer searcher (any :class:`MapperConfig` strategy, e.g.
    "branch-bound" for exact sweeps of enumerable spaces); campaign-mode
    runs journal random searches and ignore it.
    """
    from repro.search.campaign import active_campaign

    rng = make_rng(seed)
    campaign = active_campaign()
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
            if campaign is not None:
                # Campaign mode: derive the restart seeds up front (the
                # shared rng stream stays identical whether a job runs
                # fresh or is replayed from the journal, so resume keeps
                # exact parity) and run the whole multi-restart search as
                # one journaled job. Note the integer seeds start fresh
                # streams, so campaign-mode results are deterministic but
                # not identical to the non-campaign path, which threads
                # the live rng through.
                from repro.search.campaign import (
                    CampaignJob,
                    default_job_id,
                    run_job_under_scope,
                )

                job_seeds = tuple(
                    rng.getrandbits(32) for _ in range(max(1, restarts))
                )
                job = CampaignJob(
                    job_id=default_job_id(
                        arch, workload, kind, objective, max_evaluations,
                        patience, job_seeds,
                    ),
                    arch=arch,
                    workload=workload,
                    kind=MapspaceKind(kind).value,
                    objective=objective,
                    max_evaluations=max_evaluations,
                    patience=patience,
                    seeds=job_seeds,
                    constraints=constraints,
                )
                best = run_job_under_scope(campaign, job)
                total_energy += best.energy_pj * count
                total_cycles += best.cycles * count
                per_layer.append((workload.name, best.edp))
                continue
            config = MapperConfig(
                kind=kind,
                objective=objective,
                strategy=strategy,
                max_evaluations=max_evaluations,
                patience=patience,
                constraints=constraints,
            )
            mapper = Mapper(arch, workload, config)
            best = None
            for _ in range(max(1, restarts)):
                result = mapper.run(seed=rng)
                if result.best is None:
                    continue
                if best is None or result.best.metric(
                    objective
                ) < best.metric(objective):
                    best = result.best
            if best is None:
                raise SearchError(
                    f"no valid {MapspaceKind(kind).value} mapping found for "
                    f"{workload.name} on {arch.name}"
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

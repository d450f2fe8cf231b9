"""Ablation studies for the reproduction's own design choices.

Three ablations back the modelling decisions DESIGN.md calls out:

* **mesh**: the misalignment Ruby-S exploits comes from the *2-D* PE mesh
  (per-axis fit), not from the PE count. Flattening the 14x12 array into a
  1-D fanout of 168 lets PFM tile AlexNet conv2 well, erasing most of the
  gap — evidence that per-axis spatial modelling is load-bearing for the
  paper's results.
* **sampling**: the structured imperfect-bound sampler (divisors + cap
  oversampled) vs a uniform sampler on an *aligned* layer. Both sample the
  same mapspace; structured sampling recovers PFM-quality mappings at
  small budgets where uniform sampling wanders.
* **search**: the paper claims Ruby is orthogonal to search strategy —
  a GAMMA-style genetic search over the Ruby-S space should find mappings
  at least as good as random sampling at a comparable evaluation count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.arch.eyeriss import eyeriss_like
from repro.core.report import format_table
from repro.mapspace.constraints import eyeriss_row_stationary
from repro.mapspace.generator import MapSpace, MapspaceKind
from repro.model.evaluator import Evaluation, Evaluator
from repro.problem.conv import ConvLayer
from repro.search.genetic import GeneticSearch
from repro.search.random_search import RandomSearch
from repro.zoo.alexnet import alexnet_conv2


@dataclass
class MeshAblationResult:
    """Best utilizations with a 2-D mesh vs a flattened 1-D fanout."""

    pfm_mesh: Evaluation
    pfm_flat: Evaluation
    ruby_s_mesh: Evaluation


def run_mesh_ablation(
    seeds: Sequence[int] = (1, 2, 3),
    max_evaluations: int = 3_000,
) -> MeshAblationResult:
    """PFM on mesh vs flat vs Ruby-S on mesh, maximizing utilization."""
    from repro.experiments.common import multi_seed_search

    workload = alexnet_conv2()
    constraints = eyeriss_row_stationary()
    mesh = eyeriss_like()
    flat = eyeriss_like(flat_mesh=True)
    pfm_mesh = multi_seed_search(
        mesh, workload, "pfm", objective="delay", seeds=seeds,
        max_evaluations=max_evaluations, constraints=constraints,
    )
    # The flat array has no axes, so the per-axis split constraint does not
    # apply; PFM may combine any divisors up to 168.
    pfm_flat = multi_seed_search(
        flat, workload, "pfm", objective="delay", seeds=seeds,
        max_evaluations=max_evaluations,
    )
    ruby_s_mesh = multi_seed_search(
        mesh, workload, "ruby-s", objective="delay", seeds=seeds,
        max_evaluations=max_evaluations, constraints=constraints,
    )
    return MeshAblationResult(
        pfm_mesh=pfm_mesh, pfm_flat=pfm_flat, ruby_s_mesh=ruby_s_mesh
    )


def format_mesh_ablation(result: MeshAblationResult) -> str:
    rows = [
        ["pfm on 14x12 mesh", result.pfm_mesh.utilization],
        ["pfm on flat 168-wide fanout", result.pfm_flat.utilization],
        ["ruby-s on 14x12 mesh", result.ruby_s_mesh.utilization],
    ]
    return format_table(
        ["configuration", "peak utilization"],
        rows,
        title="Ablation: per-axis mesh modelling (AlexNet conv2)",
    )


@dataclass
class SamplerAblationResult:
    """Structured vs uniform imperfect-bound sampling on an aligned layer."""

    structured: Evaluation
    uniform: Evaluation
    pfm_reference: Evaluation


def run_sampler_ablation(
    seed: int = 0,
    max_evaluations: int = 3_000,
) -> SamplerAblationResult:
    """Ruby-S with both samplers vs the PFM reference on an aligned layer."""
    arch = eyeriss_like()
    workload = ConvLayer(
        "aligned_3x3", c=128, m=128, p=28, q=28, r=3, s=3
    ).workload()
    constraints = eyeriss_row_stationary()
    evaluator = Evaluator(arch, workload)

    def best(kind: str, sampling: str) -> Evaluation:
        space = MapSpace(
            arch, workload, MapspaceKind(kind), constraints, sampling=sampling
        )
        result = RandomSearch(
            space, evaluator, max_evaluations=max_evaluations,
            patience=None, seed=seed,
        ).run()
        return result.best

    return SamplerAblationResult(
        structured=best("ruby-s", "structured"),
        uniform=best("ruby-s", "uniform"),
        pfm_reference=best("pfm", "structured"),
    )


def format_sampler_ablation(result: SamplerAblationResult) -> str:
    rows = [
        ["ruby-s / structured sampler", result.structured.edp],
        ["ruby-s / uniform sampler", result.uniform.edp],
        ["pfm reference", result.pfm_reference.edp],
    ]
    return format_table(
        ["configuration", "best EDP"],
        rows,
        title="Ablation: imperfect-bound sampling (aligned 3x3 layer)",
    )


@dataclass
class SearchAblationResult:
    """Genetic vs random search over the same Ruby-S mapspace."""

    random: Evaluation
    genetic: Evaluation
    random_evaluations: int
    genetic_evaluations: int


def run_search_ablation(
    seed: int = 0,
    population: int = 40,
    max_evaluations: int = 1_240,
    workload=None,
) -> SearchAblationResult:
    """Compare search strategies (default: a misaligned pointwise layer)."""
    arch = eyeriss_like()
    if workload is None:
        workload = ConvLayer("pw_misaligned", c=2048, m=512, p=7, q=7).workload()
    constraints = eyeriss_row_stationary()
    evaluator = Evaluator(arch, workload)
    space = MapSpace(arch, workload, MapspaceKind.RUBY_S, constraints)
    genetic_result = GeneticSearch(
        space, evaluator, population_size=population,
        max_evaluations=max_evaluations, seed=seed,
    ).run()
    random_result = RandomSearch(
        space, evaluator, max_evaluations=genetic_result.num_evaluated,
        patience=None, seed=seed,
    ).run()
    return SearchAblationResult(
        random=random_result.best,
        genetic=genetic_result.best,
        random_evaluations=random_result.num_evaluated,
        genetic_evaluations=genetic_result.num_evaluated,
    )


def format_search_ablation(result: SearchAblationResult) -> str:
    rows = [
        ["random sampling", result.random_evaluations, result.random.edp],
        ["genetic (GAMMA-style)", result.genetic_evaluations, result.genetic.edp],
    ]
    return format_table(
        ["strategy", "evaluations", "best EDP"],
        rows,
        title="Ablation: search strategy over the Ruby-S mapspace",
    )

"""Shared helpers for the experiment harnesses."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Union

from repro.arch.spec import Architecture
from repro.mapspace.constraints import ConstraintSet
from repro.mapspace.generator import MapspaceKind
from repro.model.evaluator import Evaluation
from repro.problem.workload import Workload
from repro.search.campaign import (
    CampaignJob,
    active_session,
    best_of_seeds,
    default_job_id,
)


def multi_seed_search(
    arch: Architecture,
    workload: Workload,
    kind: Union[str, MapspaceKind],
    objective: str = "edp",
    seeds: Sequence[int] = (1, 2, 3),
    max_evaluations: int = 3_000,
    patience: Optional[int] = 1_000,
    constraints: Optional[ConstraintSet] = None,
) -> Evaluation:
    """Best evaluation over several independent random-search starts.

    The paper's searches run 3000-patience across 24 threads; a few
    independent seeds at a smaller budget is the laptop-scale equivalent
    that keeps the variance of the best-found mapping manageable.

    The search is always described as one :class:`CampaignJob` and run by
    :func:`repro.search.campaign.search_job`. Inside a
    :func:`repro.search.campaign.campaign_scope` the job goes to the
    scope's session and is journaled (timeout, retry, resume-by-skip);
    otherwise it runs inline. The returned evaluation is identical either
    way.
    """
    job = CampaignJob(
        job_id=default_job_id(
            arch, workload, kind, objective, max_evaluations, patience, seeds
        ),
        arch=arch,
        workload=workload,
        kind=MapspaceKind(kind).value,
        objective=objective,
        max_evaluations=max_evaluations,
        patience=patience,
        seeds=tuple(seeds),
        constraints=constraints,
    )
    session = active_session()
    if session is not None:
        return session.submit(job)
    return best_of_seeds(job).best


def best_metrics_by_kind(
    arch: Architecture,
    workload: Workload,
    kinds: Iterable[Union[str, MapspaceKind]],
    objective: str = "edp",
    seeds: Sequence[int] = (1, 2, 3),
    max_evaluations: int = 3_000,
    patience: Optional[int] = 1_000,
    constraints: Optional[ConstraintSet] = None,
) -> Dict[str, Evaluation]:
    """Run :func:`multi_seed_search` for several mapspace kinds."""
    return {
        MapspaceKind(kind).value: multi_seed_search(
            arch,
            workload,
            kind,
            objective=objective,
            seeds=seeds,
            max_evaluations=max_evaluations,
            patience=patience,
            constraints=constraints,
        )
        for kind in kinds
    }


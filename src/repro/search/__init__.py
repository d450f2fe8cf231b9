"""Mapspace search strategies.

The paper deliberately uses only Timeloop's random-sampling search (with a
consecutive-non-improving termination criterion) so that mapping quality
differences are attributable to the *mapspace*, not the search heuristic.
We provide that search, an exhaustive search for toy studies, and a
GAMMA-style genetic search as an extension — the paper notes Ruby is
orthogonal to and composable with better search.
"""

from repro.search.result import ConvergencePoint, SearchResult
from repro.search.random_search import RandomSearch
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.branch_bound import BranchBoundSearch
from repro.search.genetic import GeneticSearch
from repro.search.annealing import SimulatedAnnealing
from repro.search.pareto_search import ParetoSearch, ParetoSearchResult
from repro.search.campaign import (
    CampaignConfig,
    CampaignJob,
    CampaignResult,
    JobOutcome,
    campaign_scope,
    campaign_status,
    run_campaign,
)

__all__ = [
    "CampaignConfig",
    "CampaignJob",
    "CampaignResult",
    "JobOutcome",
    "campaign_scope",
    "campaign_status",
    "run_campaign",
    "ConvergencePoint",
    "SearchResult",
    "RandomSearch",
    "ExhaustiveSearch",
    "BranchBoundSearch",
    "GeneticSearch",
    "SimulatedAnnealing",
    "ParetoSearch",
    "ParetoSearchResult",
]

"""Mapspace search strategies.

The paper deliberately uses only Timeloop's random-sampling search (with a
consecutive-non-improving termination criterion) so that mapping quality
differences are attributable to the *mapspace*, not the search heuristic.
We provide that search, an exhaustive search for toy studies, and a
GAMMA-style genetic search as an extension — the paper notes Ruby is
orthogonal to and composable with better search.
"""

from repro._exports import lazy_exports

#: Search strategies a :class:`~repro.core.mapper.MapperConfig` can name.
STRATEGIES = ("random", "exhaustive", "branch-bound", "genetic")

#: Strategies that can fan out over ``MapperConfig.workers`` processes.
POOLED_STRATEGIES = ("random", "branch-bound")

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".campaign": (
        "CampaignConfig",
        "CampaignJob",
        "CampaignResult",
        "JobOutcome",
        "campaign_scope",
        "campaign_status",
        "run_campaign",
    ),
    ".result": ("ConvergencePoint", "SearchResult"),
    ".random_search": ("RandomSearch",),
    ".exhaustive": ("ExhaustiveSearch",),
    ".branch_bound": ("BranchBoundSearch",),
    ".genetic": ("GeneticSearch",),
    ".pareto_search": ("ParetoSearch", "ParetoSearchResult"),
}, own=("STRATEGIES", "POOLED_STRATEGIES"))

"""How a search is configured: value checks at every boundary, and the
batch size as a constant of the pricing layer that never changes an
answer."""

import pytest

from repro.arch import toy_glb_architecture
from repro.core import MapperConfig, find_best_mapping
from repro.exceptions import SearchError, SpecError
from repro.mapspace.factory import make_mapspace
from repro.model import Evaluator
from repro.problem import GemmLayer
from repro.search import (
    BranchBoundSearch,
    ExhaustiveSearch,
    GeneticSearch,
    RandomSearch,
)
from repro.search.campaign import CampaignJob, search_job
from repro.search.pareto_search import ParetoSearch
from repro.service import parse_search_spec


def _toy(kind="pfm"):
    arch = toy_glb_architecture(num_pes=6, glb_bytes=1024)
    workload = GemmLayer("g12x10x8", m=12, n=10, k=8).workload()
    return make_mapspace(arch, workload, kind), Evaluator(arch, workload)


#: Search values no pricer accepts, as (field, value) pairs.
BAD_VALUES = [
    ("objective", "bogus"),
    ("objective", None),
    ("kind", "bogus"),
    ("strategy", "bogus"),
    ("max_evaluations", "x"),
    ("max_evaluations", 0),
    ("max_evaluations", 2.5),
    ("max_evaluations", True),
    ("patience", 0),
    ("patience", "x"),
    ("seed", [1]),
    ("seed", 1.5),
    ("use_batch", "no"),
]


@pytest.mark.parametrize("use_batch", [True, False])
@pytest.mark.parametrize("field,value", BAD_VALUES)
class TestBadValuesRejected:
    """Each bad value fails the same way on both pricing paths, before
    any search starts."""

    def test_mapper_config(self, field, value, use_batch):
        with pytest.raises(SearchError, match=field):
            MapperConfig(**{"use_batch": use_batch, field: value})

    def test_find_best_mapping(self, field, value, use_batch):
        space, _ = _toy()
        with pytest.raises(SearchError, match=field):
            find_best_mapping(
                space.arch, space.workload,
                **{"use_batch": use_batch, field: value},
            )

    def test_service_spec(self, field, value, use_batch):
        payload = {
            "arch": "toy16",
            "workload": {"gemm": {"m": 8, "n": 4, "k": 4}},
            "use_batch": use_batch,
            field: value,
        }
        with pytest.raises(SpecError, match=field):
            parse_search_spec(payload)


def _searchers(objective, use_batch):
    space, evaluator = _toy()
    common = dict(objective=objective, use_batch=use_batch)
    return {
        "random": lambda: RandomSearch(space, evaluator, **common),
        "exhaustive": lambda: ExhaustiveSearch(space, evaluator, **common),
        "branch-bound": lambda: BranchBoundSearch(space, evaluator, **common),
        "genetic": lambda: GeneticSearch(space, evaluator, **common),
        "parallel": lambda: search_job(
            CampaignJob(
                job_id="seeds", arch=space.arch, workload=space.workload,
                objective=objective, seeds=(1, 2),
            ),
            workers=2, use_batch=use_batch,
        ),
    }


@pytest.mark.parametrize("use_batch", [True, False])
@pytest.mark.parametrize(
    "searcher",
    ["random", "exhaustive", "branch-bound", "genetic", "parallel"],
)
def test_every_searcher_rejects_an_unknown_objective(searcher, use_batch):
    make = _searchers("bogus", use_batch)[searcher]
    with pytest.raises(SearchError, match="objective"):
        search = make()
        search.run()


@pytest.mark.parametrize("use_batch", [True, False])
@pytest.mark.parametrize(
    "make",
    [
        lambda s, e, **kw: RandomSearch(s, e, max_evaluations="x", **kw),
        lambda s, e, **kw: RandomSearch(s, e, patience=1.5, **kw),
        lambda s, e, **kw: ParetoSearch(s, e, max_evaluations=0, **kw),
        lambda s, e, **kw: BranchBoundSearch(s, e, warm_samples=1.5, **kw),
        lambda s, e, **kw: BranchBoundSearch(s, e, leaf_width=2.5, **kw),
        lambda s, e, **kw: BranchBoundSearch(s, e, workers=True, **kw),
        lambda s, e, **kw: BranchBoundSearch(s, e, limit="x", **kw),
        lambda s, e, **kw: BranchBoundSearch(s, e, limit=0, **kw),
        lambda s, e, **kw: ExhaustiveSearch(s, e, limit="x", **kw),
        lambda s, e, **kw: ExhaustiveSearch(s, e, limit=None, **kw),
    ],
    ids=["random-budget", "random-patience", "pareto-budget",
         "bnb-warm-samples", "bnb-leaf-width", "bnb-workers", "bnb-limit",
         "bnb-limit-zero", "exhaustive-limit", "exhaustive-limit-none"],
)
def test_sampling_searchers_reject_bad_counts(make, use_batch):
    space, evaluator = _toy()
    with pytest.raises(SearchError):
        make(space, evaluator, use_batch=use_batch)


@pytest.mark.parametrize("alias", ["cycles", "latency"])
def test_delay_aliases_search_delay(alias):
    """The aliases Evaluation.metric accepts price as "delay" on the
    kernels and in the bound engine, so exact searches stay exact."""
    space, evaluator = _toy()
    exact = ExhaustiveSearch(space, evaluator, objective="delay").run()
    for search in (
        ExhaustiveSearch(space, evaluator, objective=alias),
        BranchBoundSearch(space, evaluator, objective=alias, seed=0),
    ):
        result = search.run()
        assert result.objective == "delay"
        assert result.best_metric == exact.best_metric
    config = MapperConfig(objective=alias)
    assert config.objective == "delay"


# -- the batch size never changes an answer ----------------------------------


def _run_fingerprint(result):
    curve = getattr(result, "curve", None)
    if curve is None:  # a Pareto result keeps a frontier instead
        best = tuple(
            (e.energy_pj, e.cycles, e.mapping.signature())
            for e in result.frontier
        )
    else:
        best = (result.best_metric, result.best.mapping.signature())
        curve = [(p.evaluations, p.best_metric) for p in curve]
    return (
        best,
        curve,
        result.num_evaluated,
        result.num_valid,
        result.stats["bnb"] if "bnb" in result.stats else None,
    )


_RUNS = {
    "random": lambda s, e: RandomSearch(
        s, e, max_evaluations=900, patience=200, seed=3
    ),
    "pareto": lambda s, e: ParetoSearch(s, e, max_evaluations=400, seed=3),
    # The limit is the space's exact candidate count: a cap that binds.
    "exhaustive-limit": lambda s, e: ExhaustiveSearch(s, e, limit=7_632),
    "branch-bound": lambda s, e: BranchBoundSearch(
        s, e, seed=0, leaf_width=64
    ),
}


@pytest.mark.parametrize("run", sorted(_RUNS))
def test_batch_size_never_changes_an_answer(run, set_batch_size):
    fingerprints = []
    for size in (1, 7, 512):
        set_batch_size(size)
        space, evaluator = _toy()
        result = _RUNS[run](space, evaluator).run()
        fingerprints.append(_run_fingerprint(result))
    assert fingerprints[0] == fingerprints[1] == fingerprints[2]
    if run == "branch-bound":
        assert fingerprints[0][4]["subtrees_pruned"] > 0


def test_batch_size_never_changes_the_parallel_optimum(set_batch_size):
    """With workers sharing an incumbent, how many rows each prices, and
    which of several tied mappings it claims, depends on when it reads
    the others' improvements, at any batch size; the optimal metric the
    driver re-prices does not."""
    space, evaluator = _toy()
    exact = ExhaustiveSearch(space, evaluator).run().best_metric
    for size in (1, 7, 512):
        set_batch_size(size)
        space, evaluator = _toy()
        result = BranchBoundSearch(
            space, evaluator, seed=0, leaf_width=64, workers=2
        ).run()
        assert result.best_metric == exact

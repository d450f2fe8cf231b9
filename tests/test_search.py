"""Unit tests for the search strategies."""

import hashlib

import pytest

from repro.arch import eyeriss_like
from repro.core import find_best_mapping
from repro.exceptions import SearchError
from repro.mapspace import pfm_mapspace, ruby_s_mapspace
from repro.mapspace.factory import make_mapspace
from repro.model import Evaluator
from repro.problem import GemmLayer
from repro.search import (
    ExhaustiveSearch,
    GeneticSearch,
    RandomSearch,
)
from repro.search.result import ConvergencePoint, SearchResult


class TestRandomSearch:
    def test_finds_valid_mapping(self, toy_arch, vector100, toy_evaluator):
        space = pfm_mapspace(toy_arch, vector100)
        result = RandomSearch(
            space, toy_evaluator, seed=0, max_evaluations=500
        ).run()
        assert result.best is not None
        assert result.best.valid
        assert result.num_valid > 0

    def test_deterministic_given_seed(self, toy_arch, vector100, toy_evaluator):
        space = ruby_s_mapspace(toy_arch, vector100)
        a = RandomSearch(
            space, toy_evaluator, seed=42, max_evaluations=300
        ).run()
        b = RandomSearch(
            space, toy_evaluator, seed=42, max_evaluations=300
        ).run()
        assert a.best_metric == b.best_metric
        assert a.num_valid == b.num_valid

    def test_patience_terminates_early(self, toy_arch, vector100, toy_evaluator):
        space = pfm_mapspace(toy_arch, vector100)
        result = RandomSearch(
            space, toy_evaluator, seed=0, max_evaluations=100_000, patience=50
        ).run()
        assert result.terminated_by == "patience"
        assert result.num_evaluated < 100_000

    def test_budget_termination(self, toy_arch, vector100, toy_evaluator):
        space = pfm_mapspace(toy_arch, vector100)
        result = RandomSearch(
            space, toy_evaluator, seed=0, max_evaluations=20, patience=None
        ).run()
        assert result.terminated_by == "budget"
        assert result.num_evaluated == 20

    def test_curve_monotone_decreasing(self, toy_arch, vector100, toy_evaluator):
        space = ruby_s_mapspace(toy_arch, vector100)
        result = RandomSearch(
            space, toy_evaluator, seed=1, max_evaluations=500
        ).run()
        metrics = [p.best_metric for p in result.curve]
        assert metrics == sorted(metrics, reverse=True)

    def test_objective_energy(self, toy_arch, vector100, toy_evaluator):
        space = pfm_mapspace(toy_arch, vector100)
        result = RandomSearch(
            space, toy_evaluator, objective="energy", seed=0, max_evaluations=300
        ).run()
        assert result.best_metric == pytest.approx(result.best.energy_pj)

    def test_rejects_bad_budget(self, toy_arch, vector100, toy_evaluator):
        space = pfm_mapspace(toy_arch, vector100)
        with pytest.raises(SearchError):
            RandomSearch(space, toy_evaluator, max_evaluations=0)

    def test_rejects_bad_patience(self, toy_arch, vector100, toy_evaluator):
        space = pfm_mapspace(toy_arch, vector100)
        with pytest.raises(SearchError):
            RandomSearch(space, toy_evaluator, patience=0)


class TestExhaustiveSearch:
    def test_finds_global_best(self, toy_arch, vector100, toy_evaluator):
        space = pfm_mapspace(toy_arch, vector100)
        result = ExhaustiveSearch(space, toy_evaluator).run()
        assert result.terminated_by == "exhausted"
        # Random search can never beat the exhaustive optimum.
        sampled = RandomSearch(
            space, toy_evaluator, seed=0, max_evaluations=2000
        ).run()
        assert result.best_metric <= sampled.best_metric

    def test_limit_enforced(self, linear_arch9, toy_evaluator):
        from repro.problem.gemm import vector_workload
        from repro.mapspace import ruby_mapspace

        w = vector_workload("v", 500)
        space = ruby_mapspace(linear_arch9, w)
        evaluator = Evaluator(linear_arch9, w)
        with pytest.raises(SearchError):
            ExhaustiveSearch(space, evaluator, limit=50).run()

    def test_counts_unique_only(self, toy_arch, vector100, toy_evaluator):
        space = pfm_mapspace(toy_arch, vector100)
        result = ExhaustiveSearch(space, toy_evaluator).run()
        assert result.num_valid <= result.num_evaluated


class TestGeneticSearch:
    def test_runs_and_finds_valid(self, toy_arch, vector100, toy_evaluator):
        space = ruby_s_mapspace(toy_arch, vector100)
        search = GeneticSearch(
            space, toy_evaluator, population_size=10, max_evaluations=60,
            seed=0,
        )
        result = search.run()
        assert result.best is not None
        assert result.best.valid

    def test_deterministic(self, toy_arch, vector100, toy_evaluator):
        space = ruby_s_mapspace(toy_arch, vector100)
        a = GeneticSearch(space, toy_evaluator, population_size=8,
                          max_evaluations=40, seed=7).run()
        b = GeneticSearch(space, toy_evaluator, population_size=8,
                          max_evaluations=40, seed=7).run()
        assert a.best_metric == b.best_metric

    def test_at_least_matches_random_on_toy(self, toy_arch, vector100,
                                            toy_evaluator):
        space = ruby_s_mapspace(toy_arch, vector100)
        genetic = GeneticSearch(
            space, toy_evaluator, population_size=20, max_evaluations=220,
            seed=3,
        ).run()
        rand = RandomSearch(
            space, toy_evaluator, seed=3,
            max_evaluations=genetic.num_evaluated // 2, patience=None,
        ).run()
        assert genetic.best_metric <= rand.best_metric * 1.2

    def test_rejects_bad_params(self, toy_arch, vector100, toy_evaluator):
        space = ruby_s_mapspace(toy_arch, vector100)
        with pytest.raises(SearchError):
            GeneticSearch(space, toy_evaluator, population_size=1)
        with pytest.raises(SearchError):
            GeneticSearch(space, toy_evaluator, mutation_rate=2.0)
        with pytest.raises(SearchError, match="max_evaluations"):
            GeneticSearch(space, toy_evaluator, max_evaluations="x")

    def test_budget_below_two_populations_refused_before_pricing(
        self, toy_arch, vector100, toy_evaluator
    ):
        space = ruby_s_mapspace(toy_arch, vector100)
        with pytest.raises(SearchError, match=r"max_evaluations .*>= 20"):
            GeneticSearch(
                space, toy_evaluator, population_size=10, max_evaluations=19
            )
        search = GeneticSearch(
            space, toy_evaluator, population_size=10, max_evaluations=20,
            seed=0,
        )
        assert search.run().num_evaluated == 20

    @pytest.mark.parametrize("budget", [3_000, 3_020])
    def test_mapper_budget_bounds_the_run(self, toy_arch, vector100, budget):
        # Whole populations of 50 only: a budget that is not a multiple
        # of the population leaves the remainder unspent.
        result = find_best_mapping(
            toy_arch, vector100, strategy="genetic", max_evaluations=budget,
            seed=0,
        )
        assert result.num_evaluated == 3_000


def _run_digest(result) -> str:
    key = (
        repr(result.best.mapping.signature()),
        result.best_metric.hex(),
        result.num_evaluated,
        tuple((p.evaluations, p.best_metric.hex()) for p in result.curve),
    )
    return hashlib.sha256(repr(key).encode()).hexdigest()


#: sha256 of (best mapping signature, best metric, evaluations, curve) of
#: a genetic run on a 12x10x8 GEMM over Eyeriss's Ruby-S space, for every
#: (population, generations, seed) the suite used when ``GeneticSearch``
#: took a generation count, recorded from that count. Each is rerun from
#: the budget ``(generations + 1) * population``.
_GENERATION_DIGESTS = {
    (10, 5, 0): "7cc516b62510952894c3cc6cdc857ee0"
                "9cb7e27003bbcaba9693d324827337f7",
    (8, 4, 7): "8c6d6f3905406776e39d1a29f477366c"
               "712c04ddc7ab78b944e6c6a050ac970e",
    (20, 10, 3): "e4440e86d6c4ebe589a3c37d9044b3c5"
                 "f3e78dca1c0809b470e26acbd6e69815",
    (14, 5, 21): "ae6e376e591671de260277e410265acf"
                 "89405c71f3b56a4eed8c530f915ba333",
    (12, 6, 4): "2007eddda78dcb0dfa7515362ec66811"
                "59ff77b530e34a3d551f1ce080e2558a",
    (8, 3, 0): "cbbf823aa04c5d2937c01398f2a77b44"
               "9c8cfd55a6a1b096d24d34641dd23b62",
    (10, 4, 0): "93057f6337d7059122337a3f496ea2f4"
                "8567d2dccca85f34a03ffc6333e20c1a",
    (8, 2, 0): "41a0ed76e3c9aa2198b748973ea8e695"
               "a5bcbc20f975f8a065940860afd1484a",
    (16, 6, 3): "0f6d752d599e37ab9e0c2ab8311a1678"
                "65db17efb2cd58fd365355e33ccdd615",
    (8, 4, 0): "c2531bf9a950dd783d01e589f392b000"
               "dbd75665e616c8e1e8232524d9748fa5",
    (50, 20, 0): "301103c2daa37582659c667d78449c23"
                 "4ebc3847bfc1199dd06b20e5890dc9fe",
}


@pytest.mark.parametrize("population, generations, seed", sorted(
    _GENERATION_DIGESTS
))
def test_budget_retraces_the_generation_count(population, generations, seed):
    arch = eyeriss_like()
    workload = GemmLayer("gemm", m=12, n=10, k=8).workload()
    result = GeneticSearch(
        make_mapspace(arch, workload, "ruby-s"),
        Evaluator(arch, workload),
        population_size=population,
        max_evaluations=(generations + 1) * population,
        seed=seed,
    ).run()
    assert result.num_evaluated == (generations + 1) * population
    assert _run_digest(result) == _GENERATION_DIGESTS[
        population, generations, seed
    ]


class TestSearchResult:
    def test_best_so_far_series(self):
        result = SearchResult(
            best=None,
            objective="edp",
            num_evaluated=10,
            num_valid=5,
            terminated_by="budget",
            curve=[
                ConvergencePoint(evaluations=3, best_metric=10.0),
                ConvergencePoint(evaluations=7, best_metric=4.0),
            ],
        )
        series = result.best_so_far_series(10)
        assert series[0] == float("inf")
        assert series[2] == 10.0
        assert series[5] == 10.0
        assert series[6] == 4.0
        assert series[9] == 4.0

    def test_best_metric_none_when_no_best(self):
        result = SearchResult(
            best=None, objective="edp", num_evaluated=0, num_valid=0,
            terminated_by="budget",
        )
        assert result.best_metric is None

"""Unit tests for the search strategies."""

import pytest

from repro.exceptions import SearchError
from repro.mapspace import pfm_mapspace, ruby_s_mapspace
from repro.model import Evaluator
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
            space, toy_evaluator, population_size=10, generations=5, seed=0
        )
        result = search.run()
        assert result.best is not None
        assert result.best.valid

    def test_deterministic(self, toy_arch, vector100, toy_evaluator):
        space = ruby_s_mapspace(toy_arch, vector100)
        a = GeneticSearch(space, toy_evaluator, population_size=8,
                          generations=4, seed=7).run()
        b = GeneticSearch(space, toy_evaluator, population_size=8,
                          generations=4, seed=7).run()
        assert a.best_metric == b.best_metric

    def test_at_least_matches_random_on_toy(self, toy_arch, vector100,
                                            toy_evaluator):
        space = ruby_s_mapspace(toy_arch, vector100)
        genetic = GeneticSearch(
            space, toy_evaluator, population_size=20, generations=10, seed=3
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

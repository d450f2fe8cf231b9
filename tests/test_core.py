"""Unit tests for the core package (mapper facade, metrics, reports)."""

import pytest

from repro.core import (
    Mapper,
    MapperConfig,
    find_best_mapping,
    format_table,
    geometric_mean,
    improvement_percent,
    normalize_to,
)
from repro.exceptions import SearchError


class TestMapper:
    def test_default_config_runs(self, toy_arch, vector100):
        mapper = Mapper(
            toy_arch,
            vector100,
            MapperConfig(max_evaluations=300, patience=100, seed=0),
        )
        result = mapper.run()
        assert result.best is not None

    def test_find_best_mapping_one_call(self, toy_arch, vector100):
        result = find_best_mapping(
            toy_arch, vector100, kind="ruby-s", seed=0, max_evaluations=300
        )
        assert result.best.valid
        assert result.objective == "edp"

    def test_seed_override(self, toy_arch, vector100):
        mapper = Mapper(
            toy_arch, vector100,
            MapperConfig(max_evaluations=200, patience=None, seed=1),
        )
        a = mapper.run(seed=5)
        mapper2 = Mapper(
            toy_arch, vector100,
            MapperConfig(max_evaluations=200, patience=None, seed=2),
        )
        b = mapper2.run(seed=5)
        assert a.best_metric == b.best_metric

    def test_exhaustive_strategy(self, toy_arch, vector100):
        result = find_best_mapping(
            toy_arch, vector100, kind="pfm", strategy="exhaustive"
        )
        assert result.terminated_by == "exhausted"

    def test_genetic_strategy(self, toy_arch, vector100):
        result = find_best_mapping(
            toy_arch, vector100, kind="ruby-s", strategy="genetic", seed=0,
            max_evaluations=200,
        )
        assert result.best is not None

    def test_unknown_strategy_rejected(self, toy_arch, vector100):
        with pytest.raises(SearchError):
            find_best_mapping(toy_arch, vector100, strategy="quantum")

    @pytest.mark.parametrize("batch_size", [0, -3])
    @pytest.mark.parametrize(
        "strategy",
        ["random", "exhaustive", "branch-bound", "genetic"],
    )
    def test_bad_batch_size_rejected_for_every_strategy(
        self, toy_arch, vector100, strategy, batch_size
    ):
        # The batch size is a constant of the pricing layer, not a knob.
        with pytest.raises(TypeError, match="batch_size"):
            find_best_mapping(
                toy_arch, vector100, strategy=strategy, batch_size=batch_size
            )

    def test_ruby_s_at_least_as_good_as_pfm_exhaustive(self, toy_arch, vector100):
        # Ruby-S is a strict superset of PFM: its exhaustive optimum can
        # never be worse.
        pfm = find_best_mapping(toy_arch, vector100, kind="pfm",
                                strategy="exhaustive")
        ruby_s = find_best_mapping(toy_arch, vector100, kind="ruby-s",
                                   strategy="exhaustive")
        assert ruby_s.best_metric <= pfm.best_metric


class TestMetrics:
    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_geometric_mean_single(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_geometric_mean_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_normalize_to(self):
        normalized = normalize_to({"pfm": 4.0, "ruby-s": 2.0}, "pfm")
        assert normalized == {"pfm": 1.0, "ruby-s": 0.5}

    def test_normalize_rejects_zero_baseline(self):
        with pytest.raises(ValueError):
            normalize_to({"pfm": 0.0}, "pfm")

    def test_improvement_percent(self):
        assert improvement_percent(100.0, 50.0) == pytest.approx(50.0)
        assert improvement_percent(100.0, 120.0) == pytest.approx(-20.0)


class TestFormatTable:
    def test_contains_headers_and_rows(self):
        text = format_table(
            ["layer", "edp"], [["conv1", 1.5], ["conv2", 2.5]], title="T"
        )
        assert "T" in text
        assert "layer" in text and "conv1" in text

    def test_columns_aligned(self):
        text = format_table(["a", "long_header"], [["xxxxxx", 1]])
        lines = text.splitlines()
        assert len(lines[0]) == len(lines[1])

    def test_float_formatting(self):
        text = format_table(["v"], [[1.23456789]])
        assert "1.235" in text


class TestDseSweeps:
    def test_glb_sweep_produces_labeled_points(self):
        from repro.core import sweep_glb_sizes
        from repro.mapspace.constraints import eyeriss_row_stationary
        from repro.problem import ConvLayer

        workloads = [
            (ConvLayer("pw", c=64, m=64, p=14, q=14).workload(), 1),
        ]
        result = sweep_glb_sizes(
            workloads,
            glb_bytes_options=(32 * 1024, 128 * 1024),
            constraints=eyeriss_row_stationary(),
            max_evaluations=300,
            patience=100,
            seed=0,
        )
        assert len(result.points) == 4  # 2 sizes x 2 kinds
        labels = {p.shape_label for p in result.points}
        assert labels == {"glb32k", "glb128k"}
        # Bigger GLB -> bigger area.
        by_label = {}
        for p in result.points:
            by_label.setdefault(p.shape_label, p.area_mm2)
        assert by_label["glb128k"] > by_label["glb32k"]

    def test_glb_sweep_improvements_keyed_by_label(self):
        from repro.core import sweep_glb_sizes
        from repro.problem import GemmLayer

        workloads = [(GemmLayer("g", 96, 8, 64).workload(), 1)]
        result = sweep_glb_sizes(
            workloads,
            glb_bytes_options=(64 * 1024,),
            max_evaluations=300,
            patience=100,
            seed=1,
        )
        improvements = result.improvement_by_shape("ruby-s", "pfm")
        assert set(improvements) == {"glb64k"}

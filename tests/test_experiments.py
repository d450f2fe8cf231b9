"""Unit tests for the experiment harnesses (tiny budgets — shape only).

The benchmarks assert the paper's claims at realistic budgets; these tests
only verify that every harness runs end to end, produces well-formed
results, and renders a report.
"""

import pytest

from repro.experiments import (
    format_fig7,
    format_fig8,
    format_fig9,
    format_fig10,
    format_fig11,
    format_fig13,
    format_table1,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig13,
    run_fig7_scenario,
    run_table1,
)
from repro.experiments.ablations import (
    format_sampler_ablation,
    format_search_ablation,
    run_sampler_ablation,
    run_search_ablation,
)
from repro.experiments.common import multi_seed_search
from repro.experiments.fig07 import SCENARIOS


class TestFig7Harness:
    def test_runs_and_formats(self):
        result = run_fig7_scenario(
            SCENARIOS["b"](), kinds=("pfm", "ruby-s"), evaluations=200, runs=1
        )
        assert set(result.series) == {"pfm", "ruby-s"}
        assert all(len(s) == 200 for s in result.series.values())
        text = format_fig7(result, checkpoints=(50, 200))
        assert "fig7b" in text and "ruby-s" in text

    def test_single_run_series_monotone_nonincreasing(self):
        # Per-run best-so-far curves are monotone; multi-run means need not
        # be (the averaging denominator grows as runs find their first
        # valid mapping), so check with runs=1.
        result = run_fig7_scenario(
            SCENARIOS["a"](), kinds=("pfm",), evaluations=300, runs=1
        )
        series = result.series["pfm"]
        finite = [v for v in series if v != float("inf")]
        assert all(a >= b for a, b in zip(finite, finite[1:]))

    def test_all_scenarios_constructible(self):
        for key, factory in SCENARIOS.items():
            scenario = factory()
            assert scenario.workload.total_operations > 0

    def test_chart_rendered(self):
        result = run_fig7_scenario(
            SCENARIOS["a"](), kinds=("pfm",), evaluations=100, runs=1
        )
        assert "best EDP vs evaluated mappings" in format_fig7(result)


class TestTable1Harness:
    def test_runs(self):
        result = run_table1(dimension_sizes=(3, 12))
        assert result.sizes == [3, 12]
        assert set(result.raw) == {"pfm", "ruby", "ruby-s", "ruby-t"}
        assert "Table I" in format_table1(result)

    def test_row_lookup(self):
        result = run_table1(dimension_sizes=(8,))
        row = result.row(8)
        assert row["pfm"] <= row["ruby-s"] <= row["ruby"]


class TestFig8Harness:
    def test_runs(self):
        result = run_fig8(sizes=(31, 32), seeds=(0,), max_evaluations=300)
        assert result.sizes == [31, 32]
        assert result.normalized("pfm", 32) >= 0.999
        assert "Fig. 8" in format_fig8(result)


class TestFig9Harness:
    def test_runs(self):
        result = run_fig9(seeds=(0,), max_evaluations=400, patience=150)
        assert result.handcrafted.valid
        assert "Fig. 9" in format_fig9(result)
        assert result.handcrafted.utilization == pytest.approx(135 / 168)


class TestFig10Fig11Harness:
    def test_fig10_tiny(self):
        result = run_fig10(
            representative=True, seeds=(0, 1), max_evaluations=1000,
            patience=400,
        )
        assert len(result.layers) > 5
        assert result.network_edp_ratio > 0
        assert "NETWORK" in format_fig10(result)

    def test_fig11_subset(self):
        result = run_fig11(
            seeds=(0,), max_evaluations=200, patience=80,
            subset=("db_vision_56x56", "db_gemm_ocr"),
        )
        assert len(result.comparisons) == 2
        assert "GEOMEAN" in format_fig11(result, chart=False)


class TestFig13Harness:
    def test_runs_small(self):
        result = run_fig13(
            suite="deepbench",
            shapes=((2, 7), (4, 7)),
            max_evaluations=200,
            patience=80,
        )
        assert len(result.sweep.points) == 4  # 2 shapes x 2 kinds
        improvements = result.improvements()
        assert set(improvements) == {"2x7", "4x7"}
        assert "Figs. 13/14" in format_fig13(result)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_fig13(suite="nope")


class TestAblationHarnesses:
    def test_sampler_ablation_runs(self):
        result = run_sampler_ablation(max_evaluations=200)
        assert result.structured.valid and result.uniform.valid
        assert "Ablation" in format_sampler_ablation(result)

    def test_search_ablation_runs(self):
        from repro.problem import GemmLayer

        result = run_search_ablation(
            population=10, max_evaluations=50,
            workload=GemmLayer("tiny", 24, 6, 8).workload(),
        )
        assert result.genetic.valid and result.random.valid
        assert result.genetic_evaluations == result.random_evaluations
        assert "Ablation" in format_search_ablation(result)


class TestCommonHelpers:
    def test_multi_seed_search_returns_best(self, toy_arch, vector100):
        best = multi_seed_search(
            toy_arch, vector100, "ruby-s", seeds=(0, 1),
            max_evaluations=200, patience=None,
        )
        assert best.valid

    def test_multi_seed_search_raises_when_impossible(self, vector100):
        from repro.arch import toy_glb_architecture
        from repro.exceptions import SearchError

        # A 2-word GLB cannot hold any tile of both tensors.
        impossible = toy_glb_architecture(num_pes=6, glb_bytes=4)
        with pytest.raises(SearchError):
            multi_seed_search(
                impossible, vector100, "pfm", seeds=(0,),
                max_evaluations=50, patience=None,
            )


class TestFig13PaddingPath:
    def test_padding_strategy_points_generated(self):
        result = run_fig13(
            suite="deepbench",
            shapes=((2, 7),),
            max_evaluations=200,
            patience=80,
            include_padding=True,
        )
        assert result.padded_sweep is not None
        assert len(result.padded_sweep.points) == 1
        point = result.padded_sweep.points[0]
        assert point.kind.value == "pfm"


class TestFig11Latency:
    def test_latency_variant_runs(self):
        from repro.experiments.fig11 import run_fig11

        result = run_fig11(
            objective="delay", seeds=(0,), max_evaluations=200, patience=80,
            subset=("db_vision_56x56", "db_gemm_ocr"),
        )
        assert len(result.comparisons) == 2
        assert result.geomean_cycles_ratio > 0

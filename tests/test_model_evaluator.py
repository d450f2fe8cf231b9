"""Unit tests for the Evaluator and Evaluation."""

import pytest

from repro.energy import EnergyTable
from repro.energy.table import LevelEnergy
from repro.mapping import Loop, Mapping
from repro.model import Evaluator


def pfm_mapping():
    return Mapping.from_blocks(
        [
            ("DRAM", [Loop("D", 1)], []),
            ("GlobalBuffer", [Loop("D", 20)], [Loop("D", 5, spatial=True)]),
            ("PERegister", [], []),
        ]
    )


def ruby_mapping():
    return Mapping.from_blocks(
        [
            ("DRAM", [Loop("D", 1)], []),
            ("GlobalBuffer", [Loop("D", 17)], [Loop("D", 6, 4, spatial=True)]),
            ("PERegister", [], []),
        ]
    )


class TestEvaluator:
    def test_paper_toy_edp_improvement(self, toy_evaluator):
        pfm = toy_evaluator.evaluate(pfm_mapping())
        ruby = toy_evaluator.evaluate(ruby_mapping())
        assert pfm.valid and ruby.valid
        # Same data movement, 3 fewer cycles -> ~15% EDP reduction.
        assert ruby.energy_pj == pytest.approx(pfm.energy_pj)
        assert ruby.cycles == 17 and pfm.cycles == 20
        assert ruby.edp == pytest.approx(pfm.edp * 17 / 20)

    def test_invalid_mapping_reported_not_raised(self, toy_evaluator):
        bad = Mapping.from_blocks(
            [
                ("DRAM", [Loop("D", 19)], []),
                ("GlobalBuffer", [], [Loop("D", 5, spatial=True)]),
                ("PERegister", [], []),
            ]
        )
        result = toy_evaluator.evaluate(bad)
        assert not result.valid
        assert result.violations
        assert result.cycles == 0

    def test_energy_breakdown_sums_to_total(self, toy_evaluator):
        result = toy_evaluator.evaluate(pfm_mapping())
        assert sum(result.energy_breakdown_pj.values()) == pytest.approx(
            result.energy_pj
        )

    def test_breakdown_has_compute_entry(self, toy_evaluator):
        result = toy_evaluator.evaluate(pfm_mapping())
        assert result.energy_breakdown_pj["compute"] == pytest.approx(
            100 * toy_evaluator.energy_table.mac_pj
        )

    def test_metric_lookup(self, toy_evaluator):
        result = toy_evaluator.evaluate(pfm_mapping())
        assert result.metric("edp") == result.edp
        assert result.metric("energy") == result.energy_pj
        assert result.metric("delay") == result.cycles
        with pytest.raises(ValueError):
            result.metric("nope")

    def test_custom_energy_table(self, toy_arch, vector100):
        table = EnergyTable(
            levels={
                "DRAM": LevelEnergy(1.0, 1.0),
                "GlobalBuffer": LevelEnergy(1.0, 1.0),
                "PERegister": LevelEnergy(1.0, 1.0),
            },
            mac_pj=0.0,
        )
        evaluator = Evaluator(toy_arch, vector100, energy_table=table)
        result = evaluator.evaluate(pfm_mapping())
        # 100 reads X + 100 writes Y at three levels each, plus 100 reads Y
        # (RMW/drains) and X fills: count explicitly from the access counts.
        total_accesses = sum(result.access_counts.reads.values()) + sum(
            result.access_counts.writes.values()
        )
        assert result.energy_pj == pytest.approx(total_accesses)

    def test_utilization_reported(self, toy_evaluator):
        result = toy_evaluator.evaluate(ruby_mapping())
        assert result.utilization == pytest.approx(100 / (17 * 6))

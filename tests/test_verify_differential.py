"""Tests for the differential runner: path agreement, shrinking, replay.

Also drives ``repro.model.diff`` through differentially-verified
evaluations and pins the reference-sim multicast / spatial-reduction
corner cases with remainders on spatial levels.
"""

import math
import random

import pytest
from hypothesis import given, settings

import repro.model.evaluator as evaluator_module
from repro.arch import toy_glb_architecture
from repro.energy.accelergy import estimate_energy_table
from repro.exceptions import VerificationError
from repro.mapping import Loop, Mapping
from repro.mapspace.generator import MapSpace, MapspaceKind
from repro.model.access_counts import AccessCounts, compute_access_counts
from repro.model.diff import diff_evaluations
from repro.model.evaluator import Evaluator
from repro.model.reference_sim import simulate
from repro.problem import GemmLayer
from repro.verify.differential import (
    DifferentialConfig,
    compare_case,
    replay_counterexample,
    run_differential,
    shrink_case,
    ulp_distance,
)
from repro.verify.strategies import (
    VerifyCase,
    adversarial_cases,
    random_case,
    verify_cases,
)


class TestUlpDistance:
    def test_identity(self):
        assert ulp_distance(1.5, 1.5) == 0
        assert ulp_distance(0.0, 0.0) == 0

    def test_adjacent_doubles(self):
        x = 1.0
        assert ulp_distance(x, math.nextafter(x, 2.0)) == 1
        assert ulp_distance(x, math.nextafter(x, 0.0)) == 1

    def test_non_finite(self):
        assert ulp_distance(1.0, float("nan")) == float("inf")
        assert ulp_distance(1.0, float("inf")) == float("inf")

    def test_sign_straddle(self):
        assert ulp_distance(-1.0, 1.0) > 2**52


class TestCompareCase:
    @pytest.mark.parametrize(
        "name",
        [
            "adv:prime-spatial",
            "adv:r1-temporal",
            "adv:perfect-collapse",
            "adv:imperfect-spatial-gemm",
            "adv:bypass-combo",
            "adv:conv-sliding-window",
        ],
    )
    def test_adversarial_cases_agree(self, name):
        by_name = {c.name: c for c in adversarial_cases(random.Random(0))}
        report = compare_case(by_name[name])
        assert report.ok, [d.describe() for d in report.divergences]
        assert report.ref_sim_checked
        assert "batch-single" in report.paths_checked

    def test_decoys_do_not_perturb(self):
        case = adversarial_cases(random.Random(0))[0]
        rng = random.Random(1)
        decoys = MapSpace(
            case.arch, case.workload, MapspaceKind.RUBY
        ).sample_many(5, rng)
        report = compare_case(case, decoys)
        assert report.ok, [d.describe() for d in report.divergences]
        assert "batch-packed" in report.paths_checked

    @pytest.mark.xfail(
        strict=True,
        reason="cost model over-counts level-0 tensor C on this Ruby-S "
        "GEMM mapping (DRAM K 11 / GlobalBuffer M 2, parFor N 2 and M 12 "
        "last 1): model 260 reads / 286 writes, simulator 40 / 66, "
        "beyond the documented slack",
    )
    def test_seed_15589_counterexample_agrees(self):
        # A rare Hypothesis draw of test_generated_cases_agree, pinned so
        # it fails every run until the model is fixed (then it XPASSes
        # and the strict marker turns that into a failure to remove).
        report = compare_case(random_case(random.Random(15589)))
        assert report.ok, [d.describe() for d in report.divergences]

    @given(case=verify_cases())
    @settings(max_examples=25, deadline=None)
    def test_generated_cases_agree(self, case):
        report = compare_case(case, max_sim_points=5_000)
        assert report.ok, [d.describe() for d in report.divergences]


class TestInjectedFault:
    @pytest.fixture
    def off_by_one(self, monkeypatch):
        real = evaluator_module.compute_access_counts

        def corrupted(arch, workload, mapping):
            counts = real(arch, workload, mapping)
            reads = dict(counts.reads)
            if reads:
                key = sorted(reads)[0]
                reads[key] += 1
            return AccessCounts(reads=reads, writes=dict(counts.writes))

        monkeypatch.setattr(
            evaluator_module, "compute_access_counts", corrupted
        )

    def test_caught_shrunk_and_replayable(self, off_by_one, tmp_path):
        report = run_differential(
            DifferentialConfig(
                cases=30,
                seed=0,
                min_ref_sim=5,
                dump_dir=str(tmp_path),
                max_divergent_cases=1,
            )
        )
        assert not report.ok
        assert report.counterexample_paths
        replayed = replay_counterexample(report.counterexample_paths[0])
        assert not replayed.ok  # fault still injected via the fixture

    def test_shrinker_preserves_divergence(self, off_by_one):
        case = adversarial_cases(random.Random(0))[0]
        shrunk, report = shrink_case(case, budget=60)
        assert not report.ok
        original_size = sum(
            1 for p in case.mapping.placed_loops() if p.loop.bound > 1
        )
        shrunk_size = sum(
            1 for p in shrunk.mapping.placed_loops() if p.loop.bound > 1
        )
        assert shrunk_size <= original_size

    def test_cli_flags_divergence(self, off_by_one, tmp_path):
        from repro.cli import main

        code = main(
            [
                "verify",
                "--quick",
                "--cases",
                "20",
                "--no-parallel",
                "--dump-dir",
                str(tmp_path),
            ]
        )
        assert code == VerificationError.exit_code == 9

    def test_replay_clean_after_fix(self, tmp_path):
        # Dump a counterexample under the fault, then replay without it.
        real = evaluator_module.compute_access_counts

        def corrupted(arch, workload, mapping):
            counts = real(arch, workload, mapping)
            reads = dict(counts.reads)
            if reads:
                key = sorted(reads)[0]
                reads[key] += 1
            return AccessCounts(reads=reads, writes=dict(counts.writes))

        evaluator_module.compute_access_counts = corrupted
        try:
            report = run_differential(
                DifferentialConfig(
                    cases=20,
                    seed=0,
                    min_ref_sim=0,
                    dump_dir=str(tmp_path),
                    max_divergent_cases=1,
                )
            )
        finally:
            evaluator_module.compute_access_counts = real
        assert report.counterexample_paths
        assert replay_counterexample(report.counterexample_paths[0]).ok


class TestEvaluationDiffConsistency:
    """repro.model.diff driven through differentially-verified evaluations."""

    def _two_verified_evaluations(self):
        arch = toy_glb_architecture(6, 4096)
        workload = GemmLayer("g", m=6, n=5, k=4).workload()
        table = estimate_energy_table(arch)
        evaluator = Evaluator(arch, workload, table)
        space = MapSpace(arch, workload, MapspaceKind.RUBY_S)
        rng = random.Random(11)
        picked = []
        while len(picked) < 2:
            mapping = space.sample(rng)
            evaluation = evaluator.evaluate(mapping)
            if not evaluation.valid:
                continue
            case = VerifyCase(
                name=f"diff-{len(picked)}",
                arch=arch,
                workload=workload,
                mapping=mapping,
                kind=MapspaceKind.RUBY_S,
            )
            assert compare_case(case).ok
            if picked and picked[0].mapping.signature() == mapping.signature():
                continue
            picked.append(evaluation)
        return arch, table, picked[0], picked[1]

    def test_ratios_match_the_evaluations(self):
        arch, table, baseline, challenger = self._two_verified_evaluations()
        diff = diff_evaluations(arch, table, baseline, challenger)
        assert diff.edp_ratio == pytest.approx(
            challenger.edp / baseline.edp
        )
        assert diff.energy_ratio == pytest.approx(
            challenger.energy_pj / baseline.energy_pj
        )
        assert diff.cycles_ratio == pytest.approx(
            challenger.cycles / baseline.cycles
        )
        assert diff.utilization_delta == pytest.approx(
            challenger.utilization - baseline.utilization
        )

    def test_traffic_deltas_match_access_counts(self):
        arch, table, baseline, challenger = self._two_verified_evaluations()
        diff = diff_evaluations(arch, table, baseline, challenger)
        level_index = {level.name: i for i, level in enumerate(arch.levels)}
        for delta in diff.deltas:
            key = (level_index[delta.level_name], delta.tensor_name)
            assert delta.reads_before == baseline.access_counts.reads.get(key, 0)
            assert delta.reads_after == challenger.access_counts.reads.get(key, 0)
            assert delta.writes_before == baseline.access_counts.writes.get(key, 0)
            assert delta.writes_after == challenger.access_counts.writes.get(key, 0)
            expected = (
                delta.reads_after - delta.reads_before
            ) * table.read_pj(delta.level_name) + (
                delta.writes_after - delta.writes_before
            ) * table.write_pj(delta.level_name)
            assert delta.energy_delta_pj == pytest.approx(expected)
        # dominant_deltas is a permutation prefix of deltas by |energy|.
        dominant = diff.dominant_deltas(top=3)
        magnitudes = sorted(
            (abs(d.energy_delta_pj) for d in diff.deltas), reverse=True
        )
        assert [abs(d.energy_delta_pj) for d in dominant] == magnitudes[:3]


class TestReferenceSimSpatialRemainderCorners:
    """Multicast and spatial-reduction geometry with spatial remainders."""

    def _case(self, mapping, m=7, n=3, k=2):
        arch = toy_glb_architecture(6, 4096)
        workload = GemmLayer("g", m=m, n=n, k=k).workload()
        return VerifyCase(
            name="corner", arch=arch, workload=workload, mapping=mapping
        )

    def test_multicast_with_spatial_remainder(self):
        # B (n, k) is irrelevant to the imperfect spatial M loop: every
        # delivery below the fanout is a multicast, and the remainder pass
        # must not change B's exact counts.
        case = self._case(
            Mapping.from_blocks(
                [
                    ("DRAM", [], []),
                    (
                        "GlobalBuffer",
                        [Loop("K", 2), Loop("M", 2)],
                        [Loop("M", 4, 3, spatial=True)],
                    ),
                    ("PERegister", [Loop("N", 3)], []),
                ]
            )
        )
        report = compare_case(case)
        assert report.ref_sim_checked
        assert report.ok, [d.describe() for d in report.divergences]
        sim = simulate(case.arch, case.workload, case.mapping)
        counts = compute_access_counts(case.arch, case.workload, case.mapping)
        # Multicast tensor B: exact equality even in the corner.
        for level in range(3):
            key = (level, "B")
            assert counts.reads.get(key, 0) == sim.reads.get(key, 0)

    def test_spatial_reduction_with_remainder_is_conservative(self):
        # Outputs under an imperfect spatial M with K churn above: the
        # idle-instance corner. The analytical model may overcount output
        # traffic but never undercount, within the documented slack.
        case = self._case(
            Mapping.from_blocks(
                [
                    ("DRAM", [Loop("K", 2)], []),
                    (
                        "GlobalBuffer",
                        [Loop("M", 2)],
                        [Loop("M", 4, 3, spatial=True)],
                    ),
                    ("PERegister", [Loop("N", 3)], []),
                ]
            )
        )
        report = compare_case(case)
        assert report.ref_sim_checked
        assert report.ok, [d.describe() for d in report.divergences]
        sim = simulate(case.arch, case.workload, case.mapping)
        counts = compute_access_counts(case.arch, case.workload, case.mapping)
        for level in range(3):
            key = (level, "C")
            assert counts.reads.get(key, 0) >= sim.reads.get(key, 0)
            assert counts.writes.get(key, 0) >= sim.writes.get(key, 0)

    def test_temporal_remainder_under_counting_loop_is_conservative(self):
        # The second conservative corner: a temporal remainder pass that
        # collapses to a single tile under irrelevant K churn.
        case = self._case(
            Mapping.from_blocks(
                [
                    ("DRAM", [Loop("M", 3)], []),
                    ("GlobalBuffer", [Loop("K", 2), Loop("M", 2, 1)], []),
                    ("PERegister", [Loop("N", 3)], []),
                ]
            ),
            m=5,
        )
        report = compare_case(case)
        assert report.ref_sim_checked
        assert report.ok, [d.describe() for d in report.divergences]
        sim = simulate(case.arch, case.workload, case.mapping)
        counts = compute_access_counts(case.arch, case.workload, case.mapping)
        key = (1, "C")
        assert counts.reads[key] > sim.reads[key]  # genuinely in the corner
        assert counts.reads[key] <= max(
            sim.reads[key] * 3.0, sim.reads[key] + 12
        )


class TestRunDifferential:
    def test_small_clean_sweep(self):
        report = run_differential(
            DifferentialConfig(cases=40, seed=1, min_ref_sim=10, decoys=3)
        )
        assert report.ok, report.summary()
        assert report.cases_checked >= 40
        assert report.ref_sim_checks >= 10
        for path in ("scalar", "cache", "batch-single", "batch-packed"):
            assert report.path_counts.get(path, 0) > 0
        assert "divergent=0" in report.summary()

    def test_seed_determinism(self):
        config = DifferentialConfig(cases=25, seed=5, min_ref_sim=0)
        a = run_differential(config)
        b = run_differential(config)
        assert a.cases_checked == b.cases_checked
        assert a.path_counts == b.path_counts
        assert a.ref_sim_checks == b.ref_sim_checks

    @pytest.mark.deep
    def test_quick_profile_clean(self):
        report = run_differential(
            DifferentialConfig(cases=500, seed=0, min_ref_sim=50)
        )
        assert report.ok, report.summary()
        assert report.ref_sim_checks >= 50

"""Benchmark regression ledger: record, compare, CLI gate.

Records come from a fake benchmark (:mod:`tests.fake_bench`): a
``BENCHMARK.json`` whose command prints canned result lines, so the
recorder's medians, refusals and per-metric bounds are checked with
exact numbers. Comparison math runs on hand-written records; the CLI
tests nail the exit codes (0 clean, 1 regression, 10 ledger errors)
that ``make bench-compare`` turns into a CI gate.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.exceptions import BenchLedgerError
from repro.io.journal import Journal
from repro.obs.bench import (
    BenchDelta,
    compare_ledger,
    format_comparison,
    machine_fingerprint,
    read_ledger,
    record_benchmarks,
)
from tests.fake_bench import (
    layer_metrics,
    result,
    run_metrics,
    steady_plan,
    write_benchmark,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
HOST = machine_fingerprint()["host"]


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    """``bench record`` reads ``BENCHMARK.json`` from the working directory."""
    monkeypatch.chdir(tmp_path)


def one_workload(runs, layers=None):
    """A plan for workload ``alpha``: ``runs`` untraced outputs in order."""
    return {"alpha": {"0": runs, "1": [result(layers or layer_metrics())]}}


def entries_by(record, kind=None):
    return {(e["workload"], e["metric"]): e for e in record["entries"]
            if kind in (None, e["kind"])}


def entry(metric, value, workload="w", better="lower", bound=0.25,
          kind="end_to_end"):
    return {"workload": workload, "metric": metric, "kind": kind,
            "value": value, "unit": "s", "better": better, "bound": bound}


def append(ledger, *entries, host=HOST, when=1.0, schema=2):
    Journal(ledger).append({
        "kind": "bench", "schema": schema, "time": when,
        "machine": {"host": host}, "entries": list(entries),
    })


class TestNormalize:
    """Result lines become entries carrying BENCHMARK.json's declarations."""

    def test_branch_bound_wall_clocks_are_lower_is_better(self, tmp_path):
        real = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        write_benchmark(
            tmp_path, {"bnb_pointwise": steady_plan(["x"])["x"]},
            end_to_end=real["end_to_end"],
        )
        record = record_benchmarks(tmp_path / "ledger.jsonl")
        wall = entries_by(record)[("bnb_pointwise", "wall_s")]
        assert (wall["better"], wall["unit"], wall["bound"]) == ("lower", "s", 0.25)
        rate = entries_by(record)[("bnb_pointwise", "mappings_per_s")]
        assert rate["better"] == "higher"

    def test_case_missing_tracked_metrics_is_skipped(self, tmp_path):
        runs = [result({"wall_s": 2.0})]  # reports neither edp nor rate
        write_benchmark(tmp_path, one_workload(runs))
        record = record_benchmarks(tmp_path / "ledger.jsonl")
        assert set(entries_by(record, "end_to_end")) == {("alpha", "wall_s")}

    def test_real_bench_files_all_normalize(self):
        spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        pairs = [
            (w["name"], m["name"])
            for w in spec["workloads"] for m in spec["end_to_end"]
        ]
        assert len(pairs) == 32
        for metric in spec["end_to_end"]:
            assert metric["better"] in ("lower", "higher")
            assert isinstance(metric["bound"], float) and metric["unit"]
        for metric in spec["per_layer"]:
            assert metric["better"] in ("lower", "higher")
            assert "bound" not in metric


class TestRecord:
    def test_record_shape_and_machine_tag(self, tmp_path):
        write_benchmark(tmp_path, steady_plan())
        ledger = tmp_path / "BENCH_HISTORY.jsonl"
        record = record_benchmarks(ledger, note="seed run")
        assert record["kind"] == "bench"
        assert record["schema"] == 2
        assert record["note"] == "seed run"
        assert record["machine"]["host"] == HOST
        # 2 workloads x (3 end-to-end + 2 per-layer metrics).
        assert len(record["entries"]) == 10
        assert set(record["entries"][0]) == {
            "workload", "metric", "kind", "value", "unit", "better", "bound"
        }
        # The ledger round-trips through journal framing.
        stored = read_ledger(ledger)
        assert len(stored) == 1
        assert stored[0]["entries"] == record["entries"]

    def test_record_appends_history(self, tmp_path):
        write_benchmark(tmp_path, steady_plan())
        ledger = tmp_path / "ledger.jsonl"
        record_benchmarks(ledger)
        record_benchmarks(ledger)
        assert len(read_ledger(ledger)) == 2

    def test_medians_over_three_runs(self, tmp_path):
        runs = [
            result(run_metrics(wall_s=5.0, mappings_per_s=10.0)),
            result(run_metrics(wall_s=1.0, mappings_per_s=30.0)),
            result(run_metrics(wall_s=2.0, mappings_per_s=20.0)),
            result(run_metrics(wall_s=99.0)),  # a fourth run is never made
        ]
        write_benchmark(tmp_path, one_workload(runs))
        record = record_benchmarks(tmp_path / "ledger.jsonl")
        got = entries_by(record)
        assert got[("alpha", "wall_s")]["value"] == 2.0
        assert got[("alpha", "mappings_per_s")]["value"] == 20.0
        calls = json.loads((tmp_path / "calls.json").read_text())
        assert calls == {"alpha/0": 3, "alpha/1": 1}

    def test_per_layer_entries_carry_no_bound(self, tmp_path):
        write_benchmark(
            tmp_path, one_workload([result(run_metrics())],
                                   layer_metrics(kernel_s=0.7))
        )
        record = record_benchmarks(tmp_path / "ledger.jsonl")
        layers = entries_by(record, "per_layer")
        assert set(layers) == {("alpha", "batch.kernel_s"),
                               ("alpha", "bound.child_s")}
        assert layers[("alpha", "batch.kernel_s")]["value"] == 0.7
        assert {e["bound"] for e in layers.values()} == {None}
        ends = entries_by(record, "end_to_end").values()
        assert None not in {e["bound"] for e in ends}

    @pytest.mark.parametrize(
        "output",
        [
            {"lines": [], "exit": 3},
            {"lines": ["done", "all good"], "exit": 0},
            {"lines": [], "exit": 0},
            {"lines": ['{"metrics": [1, 2]}'], "exit": 0},
            result(run_metrics(), failed=1),
            {"lines": [json.dumps({"correct": False, "metrics": {}})],
             "exit": 0},
            result({**run_metrics(), "wall_s_p99": 3.0}),
            result({**run_metrics(), "wall_s": "fast"}),
        ],
        ids=["nonzero-exit", "not-a-result", "no-output", "bad-metrics",
             "failed-checks", "incorrect", "undeclared-metric",
             "non-numeric"],
    )
    def test_bad_run_appends_nothing_and_exits_ten(self, tmp_path, capsys, output):
        ledger = tmp_path / "ledger.jsonl"
        write_benchmark(tmp_path, steady_plan())
        assert cli_main(["bench", "record", "--ledger", str(ledger)]) == 0
        before = ledger.read_bytes()
        # The second workload's last untraced run goes bad.
        plan = steady_plan()
        plan["beta"]["0"] = [plan["beta"]["0"][0]] * 2 + [output]
        write_benchmark(tmp_path, plan)
        assert cli_main(["bench", "record", "--ledger", str(ledger)]) == 10
        assert "workload beta" in capsys.readouterr().err
        assert ledger.read_bytes() == before

    def test_record_with_no_tracked_metrics_raises(self, tmp_path):
        # A spec declaring no end-to-end metric: every reported one is
        # undeclared, so the run is refused rather than recorded empty.
        write_benchmark(tmp_path, steady_plan(), end_to_end=[])
        ledger = tmp_path / "ledger.jsonl"
        with pytest.raises(BenchLedgerError, match="does not declare"):
            record_benchmarks(ledger)
        assert not ledger.exists()

    def test_read_ledger_missing_file_and_foreign_kinds(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        assert read_ledger(ledger) == []
        Journal(ledger).append({"kind": "campaign", "config": {}})
        append(ledger, entry("wall_s", 1.0))
        assert len(read_ledger(ledger)) == 1

    def test_schema_one_records_are_skipped(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        Journal(ledger).append({
            "kind": "bench", "schema": 1, "time": 0.5, "sources": ["x"],
            "machine": {"host": HOST},
            "entries": [{"benchmark": "batch_eval", "case": "c",
                         "metric": "speedup", "value": 2.0,
                         "higher_is_better": True}],
        })
        append(ledger, entry("wall_s", 1.0))
        assert [r["schema"] for r in read_ledger(ledger)] == [2]
        # One current-schema record: nothing to compare yet.
        with pytest.raises(BenchLedgerError, match="schema-2"):
            compare_ledger(ledger)
        append(ledger, entry("wall_s", 1.1), when=2.0)
        assert compare_ledger(ledger).ok


class TestCompare:
    def test_fewer_than_two_records_raises(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append(ledger, entry("wall_s", 1.0))
        with pytest.raises(BenchLedgerError):
            compare_ledger(ledger)

    def test_clean_run_is_ok(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append(ledger, entry("wall_s", 2.0))
        append(ledger, entry("wall_s", 2.1))
        comparison = compare_ledger(ledger)
        assert comparison.ok
        assert comparison.regressions == []
        assert comparison.same_machine

    def test_throughput_drop_regresses(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append(ledger, entry("mappings_per_s", 1000.0, better="higher"))
        append(ledger, entry("mappings_per_s", 700.0, better="higher"))
        comparison = compare_ledger(ledger)
        assert not comparison.ok
        assert {d.key for d in comparison.regressions} == {
            ("w", "mappings_per_s")
        }

    def test_wall_clock_increase_regresses(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append(ledger, entry("wall_s", 2.0))
        append(ledger, entry("wall_s", 3.0))
        regressed = {d.key for d in compare_ledger(ledger).regressions}
        assert ("w", "wall_s") in regressed

    def test_wall_clock_decrease_is_improvement(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append(ledger, entry("wall_s", 3.0))
        append(ledger, entry("wall_s", 2.0))
        comparison = compare_ledger(ledger)
        assert {d.key for d in comparison.improvements} == {("w", "wall_s")}
        assert comparison.ok

    def test_each_metric_gated_on_its_own_bound(self, tmp_path):
        # edp_ratio (5% bound) and wall_s (25%) both worsen by 6%: only
        # edp_ratio trips. Both worsen by 4%: nothing trips.
        for factor, regressed in ((1.06, {("w", "edp_ratio")}), (1.04, set())):
            ledger = tmp_path / f"{factor}.jsonl"
            for scale in (1.0, factor):
                append(ledger, entry("wall_s", 2.0 * scale),
                       entry("edp_ratio", 0.8 * scale, bound=0.05))
            comparison = compare_ledger(ledger)
            assert {d.key for d in comparison.regressions} == regressed

    def test_per_layer_deltas_are_never_gated(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        layer = dict(kind="per_layer", bound=None)
        append(ledger, entry("wall_s", 2.0), entry("batch.kernel_s", 1.0, **layer),
               entry("bound.child_s", 1.0, **layer))
        append(ledger, entry("wall_s", 2.0), entry("batch.kernel_s", 3.0, **layer),
               entry("bound.child_s", 0.5, **layer))
        comparison = compare_ledger(ledger)
        assert comparison.ok
        assert [d.metric for d in comparison.deltas] == ["wall_s"]
        assert comparison.mover.metric == "batch.kernel_s"
        text = format_comparison(comparison)
        assert "per-layer (not gated)" in text
        assert "the layer that moved: w/batch.kernel_s -200.0%" in text

    def test_mover_ranks_seconds_moved_not_relative_change(self, tmp_path):
        """A fraction crossing zero and a count that jumps tenfold never
        name the layer that moved, and neither does a large relative
        change of a layer that takes microseconds: the per-layer seconds
        entry that moved the most seconds does."""
        ledger = tmp_path / "ledger.jsonl"
        layer = dict(kind="per_layer", bound=None)

        def record(frac, rows, tiny_s, suffix_s):
            return (
                entry("wall_s", 2.0),
                {**entry("obs.on_overhead_frac", frac, **layer),
                 "unit": "frac"},
                {**entry("bnb.rows_priced", rows, **layer), "unit": "count"},
                entry("evaluator.fresh_s", tiny_s, **layer),
                entry("bound.suffix_s", suffix_s, **layer),
            )

        append(ledger, *record(0.01, 100.0, 0.001, 0.20))
        append(ledger, *record(-0.0116, 1000.0, 0.004, 0.15))
        comparison = compare_ledger(ledger)
        assert comparison.mover.metric == "bound.suffix_s"
        text = format_comparison(comparison)
        assert (
            "the layer that moved: w/bound.suffix_s +25.0% (-0.05 s)" in text
        )

    def test_threshold_boundary_is_not_regression(self):
        def delta(current):
            return BenchDelta(
                workload="w", metric="m", kind="end_to_end", baseline=100.0,
                current=current, better="higher", bound=0.2,
            )

        assert delta(80.0).change == pytest.approx(-0.2)
        assert not delta(80.0).regressed  # strictly-worse-than-bound gates
        assert delta(79.0).regressed

    def test_zero_baseline_never_divides(self):
        delta = BenchDelta(
            workload="w", metric="m", kind="end_to_end", baseline=0.0,
            current=5.0, better="higher", bound=0.2,
        )
        assert delta.change == 0.0

    def test_missing_and_added_metrics_reported(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append(ledger, entry("wall_s", 1.0), entry("setup_s", 1.0))
        append(ledger, entry("wall_s", 1.0), entry("peak_rss_mb", 1.0))
        comparison = compare_ledger(ledger)
        assert comparison.missing == [("w", "setup_s")]
        assert comparison.added == [("w", "peak_rss_mb")]

    def test_same_host_baseline_preferred(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append(ledger, entry("wall_s", 10.0), host="box-a", when=1.0)
        # Other machine, newer: must be skipped.
        append(ledger, entry("wall_s", 1.0), host="box-b", when=2.0)
        append(ledger, entry("wall_s", 1.0), when=2.5)
        append(ledger, entry("wall_s", 10.0), when=3.0)
        comparison = compare_ledger(ledger)
        assert comparison.same_machine
        # Baseline is the *same-host* 1.0 record, so 10.0 regresses.
        assert not comparison.ok
        no_pref = compare_ledger(ledger, prefer_same_machine=False)
        assert not no_pref.ok  # previous record outright is also 1.0

    def test_cross_machine_fallback_flagged(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append(ledger, entry("wall_s", 1.0), host="elsewhere")
        append(ledger, entry("wall_s", 1.0))
        comparison = compare_ledger(ledger)
        assert not comparison.same_machine
        assert "different machine" in format_comparison(comparison)


class TestFormatComparison:
    def test_table_verdicts_and_summary(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        append(ledger, entry("wall_s", 2.0), entry("edp_ratio", 0.8, bound=0.05),
               entry("mappings_per_s", 1000.0, better="higher"))
        append(ledger, entry("wall_s", 1.0), entry("edp_ratio", 0.9, bound=0.05),
               entry("mappings_per_s", 500.0, better="higher"))
        text = format_comparison(compare_ledger(ledger))
        assert "REGRESSED" in text
        assert "improved" in text
        assert "w/edp_ratio" in text and "5%" in text
        # wall_s halves (improved); edp +12.5% and rate -50% regress.
        assert text.splitlines()[-1] == "3 compared, 2 regressed, 1 improved"


class TestBenchCLI:
    def test_record_then_clean_compare_exits_zero(self, tmp_path, capsys):
        write_benchmark(tmp_path, steady_plan())
        assert cli_main(["bench", "record"]) == 0
        out = capsys.readouterr().out
        assert "recorded 6 end-to-end and 4 per-layer metric(s)" in out
        assert cli_main(["bench", "record", "--note", "again"]) == 0
        assert read_ledger(tmp_path / "BENCH_HISTORY.jsonl")[-1]["note"] == "again"
        assert cli_main(["bench", "compare"]) == 0
        assert "0 regressed" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        write_benchmark(tmp_path, steady_plan())
        cli_main(["bench", "record"])
        write_benchmark(tmp_path, steady_plan(scale=1.5))
        cli_main(["bench", "record"])
        code = cli_main(["bench", "compare"])
        captured = capsys.readouterr()
        assert code == 1
        assert "REGRESSED" in captured.out
        assert "regression" in captured.err

    def test_tolerant_threshold_passes_same_data(self, tmp_path):
        # The same 1.5x slowdown, against a spec that bounds wall_s and
        # mappings_per_s at 60%: the gate reads each bound from the spec.
        tolerant = [dict(m, bound=0.6) for m in json.loads(
            write_benchmark(tmp_path, steady_plan()).read_text()
        )["end_to_end"]]
        cli_main(["bench", "record"])
        write_benchmark(tmp_path, steady_plan(scale=1.5), end_to_end=tolerant)
        cli_main(["bench", "record"])
        assert cli_main(["bench", "compare"]) == 0

    def test_ledger_errors_exit_ten(self, tmp_path, capsys):
        # No BENCHMARK.json in the working directory.
        assert cli_main(["bench", "record"]) == 10
        write_benchmark(tmp_path, steady_plan())
        assert cli_main(["bench", "record"]) == 0
        # One record: nothing to compare against.
        assert cli_main(["bench", "compare"]) == 10
        assert "BenchLedgerError" in capsys.readouterr().err

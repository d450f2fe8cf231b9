"""Unit tests for the command-line interface."""

import argparse
import gc
import json

import pytest

from repro.cli import build_parser, main
from repro.exceptions import SpecError
from repro.obs import active_obs
from repro.problem.shorthand import shorthand_workload, split_shape


class TestParseShape:
    def test_basic(self):
        workload = shorthand_workload(
            "conv", split_shape("C=512,M=128"), "layer"
        )
        assert workload.size("C") == 512
        assert workload.size("M") == 128
        assert workload.size("P") == 1

    def test_lowercase_keys_normalized(self):
        assert shorthand_workload("gemm", split_shape("m=4"), "g").size("M") == 4

    def test_rejects_missing_value(self):
        with pytest.raises(SpecError, match="expected DIM=SIZE"):
            split_shape("C512")

    @pytest.mark.parametrize(
        "flag,shape,needle",
        [("--conv", "C=x", "not an integer"),
         ("--gemm", "M=4,N=4,K=4,Q=2", "unknown gemm dim"),
         ("--gemm", "M4", "expected DIM=SIZE"),
         ("--gemm", "M=0", "must be >= 1")],
    )
    def test_bad_shape_exits_with_spec_error_code(
        self, flag, shape, needle, capsys
    ):
        code = main(["search", "--arch", "toy16", flag, shape])
        assert code == SpecError.exit_code
        assert needle in capsys.readouterr().err


class TestSearchCommand:
    def test_search_conv_prints_mapping(self, capsys):
        code = main(
            [
                "search",
                "--arch", "toy16",
                "--gemm", "M=32,N=8,K=16",
                "--kind", "ruby-s",
                "--budget", "400",
                "--patience", "150",
                "--seed", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "compute()" in out
        assert "EDP=" in out
        assert "utilization=" in out

    @pytest.mark.parametrize(
        "extra",
        [
            ["--searcher", "random"],
            ["--searcher", "random", "--workers", "2"],
            ["--searcher", "exhaustive"],
            ["--searcher", "branch-bound"],
            ["--searcher", "genetic"],
        ],
    )
    def test_batch_size_flag_is_refused(self, extra, capsys):
        # The batch size is a constant of the pricing layer, not a flag.
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["search", "--arch", "toy16", "--gemm", "M=8,N=4,K=4",
                 "--batch-size", "512"] + extra
            )
        assert excinfo.value.code == 2
        assert "--batch-size" in capsys.readouterr().err

    @pytest.mark.parametrize("searcher", ["genetic", "exhaustive"])
    def test_workers_without_a_pool_exit_with_search_error_code(
        self, searcher, capsys
    ):
        code = main(
            ["search", "--arch", "toy16", "--gemm", "M=8,N=4,K=4",
             "--searcher", searcher, "--workers", "2"]
        )
        assert code == 5
        assert "workers" in capsys.readouterr().err

    def test_genetic_budget_below_two_populations_exits_with_search_error(
        self, capsys
    ):
        code = main(
            ["search", "--arch", "toy16", "--gemm", "M=8,N=4,K=4",
             "--searcher", "genetic", "--budget", "99"]
        )
        assert code == 5
        assert "max_evaluations" in capsys.readouterr().err

    def test_search_saves_and_reevaluates(self, tmp_path, capsys):
        mapping_path = tmp_path / "m.json"
        workload_path = tmp_path / "w.json"
        code = main(
            [
                "search",
                "--arch", "toy16",
                "--conv", "C=8,M=16,P=6,Q=6,R=3,S=3",
                "--budget", "400",
                "--patience", "150",
                "--seed", "1",
                "--save-mapping", str(mapping_path),
                "--save-workload", str(workload_path),
            ]
        )
        assert code == 0
        assert mapping_path.exists() and workload_path.exists()
        capsys.readouterr()

        code = main(
            [
                "evaluate",
                "--arch", "toy16",
                "--workload-json", str(workload_path),
                "--mapping", str(mapping_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "EDP=" in out
        assert "compute" in out  # energy breakdown row

    def test_evaluate_invalid_mapping_fails(self, tmp_path, capsys):
        from repro.io import save_json, mapping_to_dict, workload_to_dict
        from repro.mapping import Loop, Mapping
        from repro.problem.gemm import vector_workload

        bad = Mapping.from_blocks(
            [("DRAM", [Loop("D", 9)], []), ("PEBuffer", [], [])]
        )
        save_json(mapping_to_dict(bad), tmp_path / "m.json")
        save_json(workload_to_dict(vector_workload("v", 10)), tmp_path / "w.json")
        code = main(
            [
                "evaluate",
                "--arch", "toy16",
                "--workload-json", str(tmp_path / "w.json"),
                "--mapping", str(tmp_path / "m.json"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "INVALID" in err

    def test_missing_workload_errors(self):
        with pytest.raises(SystemExit):
            main(["search", "--arch", "toy16"])


class TestExperimentCommand:
    def test_table1(self, capsys):
        code = main(["experiment", "table1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "ruby-s" in out

    def test_fig7_small_budget(self, capsys):
        code = main(["experiment", "fig7b", "--budget", "200", "--runs", "1"])
        assert code == 0
        assert "fig7b" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search", "--gemm", "M=2,N=2,K=2"])
        assert args.kind == "ruby-s"
        assert args.objective == "edp"

    def test_cli_and_service_share_one_preset_table(self, monkeypatch):
        """A preset added to ``repro.arch.ARCH_PRESETS`` reaches every
        ``--arch`` option and the service's ``"arch"`` shorthand."""
        from repro.arch import ARCH_PRESETS, toy_linear_architecture
        from repro.service import parse_search_spec

        monkeypatch.setitem(
            ARCH_PRESETS, "toy4", lambda: toy_linear_architecture(4)
        )

        def arch_choices(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from arch_choices(sub)
                elif "--arch" in action.option_strings:
                    yield tuple(action.choices)

        choices = set(arch_choices(build_parser()))
        assert choices == {tuple(sorted(ARCH_PRESETS))}
        for name, build in ARCH_PRESETS.items():
            spec = parse_search_spec(
                {"arch": name, "workload": {"gemm": {"m": 2, "n": 2, "k": 2}}}
            )
            assert spec.arch == build()


class TestCampaignCommand:
    def _run_toy(self, tmp_path, extra=(), journal_name="j.jsonl"):
        journal = tmp_path / journal_name
        code = main(
            [
                "campaign", "run",
                "--suite", "toy",
                "--arch", "toy16",
                "--kinds", "ruby-s",
                "--seeds", "1",
                "--budget", "60",
                "--journal", str(journal),
                *extra,
            ]
        )
        return code, journal

    def test_run_then_status_then_resume(self, tmp_path, capsys):
        code, journal = self._run_toy(tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "7 ok, 0 quarantined" in out
        assert journal.exists()

        assert main(["campaign", "status", "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "7 total, 7 ok" in out
        assert "complete" in out

        assert main(["campaign", "resume", "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "7 resumed from journal" in out

    def test_rerun_replays_from_journal(self, tmp_path, capsys):
        self._run_toy(tmp_path)
        capsys.readouterr()
        code, _ = self._run_toy(tmp_path)
        assert code == 0
        assert "7 resumed from journal" in capsys.readouterr().out

    def test_fault_plan_quarantines_without_aborting(self, tmp_path, capsys):
        import json

        plan = {
            "schema": 1,
            "faults": [
                {"job": "toy:table1_d23:ruby-s", "attempt": a, "kind": "raise"}
                for a in range(3)
            ],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        code, _ = self._run_toy(
            tmp_path,
            extra=["--fault-plan", str(plan_path), "--backoff", "0.01"],
        )
        assert code == 0  # quarantine is not a campaign failure
        out = capsys.readouterr().out
        assert "1 quarantined" in out
        assert "QUARANTINED toy:table1_d23:ruby-s" in out

    def test_missing_journal_maps_to_exit_code(self, tmp_path, capsys):
        code = main(
            ["campaign", "status", "--journal", str(tmp_path / "nope.jsonl")]
        )
        assert code == 8  # CampaignError
        err = capsys.readouterr().err
        assert err.startswith("error (CampaignError):")
        assert "\n" == err[-1] and err.count("\n") == 1  # one line, no traceback

    def test_debug_flag_reraises(self, tmp_path):
        from repro.exceptions import CampaignError

        with pytest.raises(CampaignError):
            main(
                [
                    "--debug", "campaign", "status",
                    "--journal", str(tmp_path / "nope.jsonl"),
                ]
            )

    @pytest.mark.parametrize(
        "extra",
        [
            ["--timeout", "-1"],
            ["--timeout", "0"],
            ["--workers", "0"],
            ["--retries", "-1"],
            ["--backoff", "-0.5"],
        ],
    )
    def test_bad_settings_fail_before_any_job(self, tmp_path, capsys, extra):
        code, journal = self._run_toy(tmp_path, extra=extra)
        assert code == 8  # CampaignError
        assert "CampaignError" in capsys.readouterr().err
        assert not journal.exists()

    @pytest.mark.parametrize("seeds", ["1,x", "", ","])
    def test_bad_seeds_fail_before_any_job(self, tmp_path, capsys, seeds):
        code, journal = self._run_toy(tmp_path, extra=["--seeds", seeds])
        assert code == 2  # SpecError
        assert "--seeds" in capsys.readouterr().err
        assert not journal.exists()

    @pytest.mark.parametrize("kinds", ["bogus", "pfm,bogus", "", ","])
    def test_bad_kinds_fail_before_any_job(self, tmp_path, capsys, kinds):
        code, journal = self._run_toy(tmp_path, extra=["--kinds", kinds])
        assert code == 2  # SpecError
        assert "--kinds" in capsys.readouterr().err
        assert not journal.exists()

    def test_resume_bad_settings_fail_before_any_job(self, tmp_path, capsys):
        code, journal = self._run_toy(tmp_path)
        assert code == 0
        before = journal.read_text()
        capsys.readouterr()
        code = main(
            ["campaign", "resume", "--journal", str(journal), "--workers", "0"]
        )
        assert code == 8
        assert "workers" in capsys.readouterr().err
        assert journal.read_text() == before

    def test_experiment_bad_timeout_fails_before_any_job(self, tmp_path, capsys):
        journal = tmp_path / "fig.jsonl"
        code = main(
            [
                "experiment", "fig13", "--suite", "deepbench",
                "--budget", "10", "--journal", str(journal),
                "--timeout", "0",
            ]
        )
        assert code == 8
        assert "timeout_s" in capsys.readouterr().err
        assert not journal.exists()

    def test_resume_requires_suite_header(self, tmp_path, capsys):
        from repro.io.journal import Journal

        journal = tmp_path / "bare.jsonl"
        Journal(journal).append(
            {"kind": "campaign", "config": {}, "jobs": []}
        )
        code = main(["campaign", "resume", "--journal", str(journal)])
        assert code == 8
        assert "no suite config" in capsys.readouterr().err


class TestObsFlags:
    def test_search_with_trace_and_metrics_out(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "search",
                "--arch", "toy9",
                "--conv", "C=8,M=8,P=4",
                "--budget", "100",
                "--trace", str(trace),
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"metrics saved to {metrics}" in out
        assert f"trace saved to {trace}" in out

        from repro.obs import read_trace, validate_span

        records = read_trace(trace)
        assert records
        assert all(validate_span(r) == [] for r in records)

        payload = json.loads(metrics.read_text())
        assert payload["schema"] == 1
        assert "search.candidates" in payload["metrics"]["counters"]

    def test_obs_dump_and_summarize(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "search",
                "--arch", "toy9",
                "--conv", "C=8,M=8,P=4",
                "--budget", "100",
                "--trace", str(trace),
            ]
        )
        assert code == 0
        capsys.readouterr()

        assert main(["obs", "dump", str(trace)]) == 0
        out = capsys.readouterr().out
        assert '"kind": "span"' in out

        assert main(["obs", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "search.run" in out
        assert "span" in out  # header row

    @pytest.mark.parametrize("command", ["dump", "summarize"])
    def test_obs_missing_trace_exits_with_spec_error(
        self, command, tmp_path, capsys
    ):
        missing = tmp_path / "missing.jsonl"
        assert main(["obs", command, str(missing)]) == SpecError.exit_code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(missing) in captured.err

    def test_obs_summarize_empty_trace_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["obs", "summarize", str(empty)]) == 1
        assert "no span records" in capsys.readouterr().err


class TestCampaignStatusHeartbeats:
    def test_status_shows_heartbeat_counters(self, tmp_path, capsys):
        """In-flight jobs print their lifecycle counters inline."""
        from repro.io.journal import Journal

        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"kind": "campaign", "config": {}, "jobs": ["a", "b"]})
        for job_id, attempt in (("a", 0), ("a", 1), ("b", 0)):
            journal.append(
                {
                    "kind": "heartbeat",
                    "event": "start",
                    "job_id": job_id,
                    "attempt": attempt,
                    "time": 1.0,
                    "monotonic_s": 1.0,
                }
            )
        journal.append(
            {
                "kind": "heartbeat",
                "event": "retry",
                "job_id": "a",
                "attempt": 0,
                "time": 1.0,
                "monotonic_s": 1.0,
            }
        )
        journal.append({"kind": "attempt", "job_id": "a", "attempt": 0})
        journal.append({"kind": "job", "job_id": "b", "status": "ok"})

        assert main(["campaign", "status", "--journal", str(journal.path)]) == 0
        out = capsys.readouterr().out
        assert "1 running" in out
        assert "running     a  [retry=1 start=2]" in out

    def test_status_follow_exits_when_complete(self, tmp_path, capsys):
        journal = tmp_path / "j.jsonl"
        main(
            [
                "campaign", "run",
                "--suite", "toy",
                "--arch", "toy16",
                "--kinds", "ruby-s",
                "--seeds", "1",
                "--budget", "60",
                "--journal", str(journal),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "campaign", "status",
                "--journal", str(journal),
                "--follow",
                "--interval", "0.05",
            ]
        )
        assert code == 0
        assert "complete" in capsys.readouterr().out


class TestSpecFiles:
    """Every flag that reads a spec file turns a bad file into SpecError."""

    @pytest.mark.parametrize(
        "argv",
        [["search", "--arch", "toy16", "--workload-json", "{spec}"],
         ["search", "--arch-json", "{spec}", "--gemm", "M=8,N=4,K=4"],
         ["evaluate", "--arch", "toy16", "--gemm", "M=8,N=4,K=4",
          "--mapping", "{spec}"],
         ["campaign", "run", "--suite", "toy", "--arch", "toy16",
          "--journal", "{journal}", "--fault-plan", "{spec}"],
         ["verify", "--replay", "{spec}"]],
        ids=["workload-json", "arch-json", "mapping", "fault-plan", "replay"],
    )
    @pytest.mark.parametrize(
        "content,needle",
        [(None, "cannot read"),
         ("{not json", "not valid JSON"),
         ("[1]", "expected a JSON object, got list"),
         ('"x"', "expected a JSON object, got str")],
        ids=["missing", "not-json", "list", "string"],
    )
    def test_bad_spec_file_exits_with_spec_error_code(
        self, argv, content, needle, tmp_path, capsys
    ):
        spec = tmp_path / "spec.json"
        if content is not None:
            spec.write_text(content)
        journal = tmp_path / "journal.jsonl"
        code = main(
            [arg.format(spec=spec, journal=journal) for arg in argv]
        )
        assert code == SpecError.exit_code
        err = capsys.readouterr().err
        assert str(spec) in err
        assert needle in err
        assert not journal.exists()


class TestUnopenableJournal:
    """A journal path that is a directory is a SpecError, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [["campaign", "status", "--journal", "{journal}"],
         ["campaign", "run", "--suite", "toy", "--arch", "toy16",
          "--journal", "{journal}"],
         ["serve", "--port", "0", "--journal", "{journal}"]],
        ids=["campaign-status", "campaign-run", "serve"],
    )
    def test_directory_journal_exits_with_spec_error(
        self, argv, tmp_path, capsys
    ):
        code = main([arg.format(journal=tmp_path) for arg in argv])
        assert code == SpecError.exit_code
        err = capsys.readouterr().err
        assert err.startswith("error (SpecError):")
        assert str(tmp_path) in err and err.count("\n") == 1
        # A service whose start failed leaves no obs scope installed.
        gc.collect()
        assert active_obs() is None


class TestVerifyCases:
    @pytest.mark.parametrize("cases", ["0", "-1"])
    def test_cases_below_one_fail_before_any_check(self, cases, capsys):
        assert main(["verify", "--cases", cases]) == SpecError.exit_code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--cases must be >= 1" in captured.err

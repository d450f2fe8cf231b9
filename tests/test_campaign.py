"""Unit tests for fault-tolerant campaigns: journal, retry, resume."""

import json
import os

import pytest

from repro.arch import toy_glb_architecture
from repro.exceptions import CampaignError, EvaluationError
from repro.io.journal import Journal
from repro.problem.gemm import GemmLayer, vector_workload
from repro.search.campaign import (
    CampaignConfig,
    CampaignJob,
    campaign_scope,
    campaign_status,
    run_campaign,
)
from repro.utils.faults import Fault, FaultPlan


def _job(job_id="job-a", size=60, budget=80, seeds=(1,)):
    return CampaignJob(
        job_id=job_id,
        arch=toy_glb_architecture(6, 1024),
        workload=vector_workload(f"v{size}", size),
        kind="ruby-s",
        max_evaluations=budget,
        patience=None,
        seeds=seeds,
    )


def _infeasible_job(job_id="doomed"):
    """A 16-byte GLB fits no tile: every mapping is invalid."""
    return CampaignJob(
        job_id=job_id,
        arch=toy_glb_architecture(6, 16),
        workload=GemmLayer("g64", 64, 64, 64).workload(),
        kind="pfm",
        max_evaluations=40,
        patience=None,
        seeds=(1,),
    )


class TestJournal:
    def test_append_read_round_trip(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"kind": "campaign", "config": {}, "jobs": []})
        journal.append({"kind": "job", "job_id": "a", "status": "ok"})
        records = journal.read()
        assert [r["kind"] for r in records] == ["campaign", "job"]

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append({"kind": "job", "job_id": "a", "status": "ok"})
        with open(path, "a") as f:
            f.write('{"kind": "job", "job_id": "b", "sta')  # SIGKILL mid-write
        records = Journal(path).read()
        assert len(records) == 1
        assert records[0]["job_id"] == "a"

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('not json\n{"kind": "job", "job_id": "a"}\n')
        with pytest.raises(CampaignError):
            Journal(path).read()

    def test_terminal_jobs_latest_wins(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"kind": "job", "job_id": "a", "status": "quarantined"})
        journal.append({"kind": "attempt", "job_id": "a", "attempt": 0})
        journal.append({"kind": "job", "job_id": "a", "status": "ok"})
        terminal = journal.terminal_jobs()
        assert terminal["a"]["status"] == "ok"

    def test_missing_journal_header_raises(self, tmp_path):
        with pytest.raises(CampaignError):
            Journal(tmp_path / "absent.jsonl").header()


class TestRunCampaign:
    def test_small_campaign_completes(self, tmp_path):
        jobs = [_job("a", 60), _job("b", 100)]
        result = run_campaign(
            jobs,
            CampaignConfig(journal=tmp_path / "j.jsonl"),
        )
        assert result.complete
        assert result.num_ok == 2
        assert set(result.best_edp()) == {"a", "b"}
        for outcome in result.outcomes:
            assert outcome.metrics["edp"] > 0
            assert outcome.mapping is not None

    def test_job_without_seeds_is_rejected_by_cause(self):
        from repro.exceptions import SearchError
        from repro.search.campaign import search_job

        with pytest.raises(SearchError, match="no seeds"):
            search_job(_job(seeds=()))

    def test_duplicate_job_ids_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="duplicate"):
            run_campaign([_job("a"), _job("a")], CampaignConfig())

    def test_resume_replays_identical_metrics(self, tmp_path):
        jobs = [_job("a", 60), _job("b", 100)]
        first = run_campaign(
            jobs,
            CampaignConfig(journal=tmp_path / "j.jsonl"),
        )
        second = run_campaign(
            jobs,
            CampaignConfig(journal=tmp_path / "j.jsonl"),
        )
        assert second.num_resumed == 2
        assert all(o.from_journal for o in second.outcomes)
        assert second.best_edp() == first.best_edp()

    def test_interrupted_campaign_resume_parity(self, tmp_path):
        """A campaign cut short mid-run finishes to the same best EDPs."""
        jobs = [_job("a", 60), _job("b", 100), _job("c", 113)]
        reference = run_campaign(
            jobs,
            CampaignConfig(journal=tmp_path / "ref.jsonl"),
        )

        partial = run_campaign(
            jobs,
            CampaignConfig(journal=tmp_path / "cut.jsonl"),
            max_jobs=1,
        )
        assert not partial.complete
        assert len(partial.outcomes) < len(jobs)

        resumed = run_campaign(
            jobs,
            CampaignConfig(journal=tmp_path / "cut.jsonl"),
        )
        assert resumed.complete
        assert resumed.num_resumed >= 1
        assert resumed.best_edp() == reference.best_edp()

    def test_search_failure_quarantines_not_raises(self, tmp_path):
        """A job whose mapspace has no valid mapping becomes a structured
        quarantine record; its siblings still complete."""
        jobs = [_infeasible_job("doomed"), _job("fine", 60)]
        result = run_campaign(
            jobs,
            CampaignConfig(
                journal=tmp_path / "j.jsonl",
                retries=0,
                backoff_s=0.01,
            ),
        )
        assert result.complete
        doomed = result.by_id()["doomed"]
        assert doomed.status == "quarantined"
        assert doomed.error["type"] == "SearchError"
        assert doomed.error["exit_code"] == 5
        assert result.by_id()["fine"].ok

    def test_raise_fault_retries_then_quarantines(self, tmp_path):
        plan = FaultPlan(
            [Fault("a", attempt, "raise", message="boom") for attempt in range(3)]
        )
        result = run_campaign(
            [_job("a", 60)],
            CampaignConfig(
                journal=tmp_path / "j.jsonl",
                retries=2,
                backoff_s=0.01,
                fault_plan=plan,
            ),
        )
        outcome = result.by_id()["a"]
        assert outcome.status == "quarantined"
        assert outcome.attempts == 3
        assert outcome.error["type"] == "EvaluationError"
        assert "boom" in outcome.error["message"]
        attempts = [
            r for r in Journal(tmp_path / "j.jsonl").read()
            if r.get("kind") == "attempt"
        ]
        assert [r["attempt"] for r in attempts] == [0, 1, 2]

    def test_transient_fault_retried_to_success(self, tmp_path):
        plan = FaultPlan([Fault("a", 0, "raise", message="transient")])
        clean = run_campaign([_job("a", 60)], CampaignConfig())
        result = run_campaign(
            [_job("a", 60)],
            CampaignConfig(
                journal=tmp_path / "j.jsonl",
                retries=2,
                backoff_s=0.01,
                fault_plan=plan,
            ),
        )
        outcome = result.by_id()["a"]
        assert outcome.ok
        assert outcome.attempts == 2
        assert outcome.metrics["edp"] == clean.by_id()["a"].metrics["edp"]

    def test_retry_quarantined_reruns_job(self, tmp_path):
        plan = FaultPlan(
            [Fault("a", attempt, "raise") for attempt in range(2)]
        )
        first = run_campaign(
            [_job("a", 60)],
            CampaignConfig(
                journal=tmp_path / "j.jsonl",
                retries=1,
                backoff_s=0.01,
                fault_plan=plan,
            ),
        )
        assert first.by_id()["a"].status == "quarantined"

        kept = run_campaign(
            [_job("a", 60)],
            CampaignConfig(journal=tmp_path / "j.jsonl"),
        )
        assert kept.by_id()["a"].status == "quarantined"
        assert kept.by_id()["a"].from_journal

        rescued = run_campaign(
            [_job("a", 60)],
            CampaignConfig(
                journal=tmp_path / "j.jsonl",
                retry_quarantined=True,
            ),
        )
        assert rescued.by_id()["a"].ok


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="process isolation needs fork"
)
class TestProcessIsolation:
    """Timeout and crash containment require real worker processes."""

    def test_hang_times_out_then_quarantines(self, tmp_path):
        plan = FaultPlan(
            [Fault("a", attempt, "hang", seconds=60.0) for attempt in range(2)]
        )
        result = run_campaign(
            [_job("a", 60)],
            CampaignConfig(
                journal=tmp_path / "j.jsonl",
                timeout_s=0.4,
                retries=1,
                backoff_s=0.01,
                start_method="fork",
                fault_plan=plan,
            ),
        )
        outcome = result.by_id()["a"]
        assert outcome.status == "quarantined"
        assert outcome.attempts == 2
        assert outcome.error["type"] == "JobTimeoutError"
        assert outcome.error["exit_code"] == 7

    def test_hang_then_recover(self, tmp_path):
        plan = FaultPlan([Fault("a", 0, "hang", seconds=60.0)])
        result = run_campaign(
            [_job("a", 60)],
            CampaignConfig(
                timeout_s=0.4,
                retries=1,
                backoff_s=0.01,
                start_method="fork",
                fault_plan=plan,
            ),
        )
        outcome = result.by_id()["a"]
        assert outcome.ok
        assert outcome.attempts == 2

    def test_worker_crash_detected_and_retried(self, tmp_path):
        plan = FaultPlan([Fault("a", 0, "crash")])
        clean = run_campaign([_job("a", 60)], CampaignConfig())
        result = run_campaign(
            [_job("a", 60)],
            CampaignConfig(
                journal=tmp_path / "j.jsonl",
                retries=1,
                backoff_s=0.01,
                start_method="fork",
                fault_plan=plan,
            ),
        )
        outcome = result.by_id()["a"]
        assert outcome.ok
        assert outcome.attempts == 2
        assert outcome.metrics["edp"] == clean.by_id()["a"].metrics["edp"]
        attempts = [
            r for r in Journal(tmp_path / "j.jsonl").read()
            if r.get("kind") == "attempt"
        ]
        assert attempts[0]["error"]["type"] == "JobCrashError"

    def test_repeated_crash_quarantines(self, tmp_path):
        plan = FaultPlan([Fault("a", attempt, "crash") for attempt in range(2)])
        result = run_campaign(
            [_job("a", 60)],
            CampaignConfig(
                retries=1,
                backoff_s=0.01,
                start_method="fork",
                fault_plan=plan,
            ),
        )
        outcome = result.by_id()["a"]
        assert outcome.status == "quarantined"
        assert outcome.error["type"] == "JobCrashError"
        assert outcome.error["exit_code"] == 8


class TestCampaignStatus:
    def test_status_summarizes_partial_journal(self, tmp_path):
        jobs = [_job("a", 60), _job("b", 100), _job("c", 113)]
        run_campaign(
            jobs,
            CampaignConfig(journal=tmp_path / "j.jsonl"),
            max_jobs=1,
            header_config={"suite": "test"},
        )
        status = campaign_status(tmp_path / "j.jsonl")
        assert status["total"] == 3
        assert len(status["ok"]) == 1
        assert len(status["pending"]) == 2
        assert not status["complete"]
        assert status["config"]["suite"] == "test"

    def test_status_missing_journal_raises(self, tmp_path):
        with pytest.raises(CampaignError):
            campaign_status(tmp_path / "absent.jsonl")


class TestCampaignScope:
    """The experiments' choke point: multi_seed_search under a scope."""

    def test_multi_seed_search_journals_and_replays(self, tmp_path):
        from repro.experiments.common import multi_seed_search

        arch = toy_glb_architecture(6, 1024)
        workload = vector_workload("v96", 96)
        kwargs = dict(
            kind="ruby-s", seeds=(1, 2), max_evaluations=80, patience=None
        )
        plain = multi_seed_search(arch, workload, **kwargs)

        config = CampaignConfig(journal=tmp_path / "j.jsonl")
        with campaign_scope(config):
            first = multi_seed_search(arch, workload, **kwargs)
        journal_after_first = (tmp_path / "j.jsonl").read_text()
        with campaign_scope(config):
            replayed = multi_seed_search(arch, workload, **kwargs)

        assert first.edp == plain.edp
        assert replayed.edp == plain.edp
        assert replayed.cycles == plain.cycles
        # The replay re-evaluated the journaled mapping: no new job record.
        terminal = Journal(tmp_path / "j.jsonl").terminal_jobs()
        assert len(terminal) == 1
        assert (tmp_path / "j.jsonl").read_text() == journal_after_first

    def test_dse_sweep_same_points_direct_scoped_and_replayed(self, tmp_path):
        """evaluate_network runs one search body with or without a journal."""
        from repro.core.dse import sweep_glb_sizes

        workloads = [
            (GemmLayer("g96", 96, 8, 64).workload(), 1),
            (GemmLayer("g48", 48, 24, 40).workload(), 1),
        ]

        def sweep():
            points = sweep_glb_sizes(
                workloads, glb_bytes_options=(64 * 1024,),
                max_evaluations=300, patience=100, restarts=2, seed=1,
            ).points
            return [
                (p.kind, p.energy_pj, p.cycles, p.per_workload_edp)
                for p in points
            ]

        direct = sweep()
        journal = tmp_path / "j.jsonl"
        with campaign_scope(CampaignConfig(journal=journal)):
            scoped = sweep()
        journal_after_first = journal.read_text()
        with campaign_scope(CampaignConfig(journal=journal)):
            replayed = sweep()

        assert len(direct) == 2
        assert scoped == direct
        assert replayed == direct
        # Two kinds x two layers, each one journaled job; the replay adds none.
        assert len(Journal(journal).terminal_jobs()) == 4
        assert journal.read_text() == journal_after_first

    def test_quarantined_job_raises_at_scope_boundary(self, tmp_path):
        from repro.experiments.common import multi_seed_search

        config = CampaignConfig(
            journal=tmp_path / "j.jsonl", retries=0, backoff_s=0.01
        )
        arch = toy_glb_architecture(6, 16)
        workload = GemmLayer("g64", 64, 64, 64).workload()
        with campaign_scope(config):
            with pytest.raises(CampaignError, match="quarantined"):
                multi_seed_search(
                    arch, workload, kind="pfm",
                    seeds=(1,), max_evaluations=40, patience=None,
                )


class TestHeartbeats:
    REQUIRED_KEYS = {"kind", "event", "job_id", "attempt", "time", "monotonic_s"}

    def test_heartbeats_written_with_required_keys(self, tmp_path):
        run_campaign(
            [_job("a", 60)],
            CampaignConfig(journal=tmp_path / "j.jsonl"),
        )
        beats = [
            r
            for r in Journal(tmp_path / "j.jsonl").read()
            if r.get("kind") == "heartbeat"
        ]
        assert [b["event"] for b in beats] == ["start", "ok"]
        for beat in beats:
            assert self.REQUIRED_KEYS <= set(beat)
            assert beat["job_id"] == "a"
            assert beat["attempt"] == 0
            assert isinstance(beat["monotonic_s"], float)

    def test_retry_and_quarantine_heartbeats(self, tmp_path):
        plan = FaultPlan(
            [Fault("a", attempt, "raise", message="boom") for attempt in range(2)]
        )
        run_campaign(
            [_job("a", 60)],
            CampaignConfig(
                journal=tmp_path / "j.jsonl",
                retries=1,
                backoff_s=0.01,
                fault_plan=plan,
            ),
        )
        events = [
            r["event"]
            for r in Journal(tmp_path / "j.jsonl").read()
            if r.get("kind") == "heartbeat"
        ]
        assert events == ["start", "retry", "start", "quarantine"]

    def test_all_journal_records_carry_monotonic_s(self, tmp_path):
        plan = FaultPlan([Fault("a", 0, "raise", message="transient")])
        run_campaign(
            [_job("a", 60)],
            CampaignConfig(
                journal=tmp_path / "j.jsonl",
                retries=1,
                backoff_s=0.01,
                fault_plan=plan,
            ),
        )
        for record in Journal(tmp_path / "j.jsonl").read():
            assert "monotonic_s" in record, record["kind"]
            assert "time" in record

    def test_status_reports_counters_and_running(self, tmp_path):
        path = tmp_path / "j.jsonl"
        run_campaign(
            [_job("a", 60), _job("b", 100)],
            CampaignConfig(journal=path),
        )
        status = campaign_status(path)
        assert status["running"] == []
        assert status["counters"]["a"] == {"start": 1, "ok": 1}
        assert status["counters"]["b"] == {"start": 1, "ok": 1}

    def test_status_infers_running_from_start_surplus(self, tmp_path):
        """A started attempt with no failure/terminal record is in flight."""
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append(
            {"kind": "campaign", "config": {}, "jobs": ["a", "b"]}
        )
        for job_id in ("a", "b"):
            journal.append(
                {
                    "kind": "heartbeat",
                    "event": "start",
                    "job_id": job_id,
                    "attempt": 0,
                    "time": 1.0,
                    "monotonic_s": 1.0,
                }
            )
        journal.append({"kind": "job", "job_id": "b", "status": "ok"})
        status = campaign_status(path)
        assert status["running"] == ["a"]
        assert "a" in status["pending"]

    def test_registry_counts_campaign_events(self, tmp_path):
        from repro.obs import MetricsRegistry, obs_scope

        registry = MetricsRegistry()
        with obs_scope(registry=registry):
            run_campaign(
                [_job("a", 60)],
                CampaignConfig(journal=tmp_path / "j.jsonl"),
            )
        counter = registry.counter("campaign.events")
        assert counter.value(event="start") == 1.0
        assert counter.value(event="ok") == 1.0


class TestJournalIncremental:
    """Byte-offset tail reads powering `campaign status --follow`."""

    def test_growing_journal_consumed_in_pieces(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"kind": "campaign", "config": {}, "jobs": ["a"]})
        records, offset = journal.read_incremental(0)
        assert [r["kind"] for r in records] == ["campaign"]
        assert offset > 0

        # Nothing new: same offset back, no records re-read.
        again, same = journal.read_incremental(offset)
        assert again == []
        assert same == offset

        journal.append({"kind": "heartbeat", "event": "start", "job_id": "a"})
        journal.append({"kind": "job", "job_id": "a", "status": "ok"})
        fresh, advanced = journal.read_incremental(offset)
        assert [r["kind"] for r in fresh] == ["heartbeat", "job"]
        assert advanced > offset

    def test_missing_journal_returns_offset_unchanged(self, tmp_path):
        journal = Journal(tmp_path / "absent.jsonl")
        assert journal.read_incremental(17) == ([], 17)

    def test_torn_tail_left_for_next_poll(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append({"kind": "job", "job_id": "a", "status": "ok"})
        with open(path, "a") as handle:
            handle.write('{"kind": "job", "job_id": "b", "sta')

        records, offset = journal.read_incremental(0)
        assert [r["job_id"] for r in records] == ["a"]
        # The torn line is unconsumed: polling again yields nothing yet.
        assert journal.read_incremental(offset) == ([], offset)

        with open(path, "a") as handle:
            handle.write('tus": "ok"}\n')
        completed, final = journal.read_incremental(offset)
        assert [r["job_id"] for r in completed] == ["b"]
        assert completed[0]["status"] == "ok"
        assert final > offset

    def test_complete_corrupt_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("definitely not json\n")
        with pytest.raises(CampaignError, match="corrupt record"):
            Journal(path).read_incremental(0)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('\n{"kind": "job", "job_id": "a", "status": "ok"}\n\n')
        records, offset = Journal(path).read_incremental(0)
        assert len(records) == 1
        assert offset == path.stat().st_size


class TestCampaignStatusTracker:
    def test_follow_matches_full_status_as_journal_grows(self, tmp_path):
        from repro.search.campaign import CampaignStatusTracker

        path = tmp_path / "j.jsonl"
        jobs = [_job("a", 60), _job("b", 100)]
        run_campaign(jobs, CampaignConfig(journal=path), max_jobs=1)

        tracker = CampaignStatusTracker(path)
        partial = tracker.poll()
        assert partial == campaign_status(path)
        assert not partial["complete"]
        assert len(partial["ok"]) == 1

        # Re-polling a quiet journal folds nothing and stays identical.
        assert tracker.poll() == partial

        run_campaign(jobs, CampaignConfig(journal=path))
        final = tracker.poll()
        assert final == campaign_status(path)
        assert final["complete"]
        assert sorted(final["ok"]) == ["a", "b"]

    def test_poll_tolerates_torn_tail_then_consumes_it(self, tmp_path):
        from repro.search.campaign import CampaignStatusTracker

        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append({"kind": "campaign", "config": {}, "jobs": ["a", "b"]})
        journal.append({"kind": "job", "job_id": "a", "status": "ok"})
        tracker = CampaignStatusTracker(path)
        assert tracker.poll()["ok"] == ["a"]

        with open(path, "a") as handle:
            handle.write('{"kind": "job", "job_id": "b", "sta')
        torn = tracker.poll()
        assert torn["ok"] == ["a"]
        assert "b" in torn["pending"]

        with open(path, "a") as handle:
            handle.write('tus": "ok"}\n')
        healed = tracker.poll()
        assert sorted(healed["ok"]) == ["a", "b"]
        assert healed["complete"]

    def test_poll_missing_journal_raises(self, tmp_path):
        from repro.search.campaign import CampaignStatusTracker

        tracker = CampaignStatusTracker(tmp_path / "absent.jsonl")
        with pytest.raises(CampaignError, match="no journal"):
            tracker.poll()

    def test_poll_empty_journal_raises_until_first_record(self, tmp_path):
        from repro.search.campaign import CampaignStatusTracker

        path = tmp_path / "j.jsonl"
        path.write_text("")
        tracker = CampaignStatusTracker(path)
        with pytest.raises(CampaignError, match="is empty"):
            tracker.poll()
        Journal(path).append(
            {"kind": "campaign", "config": {}, "jobs": ["a"]}
        )
        status = tracker.poll()
        assert status["total"] == 1
        assert status["pending"] == ["a"]


class TestCampaignConfig:
    @pytest.mark.parametrize(
        "settings",
        [
            {"timeout_s": -1},
            {"timeout_s": 0},
            {"timeout_s": True},
            {"timeout_s": "5"},
            {"retries": -1},
            {"retries": 1.5},
            {"retries": True},
            {"backoff_s": -0.1},
            {"backoff_s": float("nan")},
            {"backoff_s": False},
            {"workers": 0},
            {"workers": 2.0},
            {"workers": True},
        ],
    )
    def test_bad_settings_rejected_when_built(self, settings):
        with pytest.raises(CampaignError, match=next(iter(settings))):
            CampaignConfig(**settings)

    def test_good_settings_accepted(self):
        config = CampaignConfig(
            timeout_s=0.5, retries=0, backoff_s=0, workers=3
        )
        assert config.workers == 3


def _record_pid_search(monkeypatch, path):
    """Patch ``search_job`` to append the running process id to ``path``."""
    import repro.search.campaign as campaign

    original = campaign.search_job

    def search_job(job):
        with open(path, "a") as handle:
            handle.write(f"{job.job_id} {os.getpid()}\n")
        return original(job)

    monkeypatch.setattr(campaign, "search_job", search_job)


def _pids(path):
    return dict(line.split() for line in path.read_text().splitlines())


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="worker sessions need fork here"
)
class TestCampaignSession:
    """A scope is one session: one journal read, long-lived workers."""

    JOBS = [("a", 60), ("b", 100), ("c", 113), ("d", 96)]

    def test_scope_runs_jobs_in_one_worker(self, tmp_path, monkeypatch):
        _record_pid_search(monkeypatch, tmp_path / "pids")
        config = CampaignConfig(
            journal=tmp_path / "j.jsonl", start_method="fork"
        )
        with campaign_scope(config) as session:
            for job_id, size in self.JOBS:
                session.submit(_job(job_id, size))
        pids = set(_pids(tmp_path / "pids").values())
        assert len(pids) == 1
        assert pids != {str(os.getpid())}

    def test_scope_reads_journal_once(self, tmp_path, monkeypatch):
        calls = []
        original = Journal.read

        def read(self):
            calls.append(self.path)
            return original(self)

        monkeypatch.setattr(Journal, "read", read)
        with campaign_scope(CampaignConfig(journal=tmp_path / "j.jsonl")) as s:
            for job_id, size in self.JOBS:
                s.submit(_job(job_id, size))
        assert len(calls) == 1

    def test_crash_and_hang_cost_only_their_attempt(self, tmp_path, monkeypatch):
        from repro.search.campaign import search_job

        direct = {
            job_id: search_job(_job(job_id, size)).best.edp
            for job_id, size in self.JOBS
        }
        _record_pid_search(monkeypatch, tmp_path / "pids")
        plan = FaultPlan(
            [Fault("a", 0, "crash"), Fault("b", 0, "hang", seconds=60.0)]
        )
        config = CampaignConfig(
            journal=tmp_path / "j.jsonl",
            timeout_s=2.0,
            retries=1,
            backoff_s=0.01,
            start_method="fork",
            fault_plan=plan,
        )
        with campaign_scope(config) as session:
            scoped = {
                job_id: session.submit(_job(job_id, size)).edp
                for job_id, size in self.JOBS
            }
        assert scoped == direct
        records = Journal(tmp_path / "j.jsonl").read()
        failures = [
            (r["job_id"], r["error"]["type"])
            for r in records if r["kind"] == "attempt"
        ]
        assert failures == [("a", "JobCrashError"), ("b", "JobTimeoutError")]
        attempts = {
            r["job_id"]: r["attempts"] for r in records if r["kind"] == "job"
        }
        assert attempts == {"a": 2, "b": 2, "c": 1, "d": 1}
        # Each failure respawned the worker; c and d reuse b's retry worker.
        pids = _pids(tmp_path / "pids")
        assert pids["a"] != pids["b"]
        assert pids["b"] == pids["c"] == pids["d"]

    def test_no_worker_outlives_the_scope(self, tmp_path):
        import multiprocessing

        config = CampaignConfig(
            journal=tmp_path / "j.jsonl", start_method="fork"
        )
        with campaign_scope(config) as session:
            session.submit(_job("a", 60))
            assert multiprocessing.active_children()
        assert multiprocessing.active_children() == []

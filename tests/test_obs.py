"""Unit tests for the observability layer (repro.obs).

Covers the metrics registry (counters, gauges, histograms, labels,
snapshot/reset/merge, exporters), the span tracer (nesting, JSONL
round-trips, validation, flame summaries), the ambient obs_scope, and
the run timing and stats payload of RunLedger.
"""

import json
import threading

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    Tracer,
    active_obs,
    default_registry,
    flame_summary,
    obs_scope,
    read_trace,
    validate_span,
)
from repro.obs import scope as obs_scope_module
from repro.search.loop import RunLedger


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("search.evaluations")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5.0
        assert counter.total() == 5.0

    def test_labeled_series_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("search.evaluations")
        counter.inc(2, driver="random")
        counter.inc(3, driver="genetic")
        assert counter.value(driver="random") == 2.0
        assert counter.value(driver="genetic") == 3.0
        assert counter.value() == 0.0
        assert counter.total() == 5.0

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)

    def test_same_name_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")


class TestGauge:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("search.best_metric")
        gauge.set(10.0)
        gauge.set(3.5)
        assert gauge.value() == 3.5

    def test_unset_series_is_none(self):
        registry = MetricsRegistry()
        assert registry.gauge("g").value(driver="x") is None


class TestHistogram:
    def test_observe_and_stats(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("run_seconds")
        histogram.observe(0.5)
        histogram.observe(1.5)
        stats = histogram.stats()
        assert stats["count"] == 2
        assert stats["sum"] == pytest.approx(2.0)
        assert stats["mean"] == pytest.approx(1.0)

    def test_default_buckets_are_sorted_and_log_spaced(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-5)
        assert DEFAULT_BUCKETS[-1] == pytest.approx(100.0)

    def test_overflow_lands_in_inf_slot(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        histogram.observe(99.0)
        snapshot = registry.snapshot()["histograms"]["h"]["series"][""]
        assert snapshot["counts"] == [0, 0, 1]

    def test_unsorted_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(2.0, 1.0))


class TestSnapshotResetMerge:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2, driver="x")
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["c"] == {'{driver="x"}': 2.0}
        assert snapshot["gauges"]["g"] == {"": 1.5}
        assert snapshot["histograms"]["h"]["buckets"] == [1.0]
        assert snapshot["histograms"]["h"]["series"][""]["count"] == 1

    def test_snapshot_is_picklable_and_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(1, driver="a")
        registry.histogram("h").observe(0.01)
        text = json.dumps(registry.snapshot())
        assert "driver" in text

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_merge_adds_counters_and_histograms(self):
        child = MetricsRegistry()
        child.counter("c").inc(3, driver="w")
        child.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        parent = MetricsRegistry()
        parent.counter("c").inc(1, driver="w")
        parent.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        parent.merge(child.snapshot())
        assert parent.counter("c").value(driver="w") == 4.0
        stats = parent.histogram("h", buckets=(1.0, 2.0)).stats()
        assert stats["count"] == 2
        assert stats["sum"] == pytest.approx(2.0)

    def test_merge_gauge_last_write_wins(self):
        child = MetricsRegistry()
        child.gauge("g").set(7.0)
        parent = MetricsRegistry()
        parent.gauge("g").set(1.0)
        parent.merge(child.snapshot())
        assert parent.gauge("g").value() == 7.0

    def test_merge_rejects_differing_buckets(self):
        child = MetricsRegistry()
        child.histogram("h", buckets=(1.0,)).observe(0.5)
        parent = MetricsRegistry()
        parent.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        with pytest.raises(ValueError):
            parent.merge(child.snapshot())

    def test_merge_roundtrips_label_values(self):
        child = MetricsRegistry()
        child.counter("c").inc(2, driver="random", mode="batch")
        parent = MetricsRegistry()
        parent.merge(child.snapshot())
        assert parent.counter("c").value(driver="random", mode="batch") == 2.0


class TestExporters:
    def test_to_json_envelope(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        payload = registry.to_json()
        assert payload["schema"] == 1
        assert payload["metrics"]["counters"]["c"][""] == 1.0

    def test_prometheus_counter_total_suffix(self):
        registry = MetricsRegistry()
        registry.counter("search.evaluations").inc(5, driver="random")
        text = registry.to_prometheus()
        assert "# TYPE repro_search_evaluations_total counter" in text
        assert 'repro_search_evaluations_total{driver="random"} 5' in text

    def test_prometheus_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(1.5)
        histogram.observe(9.0)
        text = registry.to_prometheus()
        assert 'repro_h_bucket{le="1.0"} 1' in text
        assert 'repro_h_bucket{le="2.0"} 2' in text
        assert 'repro_h_bucket{le="+Inf"} 3' in text
        assert "repro_h_count 3" in text

    def test_prometheus_empty_registry(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestPrometheusExposition:
    """Exposition-format correctness: escaping, cumulative buckets,
    sum/count consistency (satellite: exposition tests)."""

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(1, driver='we"ird\\x', note="a\nb")
        text = registry.to_prometheus()
        assert 'driver="we\\"ird\\\\x"' in text
        assert 'note="a\\nb"' in text

    def test_escaped_label_values_roundtrip_through_merge(self):
        child = MetricsRegistry()
        labels = {"driver": 'x,"weird\\', "note": "line\nbreak"}
        child.counter("c").inc(3, **labels)
        child.gauge("g").set(1.5, **labels)
        parent = MetricsRegistry()
        parent.merge(child.snapshot())
        assert parent.counter("c").value(**labels) == 3.0
        assert parent.gauge("g").value(**labels) == 1.5

    def test_bucket_series_cumulative_monotone_ending_at_inf(self):
        import re

        from repro.obs import TIMING_BUCKETS

        registry = MetricsRegistry()
        histogram = registry.histogram(
            "span.duration_seconds", buckets=TIMING_BUCKETS
        )
        for value in (1e-7, 3e-6, 4e-5, 0.002, 0.7, 250.0):
            histogram.observe(value, name="s")
        text = registry.to_prometheus()
        bucket_counts = [
            int(match.group(2))
            for match in re.finditer(
                r'repro_span_duration_seconds_bucket\{name="s",'
                r'le="([^"]+)"\} (\d+)',
                text,
            )
        ]
        assert len(bucket_counts) == len(TIMING_BUCKETS) + 1
        assert bucket_counts == sorted(bucket_counts)
        assert 'le="+Inf"} 6' in text
        assert 'repro_span_duration_seconds_count{name="s"} 6' in text

    def test_sum_and_count_consistent(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        values = (0.25, 0.5, 1.5, 3.0)
        for value in values:
            histogram.observe(value)
        text = registry.to_prometheus()
        assert f"repro_h_count {len(values)}" in text
        assert f"repro_h_sum {sum(values)}" in text

    def test_timing_buckets_resolve_sub_10us_spans(self):
        # The finer grid exists so micro-spans do not collapse into one
        # bucket: distinct sub-10µs values must land in distinct buckets.
        from repro.obs import TIMING_BUCKETS

        assert TIMING_BUCKETS[0] < 1e-6
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=TIMING_BUCKETS)
        histogram.observe(2e-7)
        histogram.observe(2e-6)
        counts = registry.snapshot()["histograms"]["h"]["series"][""]["counts"]
        occupied = [i for i, count in enumerate(counts) if count]
        assert len(occupied) == 2


class TestTracer:
    def test_nested_spans_record_parentage(self):
        tracer = Tracer()
        with tracer.span("outer", driver="t"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.records
        assert inner["name"] == "inner"
        assert inner["parent_id"] == outer["span_id"]
        assert inner["depth"] == 1
        assert outer["parent_id"] is None
        assert outer["depth"] == 0
        assert outer["attrs"] == {"driver": "t"}
        assert outer["duration_s"] >= inner["duration_s"]

    def test_span_set_attaches_attrs(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.set(result="ok")
        assert tracer.records[0]["attrs"] == {"result": "ok"}

    def test_error_flag_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.records[0]["error"] is True

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(path) as tracer:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        records = read_trace(path)
        assert [r["name"] for r in records] == ["inner", "outer"]
        for record in records:
            assert validate_span(record) == []

    def test_read_trace_skips_foreign_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(path) as tracer:
            with tracer.span("s"):
                pass
        with open(path, "a") as handle:
            handle.write(json.dumps({"kind": "job", "job_id": "x"}) + "\n")
        assert [r["name"] for r in read_trace(path)] == ["s"]

    def test_read_trace_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(path) as tracer:
            with tracer.span("s"):
                pass
        with open(path, "a") as handle:
            handle.write('{"kind": "span", "trunc')
        assert [r["name"] for r in read_trace(path)] == ["s"]

    def test_close_is_idempotent(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        tracer.close()
        tracer.close()


class TestValidateSpan:
    def test_complete_record_passes(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        assert validate_span(tracer.records[0]) == []

    def test_missing_keys_reported(self):
        problems = validate_span({"kind": "span"})
        assert any("missing key" in p for p in problems)

    def test_negative_duration_reported(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        record = dict(tracer.records[0], duration_s=-1.0)
        assert any("duration_s" in p for p in validate_span(record))

    def test_parentless_span_must_be_root(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        record = dict(tracer.records[0], depth=3)
        assert any("depth 0" in p for p in validate_span(record))


class TestFlameSummary:
    def test_groups_repeated_children(self):
        tracer = Tracer()
        with tracer.span("run"):
            for _ in range(3):
                with tracer.span("batch"):
                    pass
        text = flame_summary(tracer.records)
        assert "run" in text
        assert "batch" in text
        # The three batch spans collapse into one row with count 3.
        batch_line = next(l for l in text.splitlines() if "batch" in l)
        assert " 3 " in batch_line

    def test_empty_trace(self):
        assert flame_summary([]) == "(empty trace)"


class TestObsScope:
    def test_inactive_by_default(self):
        assert active_obs() is None

    def test_helpers_are_noops_when_inactive(self):
        obs_scope_module.inc("nope")
        obs_scope_module.set_gauge("nope", 1.0)
        obs_scope_module.observe("nope", 1.0)
        with obs_scope_module.trace("nope") as span:
            assert span is None

    def test_scope_routes_helpers(self):
        registry = MetricsRegistry()
        with obs_scope(registry=registry) as context:
            assert active_obs() is context
            obs_scope_module.inc("c", 2, driver="t")
            obs_scope_module.set_gauge("g", 5.0)
            obs_scope_module.observe("h", 0.5)
        assert active_obs() is None
        assert registry.counter("c").value(driver="t") == 2.0
        assert registry.gauge("g").value() == 5.0
        assert registry.histogram("h").stats()["count"] == 1

    def test_bare_scope_uses_default_registry(self):
        default_registry().reset()
        with obs_scope() as context:
            assert context.registry is default_registry()

    def test_scopes_nest_innermost_wins(self):
        outer_registry = MetricsRegistry()
        inner_registry = MetricsRegistry()
        with obs_scope(registry=outer_registry):
            with obs_scope(registry=inner_registry):
                obs_scope_module.inc("c")
            obs_scope_module.inc("c")
        assert inner_registry.counter("c").value() == 1.0
        assert outer_registry.counter("c").value() == 1.0

    def test_trace_path_owns_tracer(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with obs_scope(registry=MetricsRegistry(), trace_path=path):
            with obs_scope_module.trace("s", i=1) as span:
                assert span is not None
        records = read_trace(path)
        assert [r["name"] for r in records] == ["s"]

    def test_tracer_and_trace_path_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            with obs_scope(
                tracer=Tracer(), trace_path=tmp_path / "t.jsonl"
            ):
                pass  # pragma: no cover

    def test_scope_restores_previous_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with obs_scope(registry=registry):
                raise RuntimeError("x")
        assert active_obs() is None

    def test_thread_safety_of_counters(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value() == 4000.0


class _FakeCache:
    def __init__(self):
        self.hits = 10
        self.misses = 30
        self.max_entries = 100

    def __len__(self):
        return 40


class _FakeEvaluator:
    def __init__(self):
        self.cache = _FakeCache()


class TestSearchTimer:
    """Run timing, cache baseline and stats payload, owned by RunLedger."""

    def test_payload_keys_without_cache(self):
        timer = RunLedger(None, driver="t")
        with timer:
            pass
        stats = timer.stats()
        # "batch"/"bnb"/"progress" are always present (all-zero / empty on
        # runs that never touch them) so the SearchResult.stats schema is
        # uniform across every searcher.
        assert set(stats) == {
            "elapsed_s",
            "evals_per_sec",
            "batch",
            "bnb",
            "progress",
        }
        assert stats["elapsed_s"] >= 0.0
        assert stats["batch"]["candidates"] == 0
        assert stats["batch"]["prune_rate"] == 0.0
        assert stats["bnb"]["nodes_expanded"] == 0
        assert stats["progress"]["completed_units"] == 0

    def test_payload_reports_cache_deltas(self):
        evaluator = _FakeEvaluator()
        timer = RunLedger(evaluator, driver="t")
        with timer:
            evaluator.cache.hits += 5
            evaluator.cache.misses += 15
        stats = timer.stats()
        assert stats["cache"]["hits"] == 5
        assert stats["cache"]["misses"] == 15
        assert stats["cache"]["hit_rate"] == pytest.approx(0.25)

    def test_publishes_into_ambient_registry(self):
        registry = MetricsRegistry()
        evaluator = _FakeEvaluator()
        with obs_scope(registry=registry):
            timer = RunLedger(evaluator, driver="t")
            with timer:
                evaluator.cache.hits += 2
                timer.count(50)
            timer.stats()
        assert registry.counter("search.runs").value(driver="t") == 1.0
        assert registry.counter("search.candidates").value(driver="t") == 50.0
        # Cache hits have one owner, the cache: the run mirrors no copy.
        assert timer.stats()["cache"]["hits"] == 2
        assert "cache.hits" not in registry.names()
        assert (
            registry.histogram("search.run_seconds").stats(driver="t")["count"]
            == 1
        )

    def test_no_publish_when_inactive(self):
        timer = RunLedger(None, driver="t")
        with timer:
            timer.count(1)
        timer.stats()  # must not raise nor touch any registry

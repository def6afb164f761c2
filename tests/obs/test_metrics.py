"""Unit tests for the metrics registry (obs/metrics.py).

The registry follows the repo's established merge algebra — the
``snapshot()`` / ``restore()`` / ``merge()`` triple that ``RunMetrics``,
``MessageStatistics``, and ``AdmissionStats`` already speak — so these
tests pin the same contracts: exact round-trips, associative summing,
and loud failures on incompatible grids.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import Counter, Gauge, MetricsRegistry, Timeline


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_rejects_negative_increments(self):
        counter = Counter()
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1.0)
        assert counter.value == 0.0


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge()
        gauge.set(4)
        gauge.add(-1.5)
        assert gauge.value == pytest.approx(2.5)


def flat_timeline(interval: float, samples: int, **levels) -> Timeline:
    """A timeline whose named series hold one level at every sample."""
    timeline = Timeline(interval)
    timeline.restore({"interval": interval, "samples": samples, "series": {
        name: [[k * interval, level] for k in range(samples)]
        for name, level in levels.items()}})
    return timeline


class TestTimeline:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError, match="positive"):
            Timeline(0.0)
        with pytest.raises(ValueError, match="positive"):
            Timeline(-1.0)

    def test_snapshot_restore_round_trip(self):
        timeline = flat_timeline(0.5, 4, depth=3.0)
        snapshot = json.loads(json.dumps(timeline.snapshot()))
        restored = Timeline(0.5)
        restored.restore(snapshot)
        assert restored.snapshot() == timeline.snapshot()

    def test_merge_sums_tick_aligned(self):
        left = flat_timeline(1.0, 2, depth=2.0)    # (0, 2), (1, 2)
        right = flat_timeline(1.0, 3, depth=5.0)   # (0, 5), (1, 5), (2, 5)
        left.merge(right.snapshot())
        assert left.series["depth"] == [(0.0, 7.0), (1.0, 7.0), (2.0, 5.0)]

    def test_interval_mismatch_is_loud(self):
        coarse = Timeline(1.0)
        fine = Timeline(0.5)
        with pytest.raises(ValueError, match="intervals differ"):
            coarse.merge(fine.snapshot())
        with pytest.raises(ValueError, match="intervals differ"):
            coarse.restore(fine.snapshot())

    def test_empty_run_snapshot_merges_as_noop(self):
        timeline = flat_timeline(1.0, 2, depth=2.0)
        before = timeline.snapshot()
        timeline.merge(Timeline(1.0).snapshot())
        assert timeline.snapshot() == before


class TestMetricsRegistry:
    def make_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("jobs_total").inc(3)
        registry.counter("messages_total", {"link": "A->B"}).inc(5)
        registry.counter("messages_total", {"link": "B->A"}).inc(2)
        registry.gauge("in_flight").set(4)
        registry.histogram("latency").record(0.25)
        registry.histogram("latency").record(3.0)
        registry.timeline.restore(
            flat_timeline(1.0, 3, in_flight=4.0).snapshot())
        return registry

    def test_families_are_identity_per_label_set(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a", {"x": "1"}) \
            is registry.counter("a", {"x": "1"})
        assert registry.counter("a") is not registry.counter("a", {"x": "1"})
        # Label order never splits a series.
        assert registry.gauge("g", {"x": "1", "y": "2"}) \
            is registry.gauge("g", {"y": "2", "x": "1"})

    def test_snapshot_is_json_round_trippable(self):
        registry = self.make_registry()
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["schema"] == 1
        rows = snapshot["counters"]["messages_total"]
        assert [row["labels"] for row in rows] == [{"link": "A->B"},
                                                   {"link": "B->A"}]
        assert [row["value"] for row in rows] == [5, 2]

    def test_restore_round_trip(self):
        registry = self.make_registry()
        restored = MetricsRegistry()
        restored.restore(registry.snapshot())
        assert restored.snapshot() == registry.snapshot()

    def test_merge_sums_counters_gauges_and_histograms(self):
        merged = MetricsRegistry()
        merged.merge(self.make_registry().snapshot())
        merged.merge(self.make_registry().snapshot())
        snapshot = merged.snapshot()
        assert snapshot["counters"]["jobs_total"][0]["value"] == 6
        assert snapshot["gauges"]["in_flight"][0]["value"] == 8
        histogram = merged.histogram("latency")
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(6.5)
        # Timelines tick-align and sum too.
        assert merged.timeline.series["in_flight"] == [
            (0.0, 8.0), (1.0, 8.0), (2.0, 8.0)]

    def test_mid_run_flush_equals_one_shot_totals(self):
        # A registry flushed mid-run (snapshot, then keep counting) must
        # aggregate to the same totals as an unflushed run.
        running = MetricsRegistry()
        running.counter("jobs_total").inc(2)
        flushed = running.snapshot()
        running.restore(MetricsRegistry().snapshot())
        running.counter("jobs_total").inc(3)
        aggregate = MetricsRegistry()
        aggregate.merge(flushed)
        aggregate.merge(running.snapshot())
        assert aggregate.counter("jobs_total").value == 5

    def test_empty_registry_exports_empty_exposition(self):
        registry = MetricsRegistry()
        assert registry.prometheus_text() == ""
        # And an empty snapshot merges as a no-op.
        populated = self.make_registry()
        before = populated.snapshot()
        populated.merge(registry.snapshot())
        assert populated.snapshot() == before

    def test_prometheus_text_structure(self):
        text = self.make_registry().prometheus_text()
        lines = text.splitlines()
        assert "# TYPE repro_jobs_total counter" in lines
        assert "# TYPE repro_in_flight gauge" in lines
        assert "# TYPE repro_latency histogram" in lines
        assert 'repro_messages_total{link="A->B"} 5' in lines
        assert "repro_in_flight 4" in lines
        # Histogram buckets are cumulative and end at +Inf == count.
        buckets = [line for line in lines
                   if line.startswith("repro_latency_bucket")]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)
        assert buckets[-1] == 'repro_latency_bucket{le="+Inf"} 2'
        assert "repro_latency_count 2" in lines
        assert text.endswith("\n")

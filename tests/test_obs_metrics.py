"""Unit tests for the metrics registry and its exporters."""

import json

import pytest

from repro.obs import (
    EXECUTION_PREFIXES,
    Histogram,
    MetricsRegistry,
    measurement_counters,
)
from repro.obs.export import metrics_json, to_prometheus, write_metrics


class TestCounters:
    def test_inc_creates_and_accumulates(self):
        registry = MetricsRegistry()
        registry.inc("probe.sent")
        registry.inc("probe.sent", 4)
        assert registry.get("probe.sent") == 5
        assert registry.get("missing") == 0

    def test_snapshot_is_a_copy(self):
        registry = MetricsRegistry()
        registry.inc("a")
        snapshot = registry.counters_snapshot()
        registry.inc("a")
        assert snapshot == {"a": 1}
        assert registry.get("a") == 2


class TestGauges:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("phase.trace.seconds", 1.5)
        registry.set_gauge("phase.trace.seconds", 0.25)
        assert registry.gauge("phase.trace.seconds") == 0.25
        assert registry.gauge("missing", -1.0) == -1.0


class TestHistogram:
    def test_bucket_placement_inclusive_upper_bound(self):
        histogram = Histogram((1.0, 5.0))
        for value in (0.5, 1.0, 3.0, 5.0, 9.0):
            histogram.observe(value)
        # <=1, <=5, +Inf
        assert histogram.counts == [2, 2, 1]
        assert histogram.count == 5
        assert histogram.total == pytest.approx(18.5)
        assert histogram.mean == pytest.approx(3.7)

    def test_empty_mean_is_zero(self):
        assert Histogram().mean == 0.0

    def test_registry_observe_reuses_histogram(self):
        registry = MetricsRegistry()
        registry.observe("trace.hops", 3, buckets=(2.0, 4.0))
        registry.observe("trace.hops", 10)
        histogram = registry.histograms["trace.hops"]
        assert histogram.bounds == (2.0, 4.0)
        assert histogram.count == 2


class TestRegistryMerge:
    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.set_gauge("b", 1.0)
        registry.observe("c", 1.0)
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


class TestMeasurementCounters:
    def test_execution_namespaces_filtered_out(self):
        counters = {
            "probe.sent.traceroute": 10,
            "revelation.traces": 3,
            "engine.trajectory_hits": 7,
            "phase.trace.trajectory_hits": 7,
            "span.count": 1,
        }
        kept = measurement_counters(counters)
        assert kept == {
            "probe.sent.traceroute": 10,
            "revelation.traces": 3,
        }
        for prefix in EXECUTION_PREFIXES:
            assert not any(name.startswith(prefix) for name in kept)


class TestExport:
    def _registry(self):
        registry = MetricsRegistry()
        registry.inc("probe.sent.traceroute", 12)
        registry.set_gauge("phase.trace.seconds", 1.5)
        registry.observe("trace.hops", 3, buckets=(2.0, 4.0))
        registry.observe("trace.hops", 9)
        return registry

    def test_prometheus_counter_and_sanitised_names(self):
        text = to_prometheus(self._registry())
        assert "# TYPE repro_probe_sent_traceroute counter" in text
        assert "repro_probe_sent_traceroute 12" in text
        assert "# TYPE repro_phase_trace_seconds gauge" in text

    def test_prometheus_histogram_is_cumulative(self):
        lines = to_prometheus(self._registry()).splitlines()
        buckets = [
            line for line in lines if "trace_hops_bucket" in line
        ]
        assert buckets == [
            'repro_trace_hops_bucket{le="2"} 0',
            'repro_trace_hops_bucket{le="4"} 1',
            'repro_trace_hops_bucket{le="+Inf"} 2',
        ]
        assert "repro_trace_hops_count 2" in lines
        assert "repro_trace_hops_sum 12" in lines

    def test_metrics_json_round_trips(self):
        data = json.loads(metrics_json(self._registry()))
        assert data["counters"]["probe.sent.traceroute"] == 12
        assert data["histograms"]["trace.hops"]["count"] == 2

    def test_write_metrics_format_follows_suffix(self, tmp_path):
        registry = self._registry()
        prom = write_metrics(registry, tmp_path / "metrics.prom")
        js = write_metrics(registry, tmp_path / "metrics.json")
        assert prom.read_text().startswith("# TYPE repro_")
        assert json.loads(js.read_text())["counters"]

"""Observability contracts at the campaign level.

Pins the counter namespace invariance (measurement counters identical
between the trajectory engine and its walk-per-probe reference), the
per-phase timing and cache attribution, the report's edge cases, the
span coverage of the revelation techniques on the GNS3 golden
scenarios, and the CLI's ``--trace-out`` / ``--metrics-out``
artefacts.
"""

import json

import pytest

from repro.campaign.orchestrator import (
    Campaign,
    CampaignConfig,
    CampaignResult,
    PerfStats,
)
from repro.campaign.report import render_perf_section
from repro.cli import main
from repro.core.brpr import backward_recursive_revelation
from repro.core.dpr import direct_path_revelation
from repro.core.revelation import reveal_tunnel
from repro.obs import (
    DEBUG,
    INFO,
    RingBufferSink,
    get_event_log,
    measurement_counters,
)
from repro.synth.gns3 import build_gns3
from repro.synth.internet import InternetConfig, build_internet


def _run_campaign(trajectory_cache):
    internet = build_internet(
        InternetConfig(seed=77, trajectory_cache=trajectory_cache)
    )
    campaign = Campaign(
        internet.prober,
        internet.vps,
        internet.asn_of_address,
        CampaignConfig(suspicious_asns=tuple(internet.transit_asns)),
    )
    return campaign, campaign.run(internet.campaign_targets())


@pytest.fixture(scope="module")
def cached_and_walked():
    """The seeded campaign on the trajectory engine and on its
    walk-per-probe reference."""
    return _run_campaign(True), _run_campaign(False)


@pytest.fixture(scope="module")
def cached(cached_and_walked):
    """The default (cached) run: its orchestrator and result."""
    return cached_and_walked[0]


class TestCounterInvariance:
    def test_measurement_counters_identical(self, cached_and_walked):
        (cached, cached_result), (walked, walked_result) = (
            cached_and_walked
        )
        assert cached_result == walked_result
        cached_counters = measurement_counters(
            cached.obs.metrics.counters
        )
        assert cached_counters == measurement_counters(
            walked.obs.metrics.counters
        )
        # And they are not trivially empty.
        assert cached_counters["probe.sent.traceroute"] > 0
        assert cached_counters["revelation.attempts"] > 0

    def test_execution_counters_differ_as_expected(
        self, cached_and_walked
    ):
        (cached, _), (walked, _) = cached_and_walked
        # The reference walks every probe: no cache lookups, more hops
        # — the exact reason engine.* is excluded from the contract.
        assert cached.obs.metrics.get("engine.trajectory_hits") > 0
        assert walked.obs.metrics.get("engine.trajectory_hits") == 0
        assert walked.obs.metrics.get(
            "engine.hops_walked"
        ) > cached.obs.metrics.get("engine.hops_walked")


class TestPhaseAttribution:
    def test_perf_stats_populated(self, cached):
        _, result = cached
        phases = result.perf.phase_seconds
        assert set(phases) == {"trace", "ping", "extract", "revelation"}
        assert all(seconds >= 0.0 for seconds in phases.values())
        assert result.perf.total_seconds == pytest.approx(
            sum(phases.values())
        )
        assert result.perf.packets_simulated > 0
        assert 0.0 <= result.perf.hit_rate <= 1.0

    def test_phase_counters_match_registry(self, cached):
        campaign, result = cached
        metrics = campaign.obs.metrics
        assert set(result.perf.phase_counters) == {
            "trace", "ping", "extract", "revelation",
        }
        for phase, counters in result.perf.phase_counters.items():
            assert counters["trajectory_hits"] == metrics.get(
                f"phase.{phase}.trajectory_hits"
            )
            assert counters["trajectory_misses"] == metrics.get(
                f"phase.{phase}.trajectory_misses"
            )
            assert metrics.gauge(f"phase.{phase}.seconds") >= 0.0

    def test_phase_deltas_sum_to_run_totals(self, cached):
        _, result = cached
        hits = sum(
            c["trajectory_hits"]
            for c in result.perf.phase_counters.values()
        )
        misses = sum(
            c["trajectory_misses"]
            for c in result.perf.phase_counters.values()
        )
        assert hits == result.perf.trajectory_hits
        assert misses == result.perf.trajectory_misses


class TestPerfSectionEdgeCases:
    def test_default_perf_stats_render(self):
        section = render_perf_section(CampaignResult())
        assert "## Performance" in section
        assert "phase" not in section  # no phases recorded
        assert "0.0%" in section  # hit rate defined at zero probes

    def test_zero_probe_campaign(self):
        internet = build_internet(InternetConfig(seed=78))
        campaign = Campaign(
            internet.prober,
            internet.vps,
            internet.asn_of_address,
            CampaignConfig(),
        )
        result = campaign.run([])
        assert result.probes_sent == 0
        section = render_perf_section(result)
        assert "trace phase" in section
        assert "(0 hits, 0 misses)" in section

    def test_per_phase_rows_show_cache_deltas(self):
        result = CampaignResult()
        result.perf = PerfStats(
            phase_seconds={"trace": 1.0},
            phase_counters={
                "trace": {
                    "trajectory_hits": 3, "trajectory_misses": 4,
                },
            },
        )
        section = render_perf_section(result)
        assert "1.000 s (3 hits, 4 misses)" in section


class TestGoldenScenarioSpans:
    @pytest.fixture()
    def capture(self):
        log = get_event_log()
        sink = RingBufferSink()
        log.attach(sink)
        log.set_level(DEBUG)
        yield sink
        log.detach(sink)
        log.set_level(INFO)

    def test_revelation_techniques_produce_spans(self, capture):
        testbed = build_gns3("backward-recursive")
        ingress = testbed.address("PE1.left")
        egress = testbed.address("PE2.left")
        reveal_tunnel(
            testbed.prober, testbed.vantage_point,
            ingress=ingress, egress=egress,
        )
        direct_path_revelation(
            testbed.prober, testbed.vantage_point,
            ingress=ingress, egress=egress,
        )
        backward_recursive_revelation(
            testbed.prober, testbed.vantage_point,
            ingress=ingress, egress=egress,
        )
        names = {
            record["name"] for record in capture.of_kind("span")
        }
        assert {
            "revelation.reveal", "revelation.dpr", "revelation.brpr",
            "probe.traceroute",
        } <= names

    def test_revelation_steps_and_verdicts_logged(self, capture):
        testbed = build_gns3("backward-recursive")
        revelation = reveal_tunnel(
            testbed.prober, testbed.vantage_point,
            ingress=testbed.address("PE1.left"),
            egress=testbed.address("PE2.left"),
        )
        steps = capture.of_kind("revelation.step")
        assert len(steps) == revelation.traces_used
        (verdict,) = capture.of_kind("revelation.verdict")
        assert verdict["method"] == revelation.method.value
        assert verdict["revealed"] == len(revelation.revealed)


class TestCliArtefacts:
    def teardown_method(self):
        get_event_log().set_level(INFO)

    def test_trace_and_metrics_out(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        # Unique seed: campaign_context is cached, and a cache hit
        # would replay no events into the fresh sink.
        code = main([
            "campaign", "--scale", "0.3", "--seed", "910037",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        span_names = {
            r["name"] for r in records if r["kind"] == "span"
        }
        assert "campaign.run" in span_names
        assert "revelation.reveal" in span_names
        assert any(r["kind"] == "campaign.metrics" for r in records)
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["campaign.runs"] == 1
        assert metrics["counters"]["probe.sent.traceroute"] > 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        assert "metrics written to" in out

    def test_prometheus_suffix(self, tmp_path):
        path = tmp_path / "metrics.prom"
        code = main([
            "campaign", "--scale", "0.3", "--seed", "910038",
            "--metrics-out", str(path),
        ])
        assert code == 0
        assert path.read_text().startswith("# TYPE repro_")

    def test_verbose_flag_accepted(self, capsys):
        assert main(["-v", "list"]) == 0
        assert "fig01" in capsys.readouterr().out

"""Record → replay determinism for the measurement plane."""

import json

import pytest

from repro.campaign.orchestrator import Campaign, CampaignConfig
from repro.measure import (
    ProbeRequest,
    RecordingBackend,
    ReplayBackend,
    ReplayMiss,
    SimBackend,
)
from repro.measure.replay import SCHEMA
from repro.obs import Obs, measurement_counters
from repro.probing.prober import Prober
from repro.synth.internet import InternetConfig, build_internet
from repro.synth.profiles import paper_profiles


_CONFIG = InternetConfig(
    profiles=tuple(paper_profiles(0.4)),
    vantage_points=3,
    stubs_per_transit=2,
    seed=11,
)


def _campaign(prober, internet, **overrides):
    return Campaign(
        prober,
        internet.vps,
        internet.asn_of_address,
        CampaignConfig(
            suspicious_asns=tuple(internet.transit_asns), **overrides
        ),
    )


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One recorded golden-topology campaign: (path, result, counters)."""
    path = str(tmp_path_factory.mktemp("probelog") / "campaign.jsonl")
    internet = build_internet(_CONFIG)
    recording = RecordingBackend(SimBackend(internet.engine), path)
    campaign = _campaign(Prober(recording), internet)
    result = campaign.run(internet.campaign_targets())
    recording.close()
    counters = measurement_counters(
        campaign.obs.metrics.counters_snapshot()
    )
    return path, result, counters


class TestRecording:
    def test_log_has_schema_header(self, recorded):
        path, _, _ = recorded
        with open(path, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header["schema"] == SCHEMA
        assert header["backend"] == "sim"

    def test_log_entries_are_deduplicated(self, recorded):
        path, _, _ = recorded
        keys = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if "schema" in record:
                    continue
                keys.append((
                    record["source"], record["dst"], record["ttl"],
                    record["flow"], record["kind"],
                ))
        assert keys
        assert len(keys) == len(set(keys))


class TestReplayDeterminism:
    def test_replay_reproduces_campaign_result(self, recorded):
        path, golden, _ = recorded
        internet = build_internet(_CONFIG)  # fresh topology metadata
        prober = Prober(ReplayBackend(path), obs=Obs())
        campaign = _campaign(prober, internet)
        replayed = campaign.run(internet.campaign_targets())
        assert replayed == golden

    def test_replay_reproduces_measurement_counters(self, recorded):
        path, _, golden_counters = recorded
        internet = build_internet(_CONFIG)
        prober = Prober(ReplayBackend(path), obs=Obs())
        campaign = _campaign(prober, internet)
        campaign.run(internet.campaign_targets())
        counters = measurement_counters(
            campaign.obs.metrics.counters_snapshot()
        )
        # The replay registry is fresh, so the measurement namespaces
        # must match the recorded run exactly — minus the engine-side
        # alias markers the simulator records (replay has no engine).
        golden = {
            name: value
            for name, value in golden_counters.items()
            if not name.startswith(("engine.", "span."))
        }
        counters = {
            name: value
            for name, value in counters.items()
            if not name.startswith(("engine.", "span."))
        }
        assert counters == golden

    def test_replay_miss_raises(self, recorded):
        path, _, _ = recorded
        backend = ReplayBackend(path)
        with pytest.raises(ReplayMiss):
            backend.submit(
                ProbeRequest("nonexistent-vp", 1, 1, 1)
            )

    def test_replay_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "repro.probelog/99"}\n')
        with pytest.raises(ValueError):
            ReplayBackend(str(path))


class TestBudgetedPartialRun:
    def test_partial_result_is_clean_and_reported(self):
        internet = build_internet(_CONFIG)
        campaign = _campaign(
            Prober(SimBackend(internet.engine)), internet,
            probe_budget=60,
        )
        result = campaign.run(internet.campaign_targets())
        assert result.partial
        assert result.probes_sent <= 60
        assert result.stop_reason
        # The partial result still renders a full report.
        from repro.campaign.postprocess import Aggregator
        from repro.campaign.report import render_report

        aggregator = Aggregator(result, internet.asn_of_address)
        text = render_report(result, aggregator)
        assert "Partial run" in text
        assert "probe budget exhausted" in text

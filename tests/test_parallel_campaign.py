"""Parallel campaign execution must be bit-identical to serial.

``workers > 1`` only prewarms the forwarding engine's trajectory
cache in forked workers; the measurements themselves are replayed by
the same serial code path.  These tests pin that contract on the
seeded Internet, plus the ping-phase merge semantics that make any
shard order deterministic.
"""

import pytest

from repro.campaign.orchestrator import (
    Campaign,
    CampaignConfig,
    CampaignResult,
)
from repro.net.topology import Network
from repro.probing.prober import PingResult, Trace, TraceHop
from repro.synth.internet import InternetConfig, build_internet


def _run_campaign(workers):
    internet = build_internet(InternetConfig(seed=77))
    campaign = Campaign(
        internet.prober,
        internet.vps,
        internet.asn_of_address,
        CampaignConfig(
            suspicious_asns=tuple(internet.transit_asns),
            workers=workers,
        ),
    )
    return campaign.run(internet.campaign_targets())


@pytest.fixture(scope="module")
def serial_and_parallel():
    return _run_campaign(1), _run_campaign(4)


class TestParallelEqualsSerial:
    def test_measurements_bit_identical(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert serial == parallel

    def test_analyzer_state_identical(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert serial.inventory == parallel.inventory
        assert serial.rtla == parallel.rtla

    def test_perf_stats_populated(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert serial.perf.workers == 1
        assert parallel.perf.workers == 4
        for result in (serial, parallel):
            phases = result.perf.phase_seconds
            assert set(phases) == {
                "trace", "ping", "extract", "revelation",
            }
            assert all(seconds >= 0.0 for seconds in phases.values())
            assert result.perf.total_seconds == pytest.approx(
                sum(phases.values())
            )
            assert result.perf.packets_simulated > 0
            assert 0.0 <= result.perf.hit_rate <= 1.0
        # The parallel replay runs against a prewarmed cache.
        assert parallel.perf.hit_rate > serial.perf.hit_rate


class _ScriptedProber:
    """Ping stub with per-(vp, address) scripted responsiveness."""

    def __init__(self, responses):
        self.responses = responses
        self.probes_sent = 0
        self.engine = None

    def ping(self, source, dst):
        self.probes_sent += 1
        responded = self.responses[(source.name, dst)]
        return PingResult(
            dst=dst,
            responded=responded,
            reply_ttl=60 if responded else None,
            source=source.name,
        )


def _trace_seeing(source, address):
    return Trace(
        source=source,
        source_address=1,
        dst=9999,
        flow_id=1,
        hops=[TraceHop(probe_ttl=2, address=address)],
    )


class TestPingPhaseMerge:
    def _campaign(self, responses):
        network = Network()
        vp_a = network.add_router("A", asn=1)
        vp_b = network.add_router("B", asn=1)
        prober = _ScriptedProber(responses)
        return Campaign(
            prober, [vp_a, vp_b], lambda address: 1, CampaignConfig()
        )

    def test_first_responsive_ping_wins(self):
        campaign = self._campaign(
            {("A", 42): True, ("B", 42): True}
        )
        result = CampaignResult()
        result.traces = [_trace_seeing("A", 42), _trace_seeing("B", 42)]
        campaign.ping_phase(result)
        # Both VPs answered; the first (A) must not be clobbered.
        assert result.pings[42].source == "A"

    def test_responsive_ping_replaces_unresponsive(self):
        campaign = self._campaign(
            {("A", 42): False, ("B", 42): True}
        )
        result = CampaignResult()
        result.traces = [_trace_seeing("A", 42), _trace_seeing("B", 42)]
        campaign.ping_phase(result)
        assert result.pings[42].source == "B"
        assert result.pings[42].responded

    def test_unresponsive_never_downgrades(self):
        campaign = self._campaign(
            {("A", 42): True, ("B", 42): False}
        )
        result = CampaignResult()
        result.traces = [_trace_seeing("A", 42), _trace_seeing("B", 42)]
        campaign.ping_phase(result)
        assert result.pings[42].source == "A"
        assert result.pings[42].responded

"""The ping phase's merge semantics.

Each address is pinged from every vantage point that saw it, and
``result.pings`` keeps the first responsive reply: an unresponsive
placeholder is upgraded once and never downgraded, so the mapping does
not depend on the order the pings arrive in.
"""

from repro.campaign.orchestrator import (
    Campaign,
    CampaignConfig,
    CampaignResult,
)
from repro.net.topology import Network
from repro.probing.prober import PingResult, Trace, TraceHop


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

"""Correctness tests for the engine's trajectory cache.

The cached dataplane must be *observationally invisible*: every
measurement (traceroute hops, pings, UDP alias probes) produced by a
trajectory-cached engine must equal, field for field, what the
original walk-per-probe engine produces, whether probes are submitted
one by one or in batches — on the synthetic Internet
and on all four GNS3 golden scenarios — and topology edits must flush
the cache so failure injection cannot see stale paths.  Router
liveness (ICMP flags flipped without any invalidation) must bypass the
memoised replies.
"""

import pytest

from repro.campaign.orchestrator import Campaign, CampaignConfig
from repro.dataplane.engine import ForwardingEngine
from repro.dataplane.packet import ECHO_REQUEST
from repro.faults import FaultyBackend, fault_profile
from repro.measure import RecordingBackend, SimBackend
from repro.measure.backend import ProbeRequest
from repro.mpls.config import MplsConfig, PoppingMode
from repro.mpls.rsvp import TeTunnel
from repro.net.topology import Network
from repro.net.vendors import CISCO
from repro.probing.prober import Prober
from repro.routing.control import ControlPlane
from repro.synth.gns3 import SCENARIOS, build_gns3
from repro.synth.internet import InternetConfig, build_internet
from repro.synth.profiles import paper_profiles


@pytest.fixture(scope="module")
def twins():
    cached = build_internet(InternetConfig(seed=77))
    uncached = build_internet(
        InternetConfig(seed=77, trajectory_cache=False)
    )
    return cached, uncached


def small_internet(trajectory_cache=True):
    return build_internet(
        InternetConfig(
            profiles=tuple(paper_profiles(0.4)),
            vantage_points=3,
            stubs_per_transit=2,
            seed=11,
            trajectory_cache=trajectory_cache,
        )
    )


def _record_log(tmp_path, name, trajectory_cache, profile):
    """Record probing to a JSONL log; returns its bytes."""
    internet = small_internet(trajectory_cache)
    backend = SimBackend(internet.engine)
    if profile is not None:
        backend = FaultyBackend(backend, fault_profile(profile))
    path = str(tmp_path / name)
    recording = RecordingBackend(backend, path)
    prober = Prober(recording, obs=internet.engine.obs)
    # Every VP over ten targets: enough probes to pass the flap
    # profile's flap positions.
    for vp in internet.vps:
        for dst in internet.campaign_targets()[:10]:
            prober.traceroute(vp, dst)
            prober.ping(vp, dst)
    recording.close()
    with open(path, "rb") as handle:
        return handle.read()


def _liveness_requests(internet):
    vp = internet.vps[0]
    dst = internet.campaign_targets()[0]
    return [ProbeRequest(vp.name, dst, ttl, 7) for ttl in range(2, 10)]


def trace_signature(trace):
    """Everything a trace observes, as one comparable tuple."""
    return (
        trace.destination_reached,
        tuple(
            (
                hop.probe_ttl, hop.reply_kind, hop.address,
                hop.reply_ttl, tuple(hop.quoted_labels), hop.rtt_ms,
            )
            for hop in trace.hops
        ),
    )


def sweep_requests(internet, targets=20):
    """Hop probes (TTL 1-16) and a ping per VP x target pair: over a
    thousand probes, so a flap profile fires all its flaps."""
    requests = []
    for vp in internet.vps:
        for flow, dst in enumerate(internet.campaign_targets()[:targets]):
            for ttl in list(range(1, 17)) + [64]:
                requests.append(ProbeRequest(vp.name, dst, ttl, flow))
    return requests


def reply_signatures(replies):
    """The fields a vantage point observes, per reply."""
    return [
        (
            reply.probe_ttl, reply.reply_kind, reply.responder,
            reply.reply_ttl, tuple(reply.quoted_labels), reply.rtt_ms,
        )
        for reply in replies
    ]


def submit_in_batches(engine, requests, size):
    replies = []
    for start in range(0, len(requests), size):
        replies.extend(engine.send_probe_batch(requests[start:start + size]))
    return replies


class TestCachedEqualsUncached:
    def test_traceroutes_byte_identical_on_internet(self, twins):
        cached, uncached = twins
        targets = cached.campaign_targets()[:20]
        for vp_c, vp_u in zip(cached.vps, uncached.vps):
            for dst in targets:
                trace_c = cached.prober.traceroute(vp_c, dst, start_ttl=2)
                trace_u = uncached.prober.traceroute(
                    vp_u, dst, start_ttl=2
                )
                assert trace_c == trace_u
                # Repeat with a warm cache: still identical.
                assert cached.prober.traceroute(
                    vp_c, dst, start_ttl=2
                ) == trace_u

    def test_pings_and_udp_probes_identical(self, twins):
        cached, uncached = twins
        vp_c, vp_u = cached.vps[0], uncached.vps[0]
        trace = cached.prober.traceroute(
            vp_c, cached.campaign_targets()[0], start_ttl=2
        )
        for address in trace.addresses:
            assert cached.prober.ping(vp_c, address) == (
                uncached.prober.ping(vp_u, address)
            )
            assert cached.prober.udp_probe(vp_c, address) == (
                uncached.prober.udp_probe(vp_u, address)
            )

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_gns3_scenarios_byte_identical(self, scenario):
        cached = build_gns3(scenario)
        uncached = build_gns3(scenario, trajectory_cache=False)
        trace_c = cached.traceroute("CE2.left")
        trace_u = uncached.traceroute("CE2.left")
        assert trace_c == trace_u
        assert cached.render(trace_c) == uncached.render(trace_u)

    def test_campaigns_identical(self):
        results = []
        for internet in (small_internet(), small_internet(False)):
            results.append(
                Campaign(
                    internet.prober,
                    internet.vps,
                    internet.asn_of_address,
                    CampaignConfig(
                        suspicious_asns=tuple(internet.transit_asns)
                    ),
                ).run(internet.campaign_targets())
            )
        cached, walked = results
        for name in (
            "traces", "pings", "pairs", "revelations",
            "probes_sent", "revelation_probes",
        ):
            assert getattr(cached, name) == getattr(walked, name), name

    @pytest.mark.parametrize(
        "profile", [None, "hostile", "flap"], ids=["clean", "hostile", "flap"]
    )
    def test_recorded_logs_byte_identical(self, tmp_path, profile):
        # Under faults the probe stream drives the fault clock, and
        # flaps rewire links mid-run: the logs still match only if
        # every flap flushes the cached trajectories.
        cached = _record_log(tmp_path, "cached.jsonl", True, profile)
        walked = _record_log(tmp_path, "walked.jsonl", False, profile)
        assert cached == walked

    def test_every_vp_retraced_identical(self):
        # Every VP traces the same targets twice, so the second round
        # is served from memoised trajectories and replies.
        signatures = []
        for internet in (small_internet(), small_internet(False)):
            targets = internet.campaign_targets()[:10]
            signatures.append([
                trace_signature(internet.prober.traceroute(vp, dst))
                for _ in range(2)
                for vp in internet.vps
                for dst in targets
            ])
        cached, walked = signatures
        assert cached == walked


class TestBatchPath:
    @pytest.mark.parametrize("size", [1, 8])
    def test_batches_match_serial_walk(self, size):
        cached, walked = small_internet(), small_internet(False)
        batched = submit_in_batches(
            cached.engine, sweep_requests(cached), size
        )
        serial_backend = SimBackend(walked.engine)
        serial = [
            serial_backend.submit(request)
            for request in sweep_requests(walked)
        ]
        assert reply_signatures(batched) == reply_signatures(serial)

    def test_flap_batches_match_serial_submits(self):
        # The flap profile fires at probes 120, 320 and 520 of the
        # sweep: the cached engine must drop the trajectories a flap
        # invalidated and answer exactly as the walk-per-probe engine,
        # with the flap count compared every 7 probes.
        size = 7
        runs = []
        for internet in (small_internet(), small_internet(False)):
            backend = FaultyBackend(
                SimBackend(internet.engine), fault_profile("flap")
            )
            requests = sweep_requests(internet)
            replies, fired = [], []
            for count, request in enumerate(requests, 1):
                replies.append(backend.submit(request))
                if count % size == 0 or count == len(requests):
                    fired.append(
                        internet.engine.obs.metrics.get("faults.flaps")
                    )
            runs.append((internet, replies, fired))
        (cached, batched, batched_fired), (_, serial, serial_fired) = runs
        assert reply_signatures(batched) == reply_signatures(serial)
        assert batched_fired == serial_fired
        assert batched_fired[-1] == 3
        assert cached.engine.obs.metrics.get("engine.cache_flushes") >= 1


class TestCacheManagement:
    def test_counters_and_stats(self):
        internet = build_internet(InternetConfig(seed=77))
        engine = internet.engine
        vp = internet.vps[0]
        dst = internet.campaign_targets()[0]
        internet.prober.traceroute(vp, dst, start_ttl=2)
        assert engine.trajectory_misses > 0
        # A TTL ladder over one flow shares a single trajectory.
        assert engine.trajectory_hits > 0

    def test_replies_leave_no_trajectories(self):
        """Only probes are memoised: replies walk concretely once per
        trajectory event, so the cache holds one trajectory per
        distinct probe key and nothing for the replies."""
        internet = small_internet()
        engine = internet.engine
        sent = set()
        send_probe = engine.send_probe

        def recording(source, dst, ttl, flow_id=0, kind=ECHO_REQUEST):
            sent.add((source.name, dst, flow_id, kind))
            return send_probe(source, dst, ttl, flow_id, kind)

        engine.send_probe = recording
        for vp in internet.vps:
            for dst in internet.campaign_targets()[:5]:
                internet.prober.traceroute(vp, dst)
                internet.prober.ping(vp, dst)
        assert engine.packets_simulated > engine.trajectory_misses
        assert len(engine._trajectories) == len(sent)

    def test_invalidate_flushes_trajectories(self):
        internet = build_internet(InternetConfig(seed=77))
        vp = internet.vps[0]
        dst = internet.campaign_targets()[0]
        internet.prober.traceroute(vp, dst, start_ttl=2)
        assert internet.engine._trajectories
        internet.control.invalidate()
        assert not internet.engine._trajectories
        # The trace after a flush still matches the one before it.
        before = internet.prober.traceroute(vp, dst, start_ttl=2)
        internet.control.invalidate()
        after = internet.prober.traceroute(vp, dst, start_ttl=2)
        assert before == after

    def test_flap_invalidates_trajectories(self):
        internet = small_internet()
        prober = Prober(
            FaultyBackend(
                SimBackend(internet.engine), fault_profile("flap")
            ),
            obs=internet.engine.obs,
        )
        # Enough probes to walk past the profile's flap positions.
        for vp in internet.vps:
            for dst in internet.campaign_targets()[:10]:
                prober.traceroute(vp, dst)
        metrics = internet.engine.obs.metrics
        assert metrics.get("faults.flaps.route-change") >= 1
        assert metrics.get("engine.cache_flushes") >= 1
        # Rebuilt after the flush: trajectories exist again post-flap.
        assert internet.engine._trajectories

    def test_router_down_bypasses_reply_memo(self):
        """ICMP flags flip WITHOUT invalidation; memoised replies must
        not be served for a downed router."""
        internet = small_internet()
        engine = internet.engine
        requests = _liveness_requests(internet)
        before = engine.send_probe_batch(requests)
        responders = [
            reply.responder_router
            for reply in before
            if reply.responder_router is not None
        ]
        assert responders
        victim = internet.network.router(responders[0])
        victim.icmp_enabled = False
        try:
            during = engine.send_probe_batch(requests)
        finally:
            victim.icmp_enabled = True
        after = engine.send_probe_batch(requests)
        assert any(
            d.responded != b.responded
            for b, d in zip(before, during)
        )
        assert [r.responder_router for r in during] != responders
        assert [
            (r.probe_ttl, r.reply_kind, r.responder, r.rtt_ms)
            for r in after
        ] == [
            (r.probe_ttl, r.reply_kind, r.responder, r.rtt_ms)
            for r in before
        ]

    def test_response_rate_change_bypasses_reply_memo(self):
        internet = small_internet()
        engine = internet.engine
        requests = _liveness_requests(internet)
        before = engine.send_probe_batch(requests)
        responders = {
            reply.responder_router
            for reply in before
            if reply.responder_router is not None
        }
        for name in responders:
            internet.network.router(name).icmp_response_rate = 0.0
        try:
            during = engine.send_probe_batch(requests)
        finally:
            for name in responders:
                internet.network.router(name).icmp_response_rate = 1.0
        assert not any(
            reply.responder_router in responders for reply in during
        )

    def test_te_tunnel_install_flushes_trajectories(self):
        network = Network()
        src = network.add_router("src", asn=1)
        config = MplsConfig.from_vendor(CISCO, ttl_propagate=False)
        ingress = network.add_router("in", asn=2, mpls=config)
        top = network.add_router("top", asn=2, mpls=config)
        bot = network.add_router("bot", asn=2, mpls=config)
        egress = network.add_router("out", asn=2, mpls=config)
        dst = network.add_router("dst", asn=3)
        network.add_link(src, ingress)
        network.add_link(ingress, top, weight=1)
        network.add_link(top, egress, weight=1)
        network.add_link(ingress, bot, weight=5)
        network.add_link(bot, egress, weight=5)
        network.add_link(egress, dst)
        control = ControlPlane(network)
        engine = ForwardingEngine(network, control)
        before = engine.send_probe(src, dst.loopback, ttl=255, flow_id=1)
        assert "top" in before.forward_path
        assert engine._trajectories
        control.install_te_tunnel(
            TeTunnel(
                name="detour", path=("in", "bot", "out"),
                popping=PoppingMode.UHP,
            )
        )
        assert not engine._trajectories
        after = engine.send_probe(src, dst.loopback, ttl=255, flow_id=1)
        assert "bot" in after.forward_path

    def test_uncached_engine_matches_probe_counters(self):
        network = Network()
        routers = [
            network.add_router(f"R{i}", asn=1, vendor=CISCO)
            for i in range(4)
        ]
        for a, b in zip(routers, routers[1:]):
            network.add_link(a, b)
        cached = ForwardingEngine(network)
        uncached_control = ControlPlane(network)
        uncached = ForwardingEngine(
            network, uncached_control, trajectory_cache=False
        )
        for ttl in range(1, 5):
            outcome_c = cached.send_probe(
                routers[0], routers[3].loopback, ttl=ttl, flow_id=1
            )
            outcome_u = uncached.send_probe(
                routers[0], routers[3].loopback, ttl=ttl, flow_id=1
            )
            assert outcome_c == outcome_u
        # Both engines account one probe + one reply per responsive hop.
        assert cached.packets_simulated == uncached.packets_simulated

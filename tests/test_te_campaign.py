"""RSVP-TE as a first-class tunnel class in synth and the data plane.

The contract under test (ISSUE: RSVP-TE promotion): the synth
generator renders seeded TE tunnels that real transit traffic rides;
TE-free builds stay byte-identical to older seeds; recorded probe
logs are byte-identical between the trajectory-cached engine and the
walk-per-probe engine with TE tunnels installed, clean and under
hostile faults, and so are replies
submitted through the batch path; memoised trajectories
flush on TE install *and* teardown; a chaos-flap campaign with TE
completes; and a mixed LDP+TE campaign checkpoints and resumes
bit-identically.
"""

from dataclasses import replace

import pytest

from repro.campaign.orchestrator import Campaign, CampaignConfig
from repro.experiments.common import CampaignContext, ContextConfig
from repro.faults import FaultyBackend, fault_profile
from repro.measure import RecordingBackend, SimBackend
from repro.measure.backend import ProbeRequest
from repro.obs import measurement_counters
from repro.probing.prober import Prober
from repro.serve.registry import TopologySpec
from repro.synth.internet import InternetConfig, build_internet
from repro.synth.profiles import paper_profiles

BASE = TopologySpec(
    scale=0.4,
    seed=11,
    vantage_points=3,
    stubs_per_transit=2,
)


def te_internet(seed=11, te=2, propagate=False, trajectory_cache=True):
    return build_internet(
        InternetConfig(
            profiles=tuple(paper_profiles(0.4)),
            vantage_points=3,
            stubs_per_transit=2,
            seed=seed,
            trajectory_cache=trajectory_cache,
            te_tunnels_per_transit=te,
            te_ttl_propagate=propagate,
        )
    )


class TestSynthTe:
    def test_tunnels_installed_per_transit(self):
        internet = te_internet()
        assert internet.te_tunnels
        assert len(internet.control.te) == len(internet.te_tunnels)
        per_as = {}
        for tunnel in internet.te_tunnels:
            head = internet.network.routers[tunnel.head]
            tail = internet.network.routers[tunnel.tail]
            assert head.asn == tail.asn
            assert len(tunnel.path) >= 3
            per_as[head.asn] = per_as.get(head.asn, 0) + 1
        assert all(count <= 2 for count in per_as.values())

    def test_default_build_has_no_tunnels(self):
        assert te_internet(te=0).te_tunnels == []

    def test_te_knob_does_not_perturb_topology(self):
        """TE consumes RNG only after everything else is built."""
        plain = te_internet(te=0)
        with_te = te_internet(te=2)
        assert sorted(plain.network.routers) == sorted(
            with_te.network.routers
        )
        assert [vp.name for vp in plain.vps] == [
            vp.name for vp in with_te.vps
        ]
        assert plain.campaign_targets() == with_te.campaign_targets()

    def test_transit_traffic_rides_a_tunnel(self):
        internet = te_internet()
        te_paths = {
            tunnel.path: tunnel for tunnel in internet.te_tunnels
        }
        ridden = 0
        for vp in internet.vps:
            for dst in internet.campaign_targets():
                path = tuple(internet.true_forward_path(vp, dst))
                for te_path in te_paths:
                    for start in range(len(path) - len(te_path) + 1):
                        if path[start:start + len(te_path)] == te_path:
                            ridden += 1
        assert ridden > 0


def _record_log(tmp_path, name, trajectory_cache, profile):
    internet = te_internet(trajectory_cache=trajectory_cache)
    backend = SimBackend(internet.engine)
    if profile is not None:
        backend = FaultyBackend(backend, fault_profile(profile))
    path = str(tmp_path / name)
    recording = RecordingBackend(backend, path)
    prober = Prober(recording, obs=internet.engine.obs)
    vp = internet.vps[0]
    for dst in internet.campaign_targets()[:6]:
        prober.traceroute(vp, dst)
        prober.ping(vp, dst)
    recording.close()
    with open(path, "rb") as handle:
        return handle.read()


def _hop_requests(internet):
    return [
        ProbeRequest(vp.name, dst, ttl, flow)
        for vp in internet.vps
        for flow, dst in enumerate(internet.campaign_targets()[:10])
        for ttl in range(1, 17)
    ]


def _observed(replies):
    return [
        (
            reply.probe_ttl, reply.reply_kind, reply.responder,
            reply.reply_ttl, tuple(reply.quoted_labels), reply.rtt_ms,
        )
        for reply in replies
    ]


class TestTeForwarding:
    def test_logs_byte_identical(self, tmp_path):
        # Clean, then with hostile faults dropping, delaying and
        # mangling replies on top of TE steering: replies steered onto
        # TE head-ends and TE expiries carried to the LSP end must walk
        # exactly as walk-per-probe does.
        for profile in (None, "hostile"):
            cached = _record_log(
                tmp_path, f"cached-{profile}.jsonl", True, profile
            )
            walked = _record_log(
                tmp_path, f"walked-{profile}.jsonl", False, profile
            )
            assert cached == walked, profile

    @pytest.mark.parametrize("size", [1, 8])
    def test_batches_match_serial_walk(self, size):
        cached = te_internet()
        requests = _hop_requests(cached)
        batched = []
        for start in range(0, len(requests), size):
            batched.extend(
                cached.engine.send_probe_batch(requests[start:start + size])
            )
        walked = te_internet(trajectory_cache=False)
        serial_backend = SimBackend(walked.engine)
        serial = [
            serial_backend.submit(request)
            for request in _hop_requests(walked)
        ]
        assert _observed(batched) == _observed(serial)

    def test_install_and_teardown_flush_trajectories(self):
        internet = te_internet(te=0)

        def all_paths():
            return [
                tuple(internet.true_forward_path(vp, dst))
                for vp in internet.vps
                for dst in internet.campaign_targets()
            ]

        before = all_paths()
        engine = internet.engine
        metrics = engine.obs.metrics
        assert engine._trajectories
        flushes = metrics.get("engine.cache_flushes")

        # Steal the seeded tunnels from a TE-enabled twin and install
        # them mid-flight: the memoised trajectories must flush...
        twin = te_internet(te=2)
        for tunnel in twin.te_tunnels:
            internet.control.install_te_tunnel(tunnel)
        assert metrics.get("engine.cache_flushes") > flushes
        assert not engine._trajectories
        # ...after which the patched internet forwards exactly like a
        # twin that was *born* with the tunnels (TE install is the last
        # build step, so the underlying topologies are identical).
        during = all_paths()
        te_native = [
            tuple(twin.true_forward_path(vp, dst))
            for vp in twin.vps
            for dst in twin.campaign_targets()
        ]
        assert during == te_native
        assert during != before
        # ...and teardown must flush again and restore the IGP paths.
        assert engine._trajectories
        flushes = metrics.get("engine.cache_flushes")
        for tunnel in twin.te_tunnels:
            internet.control.remove_te_tunnel(tunnel.head, tunnel.tail)
        assert metrics.get("engine.cache_flushes") > flushes
        assert not engine._trajectories
        assert all_paths() == before

    def test_teardown_of_unknown_tunnel_raises(self):
        internet = te_internet(te=0)
        with pytest.raises(KeyError):
            internet.control.remove_te_tunnel("nope", "nowhere")


def _context(te_tunnels_per_transit=2, **overrides):
    topology = replace(BASE, te_tunnels_per_transit=te_tunnels_per_transit)
    return CampaignContext(ContextConfig(topology=topology, **overrides))


def _measured(context):
    """The campaign's measurement counters, in full."""
    return measurement_counters(
        context.campaign.obs.metrics.counters_snapshot()
    )


class TestMixedCampaigns:
    def test_walked_equals_cached_with_te(self):
        def run(internet):
            return Campaign(
                internet.prober,
                internet.vps,
                internet.asn_of_address,
                CampaignConfig(
                    suspicious_asns=tuple(internet.transit_asns)
                ),
            ).run(internet.campaign_targets())

        assert run(te_internet()) == run(
            te_internet(trajectory_cache=False)
        )

    def test_chaos_flap_campaign_completes_with_te(self):
        context = _context(fault_profile="flap", max_retries=1)
        assert context.campaign.obs.metrics.get("faults.flaps") >= 1
        result = context.result
        assert not result.partial
        assert result.traces
        assert result.data_quality["grade"] in (
            "high", "degraded", "poor",
        )

    def test_checkpoint_resume_bit_identical(self, tmp_path):
        baseline = _context()
        warehouse = str(tmp_path / "warehouse")
        interrupted = _context(
            probe_budget=150, checkpoint_dir=warehouse
        )
        assert interrupted.result.partial
        resumed = _context(checkpoint_dir=warehouse, resume=True)
        assert not resumed.result.partial
        assert resumed.result == baseline.result
        assert _measured(resumed) == _measured(baseline)

    def test_te_keys_the_snapshot(self, tmp_path):
        """An LDP-only resume must not land in a TE snapshot."""
        from repro.store import StoreMismatch

        warehouse = str(tmp_path / "warehouse")
        _context(checkpoint_dir=warehouse)
        with pytest.raises(StoreMismatch):
            _context(
                te_tunnels_per_transit=0,
                checkpoint_dir=warehouse,
                resume=True,
            )

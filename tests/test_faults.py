"""Fault-injection backend tests (``repro.faults``).

The chaos plane's contract: profiles are declarative and validated,
fault injection is deterministic (same profile, same probe sequence →
same faults), a zero-fault profile is perfectly transparent (byte-
identical probe logs), and flaps drive the same invalidation hooks a
real route change would.
"""

import pytest

from repro.faults import (
    FAULT_PROFILES,
    LOSS_LADDER,
    FaultProfile,
    FaultyBackend,
    fault_profile,
    profile_names,
    spoofed_address,
)
from repro.measure import RecordingBackend, SimBackend
from repro.measure.backend import ProbeRequest
from repro.probing.prober import Prober
from repro.synth.internet import InternetConfig, build_internet
from repro.synth.profiles import paper_profiles


def small_internet(seed=11):
    return build_internet(
        InternetConfig(
            profiles=tuple(paper_profiles(0.4)),
            vantage_points=3,
            stubs_per_transit=2,
            seed=seed,
        )
    )


class TestProfiles:
    def test_registry_is_consistent(self):
        assert profile_names() == list(FAULT_PROFILES)
        for name, profile in FAULT_PROFILES.items():
            assert profile.name == name

    def test_lookup_unknown_name(self):
        with pytest.raises(ValueError):
            fault_profile("definitely-not-a-profile")

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultProfile(loss_rate=1.5)
        with pytest.raises(ValueError):
            FaultProfile(spoof_source_rate=-0.1)

    def test_flap_action_validation(self):
        with pytest.raises(ValueError):
            FaultProfile(flaps=((10, "explode"),))

    def test_inert_and_mutation_flags(self):
        assert FAULT_PROFILES["none"].inert
        assert not FAULT_PROFILES["hostile"].inert
        assert FAULT_PROFILES["flap"].mutates_network
        assert not FAULT_PROFILES["hostile"].mutates_network

    def test_loss_ladder_intensities_nest(self):
        """Same seed + growing rates: drop sets nest along the ladder."""
        rungs = [FAULT_PROFILES[name] for name in LOSS_LADDER]
        assert all(name in FAULT_PROFILES for name in LOSS_LADDER)
        seeds = {profile.seed for profile in rungs}
        assert len(seeds) == 1
        rates = [profile.loss_rate for profile in rungs]
        fractions = [profile.loss_router_fraction for profile in rungs]
        assert rates == sorted(rates)
        assert fractions == sorted(fractions)


def _record_log(tmp_path, name, wrap):
    """Record a few traceroutes, optionally through a no-op wrapper."""
    internet = small_internet()
    backend = SimBackend(internet.engine)
    if wrap:
        backend = FaultyBackend(backend, fault_profile("none"))
    path = str(tmp_path / name)
    recording = RecordingBackend(backend, path)
    prober = Prober(recording)
    vp = internet.vps[0]
    for dst in internet.campaign_targets()[:6]:
        prober.traceroute(vp, dst)
        prober.ping(vp, dst)
    recording.close()
    with open(path, "rb") as handle:
        return handle.read()


class TestTransparency:
    def test_zero_fault_profile_is_byte_identical(self, tmp_path):
        bare = _record_log(tmp_path, "bare.jsonl", wrap=False)
        wrapped = _record_log(tmp_path, "wrapped.jsonl", wrap=True)
        assert bare == wrapped

    def test_inert_wrapper_reports_inner_name(self):
        internet = small_internet()
        inner = SimBackend(internet.engine)
        assert (
            FaultyBackend(inner, fault_profile("none")).name
            == inner.name
        )
        assert FaultyBackend(
            inner, fault_profile("hostile")
        ).name.startswith("faulty+")


def _faulty_traces(profile_name, count=8):
    internet = small_internet()
    backend = FaultyBackend(
        SimBackend(internet.engine), fault_profile(profile_name)
    )
    prober = Prober(backend)
    vp = internet.vps[0]
    return [
        prober.traceroute(vp, dst)
        for dst in internet.campaign_targets()[:count]
    ], backend


class TestDeterminism:
    def test_same_profile_same_sequence_same_faults(self):
        first, _ = _faulty_traces("hostile")
        second, _ = _faulty_traces("hostile")
        assert first == second

    def test_injection_counters_populated(self):
        _, backend = _faulty_traces("hostile", count=12)
        metrics = backend.obs.metrics
        assert metrics.get("faults.injected") > 0
        per_kind = sum(
            value
            for name, value in metrics.counters_snapshot().items()
            if name.startswith("faults.injected.")
        )
        assert per_kind == metrics.get("faults.injected")


class TestFaultEffects:
    def test_loss_profile_drops_replies(self):
        clean, _ = _faulty_traces("none")
        lossy, backend = _faulty_traces("loss-heavy")
        clean_hops = sum(len(t.responsive_hops) for t in clean)
        lossy_hops = sum(len(t.responsive_hops) for t in lossy)
        assert lossy_hops < clean_hops
        assert backend.obs.metrics.get("faults.injected.loss") > 0

    def test_latency_profile_spikes_by_exact_amount(self):
        clean, _ = _faulty_traces("none")
        spiked, backend = _faulty_traces("latency")
        assert backend.obs.metrics.get("faults.injected.latency") > 0
        spike = fault_profile("latency").latency_spike_ms
        observed_spikes = 0
        for before, after in zip(clean, spiked):
            for hop_a, hop_b in zip(before.hops, after.hops):
                if hop_b.rtt_ms != hop_a.rtt_ms:
                    assert hop_b.rtt_ms == pytest.approx(
                        hop_a.rtt_ms + spike
                    )
                    observed_spikes += 1
        assert observed_spikes > 0

    def test_spoofed_sources_land_outside_known_space(self):
        internet = small_internet()
        assert internet.asn_of_address(spoofed_address(12345)) is None
        spoofy, backend = _faulty_traces("malformed", count=12)
        assert (
            backend.obs.metrics.get("faults.injected.spoof-source") > 0
        )
        spoofed = [
            hop.address
            for trace in spoofy
            for hop in trace.responsive_hops
            if hop.address >= 0xE0000000
        ]
        assert spoofed  # unsanitized prober sees the bogus sources


def _weight_sum(network):
    return sum(
        link.weight_ab + link.weight_ba
        for asn in sorted(network.asns())
        for link in network.intra_as_links(asn)
    )


class TestFlaps:
    def test_route_change_fires_invalidation(self):
        internet = small_internet()
        backend = FaultyBackend(
            SimBackend(internet.engine), fault_profile("flap")
        )
        fired = []
        backend.add_invalidation_listener(lambda: fired.append(True))
        vp = internet.vps[0]
        dst = internet.campaign_targets()[0]
        before = _weight_sum(internet.network)
        for _ in range(125):
            backend.submit(ProbeRequest(vp.name, dst, 4, 7))
        assert fired
        assert backend.obs.metrics.get("faults.flaps.route-change") == 1
        # One link perturbed by +7 in each direction.
        assert _weight_sum(internet.network) == before + 14

    def test_router_down_then_up_round_trips(self):
        internet = small_internet()
        profile = FaultProfile(
            name="updown",
            flaps=((5, "router-down"), (10, "router-up")),
        )
        backend = FaultyBackend(SimBackend(internet.engine), profile)
        vp = internet.vps[0]
        dst = internet.campaign_targets()[0]
        for _ in range(7):
            backend.submit(ProbeRequest(vp.name, dst, 4, 7))
        downed = [
            router
            for router in internet.network.routers.values()
            if not router.icmp_enabled
        ]
        assert len(downed) == 1
        for _ in range(7):
            backend.submit(ProbeRequest(vp.name, dst, 4, 7))
        assert all(
            router.icmp_enabled
            for router in internet.network.routers.values()
        )

    def test_fault_state_round_trip_replays_fired_flaps(self):
        internet = small_internet()
        backend = FaultyBackend(
            SimBackend(internet.engine), fault_profile("flap")
        )
        vp = internet.vps[0]
        dst = internet.campaign_targets()[0]
        for _ in range(125):  # crosses the route-change at probe 120
            backend.submit(ProbeRequest(vp.name, dst, 4, 7))
        state = backend.fault_state()
        assert state["clock"] == 125
        assert state["flaps_fired"] == 1

        fresh = small_internet()
        restored = FaultyBackend(
            SimBackend(fresh.engine), fault_profile("flap")
        )
        restored.restore_fault_state(state)
        assert restored.fault_state() == state
        untouched = small_internet()
        # The restored stack carries the already-fired route-change
        # perturbation; an untouched one does not.
        assert _weight_sum(fresh.network) == (
            _weight_sum(untouched.network) + 14
        )

"""Performance benches for the simulator itself.

Not a paper artefact: these keep the substrate honest.  The campaign
experiments replay tens of thousands of probes; per-probe cost and
route-cache effectiveness are what make that feasible, so regressions
here matter as much as scientific ones.
"""

import pytest

from repro.dataplane.engine import ForwardingEngine
from repro.routing.control import ControlPlane
from repro.synth.gns3 import build_gns3
from repro.synth.internet import InternetConfig, build_internet


@pytest.fixture(scope="module")
def internet():
    return build_internet(InternetConfig(seed=77))


@pytest.fixture(scope="module")
def internet_uncached():
    return build_internet(InternetConfig(seed=77, trajectory_cache=False))


@pytest.fixture(scope="module")
def internet_te():
    """RSVP-TE tunnels installed, probing through the default engine."""
    return build_internet(
        InternetConfig(seed=77, te_tunnels_per_transit=2)
    )


def test_perf_single_probe_testbed(benchmark):
    testbed = build_gns3("backward-recursive")
    dst = testbed.address("CE2.left")
    vp = testbed.vantage_point

    def probe():
        return testbed.engine.send_probe(vp, dst, ttl=7, flow_id=1)

    outcome = benchmark(probe)
    assert outcome.responded


def test_perf_probe_across_internet(benchmark, internet):
    vp = internet.vps[0]
    dst = internet.campaign_targets()[-1]

    def probe():
        return internet.engine.send_probe(vp, dst, ttl=40, flow_id=1)

    outcome = benchmark(probe)
    assert outcome.forward_path


def test_perf_full_traceroute(benchmark, internet):
    vp = internet.vps[0]
    dst = internet.campaign_targets()[0]

    def trace():
        return internet.prober.traceroute(vp, dst, start_ttl=2)

    result = benchmark(trace)
    assert result.hops


def test_perf_full_traceroute_uncached(benchmark, internet_uncached):
    """The walk-per-probe baseline the trajectory cache is measured
    against (same trace as ``test_perf_full_traceroute``)."""
    internet = internet_uncached
    vp = internet.vps[0]
    dst = internet.campaign_targets()[0]

    def trace():
        return internet.prober.traceroute(vp, dst, start_ttl=2)

    result = benchmark(trace)
    assert result.hops


def test_perf_full_traceroute_cold(benchmark, internet):
    """The cached trace with an empty trajectory cache, as on a cold
    campaign's first pass: routing is warm, but the flush before each
    trace drops every trajectory and its per-event reply memo, so every
    probe build and every reply walk is paid."""
    vp = internet.vps[0]
    dst = internet.campaign_targets()[0]
    engine = internet.engine
    internet.prober.traceroute(vp, dst, start_ttl=2)

    def trace():
        engine.flush_trajectories()
        return internet.prober.traceroute(vp, dst, start_ttl=2)

    result = benchmark(trace)
    assert result.hops


def test_perf_full_traceroute_te(benchmark, internet_te):
    """The cached trace again, but steered through an RSVP-TE
    explicit path: the flow is chosen so the head-end pushes the TE
    label and the memoised trajectory follows ``_te_step`` instead of
    the LDP path."""
    internet = internet_te
    te_paths = [tunnel.path for tunnel in internet.te_tunnels]

    def rides(vp, dst):
        path = tuple(internet.true_forward_path(vp, dst))
        return any(
            path[start:start + len(te_path)] == te_path
            for te_path in te_paths
            for start in range(len(path) - len(te_path) + 1)
        )

    vp, dst = next(
        (vp, dst)
        for vp in internet.vps
        for dst in internet.campaign_targets()
        if rides(vp, dst)
    )

    def trace():
        return internet.prober.traceroute(vp, dst, start_ttl=2)

    result = benchmark(trace)
    assert result.hops


def test_perf_cold_vs_warm_routing(benchmark, internet):
    """Route resolution with a cold cache (the expensive path)."""
    vp = internet.vps[0]
    dst = internet.campaign_targets()[5]

    def cold_resolve():
        control = ControlPlane(internet.network)
        engine = ForwardingEngine(internet.network, control)
        return engine.send_probe(vp, dst, ttl=40, flow_id=1)

    outcome = benchmark(cold_resolve)
    assert outcome.forward_path


def test_perf_internet_build(benchmark):
    def build():
        return build_internet(InternetConfig(seed=5))

    internet = benchmark(build)
    assert len(internet.network.routers) > 100


def test_perf_serve_throughput(benchmark):
    """Eight tenant campaigns multiplexed over two shared snapshots.

    Measures the whole serve path — registry attach, fair-scheduler
    turnstile, session threads — end to end; the guarded number is
    the wall-clock for the fleet, so regressions in any serve layer
    (or in snapshot sharing) surface here.
    """
    from repro.serve import (
        ServeClient,
        SnapshotRegistry,
        TenantSpec,
        TopologySpec,
    )

    def fleet():
        client = ServeClient(
            registry=SnapshotRegistry(), max_active=4
        )
        try:
            handles = [
                client.submit(
                    TenantSpec(
                        tenant=f"bench-{index}",
                        topology=TopologySpec(
                            scale=0.3,
                            seed=11 + index % 2,
                            vantage_points=3,
                            stubs_per_transit=2,
                        ),
                        max_targets=4,
                    )
                )
                for index in range(8)
            ]
            return [handle.wait(timeout=600) for handle in handles]
        finally:
            client.close()

    results = benchmark.pedantic(fleet, rounds=3, iterations=1)
    assert len(results) == 8
    assert all(result.traces for result in results)

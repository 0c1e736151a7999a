"""Tests for ECMP multipath enumeration."""

import pytest

from repro.dataplane.engine import ForwardingEngine
from repro.measure import RecordingBackend, ReplayBackend, SimBackend
from repro.net.topology import Network
from repro.probing.multipath import enumerate_paths, path_diversity
from repro.probing.prober import Prober


def build_diamond(parallel=2, tail_len=1):
    """src -> {mid_0..mid_{k-1}} -> join -> tail... equal costs."""
    network = Network()
    src = network.add_router("src", asn=1)
    join = network.add_router("join", asn=1)
    for i in range(parallel):
        mid = network.add_router(f"mid{i}", asn=1)
        network.add_link(src, mid)
        network.add_link(mid, join)
    previous = join
    for i in range(tail_len):
        nxt = network.add_router(f"tail{i}", asn=1)
        network.add_link(previous, nxt)
        previous = nxt
    return network, src, previous


class TestEnumeratePaths:
    def test_single_path_topology(self):
        network, src, dst = build_diamond(parallel=1)
        prober = Prober(ForwardingEngine(network))
        result = enumerate_paths(prober, src, dst.loopback, flows=8)
        assert result.path_count == 1
        assert sum(len(f) for f in result.flows) == 8

    def test_two_way_ecmp_found(self):
        network, src, dst = build_diamond(parallel=2)
        prober = Prober(ForwardingEngine(network))
        result = enumerate_paths(prober, src, dst.loopback, flows=32)
        assert result.path_count == 2

    def test_three_way_ecmp_found(self):
        network, src, dst = build_diamond(parallel=3)
        prober = Prober(ForwardingEngine(network))
        result = enumerate_paths(prober, src, dst.loopback, flows=64)
        assert result.path_count == 3

    def test_paths_share_endpoints(self):
        network, src, dst = build_diamond(parallel=2)
        prober = Prober(ForwardingEngine(network))
        result = enumerate_paths(prober, src, dst.loopback, flows=32)
        lasts = {path[-1] for path in result.paths}
        assert lasts == {dst.loopback}

    def test_incomplete_traces_skipped(self):
        network, src, dst = build_diamond(parallel=2)
        network.router("mid0").icmp_enabled = False
        prober = Prober(ForwardingEngine(network))
        result = enumerate_paths(prober, src, dst.loopback, flows=32)
        # Flows hashed onto mid0 produce starred traces and are
        # dropped; only the clean path remains.
        assert result.path_count == 1

    def test_flow_count_validation(self):
        network, src, dst = build_diamond()
        prober = Prober(ForwardingEngine(network))
        with pytest.raises(ValueError):
            enumerate_paths(prober, src, dst.loopback, flows=0)

    def test_probe_accounting(self):
        network, src, dst = build_diamond()
        prober = Prober(ForwardingEngine(network))
        result = enumerate_paths(prober, src, dst.loopback, flows=4)
        assert result.probes_used == prober.probes_sent


class TestBackendApi:
    """ECMP exploration through the explicit measurement-plane API."""

    def test_flow_sweep_under_explicit_backend(self):
        network, src, dst = build_diamond(parallel=2)
        prober = Prober(SimBackend(ForwardingEngine(network)))
        result = enumerate_paths(prober, src, dst.loopback, flows=32)
        assert result.path_count == 2
        # Every flow maps to exactly one path, and all flows landed.
        assert sum(len(f) for f in result.flows) == 32

    def test_constant_flow_never_splits_across_paths(self):
        network, src, dst = build_diamond(parallel=3)
        prober = Prober(SimBackend(ForwardingEngine(network)))
        # Paris traceroute pins one flow id for the whole TTL sweep:
        # re-tracing the same flow must walk the same ECMP path every
        # time, hop for hop.
        for flow_id in range(1, 9):
            first = prober.traceroute(src, dst.loopback, flow_id=flow_id)
            again = prober.traceroute(src, dst.loopback, flow_id=flow_id)
            assert first.addresses == again.addresses
            assert first.destination_reached

    def test_distinct_flows_cover_all_parallel_paths(self):
        network, src, dst = build_diamond(parallel=3)
        prober = Prober(SimBackend(ForwardingEngine(network)))
        result = enumerate_paths(prober, src, dst.loopback, flows=64)
        first_hops = {path[0] for path in result.paths}
        mids = {
            network.router(f"mid{i}").loopback for i in range(3)
        }
        # The sweep found all three mids (loopbacks of the replying
        # interfaces vary, but the path count pins the diversity).
        assert result.path_count == 3
        assert len(first_hops) == 3
        assert mids  # topology sanity

    def test_enumeration_replays_identically(self, tmp_path):
        network, src, dst = build_diamond(parallel=2)
        path = str(tmp_path / "multipath.jsonl")
        recording = RecordingBackend(
            SimBackend(ForwardingEngine(network)), path
        )
        prober = Prober(recording)
        live = enumerate_paths(prober, src, dst.loopback, flows=16)
        recording.close()

        replayed = enumerate_paths(
            Prober(ReplayBackend(path)), src, dst.loopback, flows=16
        )
        assert replayed.paths == live.paths
        assert replayed.flows == live.flows
        assert replayed.probes_used == live.probes_used


class TestPathDiversity:
    def test_survey(self):
        network, src, dst = build_diamond(parallel=2, tail_len=2)
        prober = Prober(ForwardingEngine(network))
        join = network.router("join")
        survey = path_diversity(
            prober, src, [dst.loopback, join.loopback], flows=32
        )
        assert survey[dst.loopback] == 2
        assert survey[join.loopback] == 2


class TestDivergencePoints:
    def test_mid_path_divergence(self):
        # src -> common -> {a, b} -> join
        network = Network()
        src = network.add_router("src", asn=1)
        common = network.add_router("common", asn=1)
        a = network.add_router("a", asn=1)
        b = network.add_router("b", asn=1)
        join = network.add_router("join", asn=1)
        network.add_link(src, common)
        network.add_link(common, a)
        network.add_link(common, b)
        network.add_link(a, join)
        network.add_link(b, join)
        prober = Prober(ForwardingEngine(network))
        result = enumerate_paths(prober, src, join.loopback, flows=32)
        assert result.path_count == 2
        first, second = result.paths
        # Both paths cross ``common``, then part ways.
        assert network.owner_of(first[0]) is common
        assert first[0] == second[0]
        assert first[1] != second[1]

    def test_first_hop_divergence_has_no_points(self):
        network, src, dst = build_diamond(parallel=2)
        prober = Prober(ForwardingEngine(network))
        result = enumerate_paths(prober, src, dst.loopback, flows=32)
        assert result.path_count == 2
        first, second = result.paths
        assert first[0] != second[0]

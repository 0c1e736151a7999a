"""Unit tests for the trace graph, correction, and delay analysis."""

import pytest

from repro.analysis.correction import (
    corrected_graph,
    corrected_trace_length,
    degree_distributions,
    path_length_distributions,
)
from repro.analysis.delays import rtt_jump, rtt_profile, RttPoint
from repro.analysis.itdk import TraceGraph
from repro.core.revelation import Revelation, RevelationMethod
from repro.probing.prober import Trace, TraceHop


def hop(ttl, address, kind="time-exceeded", rtt=1.0):
    return TraceHop(
        probe_ttl=ttl, address=address, reply_kind=kind,
        reply_ttl=250, rtt_ms=rtt,
    )


def make_trace(addresses, reached=True):
    trace = Trace(
        source="vp", source_address=0, dst=addresses[-1], flow_id=1
    )
    for offset, address in enumerate(addresses):
        trace.hops.append(hop(offset + 1, address))
    if reached:
        trace.hops[-1].reply_kind = "echo-reply"
    trace.destination_reached = reached
    return trace


def alias(address):
    # Addresses 100..109 alias to one router.
    if 100 <= address < 110:
        return "bigrouter"
    return f"r{address}"


class TestTraceGraph:
    def test_edges_from_consecutive_hops(self):
        graph = TraceGraph()
        graph.add_trace(make_trace([1, 2, 3]))
        assert graph.edge_count() == 2
        assert "ip_0.0.0.2" in graph.neighbors("ip_0.0.0.1")

    def test_gap_breaks_edge(self):
        graph = TraceGraph()
        trace = make_trace([1, 2, 3])
        trace.hops[2].probe_ttl = 4  # a star in between
        graph.add_trace(trace)
        assert graph.edge_count() == 1
        assert "ip_0.0.0.3" not in graph.neighbors("ip_0.0.0.2")

    def test_alias_resolution_merges_nodes(self):
        graph = TraceGraph(alias_of=alias)
        graph.add_trace(make_trace([1, 100, 2]))
        graph.add_trace(make_trace([3, 105, 4]))
        assert graph.has_node("bigrouter")
        assert graph.degree("bigrouter") == 4
        assert graph.addresses_of("bigrouter") == {100, 105}

    def test_self_loops_ignored(self):
        graph = TraceGraph(alias_of=alias)
        graph.add_trace(make_trace([100, 101]))  # same router twice
        assert graph.edge_count() == 0

    def test_high_degree_nodes(self):
        graph = TraceGraph(alias_of=alias)
        for i in range(6):
            graph.add_trace(make_trace([200 + i, 100, 300 + i]))
        assert graph.high_degree_nodes(12) == ["bigrouter"]
        assert graph.high_degree_nodes(13) == []

    def test_density_full_graph(self):
        graph = TraceGraph()
        graph.add_trace(make_trace([1, 2, 3]))
        # 3 nodes, 2 edges -> 2*2 / (3*2) = 2/3
        assert graph.density() == pytest.approx(2 / 3)

    def test_density_subgraph(self):
        graph = TraceGraph()
        graph.add_trace(make_trace([1, 2, 3, 4]))
        nodes = ["ip_0.0.0.1", "ip_0.0.0.2"]
        assert graph.density(nodes) == pytest.approx(1.0)
        assert graph.density(["ip_0.0.0.1"]) == 0.0

    def test_clustering_coefficient(self):
        graph = TraceGraph()
        graph.add_path([1, 2, 3, 1])  # triangle
        assert graph.clustering_coefficient("ip_0.0.0.1") == 1.0
        graph.add_edge_addresses(1, 4)
        assert graph.clustering_coefficient("ip_0.0.0.1") == pytest.approx(
            1 / 3
        )

    def test_asn_attribution(self):
        graph = TraceGraph(asn_of=lambda address: address // 100)
        graph.add_trace(make_trace([101, 201]))
        assert graph.asn_of_node("ip_0.0.0.101") == 1
        assert graph.nodes_in_as(2) == ["ip_0.0.0.201"]

    def test_copy_is_independent(self):
        graph = TraceGraph()
        graph.add_trace(make_trace([1, 2]))
        clone = graph.copy()
        clone.add_edge_addresses(2, 3)
        assert graph.edge_count() == 1
        assert clone.edge_count() == 2

    def test_degree_distribution(self):
        graph = TraceGraph()
        graph.add_trace(make_trace([1, 2, 3]))
        dist = graph.degree_distribution()
        assert sorted(dist.values) == [1, 1, 2]


def make_revelation(ingress, egress, revealed):
    revelation = Revelation(ingress=ingress, egress=egress)
    revelation.revealed = list(revealed)
    revelation.step_reveals = [len(revealed)]
    revelation.method = (
        RevelationMethod.DPR if revealed else RevelationMethod.NONE
    )
    return revelation


class TestCorrection:
    def test_corrected_graph_replaces_edge(self):
        graph = TraceGraph()
        graph.add_trace(make_trace([1, 2, 3, 4]))
        fixed = corrected_graph(graph, [make_revelation(2, 3, [10, 11])])
        assert "ip_0.0.0.3" not in fixed.neighbors("ip_0.0.0.2")
        assert "ip_0.0.0.10" in fixed.neighbors("ip_0.0.0.2")
        assert "ip_0.0.0.3" in fixed.neighbors("ip_0.0.0.11")
        # Original untouched.
        assert "ip_0.0.0.3" in graph.neighbors("ip_0.0.0.2")

    def test_failed_revelations_ignored(self):
        graph = TraceGraph()
        graph.add_trace(make_trace([1, 2, 3]))
        fixed = corrected_graph(graph, [make_revelation(1, 2, [])])
        assert "ip_0.0.0.2" in fixed.neighbors("ip_0.0.0.1")

    def test_degree_distributions_shift(self):
        graph = TraceGraph()
        # Star: 2 is adjacent to five "egresses" via invisible tunnels.
        for egress in (3, 4, 5, 6, 7):
            graph.add_trace(make_trace([1, 2, egress]))
        # Realistically the tunnels share their first LSR (hop 10):
        # correction collapses the star into a tree behind it.
        revelations = [
            make_revelation(2, egress, [10, 10 * egress])
            for egress in (3, 4, 5, 6, 7)
        ]
        invisible, visible = degree_distributions(graph, revelations)
        assert invisible.max == 6  # node 2: 1 + five egresses
        fixed = corrected_graph(graph, revelations)
        # The false star at the ingress collapses...
        assert fixed.degree("ip_0.0.0.2") == 2
        # ...and the share of high-degree nodes shrinks.
        assert visible.fraction(lambda d: d >= 6) < invisible.fraction(
            lambda d: d >= 6
        )

    def test_corrected_trace_length(self):
        trace = make_trace([1, 2, 3, 4])
        revelations = {(2, 3): make_revelation(2, 3, [10, 11])}
        length = corrected_trace_length(
            trace, lambda a, b: revelations.get((a, b))
        )
        assert trace.forward_length == 4
        assert length == 6

    def test_unreached_trace_skipped(self):
        trace = make_trace([1, 2, 3], reached=False)
        assert corrected_trace_length(trace, lambda a, b: None) is None

    def test_path_length_distributions(self):
        traces = [make_trace([1, 2, 3, 4]), make_trace([5, 6, 7])]
        revelations = {(2, 3): make_revelation(2, 3, [10])}
        invisible, visible = path_length_distributions(
            traces, revelations
        )
        assert invisible.values == [4, 3]
        assert visible.values == [5, 3]


class TestDelays:
    def test_rtt_profile(self):
        trace = make_trace([1, 2, 3])
        trace.hops[0].rtt_ms = 5.0
        trace.hops[1].rtt_ms = 10.0
        trace.hops[2].rtt_ms = 60.0
        profile = rtt_profile(trace)
        assert [point.rtt_ms for point in profile] == [5.0, 10.0, 60.0]

    def test_rtt_jump(self):
        profile = [
            RttPoint(1, 1, 5.0),
            RttPoint(2, 2, 10.0),
            RttPoint(3, 3, 60.0),
        ]
        hop, delta = rtt_jump(profile)
        assert hop == 3
        assert delta == 50.0

    def test_rtt_jump_empty(self):
        assert rtt_jump([]) == (None, 0.0)
        assert rtt_jump([RttPoint(1, 1, 5.0)]) == (None, 0.0)

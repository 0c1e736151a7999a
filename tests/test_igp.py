"""Unit and property tests for the IGP (SPF) routing substrate."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.topology import Network
from repro.routing.igp import IgpRouting


def build_square(weights=(1, 1, 1, 1)):
    """A -- B / A -- C / B -- D / C -- D with configurable weights."""
    network = Network()
    a = network.add_router("A", asn=1)
    b = network.add_router("B", asn=1)
    c = network.add_router("C", asn=1)
    d = network.add_router("D", asn=1)
    network.add_link(a, b, weight=weights[0])
    network.add_link(a, c, weight=weights[1])
    network.add_link(b, d, weight=weights[2])
    network.add_link(c, d, weight=weights[3])
    return network, (a, b, c, d)


class TestShortestPaths:
    def test_distances_on_square(self):
        network, (a, b, c, d) = build_square()
        igp = IgpRouting(network, 1)
        assert igp.distance(a, d) == 2
        assert igp.distance(a, a) == 0
        assert igp.distance(b, c) == 2

    def test_weighted_path_selection(self):
        network, (a, b, c, d) = build_square(weights=(1, 5, 1, 1))
        igp = IgpRouting(network, 1)
        assert igp.distance(a, d) == 2
        assert igp.next_hops(a, d) == [b]
        path = igp.shortest_path(a, d)
        assert [r.name for r in path] == ["A", "B", "D"]

    def test_ecmp_candidates(self):
        network, (a, b, c, d) = build_square()
        igp = IgpRouting(network, 1)
        hops = igp.next_hops(a, d)
        assert {r.name for r in hops} == {"B", "C"}
        assert len(hops) == 2

    def test_ecmp_rank_selects_branches(self):
        network, (a, b, c, d) = build_square()
        igp = IgpRouting(network, 1)
        paths = {
            tuple(r.name for r in igp.shortest_path(a, d, ecmp_rank=rank))
            for rank in range(2)
        }
        assert paths == {("A", "B", "D"), ("A", "C", "D")}

    def test_self_route_is_empty(self):
        network, (a, *_rest) = build_square()
        igp = IgpRouting(network, 1)
        assert igp.next_hops(a, a) == []

    def test_unreachable(self):
        network = Network()
        a = network.add_router("A", asn=1)
        b = network.add_router("B", asn=1)  # no link
        igp = IgpRouting(network, 1)
        assert igp.distance(a, b) == float("inf")
        assert igp.next_hops(a, b) == []
        assert igp.shortest_path(a, b) is None

    def test_foreign_router_rejected(self):
        network, (a, *_rest) = build_square()
        other = network.add_router("X", asn=2)
        igp = IgpRouting(network, 1)
        with pytest.raises(ValueError):
            igp.distance(a, other)

    def test_asymmetric_weights(self):
        network = Network()
        a = network.add_router("A", asn=1)
        b = network.add_router("B", asn=1)
        network.add_link(a, b, weight=1, weight_back=10)
        igp = IgpRouting(network, 1)
        assert igp.distance(a, b) == 1
        assert igp.distance(b, a) == 10

    def test_hop_count(self):
        network, (a, b, c, d) = build_square()
        igp = IgpRouting(network, 1)
        # Links on the shortest path (first ECMP branch).
        assert len(igp.shortest_path(a, d)) - 1 == 2
        assert len(igp.shortest_path(a, b)) - 1 == 1

    def test_closest(self):
        network, (a, b, c, d) = build_square(weights=(1, 3, 1, 1))
        igp = IgpRouting(network, 1)
        assert igp.closest(a, [c, d]) is d  # d at 2 via b, c at 3
        assert igp.closest(a, []) is None

    def test_closest_ties_break_on_name(self):
        network, (a, b, c, d) = build_square()
        igp = IgpRouting(network, 1)
        assert igp.closest(a, [c, b]).name == "B"


def _brute_force_distance(edges, n, source, target):
    """Floyd-Warshall reference implementation."""
    INF = float("inf")
    dist = [[INF] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for u, v, w in edges:
        dist[u][v] = min(dist[u][v], w)
        dist[v][u] = min(dist[v][u], w)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist[source][target]


class TestAgainstBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_floyd_warshall(self, data):
        n = data.draw(st.integers(min_value=2, max_value=8))
        possible_edges = list(itertools.combinations(range(n), 2))
        chosen = data.draw(
            st.lists(
                st.sampled_from(possible_edges),
                min_size=1,
                max_size=len(possible_edges),
                unique=True,
            )
        )
        weights = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=9),
                min_size=len(chosen),
                max_size=len(chosen),
            )
        )
        network = Network()
        routers = [network.add_router(f"R{i}", asn=1) for i in range(n)]
        edges = []
        for (u, v), w in zip(chosen, weights):
            network.add_link(routers[u], routers[v], weight=w)
            edges.append((u, v, w))
        igp = IgpRouting(network, 1)
        source = data.draw(st.integers(0, n - 1))
        target = data.draw(st.integers(0, n - 1))
        expected = _brute_force_distance(edges, n, source, target)
        assert igp.distance(routers[source], routers[target]) == expected

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_paths_are_consistent_with_distances(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        network = Network()
        routers = [network.add_router(f"R{i}", asn=1) for i in range(n)]
        # random connected-ish graph: chain + random chords
        for i in range(1, n):
            network.add_link(
                routers[i - 1], routers[i], weight=rng.randint(1, 5)
            )
        for _ in range(n):
            u, v = rng.sample(range(n), 2)
            if routers[u].interface_toward(routers[v]) is None:
                network.add_link(
                    routers[u], routers[v], weight=rng.randint(1, 5)
                )
        igp = IgpRouting(network, 1)
        for source in routers:
            for target in routers:
                if source is target:
                    continue
                path = igp.shortest_path(source, target)
                assert path is not None
                # Path length in weights equals the reported distance.
                total = 0
                for first, second in zip(path, path[1:]):
                    link = first.interface_toward(second).link
                    total += (
                        link.weight_ab
                        if link.side_a.router is first
                        else link.weight_ba
                    )
                assert total == igp.distance(source, target)

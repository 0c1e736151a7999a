"""ITDK-like router-level graphs built from traceroute data.

CAIDA's ITDK aggregates traceroute campaigns into a router-level
graph: IP addresses are grouped into routers (alias resolution) and a
link is inferred between routers seen at consecutive hops.  Invisible
MPLS tunnels corrupt exactly this step — the ingress appears adjacent
to every egress — which is what Figs. 1 and 10 quantify.

:class:`TraceGraph` builds such a graph from :class:`Trace` objects.
Alias resolution is pluggable: the simulator supplies ground truth
(address → router name), while ``None`` falls back to one node per
address (interface-level graph).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.net.addressing import format_address
from repro.probing.prober import Trace
from repro.stats.distributions import Distribution

__all__ = ["TraceGraph"]

AliasResolver = Callable[[int], Optional[str]]


class TraceGraph:
    """An undirected router-level graph inferred from traces."""

    def __init__(
        self,
        alias_of: Optional[AliasResolver] = None,
        asn_of: Optional[Callable[[int], Optional[int]]] = None,
        star_nodes: bool = False,
    ) -> None:
        self._alias_of = alias_of or (lambda address: None)
        self._asn_of = asn_of or (lambda address: None)
        #: When True, unresponsive hops become per-trace pseudo-nodes
        #: (ITDK's "pseudo-addresses allocated to non-responsive
        #: routers", pruned in the paper's Fig. 1 cleanup).
        self.star_nodes = star_nodes
        self._adjacency: Dict[str, Set[str]] = {}
        self._node_asn: Dict[str, Optional[int]] = {}
        self._node_addresses: Dict[str, Set[int]] = {}
        self._star_counter = 0

    # ------------------------------------------------------------------
    # Construction

    def node_of(self, address: int) -> str:
        """Node identifier for ``address`` (alias or per-IP fallback)."""
        alias = self._alias_of(address)
        return alias if alias is not None else f"ip_{format_address(address)}"

    def _register(self, address: int) -> str:
        node = self.node_of(address)
        self._adjacency.setdefault(node, set())
        self._node_addresses.setdefault(node, set()).add(address)
        if node not in self._node_asn:
            self._node_asn[node] = self._asn_of(address)
        return node

    def add_edge_addresses(self, a: int, b: int) -> None:
        """Insert the (undirected) link between two addresses' nodes."""
        node_a = self._register(a)
        node_b = self._register(b)
        if node_a == node_b:
            return
        self._adjacency[node_a].add(node_b)
        self._adjacency[node_b].add(node_a)

    def add_trace(self, trace: Trace) -> None:
        """Infer links between consecutive responding hops.

        Only hops at adjacent probe TTLs are linked — a timeout in the
        middle leaves a gap, like CAIDA's processing.  With
        ``star_nodes`` enabled, each unresponsive hop becomes a fresh
        pseudo-node chained between its neighbours instead.
        """
        if self.star_nodes:
            self._add_trace_with_stars(trace)
            return
        hops = trace.responsive_hops
        for hop in hops:
            self._register(hop.address)
        for first, second in zip(hops, hops[1:]):
            if second.probe_ttl == first.probe_ttl + 1:
                self.add_edge_addresses(first.address, second.address)

    def _add_trace_with_stars(self, trace: Trace) -> None:
        previous: Optional[str] = None
        for hop in trace.hops:
            if hop.responded:
                node = self._register(hop.address)
            else:
                self._star_counter += 1
                node = f"star_{self._star_counter}"
                self._adjacency.setdefault(node, set())
                self._node_asn.setdefault(node, None)
            if previous is not None and previous != node:
                self._adjacency[previous].add(node)
                self._adjacency[node].add(previous)
            previous = node

    def prune_pseudo_nodes(self) -> int:
        """Drop star pseudo-nodes (the paper's Fig. 1 cleanup step).

        Returns the number of nodes removed.  Edges through them are
        removed too (not bridged), matching the conservative cleanup.
        """
        pseudo = [
            node for node in self._adjacency if node.startswith("star_")
        ]
        for node in pseudo:
            for peer in self._adjacency[node]:
                self._adjacency[peer].discard(node)
            del self._adjacency[node]
            self._node_asn.pop(node, None)
        return len(pseudo)

    def add_traces(self, traces: Iterable[Trace]) -> None:
        """Ingest many traces."""
        for trace in traces:
            self.add_trace(trace)

    def add_path(self, addresses: List[int]) -> None:
        """Insert a revealed path (e.g. an exposed LSP) as a chain."""
        for a, b in zip(addresses, addresses[1:]):
            self.add_edge_addresses(a, b)

    def remove_edge(self, node_a: str, node_b: str) -> None:
        """Drop one inferred link (used when correcting false edges)."""
        self._adjacency.get(node_a, set()).discard(node_b)
        self._adjacency.get(node_b, set()).discard(node_a)

    # ------------------------------------------------------------------
    # Queries

    def nodes(self) -> List[str]:
        """All node identifiers (sorted)."""
        return sorted(self._adjacency)

    def __len__(self) -> int:
        return len(self._adjacency)

    def has_node(self, node: str) -> bool:
        """True when ``node`` exists."""
        return node in self._adjacency

    def neighbors(self, node: str) -> Set[str]:
        """Adjacent nodes (KeyError when absent)."""
        return set(self._adjacency[node])

    def degree(self, node: str) -> int:
        """Number of distinct neighbours."""
        return len(self._adjacency[node])

    def edge_count(self) -> int:
        """Total undirected edges."""
        return sum(len(peers) for peers in self._adjacency.values()) // 2

    def asn_of_node(self, node: str) -> Optional[int]:
        """AS attributed to ``node`` (from its first address)."""
        return self._node_asn.get(node)

    def addresses_of(self, node: str) -> Set[int]:
        """Addresses aggregated into ``node``."""
        return set(self._node_addresses.get(node, ()))

    def nodes_in_as(self, asn: int) -> List[str]:
        """Nodes attributed to ``asn``."""
        return sorted(
            node for node, node_asn in self._node_asn.items()
            if node_asn == asn
        )

    # ------------------------------------------------------------------
    # The paper's statistics

    def degree_distribution(self) -> Distribution:
        """Distribution of node degrees (Figs. 1 and 10)."""
        return Distribution(
            len(peers) for peers in self._adjacency.values()
        )

    def high_degree_nodes(self, threshold: int) -> List[str]:
        """Nodes with degree ≥ ``threshold`` (the HDN trigger, Sec. 4)."""
        return sorted(
            node
            for node, peers in self._adjacency.items()
            if len(peers) >= threshold
        )

    def density(self, nodes: Optional[Iterable[str]] = None) -> float:
        """Graph density ``2E / (V (V-1))``, optionally on a subgraph."""
        if nodes is None:
            vertex_count = len(self._adjacency)
            edge_count = self.edge_count()
        else:
            subset = {n for n in nodes if n in self._adjacency}
            vertex_count = len(subset)
            edge_count = sum(
                1
                for node in subset
                for peer in self._adjacency[node]
                if peer in subset and peer > node
            )
        if vertex_count < 2:
            return 0.0
        return 2 * edge_count / (vertex_count * (vertex_count - 1))

    def clustering_coefficient(self, node: str) -> float:
        """Local clustering coefficient of ``node``."""
        peers = self._adjacency.get(node, set())
        k = len(peers)
        if k < 2:
            return 0.0
        closed = sum(
            1
            for a in peers
            for b in self._adjacency[a]
            if b in peers and b > a
        )
        return 2 * closed / (k * (k - 1))

    def copy(self) -> "TraceGraph":
        """Deep copy (correction keeps the original for comparison)."""
        clone = TraceGraph(self._alias_of, self._asn_of)
        clone._adjacency = {
            node: set(peers) for node, peers in self._adjacency.items()
        }
        clone._node_asn = dict(self._node_asn)
        clone._node_addresses = {
            node: set(addresses)
            for node, addresses in self._node_addresses.items()
        }
        return clone

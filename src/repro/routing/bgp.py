"""Inter-domain (BGP-like) routing at the AS level.

The simulator needs inter-AS reachability with realistic *path
asymmetry* but not the full BGP decision process.  We model:

* an AS-level adjacency graph derived from inter-AS links,
* shortest-AS-path selection with a deterministic tie-break
  (lowest neighbor ASN), computed per destination AS with BFS,
* optional per-AS *preference overrides* so scenario builders can force
  asymmetric AS paths (mimicking policy/hot-potato effects beyond what
  router-level hot-potato already produces).

Router-level egress selection (hot potato) lives in
:mod:`repro.routing.control`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Set

from repro.net.topology import Network

__all__ = ["BgpRouting"]


class BgpRouting:
    """AS-level route selection over the AS adjacency graph."""

    def __init__(self, network: Network) -> None:
        self.network = network
        # Derived lazily on first use: a control plane is cheap to
        # construct, so a fresh engine attached to already-cached
        # trajectories never pays for the AS graph it will not consult.
        self._adjacency: Optional[Dict[int, Set[int]]] = None
        # next_as cache: dst_asn -> {asn -> chosen next asn}
        self._next_as_cache: Dict[int, Dict[int, int]] = {}

    @property
    def adjacency(self) -> Dict[int, Set[int]]:
        """The AS adjacency graph, derived from inter-AS links."""
        adjacency = self._adjacency
        if adjacency is None:
            adjacency = {}
            for link in self.network.inter_as_links():
                a, b = link.routers
                adjacency.setdefault(a.asn, set()).add(b.asn)
                adjacency.setdefault(b.asn, set()).add(a.asn)
            for asn in self.network.asns():
                adjacency.setdefault(asn, set())
            self._adjacency = adjacency
        return adjacency

    # ------------------------------------------------------------------
    # Route computation

    def _compute_tree(self, dst_asn: int) -> Dict[int, int]:
        """BFS from the destination AS over the AS graph.

        Returns ``{asn: next_asn_toward_dst}`` for every AS that can
        reach ``dst_asn``.  Among equal-length AS paths the lowest
        neighbor ASN wins (deterministic tie-break standing in for
        BGP's lower-router-id rules).
        """
        adjacency = self.adjacency
        depth: Dict[int, int] = {dst_asn: 0}
        next_as: Dict[int, int] = {}
        frontier = deque([dst_asn])
        while frontier:
            current = frontier.popleft()
            for neighbor in sorted(adjacency.get(current, ())):
                candidate_depth = depth[current] + 1
                if neighbor not in depth:
                    depth[neighbor] = candidate_depth
                    next_as[neighbor] = current
                    frontier.append(neighbor)
                elif (
                    depth[neighbor] == candidate_depth
                    and current < next_as.get(neighbor, 1 << 62)
                ):
                    next_as[neighbor] = current
        return next_as

    def next_as(self, asn: int, dst_asn: int) -> Optional[int]:
        """Next AS on ``asn``'s selected route toward ``dst_asn``.

        ``None`` when unreachable; ``dst_asn`` itself is never returned
        for ``asn == dst_asn`` (the question is meaningless there).
        """
        if asn == dst_asn:
            raise ValueError("destination AS is the local AS")
        tree = self._next_as_cache.get(dst_asn)
        if tree is None:
            tree = self._compute_tree(dst_asn)
            self._next_as_cache[dst_asn] = tree
        return tree.get(asn)

    def neighbors(self, asn: int) -> Set[int]:
        """Neighbor ASes of ``asn``."""
        return set(self.adjacency.get(asn, ()))

    def invalidate(self) -> None:
        """Drop derived adjacency and cached trees (after edits)."""
        self._adjacency = None
        self._next_as_cache.clear()

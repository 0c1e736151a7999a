"""Intra-AS IGP routing (OSPF-like shortest path first).

One :class:`IgpRouting` instance serves a single AS.  It computes
shortest-path distances and equal-cost next-hop sets between all router
pairs of the AS, honouring directional link weights (the source of
intra-domain path asymmetry in the synthetic Internet).

Results are computed lazily per source router and memoised; a full
all-pairs computation is only ever triggered by the analysis code.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.router import Router
from repro.net.topology import Network

__all__ = ["IgpRouting"]

#: Sentinel distance for unreachable routers.
UNREACHABLE = float("inf")


class IgpRouting:
    """Shortest-path routing inside one AS."""

    def __init__(self, network: Network, asn: int) -> None:
        self.network = network
        self.asn = asn
        self.routers: List[Router] = network.routers_in_as(asn)
        self._index: Dict[str, int] = {
            router.name: i for i, router in enumerate(self.routers)
        }
        # Adjacency: router index -> list of (neighbor_index, weight).
        self._adjacency: List[List[Tuple[int, int]]] = [
            [] for _ in self.routers
        ]
        for link in network.intra_as_links(asn):
            a, b = link.routers
            ia, ib = self._index[a.name], self._index[b.name]
            self._adjacency[ia].append((ib, link.weight_ab))
            self._adjacency[ib].append((ia, link.weight_ba))
        # Memoised SPF results per source index.
        self._dist_cache: Dict[int, List[float]] = {}
        self._next_hop_cache: Dict[int, List[Tuple[int, ...]]] = {}

    # ------------------------------------------------------------------

    def _require_member(self, router: Router) -> int:
        index = self._index.get(router.name)
        if index is None or self.routers[index] is not router:
            raise ValueError(
                f"{router.name} is not in AS{self.asn}"
            )
        return index

    def _spf(self, source: int) -> None:
        """Dijkstra from ``source``; fills distance and next-hop caches.

        ``next_hops[v]`` holds the *first hops out of the source* on all
        equal-cost shortest paths toward ``v`` (sorted, deduplicated),
        which is exactly what a FIB stores.
        """
        n = len(self.routers)
        dist: List[float] = [UNREACHABLE] * n
        first_hops: List[set] = [set() for _ in range(n)]
        dist[source] = 0.0
        queue: List[Tuple[float, int]] = [(0.0, source)]
        while queue:
            d, u = heapq.heappop(queue)
            if d > dist[u]:
                continue
            for v, weight in self._adjacency[u]:
                nd = d + weight
                if nd < dist[v]:
                    dist[v] = nd
                    first_hops[v] = (
                        {v} if u == source else set(first_hops[u])
                    )
                    heapq.heappush(queue, (nd, v))
                elif nd == dist[v]:
                    if u == source:
                        first_hops[v].add(v)
                    else:
                        first_hops[v] |= first_hops[u]
        self._dist_cache[source] = dist
        self._next_hop_cache[source] = [
            tuple(sorted(hops)) for hops in first_hops
        ]

    def _ensure(self, source: int) -> None:
        if source not in self._dist_cache:
            self._spf(source)

    # ------------------------------------------------------------------
    # Public API

    def distance(self, source: Router, target: Router) -> float:
        """IGP metric distance; ``inf`` when unreachable."""
        si = self._require_member(source)
        ti = self._require_member(target)
        self._ensure(si)
        return self._dist_cache[si][ti]

    def next_hops(self, source: Router, target: Router) -> List[Router]:
        """Equal-cost next-hop routers from ``source`` toward ``target``.

        Empty when ``target`` is unreachable; raises when either router
        is outside the AS.  ``source == target`` yields an empty list.
        """
        si = self._require_member(source)
        ti = self._require_member(target)
        if si == ti:
            return []
        self._ensure(si)
        return [self.routers[i] for i in self._next_hop_cache[si][ti]]

    def shortest_path(
        self, source: Router, target: Router, ecmp_rank: int = 0
    ) -> Optional[List[Router]]:
        """One concrete shortest path, deterministically chosen.

        ``ecmp_rank`` selects among equal-cost branches at every hop
        (modulo the branch count), letting callers enumerate diversity.
        """
        if self.distance(source, target) == UNREACHABLE:
            return None
        path = [source]
        current = source
        guard = 0
        while current is not target:
            hops = self.next_hops(current, target)
            if not hops:
                return None
            current = hops[ecmp_rank % len(hops)]
            path.append(current)
            guard += 1
            if guard > len(self.routers) + 1:
                raise RuntimeError("IGP path did not converge (loop?)")
        return path

    def closest(
        self, source: Router, candidates: Sequence[Router]
    ) -> Optional[Router]:
        """The candidate with minimal IGP distance from ``source``.

        Ties break on router name for determinism.  ``None`` when no
        candidate is reachable.
        """
        best: Optional[Router] = None
        best_key: Tuple[float, str] = (UNREACHABLE, "")
        for candidate in candidates:
            d = self.distance(source, candidate)
            if d == UNREACHABLE:
                continue
            key = (d, candidate.name)
            if best is None or key < best_key:
                best, best_key = candidate, key
        return best


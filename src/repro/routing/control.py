"""Unified control plane: per-router, per-destination route resolution.

The forwarding engine asks one question at every hop: *given this
router and this destination address, what happens next?*  The answer —
a :class:`Route` — combines:

* longest-prefix match over the global address plan,
* intra-AS IGP shortest paths (with ECMP candidate sets),
* inter-AS BGP selection plus router-level hot-potato egress choice,
* the LDP labelling decision (which FEC, if any, would an ingress LER
  push for this destination).

Routes depend only on ``(router, matched prefix)`` and are memoised on
that key, so replaying millions of probes stays cheap.
"""

from __future__ import annotations

import weakref
import zlib
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.mpls.rsvp import TeTunnelRegistry
from repro.net.addressing import Prefix
from repro.net.router import Router
from repro.net.topology import Link, Network
from repro.net.vendors import LdpPolicy
from repro.routing.bgp import BgpRouting
from repro.routing.igp import IgpRouting

__all__ = ["RouteKind", "Route", "ControlPlane", "flow_choice"]


class RouteKind(Enum):
    """Classification of a resolved route."""

    LOCAL = "local"  #: destination address belongs to this router
    ATTACHED = "attached"  #: destination prefix directly connected
    INTERNAL = "internal"  #: intra-AS route toward an internal prefix
    EXTERNAL = "external"  #: inter-AS (BGP) route
    UNREACHABLE = "unreachable"  #: no matching route


@dataclass(frozen=True)
class Route:
    """Resolved forwarding behaviour for one (router, prefix) pair.

    Attributes:
        kind: see :class:`RouteKind`.
        prefix: the matched destination prefix (None when unreachable).
        next_hops: ECMP candidate next-hop routers (empty for LOCAL /
            ATTACHED / UNREACHABLE; ATTACHED resolves the neighbour from
            the concrete destination address at forwarding time).
        egress: for EXTERNAL routes, the hot-potato egress border
            router of the local AS; for INTERNAL routes, the router the
            matched prefix attaches to (the LSP tail).
        fec: the LDP FEC prefix an MPLS ingress would push for this
            route, or None when the destination is not label-switched.
    """

    kind: RouteKind
    prefix: Optional[Prefix] = None
    next_hops: Tuple[Router, ...] = ()
    egress: Optional[Router] = None
    fec: Optional[Prefix] = None


def flow_choice(candidates: Sequence[Router], key: str, flow_id: int) -> Router:
    """Deterministic ECMP pick: stable per (router, flow).

    Paris traceroute keeps the flow identifier constant so one trace
    follows one path; we reproduce that by hashing ``(key, flow_id)``
    with CRC32 (Python's builtin ``hash`` is salted per process and
    would break reproducibility).
    """
    if not candidates:
        raise ValueError("no ECMP candidates to choose from")
    if len(candidates) == 1:
        return candidates[0]
    digest = zlib.crc32(f"{key}|{flow_id}".encode("ascii"))
    return candidates[digest % len(candidates)]


class ControlPlane:
    """Omniscient route resolver over a :class:`Network`."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.bgp = BgpRouting(network)
        #: Installed RSVP-TE tunnels (see :mod:`repro.mpls.rsvp`).
        self.te = TeTunnelRegistry()
        self._igp: Dict[int, IgpRouting] = {}
        self._route_cache: Dict[Tuple[str, Prefix], Route] = {}
        self._ldp_all_prefixes: Dict[int, bool] = {}
        self._egress_cache: Dict[Tuple[str, int], Optional[Router]] = {}
        #: Border routers of an AS toward a next AS, per (asn, next).
        self._borders: Dict[Tuple[int, int], List[Router]] = {}
        #: Listener references: call one to get the live callback
        #: (None once a weakly held owner has been collected).
        self._invalidation_listeners: List[
            Callable[[], Optional[Callable[[], None]]]
        ] = []

    def add_invalidation_listener(
        self, callback: Callable[[], None]
    ) -> None:
        """Register a callback fired whenever memoised routes may be
        stale (``invalidate()`` or a TE tunnel install).  Dependent
        caches — e.g. the forwarding engine's trajectory cache — hook
        in here so topology edits cannot leave them serving old paths.

        Bound methods are held weakly: an engine or measurement
        service dropped without being detached (a memoised campaign
        context evicted from its cache, say) takes its listener with
        it instead of being pinned alive by a shared control plane.
        Plain functions are held strongly.
        """
        try:
            ref = weakref.WeakMethod(callback, self._drop_listener)
        except TypeError:
            def ref():
                return callback
        self._invalidation_listeners.append(ref)

    def _drop_listener(self, ref) -> None:
        """Forget a weak listener whose owner was collected."""
        try:
            self._invalidation_listeners.remove(ref)
        except ValueError:
            pass

    def remove_invalidation_listener(
        self, callback: Callable[[], None]
    ) -> None:
        """Deregister ``callback`` (no error when absent).

        Long-lived shared control planes (serve snapshots) see engines
        attach and detach continuously; without removal every detached
        engine's flush hooks would pile up and pin the engine alive.
        """
        for ref in tuple(self._invalidation_listeners):
            if ref() == callback:
                self._drop_listener(ref)
                return

    def _notify_invalidation(self) -> None:
        # Iterate a copy: garbage collection may drop dead weak
        # listeners from the list at any point.
        for ref in tuple(self._invalidation_listeners):
            callback = ref()
            if callback is not None:
                callback()

    def install_te_tunnel(self, tunnel) -> None:
        """Validate and install an RSVP-TE tunnel at its head-end."""
        self.te.install(tunnel, self.network)
        self._notify_invalidation()

    def remove_te_tunnel(self, head: str, tail: str) -> None:
        """Tear an RSVP-TE tunnel down (KeyError when absent).

        Fires the invalidation listeners like install does: traffic
        previously steered onto the explicit path falls back to the
        LDP/IGP route, so memoised trajectories must flush.
        """
        self.te.remove(head, tail)
        self._notify_invalidation()

    # ------------------------------------------------------------------
    # Sub-plane access

    def igp(self, asn: int) -> IgpRouting:
        """The (lazily built) IGP instance for AS ``asn``."""
        instance = self._igp.get(asn)
        if instance is None:
            instance = IgpRouting(self.network, asn)
            self._igp[asn] = instance
        return instance

    def invalidate(self) -> None:
        """Drop all memoised state (after topology edits)."""
        self._igp.clear()
        self._route_cache.clear()
        self._ldp_all_prefixes.clear()
        self._egress_cache.clear()
        self._borders.clear()
        self.bgp.invalidate()
        self._notify_invalidation()

    # ------------------------------------------------------------------
    # LDP policy

    def as_labels_all_prefixes(self, asn: int) -> bool:
        """Effective AS-wide LDP policy.

        A non-loopback internal prefix only has an end-to-end label path
        when *every* MPLS router of the AS advertises all prefixes;
        any loopback-only router (Juniper default) filters the rest
        (Sec. 3.3 of the paper).
        """
        cached = self._ldp_all_prefixes.get(asn)
        if cached is None:
            mpls_routers = [
                router
                for router in self.network.routers_in_as(asn)
                if router.mpls.enabled
            ]
            cached = bool(mpls_routers) and all(
                router.mpls.ldp_policy is LdpPolicy.ALL_PREFIXES
                for router in mpls_routers
            )
            self._ldp_all_prefixes[asn] = cached
        return cached

    def ldp_labels_prefix(self, asn: int, prefix: Prefix) -> bool:
        """True when AS ``asn`` distributes a label for ``prefix``."""
        if self.network.asn_of_prefix(prefix) != asn:
            return False
        owner = self.network.prefix_table.exact(prefix)
        if prefix.length == 32 and isinstance(owner, Router):
            # Loopbacks are labelled under both vendor policies.
            return True
        return self.as_labels_all_prefixes(asn)

    # ------------------------------------------------------------------
    # Helpers

    def attached_routers(self, prefix: Prefix) -> List[Router]:
        """Routers with an interface (or loopback) inside ``prefix``."""
        owner = self.network.prefix_table.exact(prefix)
        if isinstance(owner, Router):
            return [owner]
        if isinstance(owner, Link):
            return sorted(owner.routers, key=lambda r: r.name)
        return []

    def hot_potato_egress(
        self, router: Router, next_asn: int
    ) -> Optional[Router]:
        """Closest local border router with a link into ``next_asn``."""
        key = (router.name, next_asn)
        if key in self._egress_cache:
            return self._egress_cache[key]
        borders = self._borders.get((router.asn, next_asn))
        if borders is None:
            borders = [
                candidate
                for candidate in self.network.routers_in_as(router.asn)
                if any(
                    interface.neighbor.router.asn == next_asn
                    for interface in candidate.interfaces.values()
                )
            ]
            self._borders[(router.asn, next_asn)] = borders
        egress: Optional[Router]
        if not borders:
            egress = None
        elif router in borders:
            egress = router
        else:
            egress = self.igp(router.asn).closest(router, borders)
        self._egress_cache[key] = egress
        return egress

    def _external_peer(self, egress: Router, next_asn: int) -> Optional[Router]:
        """Deterministic eBGP peer pick on ``egress`` toward ``next_asn``."""
        peers = sorted(
            {
                interface.neighbor.router
                for interface in egress.interfaces.values()
                if interface.neighbor.router.asn == next_asn
            },
            key=lambda r: r.name,
        )
        return peers[0] if peers else None

    def is_fec_egress(self, router: Router, fec: Prefix) -> bool:
        """True when ``router`` terminates the LSP for ``fec``.

        The LSP tail is the first router attached to (or owning) the
        FEC prefix; it advertises the null label to its upstream.
        """
        owner = self.network.prefix_table.exact(fec)
        if isinstance(owner, Router):
            return owner is router
        return router.is_connected_to(fec)

    # ------------------------------------------------------------------
    # Route resolution

    def resolve(self, router: Router, address: int) -> Route:
        """Resolve the route at ``router`` for destination ``address``."""
        if router.owns(address):
            return Route(kind=RouteKind.LOCAL)
        hit = self.network.prefix_table.lookup(address)
        if hit is None:
            return Route(kind=RouteKind.UNREACHABLE)
        prefix = hit[0]
        cache_key = (router.name, prefix)
        route = self._route_cache.get(cache_key)
        if route is None:
            route = self._resolve_prefix(router, prefix)
            self._route_cache[cache_key] = route
        return route

    def resolve_prefix(self, router: Router, prefix: Prefix) -> Route:
        """Resolve the route at ``router`` for a known prefix (FEC)."""
        if prefix.length == 32 and router.owns(prefix.network):
            return Route(kind=RouteKind.LOCAL, prefix=prefix)
        cache_key = (router.name, prefix)
        route = self._route_cache.get(cache_key)
        if route is None:
            route = self._resolve_prefix(router, prefix)
            self._route_cache[cache_key] = route
        return route

    def _resolve_prefix(self, router: Router, prefix: Prefix) -> Route:
        dst_asn = self.network.asn_of_prefix(prefix)
        if dst_asn is None:
            return Route(kind=RouteKind.UNREACHABLE, prefix=prefix)
        if router.is_connected_to(prefix):
            return Route(kind=RouteKind.ATTACHED, prefix=prefix)
        if dst_asn == router.asn:
            return self._resolve_internal(router, prefix, dst_asn)
        return self._resolve_external(router, prefix, dst_asn)

    def _resolve_internal(
        self, router: Router, prefix: Prefix, asn: int
    ) -> Route:
        igp = self.igp(asn)
        attached = self.attached_routers(prefix)
        tail = igp.closest(router, [r for r in attached if r.asn == asn])
        if tail is None:
            # No same-AS attachment is IGP-reachable (partitioned AS,
            # or the prefix only attaches across a border).
            return Route(kind=RouteKind.UNREACHABLE, prefix=prefix)
        next_hops = tuple(igp.next_hops(router, tail))
        if not next_hops:
            return Route(kind=RouteKind.UNREACHABLE, prefix=prefix)
        fec: Optional[Prefix] = None
        if router.mpls.enabled and self.ldp_labels_prefix(asn, prefix):
            fec = prefix
        return Route(
            kind=RouteKind.INTERNAL,
            prefix=prefix,
            next_hops=next_hops,
            egress=tail,
            fec=fec,
        )

    def _resolve_external(
        self, router: Router, prefix: Prefix, dst_asn: int
    ) -> Route:
        next_asn = self.bgp.next_as(router.asn, dst_asn)
        if next_asn is None:
            return Route(kind=RouteKind.UNREACHABLE, prefix=prefix)
        egress = self.hot_potato_egress(router, next_asn)
        if egress is None:
            return Route(kind=RouteKind.UNREACHABLE, prefix=prefix)
        if egress is router:
            peer = self._external_peer(router, next_asn)
            if peer is None:
                return Route(kind=RouteKind.UNREACHABLE, prefix=prefix)
            return Route(
                kind=RouteKind.EXTERNAL,
                prefix=prefix,
                next_hops=(peer,),
                egress=router,
            )
        igp = self.igp(router.asn)
        next_hops = tuple(igp.next_hops(router, egress))
        if not next_hops:
            return Route(kind=RouteKind.UNREACHABLE, prefix=prefix)
        fec: Optional[Prefix] = None
        if router.mpls.enabled and router.mpls.bgp_nexthop_labeling:
            # iBGP next-hop-self: tunnel to the egress LER's loopback.
            loopback_fec = Prefix(egress.loopback, 32)
            if self.ldp_labels_prefix(router.asn, loopback_fec):
                fec = loopback_fec
        return Route(
            kind=RouteKind.EXTERNAL,
            prefix=prefix,
            next_hops=next_hops,
            egress=egress,
            fec=fec,
        )

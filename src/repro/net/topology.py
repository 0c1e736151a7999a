"""Multi-AS network topology container.

The :class:`Network` owns routers, links, and the global address plan.
It answers the two questions everything above it keeps asking:

* *who owns this address?* (``owner_of``/``lookup``), and
* *which link carries this prefix?* (``prefix_table``).

Topologies are built either manually (GNS3-style testbeds, unit tests)
or through :mod:`repro.net.builder` / :mod:`repro.synth.internet`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.net.addressing import (
    AddressAllocator,
    Prefix,
    PrefixTable,
    format_address,
)
from repro.net.router import Interface, Router
from repro.net.vendors import VendorProfile, CISCO
from repro.mpls.config import MplsConfig

__all__ = ["FrozenNetworkError", "Link", "Network"]


class FrozenNetworkError(RuntimeError):
    """Raised when code tries to mutate a frozen (shared) network.

    Rendered internets handed out by the serve snapshot registry are
    shared read-only between tenants; any structural edit would leak
    one tenant's mutation into every other tenant's measurements.
    """


class Link:
    """A point-to-point link between two router interfaces.

    Attributes:
        prefix: the subnet shared by both endpoints.
        delay_ms: one-way propagation delay (used for RTT modelling).
        weight_ab / weight_ba: directional IGP weights (intra-AS only).
    """

    __slots__ = (
        "prefix",
        "side_a",
        "side_b",
        "delay_ms",
        "weight_ab",
        "weight_ba",
    )

    def __init__(
        self,
        prefix: Prefix,
        delay_ms: float,
        weight_ab: int,
        weight_ba: int,
    ) -> None:
        self.prefix = prefix
        self.delay_ms = delay_ms
        self.weight_ab = weight_ab
        self.weight_ba = weight_ba
        self.side_a: Optional[Interface] = None
        self.side_b: Optional[Interface] = None

    def other(self, interface: Interface) -> Interface:
        """The endpoint opposite ``interface``."""
        if interface is self.side_a:
            assert self.side_b is not None
            return self.side_b
        if interface is self.side_b:
            assert self.side_a is not None
            return self.side_a
        raise ValueError("interface does not belong to this link")

    @property
    def routers(self) -> Tuple[Router, Router]:
        """Both endpoint routers."""
        assert self.side_a is not None and self.side_b is not None
        return (self.side_a.router, self.side_b.router)

    @property
    def inter_as(self) -> bool:
        """True when the endpoints belong to different ASes."""
        a, b = self.routers
        return a.asn != b.asn

    def __repr__(self) -> str:
        a, b = self.routers
        return f"Link({a.name}--{b.name}, {self.prefix})"


class Network:
    """Container for a multi-AS topology."""

    def __init__(self, allocator: Optional[AddressAllocator] = None) -> None:
        self.routers: Dict[str, Router] = {}
        self.links: List[Link] = []
        self.allocator = allocator or AddressAllocator()
        #: Longest-prefix table: link prefixes -> Link, /32 loopbacks -> Router.
        self.prefix_table = PrefixTable()
        self._address_owner: Dict[int, Router] = {}
        self._by_asn: Dict[int, List[Router]] = {}
        #: AS that "owns" (originates) each prefix.
        self._prefix_asn: Dict[Prefix, int] = {}
        self._frozen = False

    # ------------------------------------------------------------------
    # Freezing (shared read-only snapshots)

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has sealed this topology."""
        return self._frozen

    def freeze(self) -> None:
        """Seal the topology against structural mutation.

        Called by the serve snapshot registry after a rendered
        internet passes :meth:`validate`; from then on
        :meth:`add_router`/:meth:`add_link` raise
        :class:`FrozenNetworkError`, and chaos backends refuse to fire
        network-mutating flaps against it.  There is deliberately no
        ``unfreeze``: a shared snapshot stays immutable for life.
        """
        self._frozen = True

    def _ensure_mutable(self) -> None:
        """Raise :class:`FrozenNetworkError` when frozen."""
        if self._frozen:
            raise FrozenNetworkError(
                "network is frozen (shared rendered snapshot); "
                "structural edits are forbidden"
            )

    # ------------------------------------------------------------------
    # Construction

    def add_router(
        self,
        name: str,
        asn: int,
        vendor: VendorProfile = CISCO,
        mpls: Optional[MplsConfig] = None,
        loopback: Optional[int] = None,
    ) -> Router:
        """Create a router; loopback auto-allocated unless given."""
        self._ensure_mutable()
        if name in self.routers:
            raise ValueError(f"duplicate router name {name!r}")
        if loopback is None:
            loopback = self.allocator.next_loopback()
        router = Router(name, asn, loopback, vendor=vendor, mpls=mpls)
        self.routers[name] = router
        self._register_address(loopback, router)
        lo_prefix = Prefix(loopback, 32)
        self.prefix_table.insert(lo_prefix, router)
        self._prefix_asn[lo_prefix] = asn
        self._by_asn.setdefault(asn, []).append(router)
        return router

    def add_link(
        self,
        a: Router,
        b: Router,
        weight: int = 1,
        weight_back: Optional[int] = None,
        delay_ms: float = 1.0,
        prefix: Optional[Prefix] = None,
        if_name_a: Optional[str] = None,
        if_name_b: Optional[str] = None,
    ) -> Link:
        """Connect ``a`` and ``b`` with a point-to-point subnet.

        The subnet is auto-allocated unless ``prefix`` is supplied; its
        originating AS is ``a``'s AS (relevant only for inter-AS links,
        where the convention is that the first router's operator numbers
        the link).
        """
        self._ensure_mutable()
        if a is b:
            raise ValueError("cannot link a router to itself")
        if prefix is None:
            prefix, addr_a, addr_b = self.allocator.link_addresses()
        else:
            hosts = list(prefix.hosts())
            if len(hosts) < 2:
                raise ValueError(f"prefix {prefix} too small for a link")
            addr_a, addr_b = hosts[0], hosts[1]
        link = Link(
            prefix,
            delay_ms=delay_ms,
            weight_ab=weight,
            weight_ba=weight if weight_back is None else weight_back,
        )
        name_a = if_name_a or f"if{len(a.interfaces)}"
        name_b = if_name_b or f"if{len(b.interfaces)}"
        link.side_a = a.attach(name_a, addr_a, prefix, link)
        link.side_b = b.attach(name_b, addr_b, prefix, link)
        a._toward.setdefault(b, link.side_a)
        b._toward.setdefault(a, link.side_b)
        self._register_address(addr_a, a)
        self._register_address(addr_b, b)
        self.links.append(link)
        self.prefix_table.insert(prefix, link)
        self._prefix_asn[prefix] = a.asn
        return link

    def _register_address(self, address: int, router: Router) -> None:
        existing = self._address_owner.get(address)
        if existing is not None and existing is not router:
            raise ValueError(
                f"address {format_address(address)} already owned by "
                f"{existing.name}"
            )
        self._address_owner[address] = router

    # ------------------------------------------------------------------
    # Queries

    def router(self, name: str) -> Router:
        """Look up a router by name (KeyError when absent)."""
        return self.routers[name]

    def owner_of(self, address: int) -> Optional[Router]:
        """Router owning ``address`` exactly, or None."""
        return self._address_owner.get(address)

    def prefix_of(self, address: int) -> Optional[Prefix]:
        """Longest-match prefix containing ``address``, or None."""
        hit = self.prefix_table.lookup(address)
        return None if hit is None else hit[0]

    def asn_of_prefix(self, prefix: Prefix) -> Optional[int]:
        """AS originating ``prefix``, or None when unknown."""
        return self._prefix_asn.get(prefix)

    def asn_of_address(self, address: int) -> Optional[int]:
        """AS of the longest-match prefix for ``address``."""
        prefix = self.prefix_of(address)
        return None if prefix is None else self._prefix_asn.get(prefix)

    def routers_in_as(self, asn: int) -> List[Router]:
        """All routers in AS ``asn`` (creation order)."""
        return list(self._by_asn.get(asn, []))

    def asns(self) -> List[int]:
        """All AS numbers present, ascending."""
        return sorted(self._by_asn)

    def intra_as_links(self, asn: int) -> Iterator[Link]:
        """Links with both endpoints inside AS ``asn``."""
        for link in self.links:
            a, b = link.routers
            if a.asn == asn and b.asn == asn:
                yield link

    def inter_as_links(self) -> Iterator[Link]:
        """Links crossing AS borders."""
        for link in self.links:
            if link.inter_as:
                yield link

    def validate(self) -> None:
        """Sanity-check structural invariants; raises on violation."""
        for link in self.links:
            if link.side_a is None or link.side_b is None:
                raise AssertionError(f"dangling link {link.prefix}")
        for name, router in self.routers.items():
            if router.name != name:
                raise AssertionError(f"router name mismatch: {name}")
            for interface in router.interfaces.values():
                if not interface.prefix.contains(interface.address):
                    raise AssertionError(
                        f"{interface!r} outside its prefix"
                    )

    def __repr__(self) -> str:
        return (
            f"Network({len(self.routers)} routers, {len(self.links)} links, "
            f"{len(self.asns())} ASes)"
        )

"""Routers and interfaces.

A :class:`Router` owns a loopback address and a set of numbered
:class:`Interface` objects, each attached to a link subnet.  Routers
carry a vendor profile (TTL signatures, defaults) and an MPLS
configuration; the forwarding engine consults both.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, TYPE_CHECKING

from repro.mpls.config import MplsConfig
from repro.net.addressing import Prefix, format_address
from repro.net.vendors import CISCO, VendorProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.topology import Link

__all__ = ["Interface", "Router"]


class Interface:
    """One router interface attached to a link subnet."""

    __slots__ = ("router", "name", "address", "prefix", "link")

    def __init__(
        self,
        router: "Router",
        name: str,
        address: int,
        prefix: Prefix,
        link: "Link",
    ) -> None:
        self.router = router
        self.name = name
        self.address = address
        self.prefix = prefix
        self.link = link

    @property
    def neighbor(self) -> "Interface":
        """The interface on the other end of the attached link."""
        return self.link.other(self)

    def __repr__(self) -> str:
        return (
            f"Interface({self.router.name}.{self.name}="
            f"{format_address(self.address)})"
        )


class Router:
    """A simulated router.

    Attributes:
        name: unique topology-wide identifier.
        asn: owning Autonomous System number.
        vendor: behaviour profile (signatures, LDP defaults).
        mpls: MPLS configuration (may be the disabled config).
        loopback: /32 loopback address, also the router id.
        icmp_enabled: when False the router never answers probes
            (models ICMP-silent hops).
        icmp_response_rate: probability of answering any one probe
            (models ICMP rate limiting; 1.0 = always).  Sampling is
            deterministic per probe, see the forwarding engine.
    """

    def __init__(
        self,
        name: str,
        asn: int,
        loopback: int,
        vendor: VendorProfile = CISCO,
        mpls: Optional[MplsConfig] = None,
        icmp_enabled: bool = True,
    ) -> None:
        self.name = name
        self.asn = asn
        self.loopback = loopback
        self.vendor = vendor
        self.mpls = mpls if mpls is not None else MplsConfig.disabled()
        self.icmp_enabled = icmp_enabled
        self.icmp_response_rate = 1.0
        self.interfaces: Dict[str, Interface] = {}
        self._addresses: Set[int] = {loopback}
        self._prefixes: Set[Prefix] = set()
        #: Neighbour -> first interface reaching it, filled by
        #: :meth:`Network.add_link` once both sides are attached.
        self._toward: Dict["Router", Interface] = {}

    # ------------------------------------------------------------------
    # Interfaces and addresses

    def attach(
        self, name: str, address: int, prefix: Prefix, link: "Link"
    ) -> Interface:
        """Create and register an interface (used by the topology)."""
        if name in self.interfaces:
            raise ValueError(f"{self.name}: duplicate interface {name!r}")
        interface = Interface(self, name, address, prefix, link)
        self.interfaces[name] = interface
        self._addresses.add(address)
        self._prefixes.add(prefix)
        return interface

    def interface(self, name: str) -> Interface:
        """Look up an interface by name (KeyError when absent)."""
        return self.interfaces[name]

    @property
    def addresses(self) -> Set[int]:
        """All addresses owned by this router (loopback + interfaces)."""
        return self._addresses

    def owns(self, address: int) -> bool:
        """True when ``address`` belongs to this router."""
        return address in self._addresses

    def is_connected_to(self, prefix: Prefix) -> bool:
        """True when one of the router's interfaces sits in ``prefix``."""
        return prefix in self._prefixes

    def neighbors(self) -> List["Router"]:
        """Directly connected routers, in interface order."""
        return [
            interface.neighbor.router
            for interface in self.interfaces.values()
        ]

    def interface_toward(self, neighbor: "Router") -> Optional[Interface]:
        """The first local interface whose link reaches ``neighbor``."""
        return self._toward.get(neighbor)

    def incoming_address_from(self, neighbor: "Router") -> Optional[int]:
        """Address of *this* router's interface facing ``neighbor``.

        This is the address traceroute reveals when a probe arrives
        from ``neighbor`` — the classic "incoming interface" rule.
        """
        interface = self.interface_toward(neighbor)
        return None if interface is None else interface.address

    # ------------------------------------------------------------------
    # Behaviour shortcuts used by the forwarding engine

    def initial_ttl(self, message: str) -> int:
        """Initial IP-TTL for a locally-generated ``message``.

        ``message`` is ``"time-exceeded"``, ``"echo-reply"`` or
        ``"echo-request"`` (the latter reuses the echo-reply value).
        """
        if message == "time-exceeded":
            return self.vendor.ttl_time_exceeded
        if message in ("echo-reply", "echo-request"):
            return self.vendor.ttl_echo_reply
        raise ValueError(f"unknown message kind: {message!r}")

    def __repr__(self) -> str:
        return f"Router({self.name}, AS{self.asn})"

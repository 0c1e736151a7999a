"""RSVP-TE explicit-route tunnels.

LDP tunnels are congruent with the IGP; RSVP-TE lets operators pin an
LSP to an *explicit* path for traffic engineering.  The paper's survey
has 42% of operators running RSVP-TE alongside LDP, and UHP — the
configuration that defeats all four techniques — "is generally used
only when the operator implements sophisticated traffic engineering".

A :class:`TeTunnel` is installed at its head-end router; traffic whose
resolved AS egress is the tunnel's tail is label-switched along the
explicit path instead of the LDP/IGP one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.mpls.config import PoppingMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.topology import Network

__all__ = ["TeTunnel", "TeTunnelRegistry"]


@dataclass(frozen=True)
class TeTunnel:
    """One unidirectional explicit-route LSP.

    Attributes:
        name: operator-facing tunnel identifier.
        path: router names, head-end first, tail last; consecutive
            routers must be adjacent (checked at install time).
        popping: PHP (implicit null at the penultimate hop) or UHP
            (explicit null popped by the tail) — TE tunnels commonly
            use UHP.
        ttl_propagate: copy the IP-TTL into the TE LSE at the head-end
            (off for the invisible case, like LDP's knob).
    """

    name: str
    path: Tuple[str, ...]
    popping: PoppingMode = PoppingMode.UHP
    ttl_propagate: bool = False

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError(
                f"tunnel {self.name!r}: path needs at least 2 routers"
            )
        if len(set(self.path)) != len(self.path):
            raise ValueError(
                f"tunnel {self.name!r}: path revisits a router"
            )

    @property
    def head(self) -> str:
        """Head-end router name."""
        return self.path[0]

    @property
    def tail(self) -> str:
        """Tail-end router name."""
        return self.path[-1]

    def next_hop(self, router_name: str) -> Optional[str]:
        """The explicit next hop after ``router_name`` (None at tail)."""
        try:
            index = self.path.index(router_name)
        except ValueError:
            return None
        if index + 1 >= len(self.path):
            return None
        return self.path[index + 1]

    def is_penultimate(self, router_name: str) -> bool:
        """True when ``router_name`` is the hop before the tail."""
        return (
            len(self.path) >= 2 and self.path[-2] == router_name
        )


class TeTunnelRegistry:
    """Installed TE tunnels, keyed by (head, tail)."""

    def __init__(self) -> None:
        self._tunnels: Dict[Tuple[str, str], TeTunnel] = {}

    def install(self, tunnel: TeTunnel, network: Network) -> None:
        """Validate the explicit path against ``network`` and install.

        Every consecutive pair must be directly linked, all hops must
        sit in one AS (TE does not cross AS borders here), and the
        head/tail pair must be unused.
        """
        routers = []
        for name in tunnel.path:
            try:
                routers.append(network.router(name))
            except KeyError:
                raise ValueError(
                    f"tunnel {tunnel.name!r}: unknown router {name!r}"
                ) from None
        asns = {router.asn for router in routers}
        if len(asns) != 1:
            raise ValueError(
                f"tunnel {tunnel.name!r}: path crosses AS borders"
            )
        for first, second in zip(routers, routers[1:]):
            if first.interface_toward(second) is None:
                raise ValueError(
                    f"tunnel {tunnel.name!r}: {first.name} and "
                    f"{second.name} are not adjacent"
                )
        key = (tunnel.head, tunnel.tail)
        if key in self._tunnels:
            raise ValueError(
                f"a tunnel from {tunnel.head} to {tunnel.tail} exists"
            )
        self._tunnels[key] = tunnel

    def remove(self, head: str, tail: str) -> None:
        """Tear a tunnel down (KeyError when absent)."""
        del self._tunnels[(head, tail)]

    def tunnel_from(self, head: str, tail: str) -> Optional[TeTunnel]:
        """The installed tunnel for (head, tail), if any."""
        return self._tunnels.get((head, tail))

    def __len__(self) -> int:
        return len(self._tunnels)

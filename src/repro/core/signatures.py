"""TTL-based router fingerprinting (Sec. 2.3, Table 1).

Routers initialise the IP-TTL of self-generated packets to an
OS-specific constant (64, 128 or 255).  Observing the residual TTL of
a reply at the vantage point, the initial value is the smallest
constant not below the observation, and the *return path length* is
their difference.  The pair-signature
``<time-exceeded initial, echo-reply initial>`` identifies the brand:

==============  =======================
Signature       Brand / OS
==============  =======================
``<255, 255>``  Cisco (IOS, IOS XR)
``<255, 64>``   Juniper (Junos)
``<128, 128>``  Juniper (JunosE)
``<64, 64>``    Brocade, Alcatel, Linux
==============  =======================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "INITIAL_TTLS",
    "SIGNATURE_BRANDS",
    "infer_initial_ttl",
    "return_path_length",
    "Signature",
    "SignatureInventory",
]

#: Initial TTL constants in use on the Internet, ascending.
INITIAL_TTLS = (64, 128, 255)

#: Table 1 of the paper.
SIGNATURE_BRANDS: Dict[Tuple[int, int], str] = {
    (255, 255): "cisco",
    (255, 64): "juniper",
    (128, 128): "junos-e",
    (64, 64): "brocade",
}

#: Signature whose echo-reply TTL gap powers RTLA.
JUNIPER_SIGNATURE = (255, 64)


def infer_initial_ttl(observed: Optional[int]) -> Optional[int]:
    """Smallest plausible initial TTL for an observed residual TTL.

    >>> infer_initial_ttl(250)
    255
    >>> infer_initial_ttl(62)
    64

    Returns None for None input or an impossible observation (0 or
    out of range).
    """
    if observed is None or not 0 < observed <= 255:
        return None
    for initial in INITIAL_TTLS:
        if observed <= initial:
            return initial
    return None


def return_path_length(observed: Optional[int]) -> Optional[int]:
    """Links the reply travelled: initial − observed + 1.

    The reply is decremented at every intermediate router but neither
    at its origin nor at the vantage point, so the link count is the
    TTL deficit plus one.  With this convention a symmetric, tunnel-
    free path has a return length equal to the forward probe TTL and
    the FRPLA asymmetry baseline sits exactly at 0.
    """
    initial = infer_initial_ttl(observed)
    if initial is None or observed is None:
        return None
    return initial - observed + 1


@dataclass(frozen=True)
class Signature:
    """A (possibly partial) router pair-signature."""

    time_exceeded: Optional[int]  #: inferred TE initial TTL
    echo_reply: Optional[int]  #: inferred echo-reply initial TTL

    @property
    def complete(self) -> bool:
        """True when both initials were observed."""
        return self.time_exceeded is not None and self.echo_reply is not None

    @property
    def pair(self) -> Optional[Tuple[int, int]]:
        """The ``(te, er)`` tuple, or None when incomplete."""
        if not self.complete:
            return None
        return (self.time_exceeded, self.echo_reply)

    @property
    def brand(self) -> Optional[str]:
        """Brand per Table 1, or None when unknown/incomplete."""
        pair = self.pair
        return SIGNATURE_BRANDS.get(pair) if pair else None

    @property
    def rtla_capable(self) -> bool:
        """True for the ``<255, 64>`` signature RTLA relies on."""
        return self.pair == JUNIPER_SIGNATURE

    def __str__(self) -> str:
        te = "?" if self.time_exceeded is None else self.time_exceeded
        er = "?" if self.echo_reply is None else self.echo_reply
        return f"<{te}, {er}>"


class SignatureInventory:
    """Accumulates TTL observations per address and infers signatures.

    Feed it traceroute hops (time-exceeded residual TTLs) and ping
    results (echo-reply residual TTLs); query per-address signatures
    and aggregate brand statistics (Table 5's signature columns).
    """

    def __init__(self) -> None:
        self._te: Dict[int, List[int]] = {}
        self._er: Dict[int, List[int]] = {}

    def __eq__(self, other: object) -> bool:
        """Equal when both hold the same observations, in order."""
        if not isinstance(other, SignatureInventory):
            return NotImplemented
        return self._te == other._te and self._er == other._er

    # ------------------------------------------------------------------
    # Observation intake

    def observe_time_exceeded(self, address: int, reply_ttl: int) -> None:
        """Record a time-exceeded residual TTL for ``address``."""
        self._te.setdefault(address, []).append(reply_ttl)

    def observe_echo_reply(self, address: int, reply_ttl: int) -> None:
        """Record an echo-reply residual TTL for ``address``."""
        self._er.setdefault(address, []).append(reply_ttl)

    def observe_trace(self, trace) -> None:
        """Ingest every time-exceeded hop of a :class:`Trace`."""
        for hop in trace.hops:
            if (
                hop.responded
                and hop.reply_kind == "time-exceeded"
                and hop.reply_ttl is not None
            ):
                self.observe_time_exceeded(hop.address, hop.reply_ttl)

    def observe_ping(self, result) -> None:
        """Ingest a :class:`PingResult`."""
        if result.responded and result.reply_ttl is not None:
            self.observe_echo_reply(result.dst, result.reply_ttl)

    # ------------------------------------------------------------------
    # Inference

    def addresses(self) -> List[int]:
        """All addresses with at least one observation."""
        return sorted(set(self._te) | set(self._er))

    def signature(self, address: int) -> Signature:
        """Best signature inferrable for ``address``."""
        return Signature(
            time_exceeded=self._initial(self._te.get(address)),
            echo_reply=self._initial(self._er.get(address)),
        )

    @staticmethod
    def _initial(observations: Optional[List[int]]) -> Optional[int]:
        if not observations:
            return None
        # The largest residual is the closest to the initial (shortest
        # return path seen), so infer from it.
        return infer_initial_ttl(max(observations))

    def brand_shares(self, addresses=None) -> Dict[str, float]:
        """Fraction of addresses per signature brand (Table 5 columns).

        ``addresses`` restricts the population; incomplete or unknown
        signatures land in ``"unknown"``.  Fractions sum to 1 (empty
        dict when no addresses).
        """
        population = (
            list(addresses) if addresses is not None else self.addresses()
        )
        if not population:
            return {}
        counts: Dict[str, int] = {}
        for address in population:
            brand = self.signature(address).brand or "unknown"
            counts[brand] = counts.get(brand, 0) + 1
        total = len(population)
        return {brand: count / total for brand, count in counts.items()}

"""MPLS label stack entries (RFC 3032).

A label stack entry (LSE) is 32 bits on the wire: 20-bit label, 3-bit
traffic class, bottom-of-stack flag, 8-bit TTL.  The simulator keeps
LSEs as mutable objects (the TTL is decremented per hop) but provides
the exact wire encoding for round-trip tests and for RFC 4950 quoting.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Tuple

from repro.net.addressing import Prefix

__all__ = [
    "EXPLICIT_NULL",
    "IMPLICIT_NULL",
    "ROUTER_ALERT",
    "FIRST_UNRESERVED_LABEL",
    "LabelStackEntry",
    "LabelAllocator",
]

#: IPv4 explicit null — egress pops (UHP signalling).
EXPLICIT_NULL = 0
#: Router alert label.
ROUTER_ALERT = 1
#: Implicit null — penultimate hop pops (PHP signalling); never
#: actually appears on the wire.
IMPLICIT_NULL = 3
#: First label value outside the reserved range.
FIRST_UNRESERVED_LABEL = 16

_MAX_LABEL = (1 << 20) - 1


class LabelStackEntry:
    """One 32-bit MPLS label stack entry."""

    __slots__ = ("label", "tc", "bottom", "ttl")

    def __init__(
        self, label: int, ttl: int, bottom: bool = True, tc: int = 0
    ) -> None:
        if not 0 <= label <= _MAX_LABEL:
            raise ValueError(f"label out of range: {label}")
        if not 0 <= ttl <= 255:
            raise ValueError(f"LSE-TTL out of range: {ttl}")
        if not 0 <= tc <= 7:
            raise ValueError(f"traffic class out of range: {tc}")
        self.label = label
        self.tc = tc
        self.bottom = bottom
        self.ttl = ttl

    def encode(self) -> int:
        """The 32-bit wire representation."""
        return (
            (self.label << 12)
            | (self.tc << 9)
            | (int(self.bottom) << 8)
            | self.ttl
        )

    @classmethod
    def decode(cls, word: int) -> "LabelStackEntry":
        """Parse a 32-bit wire word."""
        if not 0 <= word < (1 << 32):
            raise ValueError(f"not a 32-bit word: {word}")
        return cls(
            label=word >> 12,
            tc=(word >> 9) & 0x7,
            bottom=bool((word >> 8) & 0x1),
            ttl=word & 0xFF,
        )

    def copy(self) -> "LabelStackEntry":
        """Independent copy (packets are mutated per hop)."""
        return LabelStackEntry(self.label, self.ttl, self.bottom, self.tc)

    def as_tuple(self) -> Tuple[int, int]:
        """``(label, ttl)`` pair, the form quoted in traceroute output."""
        return (self.label, self.ttl)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LabelStackEntry)
            and self.encode() == other.encode()
        )

    def __repr__(self) -> str:
        return f"LSE(label={self.label}, ttl={self.ttl})"


class LabelAllocator:
    """Per-network LDP label allocation.

    LDP allocates labels from downstream: each router picks its own
    label for each FEC and advertises it upstream.  Labels are handed
    out sequentially from 16 (like a freshly booted IOS), one per
    ``(router, fec)`` pair, deterministically in first-use order.
    """

    def __init__(self, first_label: int = FIRST_UNRESERVED_LABEL) -> None:
        self._next = first_label
        self._bindings: Dict[Tuple[str, object], int] = {}

    def binding(self, router_name: str, fec: object) -> int:
        """The label ``router_name`` advertises for ``fec``."""
        key = (router_name, fec)
        label = self._bindings.get(key)
        if label is None:
            label = self._next
            self._next += 1
            self._bindings[key] = label
        return label

    def __len__(self) -> int:
        return len(self._bindings)

    # ------------------------------------------------------------------
    # Checkpointable state (see repro.store.checkpoint)
    #
    # First-use allocation order makes label values depend on probing
    # history, so a resumed campaign must reinstate the interrupted
    # run's bindings or its live probes would observe different label
    # numbers than an uninterrupted run.  Bindings are append-only and
    # insertion-ordered, which makes position-based deltas exact.

    def export_bindings(self, start: int = 0) -> list:
        """Bindings from allocation position ``start`` on, as
        JSON-ready ``[router, fec_network, fec_length, label]`` rows.
        LDP FECs are :class:`~repro.net.addressing.Prefix` instances;
        RSVP-TE FECs are ``("te", tunnel_name)`` pairs and round-trip
        as ``[router, "te", tunnel_name, label]`` rows."""
        rows = []
        for (router, fec), label in islice(
            self._bindings.items(), start, None
        ):
            if isinstance(fec, Prefix):
                rows.append([router, fec.network, fec.length, label])
            else:
                rows.append([router, *fec, label])
        return rows

    def import_bindings(self, rows) -> None:
        """Reinstate exported bindings, in their original order."""
        for router, network, length, label in rows:
            fec = (
                (network, length)
                if network == "te"
                else Prefix(network, length)
            )
            self._bindings[(router, fec)] = label
            if label >= self._next:
                self._next = label + 1

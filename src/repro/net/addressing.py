"""IPv4 addressing primitives.

The simulator manipulates millions of addresses while replaying probe
packets, so addresses are plain ``int`` values internally.  This module
provides the conversions, prefix arithmetic, and a longest-prefix-match
table that the routing and forwarding layers are built on.

Everything here is deliberately dependency-free (no :mod:`ipaddress`):
profiling showed stdlib ``IPv4Address`` objects dominating runtime in
early prototypes, and an int-based representation keeps the forwarding
engine allocation-free on its hot path.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "MAX_ADDRESS",
    "parse_address",
    "format_address",
    "Prefix",
    "PrefixTable",
    "AddressAllocator",
]

#: Highest representable IPv4 address (255.255.255.255).
MAX_ADDRESS = 0xFFFFFFFF

_OCTET_RANGE = range(256)


def parse_address(text: str) -> int:
    """Parse dotted-quad ``text`` into an integer address.

    >>> parse_address("10.0.0.1")
    167772161

    Raises :class:`ValueError` for malformed input.
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"malformed IPv4 address: {text!r}")
        octet = int(part)
        if octet not in _OCTET_RANGE:
            raise ValueError(f"octet out of range in address: {text!r}")
        value = (value << 8) | octet
    return value


def format_address(value: int) -> str:
    """Format integer ``value`` as a dotted quad.

    >>> format_address(167772161)
    '10.0.0.1'
    """
    if not 0 <= value <= MAX_ADDRESS:
        raise ValueError(f"address out of range: {value}")
    return ".".join(
        str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0)
    )


class Prefix:
    """An IPv4 prefix (network address + mask length).

    Instances are immutable, hashable, and ordered by (network, length)
    so they can be used as dict keys and sorted deterministically.
    """

    __slots__ = ("network", "length")

    def __init__(self, network: int, length: int) -> None:
        if not 0 <= length <= 32:
            raise ValueError(f"prefix length out of range: {length}")
        mask = self.mask_for(length)
        if network & ~mask & MAX_ADDRESS:
            raise ValueError(
                f"host bits set in prefix {format_address(network)}/{length}"
            )
        self.network = network
        self.length = length

    @staticmethod
    def mask_for(length: int) -> int:
        """Return the netmask integer for a prefix ``length``."""
        if length == 0:
            return 0
        return (MAX_ADDRESS << (32 - length)) & MAX_ADDRESS

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` notation."""
        try:
            addr_text, len_text = text.split("/")
        except ValueError as exc:
            raise ValueError(f"malformed prefix: {text!r}") from exc
        return cls(parse_address(addr_text), int(len_text))

    @classmethod
    def containing(cls, address: int, length: int) -> "Prefix":
        """Return the /``length`` prefix that contains ``address``."""
        return cls(address & cls.mask_for(length), length)

    @property
    def mask(self) -> int:
        """Netmask of this prefix as an integer."""
        return self.mask_for(self.length)

    @property
    def num_addresses(self) -> int:
        """Number of addresses covered by this prefix."""
        return 1 << (32 - self.length)

    @property
    def broadcast(self) -> int:
        """Highest address in the prefix."""
        return self.network | (~self.mask & MAX_ADDRESS)

    def contains(self, address: int) -> bool:
        """True when ``address`` falls within this prefix."""
        return (address & self.mask) == self.network

    def covers(self, other: "Prefix") -> bool:
        """True when ``other`` is a (non-strict) sub-prefix of this one."""
        return other.length >= self.length and self.contains(other.network)

    def hosts(self) -> Iterator[int]:
        """Iterate over usable host addresses.

        For prefixes shorter than /31 the network and broadcast
        addresses are skipped, matching conventional subnetting.  /31
        (point-to-point, RFC 3021) and /32 yield every address.
        """
        if self.length >= 31:
            yield from range(self.network, self.broadcast + 1)
        else:
            yield from range(self.network + 1, self.broadcast)

    def subnets(self, new_length: int) -> Iterator["Prefix"]:
        """Iterate sub-prefixes of this prefix at ``new_length``."""
        if new_length < self.length:
            raise ValueError(
                f"cannot subnet /{self.length} into shorter /{new_length}"
            )
        step = 1 << (32 - new_length)
        for network in range(self.network, self.broadcast + 1, step):
            yield Prefix(network, new_length)

    def __contains__(self, address: int) -> bool:
        return self.contains(address)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Prefix)
            and self.network == other.network
            and self.length == other.length
        )

    def __hash__(self) -> int:
        return hash((self.network, self.length))

    def __lt__(self, other: "Prefix") -> bool:
        return (self.network, self.length) < (other.network, other.length)

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __str__(self) -> str:
        return f"{format_address(self.network)}/{self.length}"


class PrefixTable:
    """Longest-prefix-match table mapping prefixes to arbitrary values.

    The table keeps one dict per prefix length and matches from the
    longest populated length downward, which is fast for the small
    number of distinct lengths a simulated network uses (/32 loopbacks,
    /30 or /31 links, aggregate blocks).
    """

    def __init__(self) -> None:
        self._by_length: Dict[int, Dict[int, Tuple[Prefix, object]]] = {}
        self._lengths: List[int] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, prefix: Prefix, value: object) -> None:
        """Insert (or replace) the entry for ``prefix``."""
        bucket = self._by_length.get(prefix.length)
        if bucket is None:
            bucket = {}
            self._by_length[prefix.length] = bucket
            self._lengths = sorted(self._by_length, reverse=True)
        if prefix.network not in bucket:
            self._size += 1
        bucket[prefix.network] = (prefix, value)

    def remove(self, prefix: Prefix) -> None:
        """Remove the entry for ``prefix`` (KeyError when absent)."""
        bucket = self._by_length.get(prefix.length)
        if bucket is None or prefix.network not in bucket:
            raise KeyError(str(prefix))
        del bucket[prefix.network]
        self._size -= 1
        if not bucket:
            del self._by_length[prefix.length]
            self._lengths = sorted(self._by_length, reverse=True)

    def lookup(self, address: int) -> Optional[Tuple[Prefix, object]]:
        """Return ``(prefix, value)`` for the longest match, or None."""
        for length in self._lengths:
            network = address & Prefix.mask_for(length)
            hit = self._by_length[length].get(network)
            if hit is not None:
                return hit
        return None

    def exact(self, prefix: Prefix) -> Optional[object]:
        """Return the value stored for exactly ``prefix``, or None."""
        bucket = self._by_length.get(prefix.length)
        if bucket is None:
            return None
        hit = bucket.get(prefix.network)
        return None if hit is None else hit[1]

    def items(self) -> Iterator[Tuple[Prefix, object]]:
        """Iterate all ``(prefix, value)`` entries, longest first."""
        for length in self._lengths:
            yield from self._by_length[length].values()


class AddressAllocator:
    """Carves link and loopback prefixes out of disjoint pools.

    Topology builders use one allocator per network so every interface
    and loopback receives a unique, deterministic address.  Link
    subnets are /31 by default (point-to-point) and loopbacks /32.
    """

    def __init__(
        self,
        link_pool: str = "10.0.0.0/8",
        loopback_pool: str = "172.16.0.0/12",
        link_length: int = 31,
    ) -> None:
        self._link_pool = Prefix.parse(link_pool)
        self._loopback_pool = Prefix.parse(loopback_pool)
        if self._link_pool.covers(self._loopback_pool) or self._loopback_pool.covers(
            self._link_pool
        ):
            raise ValueError("link and loopback pools must be disjoint")
        self._link_length = link_length
        self._link_iter = self._link_pool.subnets(link_length)
        self._loopback_iter = self._loopback_pool.hosts()

    @property
    def link_length(self) -> int:
        """Prefix length used for link subnets."""
        return self._link_length

    def next_link_prefix(self) -> Prefix:
        """Allocate the next unused link subnet."""
        try:
            return next(self._link_iter)
        except StopIteration:
            raise RuntimeError("link address pool exhausted") from None

    def next_loopback(self) -> int:
        """Allocate the next unused loopback address."""
        try:
            return next(self._loopback_iter)
        except StopIteration:
            raise RuntimeError("loopback address pool exhausted") from None

    def link_addresses(self) -> Tuple[Prefix, int, int]:
        """Allocate a link subnet and return (prefix, addr_a, addr_b)."""
        prefix = self.next_link_prefix()
        hosts = list(prefix.hosts())
        return prefix, hosts[0], hosts[1]


def summarize(addresses: Iterable[int]) -> List[Prefix]:
    """Return the minimal list of /32 prefixes covering ``addresses``.

    Helper used by tests and dataset exports; intentionally simple.
    """
    return [Prefix(addr, 32) for addr in sorted(set(addresses))]

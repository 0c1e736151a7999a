"""Symbolic probe trajectories for the forwarding engine.

A probe's walk is deterministic given ``(origin, dst, flow_id, kind)``
— every routing decision (ECMP pick, LSP entry/exit, TE steering)
reads only those fields, never a TTL.  The *only* thing the initial
TTL ``T`` controls is **where the journey ends**.  Better yet,
every TTL value that ever appears during a walk has the closed form::

    value(T) = min(T + shift, clamp)

with ``shift = None`` denoting a pure constant (e.g. a non-propagated
LSE initialised to 255).  The form is closed under all dataplane
operations:

* decrement            — ``(shift - 1, clamp - 1)``
* propagate push       — copy the IP symbol into the new LSE
* no-propagate push    — ``(None, 255)``
* PHP ``min`` pop      — pairwise ``min`` of shifts and clamps

So instead of re-walking the path once per probe TTL (O(h) per probe,
O(h^2) per traceroute), the engine walks each probe flow **once**
symbolically, recording a :class:`TrajectoryEvent` at every decrement
that could expire some ``T`` (threshold ``θ = -shift``: the packet
dies there iff ``T <= θ``).  Thresholds along a walk are
non-decreasing per ladder, so a prefix-max array plus
:func:`bisect.bisect_left` maps any ``T`` to its terminal event in
O(log events).

Label values are never read during a walk, so the symbolic build must
not allocate them either (LDP label allocation is pinned to first-use
order by the golden tests).  Stack entries instead carry a
:class:`BindingRef`: an index into the trajectory's ordered binding
*sites*, forced lazily in walk order at evaluation time.

Replies are not built here: the engine walks each one concretely, once
per trajectory event.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import List, Optional, Tuple

__all__ = [
    "BindingRef",
    "SymbolicLse",
    "SymbolicPacket",
    "TrajectoryEvent",
    "Trajectory",
    "TrajectoryBuilder",
    "ttl_eval",
]

#: Symbolic TTL of a freshly originated packet: ``value(T) = T``.
_IDENTITY = (0, 255)
#: Symbolic TTL of a non-propagated LSE: constant 255.
_CONST_255 = (None, 255)


def ttl_eval(symbol: Tuple[Optional[int], int], initial_ttl: int) -> int:
    """Evaluate a symbolic TTL ``min(T + shift, clamp)`` at ``T``."""
    shift, clamp = symbol
    if shift is None:
        return clamp
    return min(initial_ttl + shift, clamp)


def _ttl_dec(symbol):
    """Decrement a symbolic TTL.

    Returns ``(new_symbol, status)`` where status is ``None`` (cannot
    expire here for any initial TTL), ``-1`` (expires here for *every*
    initial TTL), or a threshold ``θ >= 1`` (expires here iff the
    initial TTL is ``<= θ``).
    """
    shift, clamp = symbol
    clamp -= 1
    if shift is None:
        return (None, clamp), (-1 if clamp <= 0 else None)
    shift -= 1
    if clamp <= 0:
        return (shift, clamp), -1
    return (shift, clamp), -shift


def _ttl_min(a, b):
    """Pairwise ``min`` of two symbolic TTLs (the PHP pop rule)."""
    shift_a, clamp_a = a
    shift_b, clamp_b = b
    if shift_a is None:
        shift = shift_b
    elif shift_b is None:
        shift = shift_a
    else:
        shift = min(shift_a, shift_b)
    return (shift, min(clamp_a, clamp_b))


class BindingRef:
    """Placeholder for a label allocated lazily at evaluation time.

    ``index`` points into the owning trajectory's ``sites`` list; the
    engine forces allocations in site order so the allocator sees the
    exact first-use sequence a concrete walk would have produced.
    """

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:
        return f"BindingRef({self.index})"


class SymbolicLse:
    """Label-stack entry whose TTL is a symbolic ``(shift, clamp)``."""

    __slots__ = ("label", "ttl", "bottom")

    def __init__(self, label, ttl, bottom: bool) -> None:
        self.label = label
        self.ttl = ttl
        self.bottom = bottom


class SymbolicPacket:
    """Duck-typed stand-in for :class:`~repro.dataplane.packet.Packet`.

    Exposes the exact attribute/method surface the engine's walk code
    touches (``labeled``, ``top``, ``fec``, ``te_tunnel``, pushes,
    pops, decrements), but keeps every TTL symbolic and every label a
    reference.  ``record_binding`` appends a binding *site* and returns
    its :class:`BindingRef` instead of asking the label allocator.
    """

    __slots__ = (
        "src", "dst", "kind", "flow_id", "ip", "stack", "fec",
        "te_tunnel", "sites",
    )

    def __init__(self, src: int, dst: int, kind: str, flow_id: int) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.flow_id = flow_id
        self.ip = _IDENTITY
        self.stack: List[SymbolicLse] = []
        self.fec = None
        self.te_tunnel = None
        self.sites: List[Tuple[str, object]] = []

    @property
    def labeled(self) -> bool:
        """True when an MPLS label stack is present."""
        return bool(self.stack)

    @property
    def top(self) -> SymbolicLse:
        """Top label stack entry (IndexError when unlabeled)."""
        return self.stack[-1]

    def record_binding(self, router_name: str, fec: object) -> BindingRef:
        """Note a label-binding site; allocation happens at eval time."""
        self.sites.append((router_name, fec))
        return BindingRef(len(self.sites) - 1)

    def push_label(self, label, fec, propagate: bool) -> None:
        """Push a fresh LSE for ``fec``; TTL copies IP under propagate."""
        ttl = self.ip if propagate else _CONST_255
        self.stack.append(SymbolicLse(label, ttl, bottom=not self.stack))
        self.fec = fec

    def pop(self) -> SymbolicLse:
        """Pop the top entry; clears ``fec``/``te_tunnel`` when empty."""
        entry = self.stack.pop()
        if not self.stack:
            self.fec = None
            self.te_tunnel = None
        return entry

    def apply_min(self, popped: SymbolicLse) -> None:
        """PHP min rule: ``IP-TTL = min(IP-TTL, popped LSE-TTL)``."""
        self.ip = _ttl_min(self.ip, popped.ttl)

    def dec_ip(self):
        """Decrement the IP-TTL; see :func:`_ttl_dec` for the status."""
        self.ip, status = _ttl_dec(self.ip)
        return status

    def dec_lse(self):
        """Decrement the top LSE-TTL; status as for :meth:`dec_ip`."""
        entry = self.stack[-1]
        entry.ttl, status = _ttl_dec(entry.ttl)
        return status


class TrajectoryEvent:
    """One potential journey end, conditional on the initial TTL.

    ``threshold`` is the largest initial TTL that dies at this event
    (``math.inf`` for the walk's unconditional terminal).  The
    remaining fields snapshot everything a matching probe's outcome
    needs in O(1): the symbolic IP-TTL (ICMP rate limiting), the stack
    (RFC 4950 quoting), accumulated delay, and — for LSE expiries —
    the FEC and last-hop flag that drive reply construction.
    ``bindings_used`` counts the binding sites recorded before this
    event, i.e. how far label allocation must be forced.
    ``reply_info`` is a per-event memo slot owned by the engine.
    """

    __slots__ = (
        "threshold", "reason", "hop_index", "delay_ms", "ip", "stack",
        "expired_fec", "expired_at_lh", "bindings_used", "reply_info",
    )

    def __init__(
        self, threshold, reason, hop_index, delay_ms, ip, stack,
        expired_fec, expired_at_lh, bindings_used,
    ) -> None:
        self.threshold = threshold
        self.reason = reason
        self.hop_index = hop_index
        self.delay_ms = delay_ms
        self.ip = ip
        self.stack = stack
        self.expired_fec = expired_fec
        self.expired_at_lh = expired_at_lh
        self.bindings_used = bindings_used
        self.reply_info = None


class Trajectory:
    """Symbolic record of one deterministic packet journey.

    Holds the walked router path, the ordered expiry events (terminal
    last, threshold ``inf``), the prefix-max threshold array used by
    :meth:`locate`, and the ordered label-binding sites with a
    ``forced`` high-water mark tracking how many the engine has
    already materialised through the allocator.
    """

    __slots__ = (
        "routers", "names", "events", "thresholds", "sites", "forced",
        "src", "dst", "flow_id", "kind",
    )

    def __init__(
        self, routers, names, events, thresholds, sites,
        src, dst, flow_id, kind,
    ) -> None:
        self.routers = routers
        self.names = names
        self.events = events
        self.thresholds = thresholds
        self.sites = sites
        self.forced = 0
        self.src = src
        self.dst = dst
        self.flow_id = flow_id
        self.kind = kind

    def locate(self, initial_ttl: int) -> TrajectoryEvent:
        """The event where a packet of ``initial_ttl`` ends its journey."""
        return self.events[bisect_left(self.thresholds, initial_ttl)]


class TrajectoryBuilder:
    """Records threshold events while the engine walks symbolically."""

    __slots__ = ("packet", "events", "hop_index", "delay_ms", "path")

    def __init__(self, packet: SymbolicPacket) -> None:
        self.packet = packet
        self.events: List[TrajectoryEvent] = []
        self.hop_index = 0
        self.delay_ms = 0.0
        self.path = None

    def at(self, hop_index: int, delay_ms: float) -> None:
        """Set the walk position subsequent events snapshot."""
        self.hop_index = hop_index
        self.delay_ms = delay_ms

    def _snapshot(self, threshold, reason, expired_fec, expired_at_lh):
        packet = self.packet
        return TrajectoryEvent(
            threshold=threshold,
            reason=reason,
            hop_index=self.hop_index,
            delay_ms=self.delay_ms,
            ip=packet.ip,
            stack=tuple(
                (entry.label, entry.ttl, entry.bottom)
                for entry in packet.stack
            ),
            expired_fec=expired_fec,
            expired_at_lh=expired_at_lh,
            bindings_used=len(packet.sites),
        )

    def expiry(self, threshold, reason, expired_fec, expired_at_lh):
        """Record a conditional expiry (initial TTL ``<= threshold``)."""
        self.events.append(
            self._snapshot(threshold, reason, expired_fec, expired_at_lh)
        )

    def terminal(self, reason, hop_index, delay_ms, expired_fec,
                 expired_at_lh) -> None:
        """Record the unconditional end of the walk."""
        self.at(hop_index, delay_ms)
        self.events.append(
            self._snapshot(math.inf, reason, expired_fec, expired_at_lh)
        )

    def build(self) -> Trajectory:
        """Assemble the finished :class:`Trajectory`."""
        thresholds = []
        high = -math.inf
        for event in self.events:
            high = max(high, event.threshold)
            thresholds.append(high)
        routers = list(self.path or [])
        packet = self.packet
        return Trajectory(
            routers=routers,
            names=[router.name for router in routers],
            events=self.events,
            thresholds=thresholds,
            sites=packet.sites,
            src=packet.src,
            dst=packet.dst,
            flow_id=packet.flow_id,
            kind=packet.kind,
        )

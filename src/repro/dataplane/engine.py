"""Per-hop packet forwarding engine.

This is the simulator's dataplane: it walks a packet hop by hop through
the network, applying the exact TTL/MPLS mechanics the paper's
techniques exploit.  The rules (derived from, and validated against,
the per-hop return TTLs printed in Fig. 4 of the paper) are:

1.  Plain IP forwarding decrements the IP-TTL at every arrival; expiry
    triggers a ``time-exceeded`` (TE) with the vendor's initial TTL.
2.  An ingress LER does its IP lookup (decrement) first, then pushes;
    the LSE-TTL is the (decremented) IP-TTL under ``ttl-propagate``,
    255 otherwise.
3.  Every LSR — including the penultimate (last hop, LH) — decrements
    the LSE-TTL on arrival.  LSE expiry triggers a TE quoting the label
    stack (RFC 4950); unless it happened at the LH, the TE is first
    carried to the end of the LSP before being routed back.
4.  A PHP pop (at the LH) applies ``IP-TTL = min(IP-TTL, LSE-TTL)``
    (when the LH is configured for it) and forwards *without* an IP
    decrement; the egress then does a normal IP lookup.
5.  A UHP pop (explicit null, at the egress) does *not* apply the min;
    the egress then IP-forwards with a normal decrement — except when
    the destination sits on a directly-connected subnet, where the
    disposition stays in the MPLS path and consumes no IP-TTL (this is
    what keeps Fig. 4d's egress invisible).
6.  Routers never decrement locally-originated packets.

Because every routing decision in the walk is independent of the
packet's TTLs, a probe's walk is executed **once per flow** against a
symbolic packet (see :mod:`repro.dataplane.trajectory`) and memoised;
each concrete probe TTL then resolves to its terminal state by
bisection instead of a re-walk, turning traceroute replay from O(h^2)
into near-O(h).  Replies walk concretely, once per trajectory event
(the event's reply memo): within one process no two events send the
same reply, so a cache keyed on the reply would never hit.  Set
``trajectory_cache=False`` to force the concrete walk for every probe
as well.
"""

from __future__ import annotations

import logging
import zlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.obs import DEBUG, Obs

from repro.dataplane.packet import (
    _KINDS,
    DEST_UNREACHABLE,
    ECHO_REPLY,
    ECHO_REQUEST,
    TIME_EXCEEDED,
    UDP_PROBE,
    Packet,
)
from repro.dataplane.trajectory import (
    BindingRef,
    SymbolicPacket,
    Trajectory,
    TrajectoryBuilder,
    ttl_eval,
)
from repro.mpls.config import PoppingMode
from repro.mpls.labels import EXPLICIT_NULL, LabelAllocator, LabelStackEntry
from repro.net.addressing import Prefix
from repro.net.router import Router
from repro.net.topology import Network
from repro.routing.control import ControlPlane, Route, RouteKind, flow_choice

__all__ = ["EndReason", "TransitEnd", "ProbeOutcome", "ForwardingEngine"]

logger = logging.getLogger(__name__)


class EndReason(Enum):
    """Why a packet stopped travelling."""

    DELIVERED = "delivered"  #: reached a router owning the destination
    IP_EXPIRED = "ip-expired"  #: IP-TTL hit zero
    LSE_EXPIRED = "lse-expired"  #: LSE-TTL hit zero inside a tunnel
    NO_ROUTE = "no-route"  #: lookup failed somewhere
    LOOP = "loop"  #: hop-count guard tripped


@dataclass
class TransitEnd:
    """Terminal state of one packet's journey."""

    reason: EndReason
    router: Optional[Router]  #: where the journey ended
    prev_router: Optional[Router]  #: upstream hop (incoming interface)
    packet: Packet  #: final packet state (TTLs as at the end)
    path: List[Router]  #: every router traversed, origin first
    delay_ms: float  #: accumulated one-way link delay
    #: FEC of the LSP in which an LSE expiry occurred (None otherwise).
    expired_fec: Optional[Prefix] = None
    #: True when the LSE expired at the LSP's penultimate hop (the
    #: popping router) — such TEs are routed back directly.
    expired_at_lh: bool = False


@dataclass
class ProbeOutcome:
    """What a vantage point observes for one probe.

    ``reply_kind`` is None when no reply came back (silent drop, ICMP
    disabled, or the reply itself died in transit).
    """

    probe_ttl: int
    reply_kind: Optional[str] = None
    responder: Optional[int] = None  #: reply source address
    responder_router: Optional[str] = None  #: ground truth
    reply_ttl: Optional[int] = None  #: reply IP-TTL observed at the VP
    quoted_labels: List[Tuple[int, int]] = field(default_factory=list)
    rtt_ms: float = 0.0
    forward_path: List[str] = field(default_factory=list)  #: ground truth
    return_path: List[str] = field(default_factory=list)  #: ground truth

    @property
    def responded(self) -> bool:
        """True when any reply reached the vantage point."""
        return self.reply_kind is not None


class _ReplyInfo:
    """Per-trajectory-event memo of the (TTL-independent) reply walk."""

    __slots__ = (
        "src", "kind", "delay_ms", "return_path", "delivered",
        "reply_ttl", "responder_router",
    )

    def __init__(self, src, kind, delay_ms, return_path, delivered,
                 reply_ttl, responder_router):
        self.src = src
        self.kind = kind
        self.delay_ms = delay_ms
        self.return_path = return_path
        self.delivered = delivered
        self.reply_ttl = reply_ttl
        self.responder_router = responder_router


#: Sentinel memo: this event never produces a reply (silent reason).
_NO_REPLY = object()


class ForwardingEngine:
    """Simulates packet journeys over a network + control plane."""

    def __init__(
        self,
        network: Network,
        control: Optional[ControlPlane] = None,
        max_hops: int = 255,
        trajectory_cache: bool = True,
        obs: Optional[Obs] = None,
    ) -> None:
        self.network = network
        self.control = control or ControlPlane(network)
        self.max_hops = max_hops
        self.labels = LabelAllocator()
        #: Observability bundle.  Each engine owns its metrics registry
        #: (``engine.*`` counters never mix across engines); the event
        #: log and tracer default to the process-global ones.
        self.obs = obs if obs is not None else Obs()
        self._metrics = self.obs.metrics
        self._events = self.obs.events
        #: Memoise whole journeys per flow; False = legacy re-walks.
        self.trajectory_cache = trajectory_cache
        self._trajectories: Dict[tuple, Trajectory] = {}
        self.control.add_invalidation_listener(self.flush_trajectories)

    # ------------------------------------------------------------------
    # Cache management / observability

    @property
    def packets_simulated(self) -> int:
        """Count of packets fully simulated (probes + replies)."""
        return self._metrics.get("engine.packets_simulated")

    @property
    def trajectory_hits(self) -> int:
        """Trajectory-cache lookups that found a memoised journey."""
        return self._metrics.get("engine.trajectory_hits")

    @property
    def trajectory_misses(self) -> int:
        """Trajectory-cache lookups that had to walk symbolically."""
        return self._metrics.get("engine.trajectory_misses")

    @property
    def hops_walked(self) -> int:
        """Per-hop walk steps executed (cached evals skip them)."""
        return self._metrics.get("engine.hops_walked")

    def flush_trajectories(self) -> None:
        """Drop every memoised trajectory (after topology/TE edits)."""
        dropped = len(self._trajectories)
        self._trajectories.clear()
        self._metrics.inc("engine.cache_flushes")
        if dropped:
            logger.debug("trajectory cache flushed (%d dropped)", dropped)
            if self._events.debug:
                self._events.emit("cache.flush", DEBUG, dropped=dropped)

    # ------------------------------------------------------------------
    # Public API

    def send_probe(
        self,
        source: Router,
        dst: int,
        ttl: int,
        flow_id: int = 0,
        kind: str = ECHO_REQUEST,
    ) -> ProbeOutcome:
        """Emit one probe from ``source`` and report what comes back."""
        if not self.trajectory_cache:
            return self._send_probe_walked(source, dst, ttl, flow_id, kind)
        if kind not in _KINDS:
            raise ValueError(f"unknown packet kind {kind!r}")
        if not 0 <= ttl <= 255:
            raise ValueError(f"IP-TTL out of range: {ttl}")
        metrics = self._metrics
        metrics.inc("engine.packets_simulated")
        key = (source.name, dst, flow_id, kind)
        trajectory = self._trajectories.get(key)
        if trajectory is None:
            metrics.inc("engine.trajectory_misses")
            if self._events.debug:
                self._events.emit(
                    "cache.miss", DEBUG,
                    origin=source.name, dst=dst, flow=flow_id,
                )
            with self.obs.tracer.span(
                "engine.walk",
                origin=source.name, dst=dst, flow=flow_id,
            ):
                trajectory = self._build_trajectory(
                    source, dst, flow_id, kind
                )
            self._trajectories[key] = trajectory
        else:
            metrics.inc("engine.trajectory_hits")
            if self._events.debug:
                self._events.emit(
                    "cache.hit", DEBUG,
                    origin=source.name, dst=dst, flow=flow_id,
                )
        event = trajectory.locate(ttl)
        self._force_bindings(trajectory, event.bindings_used)
        outcome = ProbeOutcome(
            probe_ttl=ttl,
            forward_path=trajectory.names[: event.hop_index + 1],
        )
        reason = event.reason
        if reason is EndReason.NO_ROUTE or reason is EndReason.LOOP:
            return outcome
        router = trajectory.routers[event.hop_index]
        if not self._responds(router, flow_id, ttl_eval(event.ip, ttl), dst):
            return outcome
        info = event.reply_info
        if info is None:
            info = self._reply_info(trajectory, event)
            event.reply_info = info
        elif info is not _NO_REPLY:
            # The memoised reply walk still counts as one simulated
            # packet, mirroring the legacy per-probe reply simulation.
            metrics.inc("engine.packets_simulated")
        if info is _NO_REPLY:
            return outcome
        outcome.rtt_ms = event.delay_ms + info.delay_ms
        outcome.return_path = list(info.return_path)
        if info.delivered:
            outcome.reply_kind = info.kind
            outcome.responder = info.src
            outcome.responder_router = info.responder_router
            outcome.reply_ttl = info.reply_ttl
            if (
                reason is EndReason.LSE_EXPIRED
                and router.mpls.rfc4950
                and router.vendor.rfc4950
            ):
                outcome.quoted_labels = self._quoted_labels(
                    trajectory, event, ttl
                )
        return outcome

    def send_probe_batch(self, requests) -> List[ProbeOutcome]:
        """Evaluate a batch of probe requests, in submission order.

        Each request carries the measurement plane's wire fields —
        ``source`` (the vantage-point router *name*), ``dst``, ``ttl``,
        ``flow_id``, ``kind`` — duck-typed so the engine never imports
        the measurement plane.  Probes are evaluated one by one, so
        label bindings force in exactly the order single probes would.
        """
        router = self.network.router
        return [
            self.send_probe(
                router(request.source), request.dst, request.ttl,
                request.flow_id, request.kind,
            )
            for request in requests
        ]

    def _send_probe_walked(
        self, source: Router, dst: int, ttl: int, flow_id: int, kind: str
    ) -> ProbeOutcome:
        """The original walk-per-probe path (``trajectory_cache=False``)."""
        probe = Packet(
            src=source.loopback, dst=dst, ip_ttl=ttl, kind=kind,
            flow_id=flow_id,
        )
        end = self._simulate(probe, source)
        outcome = ProbeOutcome(
            probe_ttl=ttl,
            forward_path=[router.name for router in end.path],
        )
        reply, origin = self._build_reply(end, source)
        if reply is None or origin is None:
            return outcome
        reply_end = self._simulate(reply, origin)
        outcome.rtt_ms = end.delay_ms + reply_end.delay_ms
        outcome.return_path = [router.name for router in reply_end.path]
        if (
            reply_end.reason is EndReason.DELIVERED
            and reply_end.router is source
        ):
            outcome.reply_kind = reply.kind
            outcome.responder = reply.src
            origin_router = self.network.owner_of(reply.src)
            outcome.responder_router = (
                origin_router.name if origin_router else None
            )
            outcome.reply_ttl = reply_end.packet.ip_ttl
            outcome.quoted_labels = list(reply.quoted_labels)
        return outcome

    # ------------------------------------------------------------------
    # Trajectory evaluation

    def _build_trajectory(self, origin, dst, flow_id, kind) -> Trajectory:
        """Walk a probe once symbolically and record the whole journey."""
        symbolic = SymbolicPacket(
            src=origin.loopback, dst=dst, kind=kind, flow_id=flow_id
        )
        builder = TrajectoryBuilder(symbolic)
        self._walk(symbolic, origin, builder)
        return builder.build()

    def _force_bindings(self, trajectory: Trajectory, count: int) -> None:
        """Materialise label bindings in recorded walk order.

        The symbolic build allocates nothing; evaluation forces exactly
        the sites a concrete walk up to the located event would have
        touched, preserving the allocator's first-use ordering.
        """
        sites = trajectory.sites
        while trajectory.forced < count:
            name, fec = sites[trajectory.forced]
            self.labels.binding(name, fec)
            trajectory.forced += 1

    def _label_value(self, trajectory, ref):
        """Resolve a trajectory label reference to a concrete value."""
        if type(ref) is BindingRef:
            name, fec = trajectory.sites[ref.index]
            return self.labels.binding(name, fec)
        return ref

    def _quoted_labels(self, trajectory, event, initial_ttl):
        """RFC 4950 quoting of the symbolic stack at ``initial_ttl``.

        The stack is quoted as *received*: the top entry was
        decremented to 0 on arrival, so it reads TTL + 1.
        """
        quoted = []
        last = len(event.stack) - 1
        for index, (label, symbol, _bottom) in enumerate(event.stack):
            value = ttl_eval(symbol, initial_ttl)
            quoted.append((
                self._label_value(trajectory, label),
                value + 1 if index == last else value,
            ))
        return quoted

    def _reply_info(self, trajectory, event):
        """Build + memoise the TTL-independent reply data for an event.

        Everything here — reply source, initial TTL, the reply's own
        journey — depends only on the terminal router and probe flow,
        not on the probe's TTL, so it is computed once per event.  The
        live per-probe parts (ICMP rate limiting, RFC 4950 quoting)
        stay in :meth:`send_probe`.
        """
        router = trajectory.routers[event.hop_index]
        reason = event.reason
        kind = trajectory.kind
        if reason is EndReason.DELIVERED:
            if kind == UDP_PROBE:
                src = self._outgoing_address(router, trajectory.src)
                reply_kind = DEST_UNREACHABLE
                initial = router.initial_ttl(TIME_EXCEEDED)
            elif kind == ECHO_REQUEST:
                src = trajectory.dst
                reply_kind = ECHO_REPLY
                initial = router.initial_ttl(ECHO_REPLY)
            else:
                return _NO_REPLY
        elif reason in (EndReason.IP_EXPIRED, EndReason.LSE_EXPIRED):
            prev = (
                trajectory.routers[event.hop_index - 1]
                if event.hop_index > 0
                else None
            )
            src = self._reply_source(router, prev)
            if src is None:
                return _NO_REPLY
            reply_kind = TIME_EXCEEDED
            initial = router.initial_ttl(TIME_EXCEEDED)
        else:
            return _NO_REPLY
        reply = Packet(
            src=src,
            dst=trajectory.src,
            ip_ttl=initial,
            kind=reply_kind,
            flow_id=trajectory.flow_id,
        )
        if (
            reason is EndReason.LSE_EXPIRED
            and not event.expired_at_lh
            and event.expired_fec is not None
            and not self.control.is_fec_egress(router, event.expired_fec)
        ):
            # TE generated mid-LSP: carried to the LSP end first,
            # inside a fresh LSE with TTL 255.  (An expiry at the
            # egress itself — UHP arrival — replies directly.)
            label = self.labels.binding(router.name, event.expired_fec)
            reply.push(
                LabelStackEntry(label=label, ttl=255), event.expired_fec
            )
        end = self._simulate(reply, router)
        source_router = trajectory.routers[0]
        delivered = (
            end.reason is EndReason.DELIVERED
            and end.router is source_router
        )
        responder_router = None
        if delivered:
            owner = self.network.owner_of(src)
            responder_router = owner.name if owner else None
        return _ReplyInfo(
            src=src,
            kind=reply_kind,
            delay_ms=end.delay_ms,
            return_path=tuple(r.name for r in end.path),
            delivered=delivered,
            reply_ttl=end.packet.ip_ttl,
            responder_router=responder_router,
        )

    # ------------------------------------------------------------------
    # Reply construction (legacy walk path)

    def _build_reply(
        self, end: TransitEnd, source: Router
    ) -> Tuple[Optional[Packet], Optional[Router]]:
        """Create the ICMP reply for a finished probe, if any."""
        router = end.router
        probe = end.packet
        if router is None:
            return None, None
        if not self._responds(
            router, probe.flow_id, probe.ip_ttl, probe.dst
        ):
            return None, None
        if end.reason is EndReason.DELIVERED:
            if probe.kind == UDP_PROBE:
                # Port unreachable, sourced from the *outgoing*
                # interface toward the prober — the Mercator alias
                # resolution signal.
                reply = Packet(
                    src=self._outgoing_address(router, probe.src),
                    dst=probe.src,
                    ip_ttl=router.initial_ttl(TIME_EXCEEDED),
                    kind=DEST_UNREACHABLE,
                    flow_id=probe.flow_id,
                    probe_ttl=probe.ip_ttl,
                )
                return reply, router
            if probe.kind != ECHO_REQUEST:
                return None, None
            reply = Packet(
                src=probe.dst,
                dst=probe.src,
                ip_ttl=router.initial_ttl(ECHO_REPLY),
                kind=ECHO_REPLY,
                flow_id=probe.flow_id,
                probe_ttl=probe.ip_ttl,
            )
            return reply, router
        if end.reason in (EndReason.IP_EXPIRED, EndReason.LSE_EXPIRED):
            reply_src = self._reply_source(router, end.prev_router)
            if reply_src is None:
                return None, None
            reply = Packet(
                src=reply_src,
                dst=probe.src,
                ip_ttl=router.initial_ttl(TIME_EXCEEDED),
                kind=TIME_EXCEEDED,
                flow_id=probe.flow_id,
                probe_ttl=0,
            )
            if end.reason is EndReason.LSE_EXPIRED:
                if router.mpls.rfc4950 and router.vendor.rfc4950:
                    # Quote the stack as *received*: the top entry was
                    # decremented to 0 on arrival, so it reads TTL=1.
                    top = probe.stack[-1]
                    reply.quoted_labels = [
                        (entry.label, entry.ttl + 1)
                        if entry is top
                        else entry.as_tuple()
                        for entry in probe.stack
                    ]
                if (
                    not end.expired_at_lh
                    and end.expired_fec is not None
                    and not self.control.is_fec_egress(
                        router, end.expired_fec
                    )
                ):
                    # TE generated mid-LSP: carried to the LSP end first,
                    # inside a fresh LSE with TTL 255.  (An expiry at the
                    # egress itself — UHP arrival — replies directly.)
                    label = self.labels.binding(
                        router.name, end.expired_fec
                    )
                    reply.push(
                        LabelStackEntry(label=label, ttl=255),
                        end.expired_fec,
                    )
            return reply, router
        return None, None

    def _outgoing_address(self, router: Router, toward: int) -> int:
        """Address of the interface ``router`` uses to reach ``toward``."""
        route = self.control.resolve(router, toward)
        next_router: Optional[Router] = None
        if route.kind is RouteKind.ATTACHED:
            next_router = self.network.owner_of(toward)
        elif route.next_hops:
            next_router = flow_choice(route.next_hops, router.name, 0)
        if next_router is not None:
            interface = router.interface_toward(next_router)
            if interface is not None:
                return interface.address
        return router.loopback

    @staticmethod
    def _responds(
        router: Router, flow_id: int, ip_ttl: int, dst: int
    ) -> bool:
        """ICMP policy: silence and deterministic rate limiting.

        Rate limiting is sampled per probe from a stable hash of the
        probe identity, so repeated campaigns stay reproducible while
        individual probes are dropped at the configured rate.  Always
        evaluated live (never cached): failure-injection scenarios flip
        these router flags mid-run.
        """
        if not router.icmp_enabled:
            return False
        rate = router.icmp_response_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        digest = zlib.crc32(
            f"{router.name}|{flow_id}|{ip_ttl}|{dst}".encode("ascii")
        )
        return (digest / 0xFFFFFFFF) < rate

    def _reply_source(
        self, router: Router, prev: Optional[Router]
    ) -> Optional[int]:
        """ICMP source address: the incoming interface of ``router``."""
        if prev is not None:
            address = router.incoming_address_from(prev)
            if address is not None:
                return address
        return router.loopback

    # ------------------------------------------------------------------
    # The per-hop walk

    def _simulate(self, packet: Packet, origin: Router) -> TransitEnd:
        """Count one packet and walk it concretely from ``origin``.

        Replies always take this path (probes do only without the
        trajectory cache): each reply walks once per trajectory event,
        and the walk forces label bindings in walk order, exactly as
        far as the reply travels.
        """
        self._metrics.inc("engine.packets_simulated")
        return self._walk(packet, origin)

    def _walk(self, packet, origin: Router, builder=None):
        """Concrete or symbolic per-hop walk.

        With ``builder=None``, ``packet`` is a concrete
        :class:`Packet` and the walk returns its :class:`TransitEnd`
        (original semantics).  With a
        :class:`~repro.dataplane.trajectory.TrajectoryBuilder`,
        ``packet`` is symbolic: conditional expiries are recorded as
        events, the walk runs to its unconditional end, and None is
        returned (the builder holds the trajectory).
        """
        current = origin
        prev: Optional[Router] = None
        path = [origin]
        delay = 0.0
        originating = True
        inc = self._metrics.inc
        for _ in range(self.max_hops):
            inc("engine.hops_walked")
            if not originating:
                if builder is not None:
                    builder.at(len(path) - 1, delay)
                arrival = self._process_arrival(current, packet, builder)
                if arrival is not None:
                    return self._walk_end(
                        arrival[0], current, prev, packet, path, delay,
                        arrival[1], arrival[2], builder,
                    )
            step = self._forwarding_step(current, packet, originating)
            if step is None:
                return self._walk_end(
                    EndReason.NO_ROUTE, current, prev, packet, path,
                    delay, None, False, builder,
                )
            next_router = step
            link = current.interface_toward(next_router)
            assert link is not None, (
                f"no link {current.name} -> {next_router.name}"
            )
            delay += link.link.delay_ms
            prev = current
            current = next_router
            path.append(current)
            originating = False
        return self._walk_end(
            EndReason.LOOP, current, prev, packet, path, delay,
            None, False, builder,
        )

    def _walk_end(
        self, reason, current, prev, packet, path, delay,
        expired_fec, expired_at_lh, builder,
    ):
        """Finish a walk: a TransitEnd, or a recorded terminal event."""
        if builder is not None:
            builder.terminal(
                reason, len(path) - 1, delay, expired_fec, expired_at_lh
            )
            builder.path = path
            return None
        return TransitEnd(
            reason=reason,
            router=current,
            prev_router=prev,
            packet=packet,
            path=path,
            delay_ms=delay,
            expired_fec=expired_fec,
            expired_at_lh=expired_at_lh,
        )

    def _process_arrival(
        self, router: Router, packet, builder
    ) -> Optional[Tuple[EndReason, Optional[Prefix], bool]]:
        """TTL bookkeeping on packet arrival; non-None ends the walk.

        Decrements return ``None`` (no expiry), ``-1`` (unconditional
        expiry — ends concrete walks and truncates symbolic ones), or a
        threshold (symbolic packets only) recorded on the builder.
        """
        popped_here = False
        if packet.labeled:
            status = packet.dec_lse()
            if status is not None:
                fec = packet.fec
                at_lh = self._is_last_hop(router, packet)
                if status < 0:
                    return (EndReason.LSE_EXPIRED, fec, at_lh)
                builder.expiry(status, EndReason.LSE_EXPIRED, fec, at_lh)
            tunnel = packet.te_tunnel
            if tunnel is not None and router.name == tunnel.tail:
                # RSVP-TE tail under UHP: pop the explicit-null label.
                packet.pop()
                popped_here = True
            elif packet.fec is not None and self.control.is_fec_egress(
                router, packet.fec
            ):
                # UHP arrival (explicit null) — pop without the min
                # rule; IP processing continues below.
                packet.pop()
                popped_here = True
        if not packet.labeled:
            if router.owns(packet.dst):
                return (EndReason.DELIVERED, None, False)
            if popped_here and (
                self.control.resolve(router, packet.dst).kind
                is RouteKind.ATTACHED
            ):
                # UHP disposition straight onto a connected subnet
                # stays in the MPLS path: no IP decrement (this is the
                # mechanic that keeps Fig. 4d's egress invisible).
                return None
            status = packet.dec_ip()
            if status is not None:
                if status < 0:
                    return (EndReason.IP_EXPIRED, None, False)
                builder.expiry(status, EndReason.IP_EXPIRED, None, False)
        return None

    def _is_last_hop(self, router: Router, packet) -> bool:
        """Is ``router`` the popping hop (LH) of the packet's LSP?"""
        tunnel = packet.te_tunnel
        if tunnel is not None:
            return (
                tunnel.is_penultimate(router.name)
                and tunnel.popping is PoppingMode.PHP
            )
        if packet.fec is None:
            return False
        route = self._fec_route(router, packet.fec)
        if route is None or not route.next_hops:
            return False
        next_router = flow_choice(
            route.next_hops, router.name, packet.flow_id
        )
        return (
            self.control.is_fec_egress(next_router, packet.fec)
            and next_router.mpls.popping is PoppingMode.PHP
        )

    def _fec_route(self, router: Router, fec: Prefix) -> Optional[Route]:
        """Route toward the FEC prefix (the LSP follows the IGP)."""
        route = self.control.resolve_prefix(router, fec)
        if route.kind in (RouteKind.UNREACHABLE, RouteKind.LOCAL):
            return None
        return route

    def _bind(self, packet, router_name: str, fec) -> object:
        """A label for ``(router, fec)``: allocated now for concrete
        packets, deferred to a :class:`BindingRef` for symbolic ones."""
        record = getattr(packet, "record_binding", None)
        if record is not None:
            return record(router_name, fec)
        return self.labels.binding(router_name, fec)

    def _forwarding_step(
        self, current: Router, packet, originating: bool
    ) -> Optional[Router]:
        """Decide the next hop; mutates the packet (push/pop/swap)."""
        if packet.labeled:
            return self._mpls_step(current, packet)
        return self._ip_step(current, packet, originating)

    def _mpls_step(self, current: Router, packet) -> Optional[Router]:
        if packet.te_tunnel is not None:
            return self._te_step(current, packet)
        fec = packet.fec
        if fec is None:
            return None
        route = self._fec_route(current, fec)
        if route is None:
            return None
        if route.kind is RouteKind.ATTACHED or not route.next_hops:
            # Shouldn't normally happen (pop precedes), but be safe:
            # fall back to IP forwarding of the inner packet.
            packet.pop()
            return self._ip_step(current, packet, originating=True)
        next_router = flow_choice(
            route.next_hops, current.name, packet.flow_id
        )
        if self.control.is_fec_egress(next_router, fec):
            if next_router.mpls.popping is PoppingMode.PHP:
                popped = packet.pop()
                if current.mpls.min_ttl_on_pop:
                    packet.apply_min(popped)
            else:
                packet.top.label = EXPLICIT_NULL
        else:
            packet.top.label = self._bind(packet, next_router.name, fec)
        return next_router

    def _te_step(self, current: Router, packet) -> Optional[Router]:
        """Forward along an RSVP-TE tunnel's explicit path."""
        tunnel = packet.te_tunnel
        next_name = tunnel.next_hop(current.name)
        if next_name is None:
            # Off-path (should not happen): drop the label, go IP.
            packet.pop()
            return self._ip_step(current, packet, originating=True)
        next_router = self.network.router(next_name)
        if next_name == tunnel.tail:
            if tunnel.popping is PoppingMode.PHP:
                popped = packet.pop()
                if current.mpls.min_ttl_on_pop:
                    packet.apply_min(popped)
            else:
                packet.top.label = EXPLICIT_NULL
        else:
            packet.top.label = self._bind(
                packet, next_name, ("te", tunnel.name)
            )
        return next_router

    def _ip_step(
        self, current: Router, packet, originating: bool
    ) -> Optional[Router]:
        route = self.control.resolve(current, packet.dst)
        if route.kind in (RouteKind.LOCAL, RouteKind.UNREACHABLE):
            return None
        if route.kind is RouteKind.ATTACHED:
            owner = self.network.owner_of(packet.dst)
            if owner is None or owner is current:
                return None
            if current.interface_toward(owner) is None:
                return None
            return owner
        tunnel = self._te_entry(current, packet, route)
        if tunnel is not None:
            return tunnel
        next_router = flow_choice(
            route.next_hops, current.name, packet.flow_id
        )
        if (
            route.fec is not None
            and current.mpls.enabled
            and not packet.labeled
        ):
            is_egress_next = self.control.is_fec_egress(
                next_router, route.fec
            )
            fec_tail = self._fec_tail(route)
            if is_egress_next and (
                fec_tail is None
                or fec_tail.mpls.popping is PoppingMode.PHP
            ):
                # Next hop advertised implicit null: nothing to push.
                pass
            else:
                label = self._bind(packet, next_router.name, route.fec)
                packet.push_label(
                    label, route.fec, current.mpls.ttl_propagate
                )
        return next_router

    def _te_entry(
        self, current: Router, packet, route: Route
    ) -> Optional[Router]:
        """Steer the packet onto an installed TE tunnel, if one applies.

        RSVP-TE takes precedence over LDP for *transit* traffic —
        packets whose BGP next hop is the tunnel's tail (the common
        LDP+RSVP-TE co-deployment).  Internal-prefix traffic keeps
        following the IGP/LDP, which is exactly why DPR/BRPR reveal
        LDP paths but never RSVP-TE ones (Sec. 3.4).  Returns the
        first explicit hop, or None when no tunnel matched.
        """
        if (
            packet.labeled
            or not current.mpls.enabled
            or route.kind is not RouteKind.EXTERNAL
            or route.egress is None
            or route.egress is current
        ):
            return None
        tunnel = self.control.te.tunnel_from(
            current.name, route.egress.name
        )
        if tunnel is None:
            return None
        next_router = self.network.router(tunnel.path[1])
        if (
            tunnel.popping is PoppingMode.PHP
            and len(tunnel.path) == 2
        ):
            # One-hop tunnel with implicit null: nothing to push.
            return next_router
        label = self._bind(packet, tunnel.path[1], ("te", tunnel.name))
        tail_router = self.network.router(tunnel.tail)
        packet.push_label(
            label,
            Prefix(tail_router.loopback, 32),
            tunnel.ttl_propagate,
        )
        packet.te_tunnel = tunnel
        return next_router

    def _fec_tail(self, route: Route) -> Optional[Router]:
        """The LSP tail router of an about-to-be-pushed FEC."""
        if route.fec is None:
            return None
        if route.egress is not None and self.control.is_fec_egress(
            route.egress, route.fec
        ):
            return route.egress
        tails = self.control.attached_routers(route.fec)
        return tails[0] if tails else None

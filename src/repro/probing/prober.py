"""Scamper-like prober: traceroute and ping composition.

The prober mirrors the measurement setup of Sec. 4: Paris traceroute
with ICMP ``echo-request`` probes (constant flow identifier per trace,
so ECMP load balancing cannot split one trace across paths), plus
``echo-request`` pings toward every discovered address for router
fingerprinting.

The prober is a pure *composer*: it decides which probes to send
(TTL sweeps, gap limits, flow pinning) and assembles the replies into
:class:`Trace`/:class:`PingResult` objects, while every probe goes
through a :class:`~repro.measure.service.ProbeService` that owns the
cross-cutting policy — budgets, retries, caching, the sanitizer — and
the backend that actually emits packets.  ``Prober(engine)`` still works:
the engine is wrapped in a ``SimBackend`` automatically.
"""

from __future__ import annotations

import logging
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.measure import DEST_UNREACHABLE, ECHO_REPLY, as_probe_service
from repro.measure.service import MeasurementPolicy, ProbeService
from repro.net.addressing import format_address
from repro.net.router import Router
from repro.obs import DEBUG, NULL_SPAN, Obs

__all__ = [
    "TraceHop", "Trace", "PingResult", "UdpProbeResult", "Prober",
]

logger = logging.getLogger(__name__)

#: Histogram buckets for traceroute lengths (hops per trace).
_HOP_BUCKETS = (2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 40.0)

#: Histogram buckets for ping round-trip times (milliseconds).
_RTT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0)


@dataclass
class TraceHop:
    """One hop of a traceroute."""

    probe_ttl: int
    address: Optional[int]  #: responding address; None for ``*``
    reply_kind: Optional[str] = None
    reply_ttl: Optional[int] = None  #: reply IP-TTL observed at the VP
    quoted_labels: List[Tuple[int, int]] = field(default_factory=list)
    rtt_ms: float = 0.0
    responder_router: Optional[str] = None  #: ground truth (simulator)

    @property
    def responded(self) -> bool:
        """True unless the hop timed out (``*``)."""
        return self.address is not None

    @property
    def has_labels(self) -> bool:
        """True when the reply quoted an MPLS label stack (RFC 4950)."""
        return bool(self.quoted_labels)

    def render(self, resolve_name=None) -> str:
        """One traceroute output line (paper Fig. 4 style)."""
        if not self.responded:
            return f"{self.probe_ttl:>2} *"
        name = (
            resolve_name(self.address)
            if resolve_name is not None
            else format_address(self.address)
        )
        line = f"{self.probe_ttl:>2} {name} [{self.reply_ttl}]"
        for label, ttl in self.quoted_labels:
            line += f"\n     MPLS Label {label} TTL={ttl}"
        return line


@dataclass
class Trace:
    """A complete traceroute measurement."""

    source: str  #: vantage-point router name
    source_address: int
    dst: int
    flow_id: int
    hops: List[TraceHop] = field(default_factory=list)
    destination_reached: bool = False

    @property
    def responsive_hops(self) -> List[TraceHop]:
        """Hops that answered, in probe order."""
        return [hop for hop in self.hops if hop.responded]

    @property
    def addresses(self) -> List[int]:
        """Responding addresses, in path order."""
        return [hop.address for hop in self.hops if hop.address is not None]

    @property
    def forward_length(self) -> Optional[int]:
        """Hop distance of the destination (None if unreached)."""
        if not self.destination_reached:
            return None
        return self.hops[-1].probe_ttl

    def hop_of(self, address: int) -> Optional[TraceHop]:
        """First hop that answered with ``address``."""
        for hop in self.hops:
            if hop.address == address:
                return hop
        return None

    def last_responsive(self, count: int) -> List[TraceHop]:
        """The last ``count`` responding hops (path order)."""
        return self.responsive_hops[-count:]

    def contains_labels(self) -> bool:
        """True when any hop quoted MPLS labels (explicit tunnel)."""
        return any(hop.has_labels for hop in self.hops)

    def render(self, resolve_name=None) -> str:
        """Multi-line, Fig. 4-style rendering of the whole trace."""
        header = f"$pt {format_address(self.dst)}"
        if resolve_name is not None:
            header = f"$pt {resolve_name(self.dst)}"
        lines = [header]
        lines.extend(hop.render(resolve_name) for hop in self.hops)
        return "\n".join(lines)


@dataclass
class UdpProbeResult:
    """Outcome of one Mercator-style UDP alias probe."""

    dst: int  #: probed address
    responded: bool
    response_address: Optional[int] = None  #: reply source address
    reply_ttl: Optional[int] = None

    @property
    def reveals_alias(self) -> bool:
        """True when the reply came from a *different* address."""
        return (
            self.responded
            and self.response_address is not None
            and self.response_address != self.dst
        )


@dataclass
class PingResult:
    """Outcome of one echo-request probe at full TTL."""

    dst: int
    responded: bool
    reply_kind: Optional[str] = None
    reply_ttl: Optional[int] = None
    rtt_ms: float = 0.0
    source: Optional[str] = None  #: probing router name


class Prober:
    """Issues traceroutes and pings from vantage-point routers."""

    def __init__(
        self,
        backend,
        max_ttl: int = 40,
        gap_limit: int = 3,
        policy: Optional[MeasurementPolicy] = None,
        obs: Optional[Obs] = None,
    ) -> None:
        #: The measurement service every probe goes through; accepts a
        #: ready service, any probe backend, or a bare engine.
        self.service: ProbeService = as_probe_service(
            backend, policy=policy, obs=obs
        )
        self.max_ttl = max_ttl
        #: Stop after this many consecutive unresponsive hops
        #: (scamper's gap limit).
        self.gap_limit = gap_limit
        #: Shares the service's observability bundle, so probe counters
        #: land in the same registry as the backend's own counters.
        self.obs = self.service.obs
        #: (source name, dst) -> derived Paris flow id.  ``_flow_for``
        #: is a pure function, so re-traces of the same pair skip the
        #: hash.
        self._flows: dict = {}

    @property
    def backend(self):
        """The probe backend underneath the service."""
        return self.service.backend

    @property
    def engine(self):
        """The forwarding engine, when the backend wraps one
        (None for replay and other engine-less backends)."""
        return getattr(self.service.backend, "engine", None)

    @property
    def probes_sent(self) -> int:
        """Probes actually emitted (the service's account)."""
        return self.service.probes_sent

    # ------------------------------------------------------------------

    @staticmethod
    def _flow_for(source: Router, dst: int) -> int:
        """Deterministic Paris flow identifier for ``(source, dst)``.

        A pure function of the pair — no process-global counter — so
        any re-measurement of the same pair reuses the same flow (and
        thus the same ECMP path), and campaigns produce identical
        flows regardless of probing order, including across a resume.
        """
        digest = zlib.crc32(f"{source.name}|{dst}".encode("ascii"))
        return 1 + (digest & 0xFFFF)

    def traceroute(
        self,
        source: Router,
        dst: int,
        start_ttl: int = 1,
        flow_id: Optional[int] = None,
        max_ttl: Optional[int] = None,
    ) -> Trace:
        """Paris traceroute from ``source`` to ``dst``.

        The flow identifier stays constant across the trace and is
        derived from ``(source, dst)`` unless ``flow_id`` pins one.
        """
        if flow_id is None:
            flow_key = (source.name, dst)
            flow_id = self._flows.get(flow_key)
            if flow_id is None:
                flow_id = self._flows[flow_key] = self._flow_for(
                    source, dst
                )
        trace = Trace(
            source=source.name,
            source_address=source.loopback,
            dst=dst,
            flow_id=flow_id,
        )
        metrics = self.obs.metrics
        events = self.obs.events
        gap = 0
        limit = max_ttl if max_ttl is not None else self.max_ttl
        tracer = self.obs.tracer
        # The span itself already no-ops below INFO, but building its
        # kwargs costs more than the whole hot path per trace — skip
        # the call entirely when the level rules it out.
        span = (
            tracer.span(
                "probe.traceroute", vp=source.name, dst=dst,
                flow=flow_id,
            )
            if events.info
            else NULL_SPAN
        )
        with span:
            for ttl in range(start_ttl, limit + 1):
                outcome = self.service.traceroute_probe(
                    source.name, dst, ttl=ttl, flow_id=flow_id,
                )
                hop = self._hop_from(outcome)
                trace.hops.append(hop)
                if hop.responded:
                    gap = 0
                    if (
                        hop.reply_kind == ECHO_REPLY
                        and hop.address == dst
                    ):
                        trace.destination_reached = True
                        # The destination's echo-reply doubles as a
                        # ping observation — seed the service's ping
                        # cache so the fingerprinting phase can skip
                        # the wire for this (vp, dst, flow).
                        self.service.seed_ping(
                            source.name, dst, flow_id, outcome
                        )
                        break
                else:
                    gap += 1
                    if gap >= self.gap_limit:
                        metrics.inc("probe.gap_aborts")
                        if events.debug:
                            events.emit(
                                "probe.gap", DEBUG, vp=source.name,
                                dst=dst, ttl=ttl,
                            )
                        break
        metrics.observe("trace.hops", len(trace.hops), _HOP_BUCKETS)
        return trace

    def udp_probe(
        self, source: Router, dst: int, flow_id: Optional[int] = None
    ) -> "UdpProbeResult":
        """Mercator-style UDP probe to an unused port.

        The destination answers with an ICMP port-unreachable sourced
        from its *outgoing* interface toward the prober — when that
        address differs from the probed one, both belong to the same
        router (alias resolution).
        """
        if flow_id is None:
            flow_id = self._flow_for(source, dst)
        outcome = self.service.udp_probe(source.name, dst, flow_id)
        if outcome.reply_kind != DEST_UNREACHABLE:
            return UdpProbeResult(dst=dst, responded=False)
        return UdpProbeResult(
            dst=dst,
            responded=True,
            response_address=outcome.responder,
            reply_ttl=outcome.reply_ttl,
        )

    def ping(
        self, source: Router, dst: int, flow_id: Optional[int] = None
    ) -> PingResult:
        """Echo-request at full TTL (for fingerprinting)."""
        if flow_id is None:
            flow_id = self._flow_for(source, dst)
        outcome = self.service.ping_probe(source.name, dst, flow_id)
        return self._ping_from(source.name, dst, outcome)

    def ping_sweep(
        self, source: Router, addresses: Sequence[int]
    ) -> List[PingResult]:
        """:meth:`ping` per address.  Kept because bench/spans.py wraps
        it by name; it goes once the bench reads only public surfaces
        (ROADMAP item 1)."""
        return [self.ping(source, address) for address in addresses]

    # ------------------------------------------------------------------

    def _ping_from(
        self, source_name: str, dst: int, outcome
    ) -> PingResult:
        """Assemble one :class:`PingResult` from a service reply."""
        if outcome.reply_kind != ECHO_REPLY:
            return PingResult(dst=dst, responded=False, source=source_name)
        self.obs.metrics.observe(
            "ping.rtt_ms", outcome.rtt_ms, _RTT_BUCKETS
        )
        return PingResult(
            dst=dst,
            responded=True,
            reply_kind=outcome.reply_kind,
            reply_ttl=outcome.reply_ttl,
            rtt_ms=outcome.rtt_ms,
            source=source_name,
        )

    @staticmethod
    def _hop_from(outcome) -> TraceHop:
        if not outcome.responded:
            return TraceHop(probe_ttl=outcome.probe_ttl, address=None)
        return TraceHop(
            probe_ttl=outcome.probe_ttl,
            address=outcome.responder,
            reply_kind=outcome.reply_kind,
            reply_ttl=outcome.reply_ttl,
            quoted_labels=list(outcome.quoted_labels),
            rtt_ms=outcome.rtt_ms,
            responder_router=outcome.responder_router,
        )

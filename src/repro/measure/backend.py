"""Backend-agnostic measurement primitives.

The paper's techniques are defined over two primitives — traceroute
probes and pings — not over any particular way of emitting them.  This
module pins the contract between the analysis layers and whatever
actually sends packets: a :class:`ProbeRequest` in, a
:class:`ProbeReply` out, and a :class:`ProbeBackend` that turns one
into the other.

Concrete backends live next door: :class:`~repro.measure.sim.\
SimBackend` drives the packet-level simulator, and
:class:`~repro.measure.replay.RecordingBackend` /
:class:`~repro.measure.replay.ReplayBackend` persist and replay probe
logs.  Nothing in this module imports the simulator — that is the
whole point.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = [
    "ECHO_REQUEST",
    "ECHO_REPLY",
    "TIME_EXCEEDED",
    "DEST_UNREACHABLE",
    "UDP_PROBE",
    "PING_TTL",
    "ProbeRequest",
    "ProbeReply",
    "ProbeBackend",
    "reply_to_wire",
    "reply_from_wire",
]

#: Probe/reply kind strings.  They mirror
#: :mod:`repro.dataplane.packet` by value, duplicated on purpose: the
#: measurement plane must stay importable without the simulator.
ECHO_REQUEST = "echo-request"
ECHO_REPLY = "echo-reply"
TIME_EXCEEDED = "time-exceeded"
DEST_UNREACHABLE = "dest-unreachable"
UDP_PROBE = "udp-probe"

#: Initial TTL for pings and UDP alias probes ("full" TTL — large
#: enough to reach anything in the simulated topologies).
PING_TTL = 64


class ProbeRequest:
    """One probe to emit, fully described.

    ``source`` is the vantage-point router *name* (a string, not a
    simulator object) so requests serialise cleanly into probe logs
    and can address any backend.

    A plain ``__slots__`` value object (compared by value, hashable)
    rather than a frozen dataclass: the frozen ``__init__``'s
    ``object.__setattr__`` per field is a measurable share of a
    cached probe's cost.  Treated as immutable by every layer, like
    the replies.
    """

    __slots__ = ("source", "dst", "ttl", "flow_id", "kind")

    def __init__(
        self,
        source: str,
        dst: int,
        ttl: int,
        flow_id: int,
        kind: str = ECHO_REQUEST,
    ) -> None:
        self.source = source  #: vantage-point router name
        self.dst = dst  #: probed address
        self.ttl = ttl  #: initial IP TTL of the probe
        self.flow_id = flow_id  #: Paris flow identifier
        self.kind = kind  #: probe kind (echo-request / udp-probe)

    def _astuple(self) -> tuple:
        return (self.source, self.dst, self.ttl, self.flow_id, self.kind)

    def __eq__(self, other: object):
        if isinstance(other, ProbeRequest):
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return (
            f"ProbeRequest(source={self.source!r}, dst={self.dst}, "
            f"ttl={self.ttl}, flow_id={self.flow_id}, "
            f"kind={self.kind!r})"
        )


@dataclass
class ProbeReply:
    """What came back for one probe (or did not: a ``*`` hop).

    Field-compatible with the simulator's ``ProbeOutcome`` so
    composers can consume either interchangeably.
    """

    probe_ttl: int  #: TTL the probe was sent with
    reply_kind: Optional[str] = None  #: reply kind; None on timeout
    responder: Optional[int] = None  #: replying address
    responder_router: Optional[str] = None  #: ground truth, if known
    reply_ttl: Optional[int] = None  #: reply IP-TTL observed at the VP
    quoted_labels: List[Tuple[int, int]] = field(default_factory=list)
    rtt_ms: float = 0.0  #: round-trip time in milliseconds

    @property
    def responded(self) -> bool:
        """True unless the probe timed out."""
        return self.reply_kind is not None


def reply_to_wire(reply: ProbeReply) -> Optional[dict]:
    """A reply's JSON-ready wire form (None for a timeout).

    The shared codec behind every on-disk artefact that stores
    replies — probe logs (:mod:`repro.measure.replay`) and campaign
    stores (:mod:`repro.store`).  The probe TTL is carried by the
    surrounding record, not the wire dict, so formats that already
    know it (a probe-log entry keys on it) don't repeat it.
    """
    if reply.reply_kind is None:
        return None
    return {
        "kind": reply.reply_kind,
        "responder": reply.responder,
        "router": reply.responder_router,
        "ttl": reply.reply_ttl,
        "labels": [list(pair) for pair in reply.quoted_labels],
        "rtt": reply.rtt_ms,
    }


def reply_from_wire(wire: Optional[dict], probe_ttl: int) -> ProbeReply:
    """Rebuild a reply from :func:`reply_to_wire` output."""
    if wire is None:
        return ProbeReply(probe_ttl=probe_ttl)
    return ProbeReply(
        probe_ttl=probe_ttl,
        reply_kind=wire["kind"],
        responder=wire["responder"],
        responder_router=wire.get("router"),
        reply_ttl=wire.get("ttl"),
        quoted_labels=[
            tuple(pair) for pair in (wire.get("labels") or [])
        ],
        rtt_ms=float(wire.get("rtt", 0.0)),
    )


class ProbeBackend(ABC):
    """Turns probe requests into replies, one :meth:`submit` at a time.

    Composers never call a backend directly: every probe goes through
    :class:`~repro.measure.service.ProbeService`, which owns budgets,
    retries, the response cache and the sanitizer.
    """

    #: Short backend identifier, recorded in probe-log headers.
    name = "backend"

    @abstractmethod
    def submit(self, request: ProbeRequest) -> ProbeReply:
        """Emit one probe and return its reply (always returns — a
        timeout is a reply with ``reply_kind=None``)."""

    def close(self) -> None:
        """Release backend resources (file handles, sockets)."""

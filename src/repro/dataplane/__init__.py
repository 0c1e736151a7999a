"""Dataplane: packets and the per-hop forwarding engine."""

from repro.dataplane.engine import EndReason, ForwardingEngine, ProbeOutcome
from repro.dataplane.packet import Packet

__all__ = [
    "EndReason",
    "ForwardingEngine",
    "Packet",
    "ProbeOutcome",
]

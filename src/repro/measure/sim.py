"""Simulator adapter: the one module that bridges measurement plane
and dataplane.

:class:`SimBackend` satisfies the :class:`~repro.measure.backend.\
ProbeBackend` protocol by driving a
:class:`~repro.dataplane.engine.ForwardingEngine`.  It is the *only*
adapter allowed to import the engine (enforced by the
``flake8-tidy-imports`` ban in ``pyproject.toml``) — everything above
the measurement plane talks to backends, never to the simulator.
"""

from __future__ import annotations

from typing import Callable

from repro.dataplane.engine import ForwardingEngine
from repro.measure.backend import ProbeBackend, ProbeRequest

__all__ = ["SimBackend"]


class SimBackend(ProbeBackend):
    """Probe backend over the packet-level forwarding simulator."""

    name = "sim"

    def __init__(self, engine: ForwardingEngine) -> None:
        self.engine = engine
        #: The engine's observability bundle, shared upward so probe
        #: counters land next to the engine's cache counters.
        self.obs = getattr(engine, "obs", None)

    def submit(self, request: ProbeRequest):
        """Simulate one probe; returns the engine's ``ProbeOutcome``
        (field-compatible with :class:`~repro.measure.backend.\
ProbeReply`, returned as-is to avoid a per-probe copy)."""
        source = self.engine.network.router(request.source)
        return self.engine.send_probe(
            source,
            request.dst,
            ttl=request.ttl,
            flow_id=request.flow_id,
            kind=request.kind,
        )

    def submit_batch(self, requests):
        """Simulate a whole batch through the engine's batch path.

        Replies come back in request order, bit-identical to serial
        :meth:`submit` calls.  The engine consumes the requests
        directly (duck-typed on the wire fields), so the adapter adds
        no per-probe conversion.
        """
        return self.engine.send_probe_batch(requests)

    def add_invalidation_listener(
        self, listener: Callable[[], None]
    ) -> None:
        """Invoke ``listener`` whenever the control plane changes
        (cached measurement replies are stale after that)."""
        control = getattr(self.engine, "control", None)
        if control is not None:
            control.add_invalidation_listener(listener)

"""repro.measure — the backend-agnostic measurement plane.

Separates *what* the paper's techniques measure (traceroute hops,
pings) from *how* probes are emitted:

* :mod:`repro.measure.backend` — the :class:`ProbeBackend` protocol
  plus the request/reply dataclasses;
* :mod:`repro.measure.service` — :class:`ProbeService`, the policy
  layer (budgets, retries, response caching, the sanitizer's
  quarantine);
* :mod:`repro.measure.sim` — :class:`SimBackend`, the one adapter
  that drives the packet-level simulator;
* :mod:`repro.measure.replay` — JSONL probe-log record/replay;
* :mod:`repro.measure.sanitize` — reply sanity checks feeding the
  service's quarantine (the graceful-degradation gate in front of
  FRPLA/RTLA/DPR/BRPR).

The composer (:class:`repro.probing.prober.Prober`) and everything
above it depend only on this package; the simulator is an
implementation detail behind :class:`SimBackend`.
"""

from repro.measure.backend import (
    DEST_UNREACHABLE,
    ECHO_REPLY,
    ECHO_REQUEST,
    PING_TTL,
    TIME_EXCEEDED,
    UDP_PROBE,
    ProbeBackend,
    ProbeReply,
    ProbeRequest,
    reply_from_wire,
    reply_to_wire,
)
from repro.measure.replay import (
    RecordingBackend,
    ReplayBackend,
    ReplayMiss,
)
from repro.measure.sanitize import (
    MAX_MPLS_LABEL,
    VALID_REPLY_KINDS,
    inspect_reply,
)
from repro.measure.service import (
    BudgetExceeded,
    MeasurementPolicy,
    ProbeService,
)
from repro.measure.sim import SimBackend

__all__ = [
    "DEST_UNREACHABLE",
    "ECHO_REPLY",
    "ECHO_REQUEST",
    "MAX_MPLS_LABEL",
    "PING_TTL",
    "TIME_EXCEEDED",
    "UDP_PROBE",
    "VALID_REPLY_KINDS",
    "BudgetExceeded",
    "MeasurementPolicy",
    "ProbeBackend",
    "ProbeReply",
    "ProbeRequest",
    "ProbeService",
    "RecordingBackend",
    "ReplayBackend",
    "ReplayMiss",
    "SimBackend",
    "as_probe_service",
    "inspect_reply",
    "reply_from_wire",
    "reply_to_wire",
]


def as_probe_service(probing, policy=None, obs=None) -> ProbeService:
    """Coerce ``probing`` into a :class:`ProbeService`.

    Accepts a ready service (returned as-is, with ``policy``/``obs``
    applied when given), any :class:`ProbeBackend` (wrapped in a new
    service), or a bare forwarding engine (wrapped in a
    :class:`SimBackend` first — the backward-compatible path for
    ``Prober(engine)`` callers).
    """
    if isinstance(probing, ProbeService):
        if policy is not None:
            probing.policy = policy
        if obs is not None:
            probing.obs = obs
        return probing
    if hasattr(probing, "submit"):
        return ProbeService(probing, policy=policy, obs=obs)
    if hasattr(probing, "send_probe"):
        return ProbeService(SimBackend(probing), policy=policy, obs=obs)
    raise TypeError(
        f"cannot build a ProbeService from {type(probing).__name__}: "
        "expected a ProbeService, a ProbeBackend, or a forwarding "
        "engine"
    )

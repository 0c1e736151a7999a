"""Per-tenant campaign sessions: spec, isolated stack, streaming.

A :class:`TenantSpec` is everything a tenant submits: which topology
to measure (a :class:`~repro.serve.registry.TopologySpec`, resolved
through the shared snapshot registry), its scheduler weight, and the
rest of the :class:`~repro.campaign.stack.RunSpec` the standalone CLI
shares (probe budget, retries, chaos profile, circuit breaker,
warehouse checkpoint).

A :class:`CampaignSession` runs the **unmodified**
:class:`~repro.campaign.orchestrator.Campaign` in a worker thread
over a fully private measurement stack — engine, prober, service,
metrics registry, event log — attached to the shared snapshot, with a
:class:`~repro.serve.scheduler.ScheduledBackend` turnstile between
the service and the backend.  Isolation plus an unmodified
orchestrator is the whole determinism argument: the served run
executes exactly the standalone code path, so
:func:`run_standalone` (the private-internet twin used by tests and
``tools/soak.py serve``) produces an equal ``CampaignResult``,
measurement counters included.

Events: each session's structured events (phase starts, probes,
revelation verdicts, the final ``campaign.metrics`` record) are
buffered on the session and optionally mirrored, as they happen, to a
per-session JSONL file (``events_path``) and to the server's combined
tagged stream — the live tail of a running session.
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional

from repro.campaign.orchestrator import CampaignResult
from repro.campaign.stack import RunSpec, probe_backend, write_result
from repro.obs import EventLog, JsonlSink, MetricsRegistry, Obs, Tracer
from repro.probing.prober import Prober
from repro.serve.registry import (
    SnapshotRegistry,
    render_internet,
    topology_key,
)
from repro.serve.scheduler import FairScheduler, ScheduledBackend

__all__ = [
    "AdmissionError",
    "CampaignSession",
    "TenantSpec",
    "run_standalone",
]

#: Session lifecycle states.
QUEUED, RUNNING, DONE, FAILED, CANCELLED = (
    "queued", "running", "done", "failed", "cancelled",
)


class AdmissionError(ValueError):
    """Raised when the server refuses a tenant spec.

    Admission is the contract that keeps shared snapshots safe and
    results deterministic: specs asking for network-mutating chaos
    profiles (flaps against a frozen shared topology) are rejected up
    front with an actionable message instead of failing mid-campaign.
    """


@dataclass(frozen=True)
class TenantSpec(RunSpec):
    """One tenant's campaign request: the shared
    :class:`~repro.campaign.stack.RunSpec` fields (same snapshot keys
    as ``repro campaign --checkpoint/--resume``) plus the tenant's
    name, scheduler weight, target cut and event file.  Chaos
    profiles that mutate the network are refused on shared
    snapshots."""

    #: The tenant's name (required; a default only so the field can
    #: follow the spec's defaulted fields).
    tenant: str = ""
    #: Fair-scheduler weight: probes granted per unit virtual time,
    #: relative to other tenants.
    weight: float = 1.0
    #: Truncate the campaign target list (soak/test sizing knob);
    #: None probes every campaign target.
    max_targets: Optional[int] = None
    #: Mirror this session's events to a JSONL file at this path.
    events_path: Optional[str] = None

    LEAST = {**RunSpec.LEAST, "max_targets": 1}

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.tenant:
            raise ValueError("a tenant spec needs a non-empty tenant name")

    def targets(self, internet) -> List[int]:
        """The campaign targets, truncated to ``max_targets``."""
        return internet.campaign_targets()[: self.max_targets]


class _TaggedSink:
    """Thread-safe wrapper adding a ``tenant`` field to records bound
    for a sink shared across sessions (the server's combined
    stream)."""

    def __init__(self, sink, tenant: str, lock: threading.Lock) -> None:
        self._sink = sink
        self._tenant = tenant
        self._lock = lock

    def write(self, record: Dict[str, object]) -> None:
        """Tag and forward one record under the shared lock."""
        tagged = dict(record)
        tagged["tenant"] = self._tenant
        with self._lock:
            self._sink.write(tagged)


class CampaignSession:
    """One tenant's campaign running under the server.

    Created by :meth:`repro.serve.server.ServeClient.submit`;
    consumers hold it to wait for the result (:meth:`wait`) and read
    post-run state (``events``, ``result``, ``metrics``,
    ``grant_snapshot``).
    """

    def __init__(
        self,
        spec: TenantSpec,
        registry: SnapshotRegistry,
        scheduler: FairScheduler,
        shared_sink=None,
        shared_sink_lock: Optional[threading.Lock] = None,
    ) -> None:
        self.spec = spec
        self.status = QUEUED
        self.result: Optional[CampaignResult] = None
        self.error: Optional[BaseException] = None
        #: Buffered structured events (dicts, emission order).
        self.events: List[Dict[str, object]] = []
        #: Scheduler grant totals captured the moment this session
        #: finished (fairness tests read cross-tenant state here).
        self.grant_snapshot: Optional[Dict[str, Dict[str, object]]] = None
        #: The session's private metrics registry (set once the stack
        #: is built; measurement counters land here).
        self.metrics: Optional[MetricsRegistry] = None
        self.topology_key = topology_key(spec.topology)
        self._registry = registry
        self._scheduler = scheduler
        self._shared_sink = shared_sink
        self._shared_sink_lock = shared_sink_lock
        #: Set by the server once the session is settled.
        self._done = threading.Event()

    def wait(self, timeout: Optional[float] = None) -> CampaignResult:
        """Block until the session is settled; return its result or
        re-raise its failure.

        Raises :class:`concurrent.futures.CancelledError` for a
        session a drain cancelled before it started, and
        :class:`TimeoutError` when ``timeout`` seconds pass first.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"session {self.spec.tenant!r} still {self.status} "
                f"after {timeout} s"
            )
        if self.error is not None:
            raise self.error
        if self.status == CANCELLED:
            raise CancelledError(
                f"session {self.spec.tenant!r} was cancelled"
            )
        assert self.result is not None
        return self.result

    # ------------------------------------------------------------------
    # Execution (worker thread)

    def _run(self) -> CampaignResult:
        """Build the isolated stack and run the campaign.

        Runs on a server worker thread; everything it touches is either
        session-private or explicitly thread-safe (registry lock,
        scheduler lock, tagged shared sink).
        """
        spec = self.spec
        events = EventLog()
        events.attach(SimpleNamespace(write=self.events.append))
        file_sink = None
        if spec.events_path is not None:
            file_sink = JsonlSink(spec.events_path)
            events.attach(file_sink)
        if self._shared_sink is not None:
            events.attach(
                _TaggedSink(
                    self._shared_sink, spec.tenant,
                    self._shared_sink_lock or threading.Lock(),
                )
            )
        obs = Obs(MetricsRegistry(), events, Tracer(events))
        self.metrics = obs.metrics
        attached = self._registry.attach(spec.topology, obs=obs)
        gate = ScheduledBackend(
            probe_backend(attached.engine, spec.fault_profile),
            self._scheduler, spec.tenant,
        )
        prober = Prober(gate)
        campaign = spec.campaign_for(attached, prober)
        checkpoint = spec.checkpoint_for()
        try:
            result = campaign.run(
                spec.targets(attached), checkpoint=checkpoint
            )
            write_result(checkpoint, attached, campaign, result)
            events.emit(
                "campaign.metrics",
                counters=obs.metrics.counters_snapshot(),
            )
            return result
        finally:
            service = getattr(prober, "service", None)
            if service is not None:
                attached.control.remove_invalidation_listener(
                    service.flush_cache
                )
            attached.detach()
            if file_sink is not None:
                file_sink.close()
            events.detach_all()


def run_standalone(spec: TenantSpec):
    """The standalone-orchestrator twin of a served session.

    Renders a **private** internet for ``spec.topology`` (no sharing,
    no freeze — network-mutating chaos profiles are legal here),
    builds the same measurement stack a session builds minus the
    scheduler turnstile, and runs the same campaign.  Returns
    ``(result, metrics_registry)``; tests and the soak harness assert
    the served result ``==`` this one, measurement counters included.
    """
    internet = render_internet(spec.topology)
    obs = Obs(MetricsRegistry(), EventLog())
    attached = internet.attach(obs=obs)
    prober = Prober(probe_backend(attached.engine, spec.fault_profile))
    result = spec.campaign_for(attached, prober).run(spec.targets(attached))
    return result, obs.metrics

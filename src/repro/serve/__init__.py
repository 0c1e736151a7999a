"""``repro.serve`` — threaded multi-tenant campaign service.

Turns the one-process-per-campaign CLI model into a long-lived
service: many tenants run full measurement campaigns concurrently
over a sharded pool of **shared, read-only rendered internets**.

The subsystem has four legs:

* :mod:`repro.serve.registry` — the snapshot registry: renders a
  topology once per content key (the ``repro.store`` hashing idiom),
  freezes it, and hands out immutable attach handles so fresh engines
  ride the lazy-attach path instead of paying ``internet_build``;
* :mod:`repro.serve.scheduler` — the weighted fair scheduler and the
  :class:`~repro.serve.scheduler.ScheduledBackend` turnstile that
  interleaves probe batches across tenants in weighted quanta, on the
  session threads;
* :mod:`repro.serve.session` — per-tenant session lifecycle: spec,
  isolated measurement stack, JSONL event mirroring, checkpoint
  resume, and the standalone twin used for bit-identity checks;
* :mod:`repro.serve.server` — :class:`ServeClient`, the thread-safe
  server (admission control, a bounded worker pool, drain) used by
  tests, the ``repro serve`` CLI, and ``tools/soak.py serve``.

Determinism contract: a campaign executed through the server is
byte-identical to the standalone orchestrator — the
whole ``CampaignResult`` (``==``, inventory and RTLA state included)
*and* the measurement counters.  The scheduler only decides *when* a
tenant's next batch enters the simulator, never what is probed;
per-tenant engines keep every cache and counter private; and
``serve.*`` counters live in the server's own registry, in the
execution-prefixed namespace.
"""

from repro.serve.registry import (
    SnapshotRegistry,
    TopologySpec,
    default_registry,
    topology_key,
)
from repro.serve.scheduler import FairScheduler, ScheduledBackend
from repro.serve.session import (
    AdmissionError,
    CampaignSession,
    TenantSpec,
    run_standalone,
)
from repro.serve.server import ServeClient

__all__ = [
    "AdmissionError",
    "CampaignSession",
    "FairScheduler",
    "ScheduledBackend",
    "ServeClient",
    "SnapshotRegistry",
    "TenantSpec",
    "TopologySpec",
    "default_registry",
    "run_standalone",
    "topology_key",
]

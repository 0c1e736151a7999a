"""Snapshot registry: render a topology once, attach many engines.

The registry is the materialisation cache of the serve subsystem.  A
:class:`TopologySpec` names everything that determines the *measured*
network — scale, seed, vantage points, stub fan-out, TTL-propagation
policy — and :func:`topology_key` hashes it with the same
canonical-JSON SHA-256 idiom the campaign warehouse uses for snapshot
content keys (:mod:`repro.store.layout`).  The first request for a
key pays ``internet_build``; the rendered internet is then frozen
(:meth:`repro.net.topology.Network.freeze`) and every subsequent
request gets a fresh :meth:`~repro.synth.internet.SyntheticInternet.attach`
handle over the shared topology: private engine, prober, caches, and
counters, shared routers, links, and route memos.

Thread-safety: sessions render from worker threads, so rendering is
serialised per registry under one lock; attaches are cheap and also
taken under the lock (the shared control plane's listener list is the
only cross-attachment mutation).

Counters (in the registry's observability bundle, ``serve.*`` family):

* ``serve.snapshot.renders`` — topologies actually built;
* ``serve.snapshot.attach_hits`` — attaches served from an already
  rendered snapshot (the builds avoided);
* ``serve.snapshot.attaches`` — every attach, hit or not;
* ``serve.snapshot.checkouts`` — private copy-on-churn twins handed
  out to monitoring fleets (see :meth:`SnapshotRegistry.checkout`).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.obs import Obs
from repro.synth.internet import (
    AttachedInternet,
    InternetConfig,
    SyntheticInternet,
    build_internet,
)
from repro.synth.profiles import scaled_profiles

__all__ = [
    "SnapshotRegistry",
    "TopologySpec",
    "default_registry",
    "internet_config",
    "render_internet",
    "topology_key",
]


@dataclass(frozen=True)
class TopologySpec:
    """Everything that determines a rendered internet's topology.

    The network half of run identity (a
    :class:`~repro.campaign.stack.RunSpec` holds the rest):
    :func:`internet_config` renders it and
    :meth:`RunSpec.checkpoint_topology` stamps it into the warehouse
    descriptor every front end keys snapshots on.  Execution knobs
    such as budgets deliberately stay out, because they configure
    *attachments*, not the shared render.
    """

    scale: float = 1.0
    seed: int = 2017
    vantage_points: int = 10
    stubs_per_transit: int = 6
    ttl_propagate_everywhere: bool = False
    te_tunnels_per_transit: int = 0
    te_ttl_propagate: bool = False

    def descriptor(self) -> Dict[str, object]:
        """The JSON-ready topology descriptor (checkpoint-compatible).

        TE fields are stamped only when non-default so every pre-TE
        key (and stored checkpoint descriptor) stays valid.
        """
        return {
            "kind": "synthetic-internet",
            "scale": self.scale,
            "seed": self.seed,
            "vantage_points": self.vantage_points,
            "stubs_per_transit": self.stubs_per_transit,
            "ttl_propagate_everywhere": self.ttl_propagate_everywhere,
            **(
                {
                    "te_tunnels_per_transit": self.te_tunnels_per_transit,
                    "te_ttl_propagate": self.te_ttl_propagate,
                }
                if self.te_tunnels_per_transit
                else {}
            ),
        }


def topology_key(spec: TopologySpec) -> str:
    """Content key of a topology spec (full SHA-256 hex).

    Same canonicalisation as :func:`repro.store.layout.campaign_key`:
    sorted keys, compact separators, ASCII — so the key is stable
    across processes and Python versions.
    """
    return hashlib.sha256(
        json.dumps(
            spec.descriptor(), sort_keys=True, separators=(",", ":")
        ).encode("ascii")
    ).hexdigest()


def internet_config(spec: TopologySpec) -> InternetConfig:
    """The generator config a spec renders to (comparable against a
    pre-built twin's ``config`` without rendering)."""
    return InternetConfig(
        profiles=tuple(
            scaled_profiles(spec.scale, spec.ttl_propagate_everywhere)
        ),
        vantage_points=spec.vantage_points,
        stubs_per_transit=spec.stubs_per_transit,
        seed=spec.seed,
        te_tunnels_per_transit=spec.te_tunnels_per_transit,
        te_ttl_propagate=spec.te_ttl_propagate,
    )


def render_internet(spec: TopologySpec) -> SyntheticInternet:
    """Build the internet a spec describes (private, unfrozen)."""
    return build_internet(internet_config(spec))


class _Snapshot:
    """One rendered, frozen internet plus its bookkeeping."""

    def __init__(self, spec: TopologySpec, internet: SyntheticInternet,
                 render_seconds: float) -> None:
        self.spec = spec
        self.internet = internet
        self.render_seconds = render_seconds


class SnapshotRegistry:
    """Render-once, attach-many cache of synthetic internets.

    ``obs`` receives the ``serve.snapshot.*`` counters; by default the
    registry gets its own bundle so snapshot bookkeeping never leaks
    into a tenant's measurement registry.
    """

    def __init__(self, obs: Optional[Obs] = None) -> None:
        self.obs = obs if obs is not None else Obs()
        self._lock = threading.Lock()
        self._snapshots: Dict[str, _Snapshot] = {}

    # ------------------------------------------------------------------

    def rendered(self, spec: TopologySpec) -> Optional[SyntheticInternet]:
        """The shared internet for ``spec`` if already rendered."""
        snapshot = self._snapshots.get(topology_key(spec))
        return None if snapshot is None else snapshot.internet

    def _snapshot(self, spec: TopologySpec) -> _Snapshot:
        """The rendered snapshot for ``spec`` (caller holds the lock).

        The first request per key renders and freezes the topology;
        every later one is an attach hit.
        """
        key = topology_key(spec)
        snapshot = self._snapshots.get(key)
        if snapshot is None:
            start = time.perf_counter()
            internet = render_internet(spec)
            seconds = time.perf_counter() - start
            internet.network.freeze()
            snapshot = _Snapshot(spec, internet, seconds)
            self._snapshots[key] = snapshot
            self.obs.metrics.inc("serve.snapshot.renders")
            self.obs.metrics.observe(
                "serve.snapshot.render_ms", seconds * 1000.0
            )
        else:
            self.obs.metrics.inc("serve.snapshot.attach_hits")
        return snapshot

    def attach(
        self,
        spec: TopologySpec,
        obs: Optional[Obs] = None,
    ) -> AttachedInternet:
        """An attach handle over the (rendered-on-demand) snapshot.

        First call per key renders and freezes the topology; every
        later call is an attach hit.  The handle's engine/prober are
        private; pass ``obs`` to route the tenant's counters and
        events into an isolated bundle.
        """
        with self._lock:
            snapshot = self._snapshot(spec)
            self.obs.metrics.inc("serve.snapshot.attaches")
            return snapshot.internet.attach(obs=obs)

    def checkout(self, spec: TopologySpec) -> SyntheticInternet:
        """A private, **unfrozen** copy-on-churn twin of the snapshot.

        Where :meth:`attach` hands out a read-only view of the shared
        frozen render, ``checkout`` clones it
        (:meth:`~repro.synth.internet.SyntheticInternet.clone`): the
        caller gets a mutable twin it may churn freely — the
        monitoring-fleet path — while the shared render stays frozen
        for every attached tenant.  The render itself is still paid
        only once per key; every checkout after the first reuses it.
        """
        with self._lock:
            snapshot = self._snapshot(spec)
            start = time.perf_counter()
            twin = snapshot.internet.clone()
            self.obs.metrics.inc("serve.snapshot.checkouts")
            self.obs.metrics.observe(
                "serve.snapshot.checkout_ms",
                (time.perf_counter() - start) * 1000.0,
            )
            return twin

    # ------------------------------------------------------------------
    # Introspection

    @property
    def renders(self) -> int:
        """Topologies actually built by this registry."""
        return self.obs.metrics.get("serve.snapshot.renders")

    @property
    def attach_hits(self) -> int:
        """Attaches that avoided an ``internet_build``."""
        return self.obs.metrics.get("serve.snapshot.attach_hits")

    @property
    def builds_avoided(self) -> int:
        """Alias for :attr:`attach_hits` (reporting vocabulary)."""
        return self.attach_hits

    @property
    def checkouts(self) -> int:
        """Copy-on-churn twins handed out (fleet chains)."""
        return self.obs.metrics.get("serve.snapshot.checkouts")

    def mean_render_seconds(self) -> float:
        """Mean observed render cost (0.0 before the first render)."""
        with self._lock:
            snapshots = list(self._snapshots.values())
        if not snapshots:
            return 0.0
        return sum(s.render_seconds for s in snapshots) / len(snapshots)

    def stats(self) -> Dict[str, object]:
        """Registry summary: keys, renders, attach reuse, savings."""
        mean_seconds = self.mean_render_seconds()
        return {
            "snapshots": len(self._snapshots),
            "renders": self.renders,
            "attaches": self.obs.metrics.get("serve.snapshot.attaches"),
            "attach_hits": self.attach_hits,
            "builds_avoided": self.builds_avoided,
            "checkouts": self.checkouts,
            "mean_render_ms": round(mean_seconds * 1000.0, 3),
            "saved_ms": round(
                self.builds_avoided * mean_seconds * 1000.0, 3
            ),
        }


#: Process-wide registry shared by the CLI, the experiment harness,
#: and any server that does not bring its own.
_DEFAULT_REGISTRY = SnapshotRegistry()


def default_registry() -> SnapshotRegistry:
    """The process-wide snapshot registry."""
    return _DEFAULT_REGISTRY

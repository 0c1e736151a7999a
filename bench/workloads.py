"""The four benchmark workloads.

Each workload is a closed loop over *units* (one campaign, one served
session, one checkpointed interrupt-and-resume pair, one fleet run).
Unit ``g`` of a run (``g = round * units_per_round + position``) gets
inputs that are a pure function of the seed and ``g``: the workloads
that render per unit give every unit its own topology, the others
cycle over topologies rendered in set-up.  The more distinct inputs a
run covers, the less its medians depend on the seed.

Why these four (each one stresses layers the others leave idle):

* ``campaign-cold`` — every cache starts cold: render, routing and
  trajectory misses do the work; store, faults and serve are idle.
* ``serve-shared`` — renders and route memos are shared and warm, so
  per-probe data plane, measurement and the serve turnstile dominate.
* ``chaos-resume`` — faults, the sanitizer, retries, and store writes
  plus replay do the work over warm routing.
* ``monitor-fleet`` — the only workload that runs churn, monitor
  staleness, copy-on-churn clones and the fleet fold; its data plane
  is flushed by invalidations every epoch.

A unit returns a :class:`UnitResult` whose ``canonical`` text is the
unit's output in a fixed form; its hash goes into the run's output
digest, and correctness checks compare against references built in
set-up.  Program modules are imported lazily, after ``run.py`` has
timed their import.
"""

from __future__ import annotations

import hashlib
import shutil
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from spans import HARNESS

__all__ = ["UnitResult", "WORKLOADS"]


@dataclass
class UnitResult:
    """What one unit produced, as the harness scores it."""

    unit: str
    #: Input identity: units with equal keys must produce equal output.
    key: str = ""
    latency_s: float = 0.0
    probes: int = 0
    revealed: int = 0
    canonical: str = ""
    failure: Optional[str] = None
    #: Workload-specific deterministic counts (monitor carry-forward).
    extra: Dict[str, int] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.canonical.encode()).hexdigest()


def _canonical(result) -> str:
    """A campaign result's measured output in a fixed text form."""
    return repr((
        result.traces,
        sorted(result.pings.items()),
        sorted(result.revelations.items()),
        result.quarantine,
        result.data_quality,
        result.partial,
    ))


def _total_probes(result) -> int:
    return result.probes_sent + result.revelation_probes


@contextmanager
def _harness_span(recorder):
    """The per-unit root span of a single-client workload."""
    if recorder is None:
        yield
        return
    recorder.enter(HARNESS, "unit")
    try:
        yield
    finally:
        recorder.leave()


def _failed(unit: str, key: str, exc: BaseException) -> UnitResult:
    traceback.print_exception(type(exc), exc, exc.__traceback__)
    return UnitResult(unit, key, failure=f"{type(exc).__name__}: {exc}")


class Workload:
    """Shared shape: ``setup`` builds shared state, ``run_round``
    runs one round's units and returns ``(seconds, results)``."""

    name = ""
    why = ""
    #: The program modules the workload needs (their import is timed
    #: as part of set-up).
    modules: Tuple[str, ...] = ()
    units_per_round = 1
    #: Nominal length of one untraced round on a 2-core x86 box; the
    #: harness sizes a run as ``--seconds`` worth of rounds.
    round_seconds = 1.0

    def __init__(self, seed: int, workdir: Path,
                 units: Optional[int] = None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.units = units or self.units_per_round

    def setup(self) -> None:
        """Build what every round shares (renders, references)."""

    def run_round(self, index: int, tag: str = "", recorder=None):
        """Run round ``index``'s units; ``tag`` marks their unit ids
        (a traced repeat of a round runs the same inputs)."""
        raise NotImplementedError

    def key(self, g: int) -> str:
        """Input identity of unit ``g``."""
        raise NotImplementedError

    def _serial_round(self, index: int, tag: str, recorder, run_unit):
        """Closed loop, one client: the round's time is the sum of
        its units' latencies (harness bookkeeping excluded)."""
        results = []
        for position in range(self.units):
            unit = f"{index}.{position}{tag}"
            g = index * self.units + position
            if recorder is not None:
                recorder.unit = unit
            try:
                result = run_unit(unit, g, recorder)
            except Exception as exc:  # noqa: BLE001 - scored, not fatal
                result = _failed(unit, self.key(g), exc)
            result.key = self.key(g)
            results.append(result)
        return sum(result.latency_s for result in results), results


# ---------------------------------------------------------------------------


class CampaignCold(Workload):
    """One ``repro campaign`` per unit over a freshly rendered
    paper-profile internet (scale 1.0, 10 VPs, 6 stubs per transit,
    topology seed = seed + unit)."""

    name = "campaign-cold"
    why = ("every cache starts cold: render, routing and trajectory "
           "misses do the work; store, faults and serve are idle")
    modules = (
        "repro.campaign.orchestrator",
        "repro.campaign.postprocess",
        "repro.serve.registry",
    )
    units_per_round = 10
    round_seconds = 2.3

    def key(self, g: int) -> str:
        return f"topology seed {self.seed + g}"

    def run_round(self, index: int, tag: str = "", recorder=None):
        return self._serial_round(index, tag, recorder, self._unit)

    def _unit(self, unit: str, g: int, recorder) -> UnitResult:
        from repro.campaign.orchestrator import Campaign, CampaignConfig
        from repro.campaign.postprocess import Aggregator
        from repro.serve.registry import SnapshotRegistry, TopologySpec

        spec = TopologySpec(seed=self.seed + g)
        start = time.perf_counter()
        with _harness_span(recorder):
            # The CLI path: a fresh process-wide registry renders the
            # topology and hands out one attachment.
            attached = SnapshotRegistry().attach(spec)
            try:
                campaign = Campaign(
                    attached.prober,
                    attached.vps,
                    attached.asn_of_address,
                    CampaignConfig(
                        suspicious_asns=tuple(attached.transit_asns)
                    ),
                )
                result = campaign.run(attached.campaign_targets())
                aggregator = Aggregator(
                    result,
                    attached.asn_of_address,
                    alias_of=lambda address: getattr(
                        attached.router_of_address(address), "name", None
                    ),
                )
                campaign.frpla(result, classify=aggregator.role_of)
            finally:
                attached.detach()
        latency = time.perf_counter() - start
        return UnitResult(
            unit,
            latency_s=latency,
            probes=_total_probes(result),
            revealed=len(result.successful_revelations()),
            canonical=_canonical(result),
            failure=_campaign_failure(result),
        )


def _campaign_failure(result) -> Optional[str]:
    """Why a clean campaign result fails its check (None = passes)."""
    if result.partial:
        return f"partial run: {result.stop_reason}"
    grade = result.data_quality.get("grade")
    if grade != "high":
        return f"grade {grade!r}"
    return None


# ---------------------------------------------------------------------------


class ServeShared(Workload):
    """Two clients keep two sessions outstanding on a
    ``ServeClient(max_active=2)`` over eight topologies rendered in
    set-up; each client's tenants alternate weight 4 / 1 and full /
    40-target lists."""

    name = "serve-shared"
    why = ("renders and route memos are shared and warm, so per-probe "
           "data plane, measurement and the serve turnstile dominate")
    modules = ("repro.serve", "repro.obs")
    units_per_round = 8
    round_seconds = 2.0
    clients = 2
    topologies = 8

    def key(self, g: int) -> str:
        return f"tenant spec {g % self.units}"

    def setup(self) -> None:
        from repro.obs import measurement_counters
        from repro.serve import (
            SnapshotRegistry,
            TenantSpec,
            TopologySpec,
            run_standalone,
        )

        self.registry = SnapshotRegistry()
        topologies = [
            TopologySpec(seed=self.seed + k)
            for k in range(self.topologies)
        ]
        for topology in topologies:
            self.registry.attach(topology).detach()
        # Position p runs on client p % 2; every client's sessions
        # alternate weights (p // 2) and target lists (p // 4).
        self.specs = [
            TenantSpec(
                tenant=str(position),
                topology=topologies[position % self.topologies],
                weight=4.0 if (position // 2) % 2 == 0 else 1.0,
                max_targets=None if (position // 4) % 2 == 0 else 40,
            )
            for position in range(self.units)
        ]
        result, metrics = run_standalone(self.specs[0])
        self.reference = repr((
            result.traces,
            result.revelations,
            measurement_counters(metrics.counters_snapshot()),
        ))

    def run_round(self, index: int, tag: str = "", recorder=None):
        from dataclasses import replace

        from repro.obs import measurement_counters
        from repro.serve import ServeClient

        # A fresh client per round: the server keeps every finished
        # session (result and event buffer) for its lifetime.
        client = ServeClient(registry=self.registry, max_active=2)
        results: List[Optional[UnitResult]] = [None] * self.units

        def serve(first: int) -> None:
            for position in range(first, self.units, self.clients):
                unit = f"{index}.{position}{tag}"
                key = self.key(position)
                spec = replace(self.specs[position], tenant=unit)
                start = time.perf_counter()
                try:
                    handle = client.submit(spec)
                    result = handle.wait(timeout=150)
                except Exception as exc:  # noqa: BLE001 - scored
                    results[position] = _failed(unit, key, exc)
                    continue
                latency = time.perf_counter() - start
                failure = _campaign_failure(result)
                if failure is None and position == 0 and repr((
                    result.traces,
                    result.revelations,
                    measurement_counters(
                        handle.session.metrics.counters_snapshot()
                    ),
                )) != self.reference:
                    failure = "served tenant differs from run_standalone"
                results[position] = UnitResult(
                    unit, key,
                    latency_s=latency,
                    probes=_total_probes(result),
                    revealed=len(result.successful_revelations()),
                    canonical=_canonical(result),
                    failure=failure,
                )

        threads = [
            threading.Thread(target=serve, args=(first,),
                             name=f"bench-client-{first}")
            for first in range(self.clients)
        ]
        start = time.perf_counter()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=170)
            wall = time.perf_counter() - start
        finally:
            client.close()
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("serve client threads did not finish")
        return wall, results


# ---------------------------------------------------------------------------


class ChaosResume(Workload):
    """A ``hostile`` campaign (2 retries, breaker at 3) checkpointed
    into a fresh warehouse, stopped by a probe budget at half the
    reference probe count, then resumed — round-robin over eight
    topologies rendered in set-up."""

    name = "chaos-resume"
    why = ("faults, the sanitizer, retries, and store writes plus "
           "replay do the work while routing stays warm")
    modules = (
        "repro.campaign.orchestrator",
        "repro.faults",
        "repro.measure",
        "repro.obs",
        "repro.probing.prober",
        "repro.serve.registry",
        "repro.store",
    )
    units_per_round = 8
    round_seconds = 2.0
    topologies = 8

    def key(self, g: int) -> str:
        return f"topology {g % len(self.specs)}"

    def setup(self) -> None:
        from repro.serve.registry import SnapshotRegistry, TopologySpec

        self.registry = SnapshotRegistry()
        # A round never needs more topologies than it has units.
        self.specs = [
            TopologySpec(seed=self.seed + k)
            for k in range(min(self.units, self.topologies))
        ]
        # The uninterrupted runs every resumed unit must reproduce;
        # they also warm the shared route memos.
        self.references = []
        for spec in self.specs:
            campaign, prober, attached = self._stack(spec, None)
            try:
                result = campaign.run(attached.campaign_targets())
            finally:
                self._detach(prober, attached)
            self.references.append(
                (_canonical(result), prober.probes_sent)
            )

    def _stack(self, spec, budget):
        """An attached measurement stack, built the way a served
        session builds one (minus the scheduler turnstile)."""
        from repro.campaign.orchestrator import Campaign, CampaignConfig
        from repro.faults import FaultyBackend, fault_profile
        from repro.measure import SimBackend
        from repro.obs import EventLog, MetricsRegistry, Obs
        from repro.probing.prober import Prober

        attached = self.registry.attach(
            spec, obs=Obs(MetricsRegistry(), EventLog())
        )
        prober = Prober(
            FaultyBackend(
                SimBackend(attached.engine), fault_profile("hostile")
            )
        )
        campaign = Campaign(
            prober,
            attached.vps,
            attached.asn_of_address,
            CampaignConfig(
                suspicious_asns=tuple(attached.transit_asns),
                probe_budget=budget,
                max_retries=2,
                breaker_threshold=3,
            ),
        )
        return campaign, prober, attached

    @staticmethod
    def _detach(prober, attached) -> None:
        # What ``CampaignSession._run`` does: drop the extra service's
        # invalidation listener, then the attachment's own hooks.
        attached.control.remove_invalidation_listener(
            prober.service.flush_cache
        )
        attached.detach()

    def _leg(self, spec, warehouse: Path, budget, resume: bool,
             recorder):
        from repro.store import CampaignCheckpoint

        start = time.perf_counter()
        with _harness_span(recorder):
            campaign, prober, attached = self._stack(spec, budget)
            try:
                result = campaign.run(
                    attached.campaign_targets(),
                    checkpoint=CampaignCheckpoint(
                        str(warehouse),
                        topology=dict(
                            spec.descriptor(), fault_profile="hostile"
                        ),
                        resume=resume,
                    ),
                )
            finally:
                self._detach(prober, attached)
        return result, prober.probes_sent, time.perf_counter() - start

    @staticmethod
    def _checkpointed_probes(warehouse: Path) -> int:
        """Probes the service had sent at the last record written,
        which is what a resume restores."""
        from repro.store import CampaignStore

        last = (-1, 0)
        for snapshot in CampaignStore(warehouse).snapshots():
            for phase in ("trace", "ping", "pairs", "revelation"):
                for record in snapshot.records(phase):
                    state = record.get("state") or {}
                    sent = (state.get("service") or {}).get("probes_sent")
                    if sent is not None and record["seq"] > last[0]:
                        last = (record["seq"], int(sent))
        return last[1]

    def run_round(self, index: int, tag: str = "", recorder=None):
        return self._serial_round(index, tag, recorder, self._unit)

    def _unit(self, unit: str, g: int, recorder) -> UnitResult:
        which = g % len(self.specs)
        spec = self.specs[which]
        reference, reference_probes = self.references[which]
        warehouse = self.workdir / f"chaos-{unit}"
        shutil.rmtree(warehouse, ignore_errors=True)
        try:
            first, first_sent, first_s = self._leg(
                spec, warehouse, reference_probes // 2, False, recorder
            )
            restored = self._checkpointed_probes(warehouse)
            final, final_sent, final_s = self._leg(
                spec, warehouse, None, True, recorder
            )
        finally:
            shutil.rmtree(warehouse, ignore_errors=True)
        failure = None
        if not first.partial:
            failure = "budgeted leg was not stopped by its budget"
        elif final.partial:
            failure = f"resumed leg stopped: {final.stop_reason}"
        elif _canonical(final) != reference:
            failure = "resumed result differs from the uninterrupted run"
        return UnitResult(
            unit,
            latency_s=first_s + final_s,
            probes=first_sent + final_sent - restored,
            revealed=len(final.successful_revelations()),
            canonical=_canonical(final),
            failure=failure,
        )


# ---------------------------------------------------------------------------


class MonitorFleet(Workload):
    """One ``FleetSupervisor`` run per unit in a fresh warehouse: two
    chains, four epochs of ``steady`` churn at the default monitor
    topology, incremental carry-forward on, fleet seed = seed + unit."""

    name = "monitor-fleet"
    why = ("the only workload running churn, monitor staleness, "
           "copy-on-churn clones and the fleet fold")
    modules = ("repro.fleet",)
    units_per_round = 4
    round_seconds = 4.0

    def key(self, g: int) -> str:
        return f"fleet seed {self.seed + g}"

    def run_round(self, index: int, tag: str = "", recorder=None):
        return self._serial_round(index, tag, recorder, self._unit)

    def _unit(self, unit: str, g: int, recorder) -> UnitResult:
        import json

        from repro.fleet import FleetConfig, FleetSupervisor

        warehouse = self.workdir / f"fleet-{unit}"
        shutil.rmtree(warehouse, ignore_errors=True)
        config = FleetConfig(
            warehouse=str(warehouse),
            chains=2,
            epochs=4,
            seed=self.seed + g,
            churn_profile="steady",
        )
        try:
            start = time.perf_counter()
            report = FleetSupervisor(config).run()
            latency = time.perf_counter() - start
        finally:
            shutil.rmtree(warehouse, ignore_errors=True)
        epochs = [
            epoch
            for chain in report.chains
            if chain.report is not None
            for epoch in chain.report.epochs
        ]
        grade = report.document["summary"]["grade"]
        failure = None
        if not report.completed:
            failure = "fleet did not complete every chain"
        elif grade != "high":
            failure = f"fleet.json graded {grade!r}"
        return UnitResult(
            unit,
            latency_s=latency,
            probes=sum(e.campaign_probes + e.evidence_probes for e in epochs),
            revealed=sum(e.tunnels for e in epochs),
            canonical=json.dumps(report.document, sort_keys=True),
            failure=failure,
            extra={
                "pairs": sum(e.pairs for e in epochs),
                "pairs_carried": sum(e.pairs_carried for e in epochs),
                "evidence_probes": sum(e.evidence_probes for e in epochs),
            },
        )


WORKLOADS = {
    workload.name: workload
    for workload in (CampaignCold, ServeShared, ChaosResume, MonitorFleet)
}

"""The run spec and the one executor every front end runs it through.

:class:`RunSpec` declares, once, the fields every front end's run
shares.  ``ContextConfig`` (``repro campaign``) and ``TenantSpec``
(``repro serve``) extend it; a monitor chain views its own fields
through ``ChainSpec.run_spec()``.  :meth:`RunSpec.execute` builds
the measurement stack (:class:`RunStack`), runs the campaign, writes
``result.json`` and tears the stack down, for CLI runs, served
sessions and their standalone twin alike; a monitor chain runs every
epoch on one :class:`RunStack`.  So one spec executes one code path
and lands in one snapshot whatever front end runs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.campaign.orchestrator import Campaign, CampaignConfig
from repro.core.frpla import FrplaAnalyzer
from repro.measure import SimBackend
from repro.probing.prober import Prober

if TYPE_CHECKING:
    from repro.serve.registry import TopologySpec

__all__ = ["CampaignRun", "RunSpec", "RunStack"]


def _default_topology() -> "TopologySpec":
    # ``repro.serve`` imports its sessions, which import this module,
    # so the topology spec class is looked up on first use.
    from repro.serve.registry import TopologySpec

    return TopologySpec()


@dataclass(frozen=True)
class RunSpec:
    """What one campaign run measures and how it executes.

    *Identity* fields decide what is measured, so they key the run's
    warehouse snapshot: ``topology``, ``fault_profile``,
    ``max_retries`` and ``breaker_threshold`` (listed in
    :data:`IDENTITY`).  *Execution* fields only steer the run:
    ``probe_budget``, ``checkpoint_dir`` and ``resume``, so a run
    stopped by its budget resumes into the same snapshot.
    """

    #: The measured network.
    topology: "TopologySpec" = field(default_factory=_default_topology)
    #: Shipped chaos profile (:data:`repro.faults.FAULT_PROFILES`)
    #: injected under the measurement service; None measures cleanly.
    fault_profile: Optional[str] = None
    #: Per-probe retries on timeout (``*`` hops).
    max_retries: int = 0
    #: Consecutive ping losses before the circuit breaker parks a
    #: target until the end of the phase; None disables the breaker.
    breaker_threshold: Optional[int] = None
    #: Global probe budget; None is unlimited (a clean partial result
    #: when exhausted).
    probe_budget: Optional[int] = None
    #: Warehouse root (:mod:`repro.store`) to checkpoint the run under,
    #: making it resumable and diffable with ``repro diff``.
    checkpoint_dir: Optional[str] = None
    #: Resume the interrupted run checkpointed in ``checkpoint_dir``
    #: (bit-identical to an uninterrupted run).
    resume: bool = False

    #: The fields that key the run's snapshot.
    IDENTITY = ("topology", "fault_profile", "max_retries",
                "breaker_threshold")
    #: Least legal value of each numeric field (None always passes).
    LEAST = {"probe_budget": 1, "max_retries": 0, "breaker_threshold": 1}

    def __post_init__(self) -> None:
        for name, least in self.LEAST.items():
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")

    def stamped_identity(self) -> Dict[str, object]:
        """The identity fields besides ``topology`` that differ from
        their defaults (a chain id stamps these, so default-valued
        chains keep their ids)."""
        default = RunSpec()
        return {
            name: getattr(self, name)
            for name in self.IDENTITY[1:]
            if getattr(self, name) != getattr(default, name)
        }

    def campaign_config(self, internet, **extra) -> CampaignConfig:
        """The orchestrator config this spec maps to over ``internet``;
        ``extra`` adds or overrides front-end fields."""
        values = dict(
            suspicious_asns=tuple(internet.transit_asns),
            probe_budget=self.probe_budget,
            max_retries=self.max_retries,
            breaker_threshold=self.breaker_threshold,
        )
        values.update(extra)
        return CampaignConfig(**values)

    def checkpoint_topology(self) -> Dict[str, object]:
        """The warehouse topology descriptor the run's snapshot is
        keyed on (shared by every front end).  A fault profile changes
        what is measured, so it is stamped, but only when set: clean
        keys stay unchanged across versions."""
        descriptor = self.topology.descriptor()
        if self.fault_profile is not None:
            descriptor["fault_profile"] = self.fault_profile
        return descriptor

    def targets(self, internet) -> List[int]:
        """The destinations the run's campaign measures."""
        return internet.campaign_targets()

    def mutates_network(self) -> bool:
        """Does the fault profile rewire the network mid-run (flaps)?
        Such a run cannot share a frozen rendered snapshot.  Raises
        ValueError for an unknown profile."""
        if self.fault_profile is None:
            return False
        from repro.faults import fault_profile

        return fault_profile(self.fault_profile).mutates_network

    def execute(self, internet, *, wrap=None) -> "CampaignRun":
        """Run the spec over ``internet`` (rendered or attached; the
        caller keeps it): build a :class:`RunStack` with ``wrap``
        around its backend, run, write ``result.json``, tear down."""
        stack = RunStack(self, internet, wrap)
        try:
            run = stack.run()
            run.write_summary()
        finally:
            stack.close()
        return run


class RunStack:
    """A spec's measurement stack over one internet: the simulator
    backend behind the spec's fault profile, wrapped by ``wrap`` (the
    serve turnstile, the fleet harness, a probe-log recorder or
    replayer), under a fresh prober.  With nothing to inject or wrap
    it measures through the internet's own prober.  A monitor chain
    runs every epoch on one stack."""

    def __init__(self, spec: RunSpec, internet, wrap=None) -> None:
        self.spec = spec
        self.internet = internet
        self._built = spec.fault_profile is not None or wrap is not None
        if not self._built:
            self.prober = internet.prober
            return
        backend = SimBackend(internet.engine)
        if spec.fault_profile is not None:
            # Imported on first use, off the import path of clean runs.
            from repro.faults import FaultyBackend, fault_profile

            backend = FaultyBackend(
                backend, fault_profile(spec.fault_profile)
            )
        if wrap is not None:
            backend = wrap(backend)
        # A replayed probe log has no observability bundle of its own.
        self.prober = Prober(backend, obs=internet.engine.obs)

    def run(self, config: Optional[CampaignConfig] = None,
            topology: Optional[Dict[str, object]] = None,
            resume: Optional[bool] = None) -> "CampaignRun":
        """One campaign, checkpointed under the spec's
        ``checkpoint_dir`` when it names one; ``config``, ``topology``
        and ``resume`` default to the spec's campaign config, snapshot
        descriptor and resume flag (a monitor epoch passes its own)."""
        spec, internet = self.spec, self.internet
        campaign = Campaign(
            self.prober, internet.vps, internet.asn_of_address,
            config or spec.campaign_config(internet),
        )
        checkpoint = None
        if spec.checkpoint_dir is not None:
            from repro.store import CampaignCheckpoint

            checkpoint = CampaignCheckpoint(
                spec.checkpoint_dir,
                topology=topology or spec.checkpoint_topology(),
                resume=spec.resume if resume is None else resume,
            )
        result = campaign.run(spec.targets(internet), checkpoint=checkpoint)
        return CampaignRun(internet, campaign, checkpoint, result)

    def close(self) -> None:
        """Unhook and close the prober the stack built (the internet's
        own prober is its attachment's to detach)."""
        if self._built:
            self.internet.control.remove_invalidation_listener(
                self.prober.service.flush_cache
            )
            self.prober.backend.close()


@dataclass
class CampaignRun:
    """One executed campaign.  Its per-AS analysis is built on first
    use, so an unwritten run nobody asks for analysis builds none."""

    internet: object
    campaign: Campaign
    checkpoint: object
    result: object

    def alias_of(self, address: int) -> Optional[str]:
        """Ground truth: the name of the router owning ``address``."""
        router = self.internet.router_of_address(address)
        return None if router is None else router.name

    @cached_property
    def aggregator(self):
        """Per-AS summaries over ground-truth aliases."""
        from repro.campaign.postprocess import Aggregator

        return Aggregator(
            self.result, self.internet.asn_of_address,
            alias_of=self.alias_of,
        )

    @cached_property
    def frpla(self) -> FrplaAnalyzer:
        """The campaign's FRPLA analyser, classifying by role."""
        return self.campaign.frpla(
            self.result, classify=self.aggregator.role_of
        )

    def write_summary(self) -> Optional[dict]:
        """Write the snapshot's ``result.json`` and return it (None
        without a snapshot).  A budget-stopped run writes one flagged
        ``partial`` that its resume overwrites; only a completed
        ``run.json`` marks the snapshot complete."""
        if self.checkpoint is None or self.checkpoint.snapshot is None:
            return None
        from repro.store import result_document

        names = {
            asn: profile.name
            for asn, profile in self.internet.profiles.items()
        }
        document = result_document(
            self.result, self.aggregator, frpla=self.frpla,
            as_names=names,
        )
        self.checkpoint.snapshot.write_result(document)
        return document

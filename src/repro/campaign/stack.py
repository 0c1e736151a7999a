"""The run spec and the campaign stack every front end builds.

:class:`RunSpec` declares, once, the fields every front end's run
shares.  ``ContextConfig`` (``repro campaign``) and ``TenantSpec``
(``repro serve``) extend it; a monitor chain views its own fields
through ``ChainSpec.run_spec()``.  The spec maps itself to the
orchestrator (:meth:`RunSpec.campaign_config`) and to its warehouse
checkpoint (:meth:`RunSpec.checkpoint_for`), so a served tenant, its
standalone twin and a CLI run of one spec land in one snapshot, and
:func:`write_result` gives that snapshot one ``result.json``.  Every
front end measures through :func:`probe_backend`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.campaign.orchestrator import Campaign, CampaignConfig
from repro.measure import SimBackend

if TYPE_CHECKING:
    from repro.serve.registry import TopologySpec

__all__ = ["RunSpec", "probe_backend", "write_result"]


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

    def campaign_for(self, internet, prober) -> Campaign:
        """The orchestrator this spec maps to."""
        return Campaign(
            prober,
            internet.vps,
            internet.asn_of_address,
            self.campaign_config(internet),
        )

    def checkpoint_topology(self) -> Dict[str, object]:
        """The warehouse topology descriptor the run's snapshot is
        keyed on (shared by every front end).  A fault profile changes
        what is measured, so it is stamped, but only when set: clean
        keys stay unchanged across versions."""
        descriptor = self.topology.descriptor()
        if self.fault_profile is not None:
            descriptor["fault_profile"] = self.fault_profile
        return descriptor

    def checkpoint_for(self):
        """The run's warehouse checkpoint (None when it names no
        ``checkpoint_dir``)."""
        if self.checkpoint_dir is None:
            return None
        from repro.store import CampaignCheckpoint

        return CampaignCheckpoint(
            self.checkpoint_dir,
            topology=self.checkpoint_topology(),
            resume=self.resume,
        )


def probe_backend(engine, fault_profile: Optional[str] = None):
    """The simulator backend over ``engine``, behind the named
    chaos profile when one is given."""
    backend = SimBackend(engine)
    if fault_profile is None:
        return backend
    # Chaos and the warehouse are imported on first use, keeping them
    # off the import path of clean, uncheckpointed runs.
    from repro.faults import FaultyBackend
    from repro.faults import fault_profile as shipped_profile

    return FaultyBackend(backend, shipped_profile(fault_profile))


def write_result(
    checkpoint,
    internet,
    campaign: Campaign,
    result,
    aggregator=None,
    frpla=None,
) -> Optional[dict]:
    """Write a finished run's ``result.json`` into its checkpoint
    snapshot and return the document (None without a snapshot).

    The per-AS section needs an :class:`Aggregator` over ground-truth
    aliases and the campaign's FRPLA analyser; a caller that already
    built them passes them in, so nothing is computed twice.
    """
    if checkpoint is None or checkpoint.snapshot is None:
        return None
    from repro.campaign.postprocess import Aggregator
    from repro.store import result_document

    if aggregator is None:
        def alias_of(address: int) -> Optional[str]:
            router = internet.router_of_address(address)
            return None if router is None else router.name

        aggregator = Aggregator(
            result, internet.asn_of_address, alias_of=alias_of
        )
    if frpla is None:
        frpla = campaign.frpla(result, classify=aggregator.role_of)
    names = {
        asn: profile.name for asn, profile in internet.profiles.items()
    }
    document = result_document(
        result, aggregator, frpla=frpla, as_names=names
    )
    checkpoint.snapshot.write_result(document)
    return document

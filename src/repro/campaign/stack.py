"""The campaign stack every front end builds.

``CampaignContext`` (``repro campaign``), served tenants, their
standalone twin and monitor chains all measure through
:func:`probe_backend`.  ``ContextConfig`` and ``TenantSpec`` share
the policy fields ``topology``, ``probe_budget``, ``max_retries``,
``breaker_threshold``, ``fault_profile``, ``checkpoint_dir`` and
``resume``, mapped here to the orchestrator and its checkpoint — so
a served tenant and a CLI run of one spec land in one snapshot, and
:func:`write_result` gives that snapshot one ``result.json``.
"""

from __future__ import annotations

from typing import Optional

from repro.campaign.orchestrator import Campaign, CampaignConfig
from repro.measure import SimBackend

__all__ = ["campaign_for", "checkpoint_for", "probe_backend", "write_result"]


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


def campaign_for(
    spec,
    internet,
    prober,
    revelation_technique: Optional[str] = None,
) -> Campaign:
    """The orchestrator a spec's policy fields map to."""
    return Campaign(
        prober,
        internet.vps,
        internet.asn_of_address,
        CampaignConfig(
            suspicious_asns=tuple(internet.transit_asns),
            probe_budget=spec.probe_budget,
            max_retries=spec.max_retries,
            breaker_threshold=spec.breaker_threshold,
            revelation_technique=revelation_technique,
        ),
    )


def checkpoint_for(spec, revelation_technique: Optional[str] = None):
    """The spec's warehouse checkpoint (None when it names no
    ``checkpoint_dir``), keyed on the run's snapshot descriptor."""
    if spec.checkpoint_dir is None:
        return None
    # ``repro.serve`` imports its sessions, which import this module.
    from repro.serve.registry import snapshot_descriptor
    from repro.store import CampaignCheckpoint

    return CampaignCheckpoint(
        spec.checkpoint_dir,
        topology=snapshot_descriptor(
            spec.topology,
            fault_profile=spec.fault_profile,
            revelation_technique=revelation_technique,
        ),
        resume=spec.resume,
    )


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

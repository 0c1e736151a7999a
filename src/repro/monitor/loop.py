"""The monitor loop: scheduled epoch re-campaigns over one warehouse.

One :class:`MonitorLoop` owns a private (unfrozen) synthetic internet
and a warehouse directory, and advances them together through
*epochs*:

1. apply the epoch's churn (:class:`~repro.synth.churn.ChurnModel`);
2. ask the :class:`~repro.monitor.staleness.StalenessEngine` which of
   the previous snapshot's candidate pairs went stale;
3. run a checkpointed campaign whose ``carried_pairs`` skip the full
   revelation recursion for the fresh ones;
4. merge the carried pairs' prior revelations back into the result so
   the epoch's ``result.json`` holds the complete tunnel inventory —
   byte-identical to a full re-campaign when churn really was
   confined to the flagged region (pinned by test);
5. write a ``monitor.json`` sidecar (churn events, staleness
   verdicts, probe accounting) next to the snapshot.

Every epoch is its own content-keyed snapshot: the topology
descriptor is stamped with the **chain id** (a hash of everything
that makes the run reproducible) and the epoch number, so the
timeline layer can find and order a chain's snapshots with no extra
index.  Resume is free: completed epochs are recognised by their
snapshot's run status and skipped (after replaying their churn so the
live network state matches), and a partially-written epoch resumes
through the ordinary PR-4 checkpoint machinery bit-identically.

Fault profiles compose, with one restriction: network-mutating (flap)
profiles are rejected — the churn model owns the topology.  The fault
clock is rewound at each epoch boundary so fault patterns are a pure
function of the epoch's own probe sequence, keeping resumed and
uninterrupted chains byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.campaign.orchestrator import Campaign, CampaignConfig
from repro.campaign.stack import RunSpec, probe_backend, write_result
from repro.core.revelation import Revelation, RevelationMethod
from repro.monitor.staleness import StalenessEngine, StalenessReport
from repro.obs import Obs
from repro.probing.prober import Prober
from repro.serve.registry import (
    TopologySpec,
    internet_config,
    render_internet,
)
from repro.store import (
    CampaignCheckpoint,
    CampaignStore,
    campaign_key,
    snapshot_tunnels,
)
from repro.store.layout import MONITOR_SCHEMA, write_json
from repro.synth.churn import (
    ChurnEvent,
    ChurnModel,
    ChurnProfile,
    churn_profile,
)

__all__ = [
    "ChainSpec",
    "MonitorConfig",
    "EpochOutcome",
    "MonitorReport",
    "MonitorLoop",
    "chain_id",
]


def chain_id(config: "MonitorConfig") -> str:
    """Deterministic chain id: a hash of the reproducible knobs.

    A pure function of the config so a fleet supervisor can name a
    chain (for parked/drained ledger rows and warehouse grouping)
    without paying an ``internet_build``.  Besides the topology and
    churn fields it stamps the chain's run-spec identity fields that
    differ from their defaults (:meth:`RunSpec.stamped_identity`), so
    chains that key different snapshots never share an id while
    default chains keep theirs.  Execution knobs (``probe_budget``,
    batching) stay out, so an interrupted chain resumes into the same
    snapshots.
    """
    profile = config.churn_profile
    profile_name = (
        profile if isinstance(profile, str) else profile.name
    )
    identity: Dict[str, object] = {
        "scale": config.scale,
        "seed": config.seed,
        "vantage_points": config.vantage_points,
        "stubs_per_transit": config.stubs_per_transit,
        "churn_profile": profile_name,
        "churn_seed": (
            config.seed
            if config.churn_seed is None
            else config.churn_seed
        ),
        "incremental": config.incremental,
    }
    identity.update(config.run_spec().stamped_identity())
    if config.te_tunnels_per_transit:
        identity["te_tunnels_per_transit"] = (
            config.te_tunnels_per_transit
        )
        identity["te_ttl_propagate"] = config.te_ttl_propagate
    if config.schedule:
        canonical = json.dumps(
            {
                str(epoch): [dict(spec) for spec in specs]
                for epoch, specs in sorted(config.schedule.items())
            },
            sort_keys=True,
        )
        identity["schedule_sha"] = hashlib.sha256(
            canonical.encode()
        ).hexdigest()[:16]
    blob = json.dumps(identity, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass(frozen=True)
class ChainSpec:
    """The fields every monitoring chain shares with a fleet of them.

    :class:`MonitorConfig` (one chain) and
    :class:`~repro.fleet.supervisor.FleetConfig` (N chains over one
    render) both extend it.  The topology and campaign-policy fields
    are a flat copy of a :class:`~repro.campaign.stack.RunSpec`
    (:meth:`run_spec`); its identity fields, the seeds, the churn
    profile and the incremental flag are hashed into the chain id,
    while execution knobs (``probe_budget``) deliberately are not, so
    an interrupted chain resumes into the same snapshots.
    """

    warehouse: str
    epochs: int = 3
    scale: float = 0.3
    seed: int = 2017
    vantage_points: int = 4
    stubs_per_transit: int = 3
    #: Shipped profile name or an explicit :class:`ChurnProfile`.
    churn_profile: Union[str, ChurnProfile] = "gentle"
    #: Churn RNG seed; defaults to ``seed``.  A fleet's chain ``i``
    #: churns with this base plus ``i``.
    churn_seed: Optional[int] = None
    #: False re-reveals every pair every epoch (the control arm the
    #: incremental-safety test and the bench compare against).
    incremental: bool = True
    #: Non-mutating fault profile injected under the campaign (flap
    #: profiles are rejected — churn owns the topology).
    fault_profile: Optional[str] = None
    #: Per-epoch campaign probe budget (evidence probes excluded);
    #: exhausting it stops the chain with a resumable partial epoch.
    probe_budget: Optional[int] = None
    max_retries: int = 0
    breaker_threshold: Optional[int] = None
    te_tunnels_per_transit: int = 0
    te_ttl_propagate: bool = False

    def __post_init__(self) -> None:
        self.run_spec()  # the run spec's range checks

    def run_spec(self) -> RunSpec:
        """The chain's run spec: the topology every epoch measures,
        its campaign policy, and the warehouse as checkpoint root
        (each epoch resumes its own snapshot when it has records)."""
        return RunSpec(
            topology=TopologySpec(
                scale=self.scale,
                seed=self.seed,
                vantage_points=self.vantage_points,
                stubs_per_transit=self.stubs_per_transit,
                te_tunnels_per_transit=self.te_tunnels_per_transit,
                te_ttl_propagate=self.te_ttl_propagate,
            ),
            fault_profile=self.fault_profile,
            max_retries=self.max_retries,
            breaker_threshold=self.breaker_threshold,
            probe_budget=self.probe_budget,
            checkpoint_dir=self.warehouse,
        )


@dataclass(frozen=True)
class MonitorConfig(ChainSpec):
    """Everything one monitoring chain needs to be reproducible."""

    #: Scripted churn events, ``epoch -> [spec, ...]`` (see
    #: :class:`~repro.synth.churn.ChurnModel`); applied before the
    #: profile-driven batch each epoch.
    schedule: Optional[Mapping[int, Sequence[Mapping[str, object]]]] = None


@dataclass
class EpochOutcome:
    """One epoch's ledger entry in a :class:`MonitorReport`."""

    epoch: int
    key: str
    snapshot_dir: str
    partial: bool = False
    resumed: bool = False
    #: True when the epoch was already complete in the warehouse and
    #: only its churn was replayed.
    skipped: bool = False
    pairs: int = 0
    tunnels: int = 0
    pairs_carried: int = 0
    pairs_stale: int = 0
    campaign_probes: int = 0
    evidence_probes: int = 0
    churn_events: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready row for reports and the CLI."""
        return {
            "epoch": self.epoch,
            "key": self.key,
            "snapshot_dir": self.snapshot_dir,
            "partial": self.partial,
            "resumed": self.resumed,
            "skipped": self.skipped,
            "pairs": self.pairs,
            "tunnels": self.tunnels,
            "pairs_carried": self.pairs_carried,
            "pairs_stale": self.pairs_stale,
            "campaign_probes": self.campaign_probes,
            "evidence_probes": self.evidence_probes,
            "churn_events": list(self.churn_events),
        }


@dataclass
class MonitorReport:
    """A monitoring run's outcome: the chain and its epoch ledger."""

    chain: str
    churn_profile: str
    epochs: List[EpochOutcome] = field(default_factory=list)
    partial: bool = False
    stop_reason: Optional[str] = None

    @property
    def completed_epochs(self) -> int:
        """Epochs whose snapshot finished (fresh, resumed or skipped)."""
        return sum(
            1 for outcome in self.epochs if not outcome.partial
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (the CLI's non-timeline output)."""
        return {
            "chain": self.chain,
            "churn_profile": self.churn_profile,
            "partial": self.partial,
            "stop_reason": self.stop_reason,
            "epochs": [outcome.to_dict() for outcome in self.epochs],
        }


class MonitorLoop:
    """Drives churn, staleness and epoch re-campaigns over a warehouse.

    Build one per chain and call :meth:`run`.  The loop is safe to
    re-run with the same config after an interruption: completed
    epochs are skipped (their churn replayed so the live network
    matches), and the interrupted epoch resumes from its checkpoint.
    """

    def __init__(
        self,
        config: MonitorConfig,
        internet=None,
        backend_wrapper=None,
        stop_before_epoch=None,
    ) -> None:
        self.config = config
        self.spec = config.run_spec()
        profile = config.churn_profile
        self.profile: ChurnProfile = (
            churn_profile(profile)
            if isinstance(profile, str)
            else profile
        )
        if config.fault_profile is not None:
            from repro.faults import fault_profile

            if fault_profile(config.fault_profile).mutates_network:
                raise ValueError(
                    f"fault profile {config.fault_profile!r} mutates "
                    "the network; the monitor's churn model owns the "
                    "topology — use a non-flap profile"
                )
        if internet is None:
            internet = render_internet(self.spec.topology)
        else:
            self._check_injected(internet)
        self.internet = internet
        self._backend_wrapper = backend_wrapper
        self._stop_before_epoch = stop_before_epoch
        self.prober = self._build_prober()
        self.obs: Obs = self.prober.obs
        self.churn = ChurnModel(
            self.internet,
            self.profile,
            seed=(
                config.seed
                if config.churn_seed is None
                else config.churn_seed
            ),
            schedule=config.schedule,
        )
        self.store = CampaignStore(config.warehouse)
        self.chain = chain_id(config)
        self._vp_by_name = {vp.name: vp for vp in self.internet.vps}

    def _check_injected(self, internet) -> None:
        """Validate a pre-built internet against this chain's config.

        A fleet chain runs over a copy-on-churn twin checked out from
        the serve registry instead of building its own internet; the
        twin must be mutable (churn owns it) and render from exactly
        the config's topology spec, or the chain would stamp
        snapshots it could never reproduce standalone.
        """
        if internet.network.frozen:
            raise ValueError(
                "monitor chain needs a private unfrozen internet; "
                "shared rendered snapshots are frozen — check out a "
                "copy-on-churn twin (SnapshotRegistry.checkout or "
                "repro fleet) instead"
            )
        expected = internet_config(self.spec.topology)
        if internet.config != expected:
            mismatched = ", ".join(
                name
                for name in vars(expected)
                if getattr(internet.config, name) != getattr(expected, name)
            )
            raise ValueError(
                "injected internet disagrees with the monitor config "
                f"({mismatched}); check out the twin of "
                "config.run_spec().topology"
            )

    # ------------------------------------------------------------------
    # Identity

    def _topology_descriptor(self, epoch: int) -> Dict[str, object]:
        """The snapshot topology stamp for ``epoch``."""
        descriptor = self.spec.checkpoint_topology()
        # Stored chains never carried this field (monitor renders are
        # always the invisible default), so it stays out of their keys.
        del descriptor["ttl_propagate_everywhere"]
        descriptor["monitor"] = {
            "chain": self.chain,
            "epoch": epoch,
            "churn_profile": self.profile.name,
        }
        return descriptor

    # ------------------------------------------------------------------
    # Plumbing

    def _build_prober(self) -> Prober:
        """The chain's prober (fault-wrapped when configured).

        A ``backend_wrapper`` (the fleet's kill-switch/watchdog
        harness) wraps outermost so it sees every probe the campaign
        submits, faults included.
        """
        backend = probe_backend(
            self.internet.engine, self.config.fault_profile
        )
        if self._backend_wrapper is not None:
            backend = self._backend_wrapper(backend)
        return Prober(backend)

    def _epoch_boundary(self) -> None:
        """Reset per-epoch probing state.

        Flushes the response cache (so an epoch never serves replies
        cached by the previous one — a resumed process would not have
        them) and rewinds the fault clock (so fault patterns are a
        pure function of the epoch's own probe sequence).  Budgets
        configured by the previous epoch's campaign are lifted; the
        next campaign installs its own.
        """
        service = self.prober.service
        service.flush_cache()
        service.configure(probe_budget=None, scope_budgets=None)
        restore = getattr(
            self.prober.service.backend, "restore_fault_state", None
        )
        if callable(restore):
            restore({"clock": 0, "flaps_fired": 0})

    def _campaign_config(
        self, carried: Tuple[Tuple[int, int], ...]
    ) -> CampaignConfig:
        """The epoch's campaign config (budget made absolute)."""
        budget = self.spec.probe_budget
        if budget is not None:
            # Service budgets compare against the cumulative probe
            # counter, which spans epochs here — offset so the limit
            # covers this epoch's own campaign probes.
            budget = self.prober.probes_sent + budget
        return self.spec.campaign_config(
            self.internet,
            probe_budget=budget,
            carried_pairs=carried or None,
        )

    def _find_complete_epoch(self, key: str):
        """The epoch's snapshot when it already ran to completion."""
        snapshot = self.store.snapshot_for_key(key)
        if snapshot.exists() and snapshot.completed():
            return snapshot
        return None

    # ------------------------------------------------------------------
    # The loop

    def run(self) -> MonitorReport:
        """Advance the chain through every configured epoch.

        Returns a partial report (with a resume hint in
        ``stop_reason``) when a probe budget stops an epoch midway;
        re-running the same config resumes bit-identically.
        """
        metrics = self.obs.metrics
        report = MonitorReport(
            chain=self.chain, churn_profile=self.profile.name
        )
        previous = None
        for epoch in range(self.config.epochs):
            if (
                self._stop_before_epoch is not None
                and self._stop_before_epoch(epoch)
            ):
                report.partial = True
                report.stop_reason = (
                    f"drained before epoch {epoch}; re-run the same "
                    "monitor command (or resume the fleet) to "
                    "continue the chain"
                )
                return report
            events = (
                self.churn.advance(epoch) if epoch > 0 else []
            )
            metrics.inc("monitor.churn_events", len(events))
            self._epoch_boundary()
            outcome = self._run_epoch(epoch, events, previous)
            report.epochs.append(outcome)
            metrics.inc("monitor.epochs")
            if outcome.partial:
                report.partial = True
                report.stop_reason = (
                    f"epoch {epoch} stopped early (budget); re-run "
                    "the same monitor command to resume the chain"
                )
                return report
            previous = self.store.snapshot_for_key(outcome.key)
        return report

    def _run_epoch(
        self,
        epoch: int,
        events: List[ChurnEvent],
        previous,
    ) -> EpochOutcome:
        """One epoch: staleness, campaign, merge, sidecar."""
        metrics = self.obs.metrics
        churned = ChurnModel.touched_asns(events)
        staleness: Optional[StalenessReport] = None
        carried: Tuple[Tuple[int, int], ...] = ()
        if (
            self.config.incremental
            and epoch > 0
            and previous is not None
        ):
            engine = StalenessEngine(
                self.prober,
                self._vp_by_name,
                self.internet.asn_of_address,
            )
            staleness = engine.assess(previous, churned)
            carried = staleness.carried_pairs
            metrics.inc(
                "monitor.evidence_probes", staleness.probes_spent
            )
        config = self._campaign_config(carried)
        topology = self._topology_descriptor(epoch)
        key = campaign_key(
            topology, config, self.internet.campaign_targets()
        )["key"]
        complete = self._find_complete_epoch(key)
        if complete is not None:
            return self._skipped_outcome(
                epoch, key, complete, events, staleness
            )
        campaign = Campaign(
            self.prober,
            self.internet.vps,
            self.internet.asn_of_address,
            config,
        )
        snapshot = self.store.snapshot_for_key(key)
        resuming = snapshot.exists() and snapshot.has_records()
        checkpoint = CampaignCheckpoint(
            self.store, topology, resume=resuming
        )
        probes_before = self.prober.probes_sent
        result = campaign.run(
            self.internet.campaign_targets(), checkpoint=checkpoint
        )
        outcome = EpochOutcome(
            epoch=epoch,
            key=key,
            snapshot_dir=snapshot.path.name,
            partial=result.partial,
            resumed=resuming,
            pairs=len(result.pairs),
            pairs_carried=sum(
                1
                for revelation in result.revelations.values()
                if revelation.technique == "carried"
            ),
            pairs_stale=(
                staleness.stale_pairs if staleness else 0
            ),
            campaign_probes=self.prober.probes_sent - probes_before,
            evidence_probes=(
                staleness.probes_spent if staleness else 0
            ),
            churn_events=[event.to_dict() for event in events],
        )
        metrics.inc("monitor.pairs_skipped", outcome.pairs_carried)
        metrics.inc(
            "monitor.pairs_reprobed",
            outcome.pairs - outcome.pairs_carried,
        )
        if result.partial:
            metrics.inc("monitor.partial_epochs")
            return outcome
        if carried and previous is not None:
            self._merge_carried(result, previous, carried)
        document = write_result(checkpoint, self.internet, campaign, result)
        outcome.tunnels = len(document.get("tunnels") or [])
        self._write_sidecar(epoch, key, outcome, staleness)
        return outcome

    def _skipped_outcome(
        self,
        epoch: int,
        key: str,
        snapshot,
        events: List[ChurnEvent],
        staleness: Optional[StalenessReport],
    ) -> EpochOutcome:
        """Ledger row for an epoch found complete in the warehouse."""
        self.obs.metrics.inc("monitor.epochs_skipped")
        status = snapshot.run_status() or {}
        result = snapshot.result() or {}
        sidecar = snapshot.sidecar() or {}
        return EpochOutcome(
            epoch=epoch,
            key=key,
            snapshot_dir=snapshot.path.name,
            skipped=True,
            pairs=int(status.get("pairs") or 0),
            tunnels=len(result.get("tunnels") or []),
            pairs_carried=int(sidecar.get("pairs_carried") or 0),
            pairs_stale=int(sidecar.get("pairs_stale") or 0),
            # run.json splits trace/ping spend from revelation spend;
            # the live path measures their sum (the prober delta).
            campaign_probes=(
                int(status.get("probes_sent") or 0)
                + int(status.get("revelation_probes") or 0)
            ),
            evidence_probes=(
                staleness.probes_spent if staleness else 0
            ),
            churn_events=[event.to_dict() for event in events],
        )

    # ------------------------------------------------------------------
    # Carried-forward merge and epoch artefacts

    def _merge_carried(
        self,
        result,
        previous,
        carried: Tuple[Tuple[int, int], ...],
    ) -> None:
        """Substitute prior revelations for the carried pairs.

        The source is the previous epoch's *merged* tunnel inventory
        (its ``result.json``), not its raw revelation records — a
        pair carried across several consecutive epochs would
        otherwise resolve to an empty ``"carried"`` stamp.  Pairs
        absent from the prior inventory were revelation failures;
        they stay empty, exactly as a full re-campaign would leave
        them.
        """
        prior = {
            (tunnel["ingress"], tunnel["egress"]): tunnel
            for tunnel in snapshot_tunnels(previous)
        }
        for pair in carried:
            tunnel = prior.get(pair)
            if tunnel is None:
                continue
            if pair not in result.revelations:
                continue
            result.revelations[pair] = Revelation(
                ingress=pair[0],
                egress=pair[1],
                revealed=list(tunnel.get("revealed") or []),
                method=RevelationMethod(
                    tunnel.get("method") or "none"
                ),
                technique=str(tunnel.get("technique") or "combined"),
            )

    def _write_sidecar(
        self,
        epoch: int,
        key: str,
        outcome: EpochOutcome,
        staleness: Optional[StalenessReport],
    ) -> None:
        """Write the epoch's ``monitor.json`` next to the snapshot."""
        snapshot = self.store.snapshot_for_key(key)
        document: Dict[str, object] = {
            "schema": MONITOR_SCHEMA,
            "kind": "epoch",
            "chain": self.chain,
            "epoch": epoch,
            "churn_profile": self.profile.name,
            "churn_events": list(outcome.churn_events),
            "pairs_carried": outcome.pairs_carried,
            "pairs_stale": outcome.pairs_stale,
            "campaign_probes": outcome.campaign_probes,
            "evidence_probes": outcome.evidence_probes,
            "staleness": (
                [verdict.to_dict() for verdict in staleness.verdicts]
                if staleness
                else []
            ),
        }
        write_json(snapshot.sidecar_path, document)

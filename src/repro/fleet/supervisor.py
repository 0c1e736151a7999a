"""The fleet supervisor: N monitor chains, supervised end to end.

One :class:`FleetSupervisor` runs ``chains`` concurrent monitor
chains (:class:`~repro.monitor.loop.MonitorLoop`) over one shared
warehouse and one shared rendered topology.  Three layers make it a
*fleet* rather than a for-loop:

**Copy-on-churn.**  Each chain checks a private, unfrozen twin of
the shared frozen render out of the serve-layer
:class:`~repro.serve.registry.SnapshotRegistry`
(:meth:`~repro.serve.registry.SnapshotRegistry.checkout`), so the
expensive ``internet_build`` is paid once per fleet while every
chain still churns its own topology — lifting the old restriction
that churn needs a freshly built private internet.  Served tenants
attached to the same render keep their
:class:`~repro.net.topology.FrozenNetworkError` guarantees.

**Supervision.**  Each chain runs under a harness that counts every
probe its campaign submits: a *watchdog* (simulated clock — probe
ticks, not wall time) kills an epoch that exceeds
``epoch_deadline`` probes, and a kill plan injects one-shot
:class:`WorkerKilled` crashes for fault drills.  A killed chain is
restarted with exponential backoff from its PR-4 checkpoints — each
attempt on a **fresh** twin, because the monitor loop replays
completed epochs' churn and a reused twin would double-apply it —
and converges to timelines byte-identical to an unfailed run
(pinned by test).  A chain that dies more than ``restart_budget``
times is *parked*: the fleet keeps going and the parked chain's
missing epochs downgrade the fleet's data-quality grade
(:func:`repro.campaign.degrade.assess_fleet_quality`) instead of
failing the run.

**Drain + aggregation.**  :meth:`FleetSupervisor.request_drain` is
signal-handler safe (the ``repro fleet`` CLI wires it to SIGTERM,
mirroring :meth:`repro.serve.server.ServeClient.request_drain`): every
chain finishes its in-flight epoch, persists resumable state, and
stops at the next epoch boundary.  Whatever the chains leave in the
warehouse, the supervisor folds into one ``repro.fleet/1`` document
(:func:`repro.store.fleet.fold_fleet`) — per-AS churn baselines and
deterministic churn-spike alerts included — and writes it as
``fleet.json``.  The document is a pure function of warehouse
content; restarts, backoff and kills live only in the
:class:`FleetReport` ledger and the ``fleet.*`` counters.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Optional

from repro.monitor.loop import ChainSpec, MonitorConfig, MonitorLoop, chain_id
from repro.obs import Obs
from repro.serve.registry import SnapshotRegistry
from repro.store.fleet import fold_fleet
from repro.store.layout import write_json
from repro.store.warehouse import CampaignStore

__all__ = [
    "ChainOutcome",
    "ChainWorker",
    "FleetConfig",
    "FleetReport",
    "FleetSupervisor",
    "WatchdogExpired",
    "WorkerKilled",
]


class WorkerKilled(RuntimeError):
    """A chain worker was killed mid-epoch (injected fault drill)."""


class WatchdogExpired(RuntimeError):
    """A chain's epoch exceeded its probe deadline (simulated clock)."""


class _ChainHarness:
    """Probe-counting supervision shim around a chain's backend.

    Installed via :class:`~repro.monitor.loop.MonitorLoop`'s
    ``backend_wrapper`` hook, so it wraps *outermost* and sees every
    probe the campaign submits (fault-injected ones included).  Two
    jobs:

    * **kill switch** — raise :class:`WorkerKilled` once the
      cumulative probe count reaches ``kill_after`` (one-shot: the
      switch disarms after firing, and a restarted attempt gets a
      fresh harness without one);
    * **watchdog** — raise :class:`WatchdogExpired` when a single
      epoch submits more than ``epoch_deadline`` probes.  The clock
      is *simulated* (probe ticks, not wall time) so deadline
      behaviour is deterministic and testable; the supervisor resets
      it at every epoch boundary via :meth:`start_epoch`.  Restarts
      make progress because resumed epochs replay completed records
      with ~zero live probes.

    Both exceptions deliberately escape ``Campaign.run`` (which
    catches only budget stops), leaving a valid flushed checkpoint
    prefix behind — that is the whole crash-recovery contract.
    """

    def __init__(
        self,
        kill_after: Optional[int] = None,
        epoch_deadline: Optional[int] = None,
    ) -> None:
        self._inner = None
        self.kill_after = kill_after
        self.epoch_deadline = epoch_deadline
        self.total_probes = 0
        self.epoch_probes = 0

    def wrap(self, backend):
        """``backend_wrapper`` hook: adopt the chain's backend."""
        self._inner = backend
        return self

    def start_epoch(self) -> None:
        """Epoch boundary: rewind the watchdog's simulated clock."""
        self.epoch_probes = 0

    def submit(self, request):
        """Count one probe, then delegate (or die before submitting)."""
        self.total_probes += 1
        self.epoch_probes += 1
        if (
            self.kill_after is not None
            and self.total_probes >= self.kill_after
        ):
            self.kill_after = None
            raise WorkerKilled(
                f"injected worker kill after probe {self.total_probes}"
            )
        if (
            self.epoch_deadline is not None
            and self.epoch_probes > self.epoch_deadline
        ):
            raise WatchdogExpired(
                f"epoch exceeded its watchdog deadline of "
                f"{self.epoch_deadline} probes"
            )
        return self._inner.submit(request)

    def __getattr__(self, name):
        # Everything else (fault-state save/restore, cache hooks)
        # passes through to the wrapped backend.
        return getattr(self._inner, name)


@dataclass(frozen=True)
class FleetConfig(ChainSpec):
    """Everything a reproducible fleet run needs.

    The per-chain fields are :class:`~repro.monitor.loop.ChainSpec`'s;
    chain ``i`` gets ``churn_seed + i`` so every chain shares one
    rendered topology (one ``internet_build`` per fleet) while
    churning it differently.  Chain 0's config is byte-for-byte what
    a standalone ``repro monitor`` run with the same knobs would use,
    so its chain id — and its snapshots — are shared between the two
    front ends.

    Supervision knobs (``restart_budget``, backoff, deadline,
    ``max_workers``) steer execution only: they are absent from
    chain ids, so a crashed fleet resumes into the same snapshots
    whatever supervision it restarts under.
    """

    chains: int = 3
    #: Deaths tolerated per chain before it is parked.
    restart_budget: int = 3
    backoff_base_ms: float = 25.0
    backoff_cap_ms: float = 2000.0
    #: Watchdog: max probes one epoch may submit (None = no watchdog).
    epoch_deadline: Optional[int] = None
    #: Worker threads; None runs every chain concurrently.
    max_workers: Optional[int] = None
    alert_factor: float = 2.0
    alert_min_events: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.chains < 1:
            raise ValueError("fleet needs at least one chain")
        if self.restart_budget < 0:
            raise ValueError("restart_budget must be >= 0")
        if (
            self.epoch_deadline is not None
            and self.epoch_deadline < 1
        ):
            raise ValueError("epoch_deadline must be >= 1")
        for name in ("backoff_base_ms", "backoff_cap_ms"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")

    def monitor_config(self, index: int) -> MonitorConfig:
        """Chain ``index``'s monitor config (distinct churn seed)."""
        shared = {
            spec_field.name: getattr(self, spec_field.name)
            for spec_field in fields(ChainSpec)
        }
        base = self.seed if self.churn_seed is None else self.churn_seed
        shared["churn_seed"] = base + index
        return MonitorConfig(**shared)

    def chain_ids(self) -> List[str]:
        """Every chain's deterministic id, in index order."""
        return [
            chain_id(self.monitor_config(index))
            for index in range(self.chains)
        ]


class ChainWorker:
    """One run attempt of one chain: twin checkout + monitor loop.

    Built fresh per attempt: the monitor loop replays completed
    epochs' churn on resume, so a twin that already churned must
    never be reused — a second run over it would double-apply churn
    and break byte-identity.
    """

    def __init__(
        self,
        config: FleetConfig,
        index: int,
        registry: SnapshotRegistry,
        kill_after: Optional[int] = None,
        drain: Optional[threading.Event] = None,
    ) -> None:
        self.index = index
        self.monitor_config = config.monitor_config(index)
        self._drain = drain
        self.harness = _ChainHarness(
            kill_after=kill_after,
            epoch_deadline=config.epoch_deadline,
        )
        twin = registry.checkout(config.run_spec().topology)
        self.loop = MonitorLoop(
            self.monitor_config,
            internet=twin,
            backend_wrapper=self.harness.wrap,
            stop_before_epoch=self._epoch_boundary,
        )
        self.chain = self.loop.chain

    def _epoch_boundary(self, epoch: int) -> bool:
        """Per-epoch hook: rewind the watchdog, honour a drain."""
        self.harness.start_epoch()
        return self._drain is not None and self._drain.is_set()

    def run(self):
        """Run the chain; crash exceptions propagate to the
        supervisor's retry loop."""
        return self.loop.run()


@dataclass
class ChainOutcome:
    """One chain's ledger row in a :class:`FleetReport`."""

    index: int
    chain: str
    #: ``completed`` | ``partial`` | ``drained`` | ``parked``
    status: str = "completed"
    epochs_completed: int = 0
    restarts: int = 0
    injected_kills: int = 0
    watchdog_kills: int = 0
    backoff_ms_total: float = 0.0
    #: Every death's message, in order (crash forensics).
    failures: List[str] = field(default_factory=list)
    stop_reason: Optional[str] = None
    #: The last attempt's monitor report (None when every attempt
    #: died before returning one).
    report: Optional[object] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready row for the CLI ledger."""
        return {
            "index": self.index,
            "chain": self.chain,
            "status": self.status,
            "epochs_completed": self.epochs_completed,
            "restarts": self.restarts,
            "injected_kills": self.injected_kills,
            "watchdog_kills": self.watchdog_kills,
            "backoff_ms_total": round(self.backoff_ms_total, 3),
            "failures": list(self.failures),
            "stop_reason": self.stop_reason,
        }


@dataclass
class FleetReport:
    """A fleet run's outcome: per-chain ledger plus the aggregate."""

    chains: List[ChainOutcome] = field(default_factory=list)
    drained: bool = False
    #: The folded ``repro.fleet/1`` document (also on disk as
    #: ``fleet.json`` in the warehouse).
    document: Optional[dict] = None

    @property
    def parked(self) -> List[ChainOutcome]:
        """Chains that exhausted their restart budget."""
        return [
            outcome
            for outcome in self.chains
            if outcome.status == "parked"
        ]

    @property
    def completed(self) -> bool:
        """Did every chain finish every epoch?"""
        return all(
            outcome.status == "completed"
            for outcome in self.chains
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (the CLI's ``--json`` output)."""
        return {
            "drained": self.drained,
            "completed": self.completed,
            "chains": [
                outcome.to_dict() for outcome in self.chains
            ],
            "document": self.document,
        }


class FleetSupervisor:
    """Runs and supervises a fleet of monitor chains.

    ``kill_plan`` maps chain index to a cumulative probe count at
    which that chain's *first* attempt is hard-killed
    (:class:`WorkerKilled`) — the fault-drill hook behind the CLI's
    ``--kill-chain`` and the soak harness.  ``registry`` may be
    shared with a live :class:`~repro.serve.server.ServeClient`:
    checkouts reuse its renders without thawing them.
    """

    def __init__(
        self,
        config: FleetConfig,
        registry: Optional[SnapshotRegistry] = None,
        obs: Optional[Obs] = None,
        kill_plan: Optional[Mapping[int, int]] = None,
    ) -> None:
        self.config = config
        self.obs = obs if obs is not None else Obs()
        self.registry = (
            registry
            if registry is not None
            else SnapshotRegistry(obs=self.obs)
        )
        self.kill_plan = dict(kill_plan or {})
        self._drain = threading.Event()

    # ------------------------------------------------------------------

    def request_drain(self) -> None:
        """Signal-handler-safe graceful stop (does not block).

        Every chain finishes its in-flight epoch, persists resumable
        state, and stops at the next epoch boundary; dead chains are
        not restarted.  Mirrors ``ServeClient.request_drain`` for the
        fleet's chain workers.
        """
        self._drain.set()

    @property
    def draining(self) -> bool:
        """Has a drain been requested?"""
        return self._drain.is_set()

    # ------------------------------------------------------------------

    def _backoff_ms(self, deaths: int) -> float:
        """Exponential backoff for restart attempt ``deaths``."""
        return min(
            self.config.backoff_cap_ms,
            self.config.backoff_base_ms * (2 ** (deaths - 1)),
        )

    def _run_chain(self, index: int) -> ChainOutcome:
        """One chain's supervised lifecycle (worker thread).

        Retry loop: run, and on a death (injected kill, watchdog,
        or any other crash) restart from the warehouse checkpoints
        with exponential backoff — on a *fresh* twin — until the
        chain finishes, a drain lands, or the restart budget is
        exhausted and the chain parks.
        """
        config = self.config
        outcome = ChainOutcome(
            index=index,
            chain=chain_id(config.monitor_config(index)),
        )
        kill_after = self.kill_plan.get(index)
        deaths = 0
        while True:
            try:
                worker = ChainWorker(
                    config,
                    index,
                    self.registry,
                    kill_after=kill_after,
                    drain=self._drain,
                )
            except Exception:
                if deaths == 0:
                    # First construction failed: a config error, not
                    # a crash — restarting cannot help.  Fail fast.
                    raise
                deaths += 1
                outcome.failures.append(
                    "worker construction failed on restart"
                )
                worker = None
            if worker is None:
                report = None
            else:
                kill_after = None  # one-shot: never re-arm
                try:
                    report = worker.run()
                except WorkerKilled as exc:
                    deaths += 1
                    outcome.injected_kills += 1
                    outcome.failures.append(str(exc))
                    report = None
                except WatchdogExpired as exc:
                    deaths += 1
                    outcome.watchdog_kills += 1
                    outcome.failures.append(str(exc))
                    report = None
                except Exception as exc:  # noqa: BLE001 - supervised
                    deaths += 1
                    outcome.failures.append(
                        f"{type(exc).__name__}: {exc}"
                    )
                    report = None
            if report is not None:
                outcome.report = report
                outcome.epochs_completed = report.completed_epochs
                if report.partial:
                    reason = report.stop_reason or ""
                    outcome.status = (
                        "drained" if "drained" in reason else "partial"
                    )
                    outcome.stop_reason = report.stop_reason
                else:
                    outcome.status = "completed"
                return outcome
            # A death landed.  Park, drain, or back off and retry.
            if deaths > config.restart_budget:
                outcome.status = "parked"
                outcome.stop_reason = (
                    f"parked after {deaths} deaths (restart budget "
                    f"{config.restart_budget}); completed epochs stay "
                    "in the warehouse and degrade the fleet grade"
                )
                return outcome
            if self._drain.is_set():
                outcome.status = "drained"
                outcome.stop_reason = (
                    "drain requested while the chain was down; "
                    "resume the fleet to continue"
                )
                return outcome
            outcome.restarts += 1
            backoff = self._backoff_ms(deaths)
            outcome.backoff_ms_total += backoff
            time.sleep(backoff / 1000.0)

    # ------------------------------------------------------------------

    def run(self) -> FleetReport:
        """Run every chain to its end state and fold the fleet.

        Always writes ``fleet.json``: whatever the chains managed —
        including a crash-storm where some parked — the warehouse
        fold and its data-quality grade reflect it.
        """
        config = self.config
        workers = config.max_workers or config.chains
        with ThreadPoolExecutor(
            max_workers=max(1, workers),
            thread_name_prefix="repro-fleet",
        ) as pool:
            futures = [
                pool.submit(self._run_chain, index)
                for index in range(config.chains)
            ]
            outcomes = [future.result() for future in futures]

        document = fold_fleet(
            config.warehouse,
            chains=[outcome.chain for outcome in outcomes],
            expected_epochs=config.epochs,
            alert_factor=config.alert_factor,
            alert_min_events=config.alert_min_events,
        )
        write_json(CampaignStore(config.warehouse).fleet_path, document)
        # Backfill epoch coverage from the fold: a parked chain's
        # attempts may all have died, yet its completed epochs are
        # in the warehouse and should show in the ledger.
        by_chain = {
            row["chain"]: row for row in document["chains"]
        }
        for outcome in outcomes:
            row = by_chain.get(outcome.chain)
            if row is not None:
                outcome.epochs_completed = int(
                    row["epochs_completed"]
                )

        metrics = self.obs.metrics
        metrics.inc("fleet.chains", len(outcomes))
        for status in ("completed", "partial", "drained", "parked"):
            count = sum(
                1
                for outcome in outcomes
                if outcome.status == status
            )
            if count:
                metrics.inc(f"fleet.chains_{status}", count)
        metrics.inc(
            "fleet.restarts",
            sum(outcome.restarts for outcome in outcomes),
        )
        metrics.inc(
            "fleet.injected_kills",
            sum(outcome.injected_kills for outcome in outcomes),
        )
        metrics.inc(
            "fleet.watchdog_kills",
            sum(outcome.watchdog_kills for outcome in outcomes),
        )
        metrics.inc(
            "fleet.epochs_completed",
            sum(outcome.epochs_completed for outcome in outcomes),
        )
        metrics.inc("fleet.alerts", len(document["alerts"]))

        return FleetReport(
            chains=outcomes,
            drained=self._drain.is_set(),
            document=document,
        )

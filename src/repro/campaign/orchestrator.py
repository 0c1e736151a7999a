"""Measurement campaign orchestration (Sec. 4).

A :class:`Campaign` drives the full measurement pipeline over a
synthetic Internet:

1. traceroute every (vantage point, destination) pair — Paris
   traceroute with ICMP echo probes starting at TTL 2;
2. ping every address discovered, for TTL fingerprinting;
3. extract candidate Ingress–Egress pairs from trace tails
   (``..., X, Y, D`` with X and Y in the same suspicious AS);
4. run the DPR/BRPR revelation recursion on each pair.

The result object carries raw traces, pings, revelations, and ready
analyzers (signatures, FRPLA, RTLA) for the experiment code.

:meth:`Campaign.run` optionally takes a *checkpoint* (see
:mod:`repro.store`): every completed traceroute, fingerprint ping,
and pair revelation is persisted as it finishes, and a resumed run
replays the restored prefix of each phase before probing the
remainder live — producing a result bit-identical to an
uninterrupted run, measurement counters included.
"""

from __future__ import annotations

import logging
import os
import shlex
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.campaign.degrade import CircuitBreaker, assess_data_quality
from repro.core.frpla import FrplaAnalyzer
from repro.core.revelation import (
    Revelation,
    candidate_endpoints,
    reveal_tunnel,
)
from repro.core.rtla import RtlaAnalyzer
from repro.core.signatures import SignatureInventory
from repro.core.technique import (
    TechniqueRegistry,
    TriggerContext,
    default_techniques,
)
from repro.measure.service import BudgetExceeded
from repro.net.router import Router
from repro.obs import EventLog, MetricsRegistry, Obs, Tracer
from repro.probing.prober import PingResult, Prober, Trace

__all__ = [
    "CampaignConfig", "CandidatePair", "PerfStats", "CampaignResult",
    "Campaign",
]

logger = logging.getLogger(__name__)

#: Registry counters (under ``engine.``) snapshotted into
#: :class:`PerfStats` as whole-run deltas.
_ENGINE_COUNTERS = (
    "trajectory_hits", "trajectory_misses", "hops_walked",
    "packets_simulated",
)

#: Measurement counters whose whole-run deltas feed the data-quality
#: grade (see :func:`repro.campaign.degrade.assess_data_quality`).
_QUALITY_COUNTERS = (
    "measure.probes",
    "probe.reply.none",
    "measure.quarantined",
    "faults.injected",
    "measure.retries",
    "measure.retries_exhausted",
    "campaign.pings_parked",
)


@dataclass(frozen=True)
class CampaignConfig:
    """Campaign parameters."""

    start_ttl: int = 2  #: the paper starts probing at TTL 2
    teams: int = 5  #: VP teams sharing the destination set
    probing_rate_pps: float = 25.0  #: scamper rate in the paper
    max_revelation_steps: int = 12
    #: Only keep candidate pairs whose endpoints both map to one of
    #: these ASes (the "suspicious" MPLS transits).  None = any AS.
    suspicious_asns: Optional[Tuple[int, ...]] = None
    #: Optional HDN address filter: when set, X and Y must be in it.
    hdn_addresses: Optional[frozenset] = None
    ping_discovered: bool = True
    #: Global probe budget for the whole campaign; None = unlimited.
    #: An exhausted budget stops the run cleanly with a partial result
    #: (``CampaignResult.partial``).
    probe_budget: Optional[int] = None
    #: Per-scope probe budgets as (scope, limit) pairs — scopes are
    #: the phase names plus the technique registry's scopes
    #: ("revelation"/"dpr"/"brpr", "tnt" for the TNT pipeline).
    scope_budgets: Optional[Tuple[Tuple[str, int], ...]] = None
    #: Retries per probe on timeout (``*`` hops), applied by the
    #: measurement service.
    max_retries: int = 0
    #: Base wall-clock backoff between retries, doubled per attempt.
    retry_backoff_ms: float = 0.0
    #: Response-cache mode for the measurement service.  ``"ping"``
    #: dedupes cross-phase re-pings of addresses whose replies were
    #: already observed (see ``campaign.pings_saved``).
    cache_mode: str = "ping"
    #: Quarantine anomalous replies (malformed RFC 4950 stacks, bogus
    #: TTLs, spoofed sources) before they reach the analyzers — see
    #: :mod:`repro.measure.sanitize`.
    sanitize_replies: bool = True
    #: Consecutive fingerprint-ping losses before the circuit breaker
    #: parks a target (revisited once at phase end); None disables
    #: parking.
    breaker_threshold: Optional[int] = None
    #: Registry name of the revelation technique driving the
    #: revelation phase.  None keeps the classic behaviour — the
    #: untriggered combined DPR/BRPR recursion on every candidate
    #: pair.  A named technique (e.g. ``"tnt"``) runs its trigger on
    #: each pair first and only reveals the pairs that fire; skipped
    #: pairs get an empty, technique-stamped revelation so checkpoint
    #: indices stay aligned with the pair list.
    revelation_technique: Optional[str] = None
    #: Candidate pairs whose revelation the caller carries forward
    #: from an earlier snapshot (the monitor's incremental path):
    #: listed ``(ingress, egress)`` pairs skip the revelation
    #: recursion and get an empty revelation stamped
    #: ``technique="carried"`` — the monitor substitutes the prior
    #: epoch's revelation afterwards.  None (the default) reveals
    #: every pair; the field is omitted from the snapshot identity
    #: when None so pre-monitor campaign keys are preserved.
    carried_pairs: Optional[Tuple[Tuple[int, int], ...]] = None


@dataclass
class PerfStats:
    """Performance observability for one campaign run.

    Populated from the campaign's :class:`~repro.obs.metrics.\
MetricsRegistry` (whole-run ``engine.*`` counter deltas, plus the
    per-phase attribution recorded by ``Campaign._phase``); the public
    field shape is stable so reports and older callers keep working.
    Wall-clock is recorded per pipeline phase; the engine counters are
    deltas over the run, so ``hit_rate`` shows how much of the run was
    served from the trajectory cache.
    """

    #: Phase name ("trace", "ping", "extract", "revelation") to
    #: wall-clock seconds spent in it.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Phase name to its engine counter deltas (currently
    #: ``trajectory_hits`` / ``trajectory_misses``) — the per-phase
    #: cache attribution the registry records as
    #: ``phase.<name>.trajectory_hits`` etc.
    phase_counters: Dict[str, Dict[str, int]] = field(
        default_factory=dict
    )
    trajectory_hits: int = 0  #: engine cache hits during the run
    trajectory_misses: int = 0  #: engine cache misses during the run
    hops_walked: int = 0  #: per-hop walk steps executed
    packets_simulated: int = 0  #: packets simulated (probes + replies)
    retries: int = 0  #: timeout re-probes issued by the service
    retries_exhausted: int = 0  #: probes still unanswered after them

    @property
    def hit_rate(self) -> float:
        """Trajectory-cache hit fraction (0.0 when unused)."""
        total = self.trajectory_hits + self.trajectory_misses
        return self.trajectory_hits / total if total else 0.0

    @property
    def total_seconds(self) -> float:
        """Wall-clock total across all recorded phases."""
        return sum(self.phase_seconds.values())


@dataclass
class CandidatePair:
    """One candidate invisible tunnel: trace tail ``X, Y, D``."""

    vp: str  #: observing vantage point (router name)
    ingress: int  #: X
    egress: int  #: Y
    asn: int  #: common AS of X and Y
    trace: Trace  #: the original transit trace


@dataclass
class CampaignResult:
    """Everything a campaign produced.

    ``==`` is the one definition of "the same campaign outcome": every
    field compares except ``perf`` and ``checkpoint_dir``, and the
    signature inventory and RTLA analyzer compare by value.  Resume,
    serve and fleet identity checks use it, plus the measurement
    counters.
    """

    traces: List[Trace] = field(default_factory=list)
    pings: Dict[int, PingResult] = field(default_factory=dict)
    pairs: List[CandidatePair] = field(default_factory=list)
    #: (ingress, egress) -> revelation outcome
    revelations: Dict[Tuple[int, int], Revelation] = field(
        default_factory=dict
    )
    inventory: SignatureInventory = field(default_factory=SignatureInventory)
    rtla: RtlaAnalyzer = field(default_factory=RtlaAnalyzer)
    probes_sent: int = 0
    revelation_probes: int = 0
    #: Quarantined-reply records, in measurement order (see
    #: :mod:`repro.measure.sanitize`) — part of result equality so a
    #: resumed run must reproduce them exactly.
    quarantine: List[dict] = field(default_factory=list)
    #: Data-quality annotation (``repro.quality/1``) graded from this
    #: run's measurement counters — see
    #: :func:`repro.campaign.degrade.assess_data_quality`.
    data_quality: Dict[str, object] = field(default_factory=dict)
    #: True when the run stopped early (probe budget exhausted); the
    #: populated phases still hold valid partial measurements.
    partial: bool = False
    #: Human-readable reason the run stopped early, when it did.
    stop_reason: Optional[str] = None
    #: Snapshot directory when the run was checkpointed (excluded
    #: from equality: a resumed result must equal its uninterrupted
    #: twin, which never had a checkpoint).
    checkpoint_dir: Optional[str] = field(default=None, compare=False)
    #: Timings and cache counters; excluded from equality so two runs
    #: of the same campaign compare equal however fast each ran.
    perf: PerfStats = field(default_factory=PerfStats, compare=False)

    # ------------------------------------------------------------------

    def successful_revelations(self) -> List[Revelation]:
        """Revelations that exposed at least one hidden hop."""
        return [r for r in self.revelations.values() if r.success]

    def duration_estimate_seconds(
        self, rate_pps: float = 25.0, teams: int = 5
    ) -> float:
        """Wall-clock estimate for the whole campaign.

        Teams probe concurrently at ``rate_pps`` each (the paper ran
        scamper at 25 packets/second per VP set; its five sets took 11
        to 18 days over 1.3M destinations).
        """
        if rate_pps <= 0 or teams < 1:
            raise ValueError("rate and team count must be positive")
        total = self.probes_sent + self.revelation_probes
        return total / (rate_pps * teams)

    def stop_summary(
        self, command: str = "repro campaign"
    ) -> Optional[str]:
        """One-line account of an early stop, with a resume hint.

        None for complete runs.  When the run was checkpointed the
        summary says where the snapshot lives and how to resume it —
        ``command`` plus ``--resume``, so pass the command line that
        keys the same snapshot; otherwise it points at
        ``--checkpoint`` so the *next* interruption is recoverable.
        """
        if not self.partial:
            return None
        reason = self.stop_reason or "stopped early"
        if self.checkpoint_dir:
            root = os.path.dirname(
                self.checkpoint_dir.rstrip("/")
            ) or self.checkpoint_dir
            return (
                f"{reason}; progress is checkpointed in "
                f"{self.checkpoint_dir} — resume with: "
                f"{command} --resume {shlex.quote(root)}"
            )
        return (
            f"{reason}; progress was not checkpointed — add "
            "--checkpoint DIR to make interrupted runs resumable"
        )


class Campaign:
    """Runs the Sec. 4 pipeline against a simulated Internet."""

    def __init__(
        self,
        prober: Prober,
        vantage_points: Sequence[Router],
        asn_of: Callable[[int], Optional[int]],
        config: Optional[CampaignConfig] = None,
        techniques: Optional[TechniqueRegistry] = None,
    ) -> None:
        if not vantage_points:
            raise ValueError("campaign needs at least one vantage point")
        self.prober = prober
        self.vps = list(vantage_points)
        self.asn_of = asn_of
        self.config = config or CampaignConfig()
        #: The technique registry everything per-technique routes
        #: through: revelation dispatch, degrade grading, analyzers.
        self.techniques = (
            techniques if techniques is not None else default_techniques()
        )
        name = self.config.revelation_technique
        if name is not None:
            technique = self.techniques.get(name)  # raises on unknown
            if technique.reveal is None:
                raise ValueError(
                    f"technique {name!r} has no revelation strategy"
                )
        self._vp_by_name = {vp.name: vp for vp in self.vps}
        #: One observability bundle for the whole campaign stack —
        #: shared with the prober/engine when they have one, so every
        #: layer records into a single metrics registry.
        self.obs: Obs = getattr(prober, "obs", None) or Obs()
        #: The prober's measurement service (None for duck-typed
        #: probers); the campaign installs its policy on it.
        self.service = getattr(prober, "service", None)
        if self.service is not None:
            self.service.configure(
                probe_budget=self.config.probe_budget,
                scope_budgets=(
                    dict(self.config.scope_budgets)
                    if self.config.scope_budgets
                    else None
                ),
                max_retries=self.config.max_retries,
                retry_backoff_ms=self.config.retry_backoff_ms,
                cache_mode=self.config.cache_mode,
                sanitize=self.config.sanitize_replies,
                address_validator=(
                    self._known_address
                    if self.config.sanitize_replies
                    else None
                ),
            )

    def _known_address(self, address: int) -> bool:
        """Does ``address`` belong to the campaign's address space?
        (The sanitizer's spoofed-source check — a responder outside
        the IP-to-AS view cannot be a real router of the measured
        Internet.)"""
        return self.asn_of(address) is not None

    # ------------------------------------------------------------------
    # Phases

    def run(
        self, destinations: Sequence[int], checkpoint=None
    ) -> CampaignResult:
        """Full pipeline: trace, ping, extract pairs, reveal.

        ``checkpoint`` (a
        :class:`repro.store.checkpoint.CampaignCheckpoint`, duck
        typed to keep the layering one-way) persists each completed
        work item and, when resuming, replays the restored prefix of
        every phase so only the remainder is probed live.  The
        resumed result — revelations, analyzers, probe counts, and
        measurement counters alike — is bit-identical to an
        uninterrupted run.
        """
        logger.info(
            "campaign start: %d destinations, %d VPs",
            len(destinations), len(self.vps),
        )
        result = CampaignResult()
        result.rtla.bind_obs(self.obs)
        metrics = self.obs.metrics
        metrics.inc("campaign.runs")
        if self.service is not None:
            # Response caching is per run: a fresh run must never
            # serve replies measured by a previous one — likewise the
            # quarantine log (a resume re-imports the interrupted
            # run's records below).
            self.service.flush_cache()
            self.service.clear_quarantine()
        cache_hits_before = metrics.get("measure.cache.hits")
        # Baselines for the data-quality grade: taken before a resume
        # restores the interrupted run's counters, so the final deltas
        # cover the *whole* logical run either way.
        quality_before = {
            name: metrics.get(name) for name in _QUALITY_COUNTERS
        }
        if checkpoint is not None:
            # After the flush (a resume *re-imports* the interrupted
            # run's cache) and after the cache-hit baseline (restored
            # hit counters must land in the ``pings_saved`` window).
            checkpoint.begin(self, destinations, result)
        counters = self._engine_counters()
        with self.obs.tracer.span(
            "campaign.run", destinations=len(destinations),
        ):
            try:
                with self._phase(result, "trace"):
                    self.trace_phase(destinations, result, checkpoint)
                if self.config.ping_discovered:
                    with self._phase(result, "ping"):
                        self.ping_phase(result, checkpoint)
                with self._phase(result, "extract"):
                    self.extract_pairs(result)
                    if checkpoint is not None:
                        checkpoint.record_pairs(result)
                with self._phase(result, "revelation"):
                    self.revelation_phase(result, checkpoint)
            except BudgetExceeded as exc:
                # A clean early stop: keep everything measured so far
                # and report why the remainder is missing.
                result.partial = True
                result.stop_reason = str(exc)
                metrics.inc("campaign.partial_runs")
                if self.obs.events.info:
                    self.obs.events.emit(
                        "campaign.partial", reason=str(exc),
                        scope=exc.scope, budget=exc.budget,
                    )
                logger.warning("campaign stopped early: %s", exc)
        for name, end in self._engine_counters().items():
            setattr(result.perf, name, end - counters[name])
        metrics.inc(
            "campaign.pings_saved",
            metrics.get("measure.cache.hits") - cache_hits_before,
        )
        metrics.inc("campaign.traces", len(result.traces))
        metrics.inc("campaign.pings", len(result.pings))
        metrics.inc("campaign.pairs", len(result.pairs))
        metrics.inc(
            "campaign.revelations.success",
            len(result.successful_revelations()),
        )
        metrics.inc("campaign.probes", result.probes_sent)
        metrics.inc("campaign.revelation_probes", result.revelation_probes)
        if self.service is not None:
            result.quarantine = [
                dict(record)
                for record in self.service.quarantine_records
            ]
        quality_deltas = {
            name: metrics.get(name) - quality_before[name]
            for name in _QUALITY_COUNTERS
        }
        result.data_quality = assess_data_quality(
            result, quality_deltas, techniques=self.techniques
        )
        result.perf.retries = quality_deltas["measure.retries"]
        result.perf.retries_exhausted = quality_deltas[
            "measure.retries_exhausted"
        ]
        if checkpoint is not None:
            checkpoint.finish(result)
        logger.info(
            "campaign done: %d traces, %d pairs, %d revealed, %.3fs",
            len(result.traces), len(result.pairs),
            len(result.successful_revelations()),
            result.perf.total_seconds,
        )
        return result

    @staticmethod
    def _restored(checkpoint, phase: str) -> int:
        """Restored-record count for ``phase`` (0 without one)."""
        if checkpoint is None:
            return 0
        return checkpoint.restored_count(phase)

    @contextmanager
    def _quiet_replay(self, result: CampaignResult):
        """Replay restored observations without re-counting them.

        The RTLA analyzer increments measurement counters inside
        ``add_trace``/``add_ping``; a resumed run restores those
        totals from the checkpoint, so the replayed prefix must feed
        the analyzers through a throwaway registry or every restored
        observation would be counted twice.
        """
        scratch_events = EventLog()
        result.rtla.bind_obs(
            Obs(MetricsRegistry(), scratch_events, Tracer(scratch_events))
        )
        try:
            yield
        finally:
            result.rtla.bind_obs(self.obs)

    def trace_phase(
        self,
        destinations: Sequence[int],
        result: CampaignResult,
        checkpoint=None,
    ) -> None:
        """Traceroute each destination from its team's VPs.

        With a checkpoint, traces restored from the snapshot are
        replayed through the analyzers first (no probing), and each
        live trace is recorded as soon as it completes — probe
        accounting is brought up to date *before* the record is
        written so the checkpointed state matches the result state.
        """
        teams = self._team_assignment(destinations)
        restored = self._restored(checkpoint, "trace")
        if restored:
            with self._quiet_replay(result):
                for index in range(min(restored, len(teams))):
                    trace = checkpoint.restored_trace(index)
                    result.traces.append(trace)
                    result.inventory.observe_trace(trace)
                    result.rtla.add_trace(trace)
        before = self.prober.probes_sent
        try:
            for index, (vp, dst) in enumerate(teams):
                if index < restored:
                    continue
                trace = self.prober.traceroute(
                    vp, dst, start_ttl=self.config.start_ttl
                )
                result.probes_sent += self.prober.probes_sent - before
                before = self.prober.probes_sent
                result.traces.append(trace)
                result.inventory.observe_trace(trace)
                result.rtla.add_trace(trace)
                if checkpoint is not None:
                    checkpoint.record_trace(index, trace)
        finally:
            # Account even when a probe budget stops the phase early
            # (probes spent on the aborted item are real spend, but
            # are never checkpointed — a resume re-runs that item).
            result.probes_sent += self.prober.probes_sent - before

    def ping_phase(
        self, result: CampaignResult, checkpoint=None
    ) -> None:
        """Ping every address seen in the traces (fingerprinting).

        Each address is pinged from *every* vantage point that saw it:
        RTLA pairs time-exceeded and echo-reply observations per VP,
        so a ping from a different VP would be useless to it.

        ``result.pings`` keeps the *first responsive* ping per address
        (an unresponsive placeholder is upgraded once), so the mapping
        is deterministic under any shard/merge order.

        The pair set includes trace *destinations*, whose echo-replies
        the trace phase already observed — historically those were
        re-probed on the wire.  With ping caching on (the campaign
        default) the measurement service serves them from replies
        seeded during the trace phase; the saved probes surface as the
        ``campaign.pings_saved`` counter.

        With ``CampaignConfig.breaker_threshold`` set, a per-target
        circuit breaker parks addresses that missed that many pings in
        a row: parked targets get a synthesized timeout instead of a
        probe (``campaign.pings_parked``), and every parked address is
        revisited with one real probe at phase end
        (``campaign.pings_revisited``) — so a transiently blacked-out
        router still gets a chance to upgrade its placeholder.  Parked
        and revisit pings are checkpointed like any other; a resume
        re-derives the breaker's decisions from the recorded outcomes.
        """
        pairs = sorted(self._ping_pairs(result))
        restored = self._restored(checkpoint, "ping")
        breaker = (
            CircuitBreaker(self.config.breaker_threshold)
            if self.config.breaker_threshold is not None
            else None
        )
        parked: List[Tuple[str, int]] = []
        metrics = self.obs.metrics
        if restored:
            with self._quiet_replay(result):
                for index in range(restored):
                    vp_name, address, ping = (
                        checkpoint.restored_ping(index)
                    )
                    if index < len(pairs) and breaker is not None:
                        # Re-derive the interrupted run's breaker
                        # decisions from the recorded outcomes — the
                        # breaker is deterministic, so the parked set
                        # rebuilds exactly (counters were restored
                        # from the checkpoint, so none are re-bumped
                        # here).
                        if breaker.tripped(address):
                            parked.append((vp_name, address))
                        breaker.record(address, ping.responded)
                    self._take_ping(result, address, ping)
        before = self.prober.probes_sent
        try:
            for index, (vp_name, address) in enumerate(pairs):
                if index < restored:
                    continue
                if breaker is not None and breaker.tripped(address):
                    # Parked: synthesize the loss without burning a
                    # probe; the phase-end revisit below is its one
                    # real retry.
                    ping = PingResult(
                        dst=address, responded=False, source=vp_name
                    )
                    parked.append((vp_name, address))
                    metrics.inc("campaign.pings_parked")
                else:
                    ping = self.prober.ping(
                        self._vp_by_name[vp_name], address
                    )
                result.probes_sent += self.prober.probes_sent - before
                before = self.prober.probes_sent
                if breaker is not None:
                    breaker.record(address, ping.responded)
                self._take_ping(result, address, ping)
                if checkpoint is not None:
                    checkpoint.record_ping(index, vp_name, address, ping)
            # Phase-end revisit: one real probe per parked address
            # (dedup by address, first-park order).  Revisit records
            # continue the phase's checkpoint indices past the pair
            # list, so resume replays them like any other ping.
            seen_parked: Set[int] = set()
            revisit: List[Tuple[str, int]] = []
            for vp_name, address in parked:
                if address not in seen_parked:
                    seen_parked.add(address)
                    revisit.append((vp_name, address))
            revisit_restored = max(0, restored - len(pairs))
            for offset, (vp_name, address) in enumerate(revisit):
                if offset < revisit_restored:
                    continue
                ping = self.prober.ping(
                    self._vp_by_name[vp_name], address
                )
                result.probes_sent += self.prober.probes_sent - before
                before = self.prober.probes_sent
                metrics.inc("campaign.pings_revisited")
                self._take_ping(result, address, ping)
                if checkpoint is not None:
                    checkpoint.record_ping(
                        len(pairs) + offset, vp_name, address, ping
                    )
        finally:
            result.probes_sent += self.prober.probes_sent - before

    @staticmethod
    def _take_ping(
        result: CampaignResult, address: int, ping: PingResult
    ) -> None:
        """Fold one fingerprint ping into the result (first
        responsive observation wins) and the analyzers."""
        existing = result.pings.get(address)
        if existing is None or (
            ping.responded and not existing.responded
        ):
            result.pings[address] = ping
        result.inventory.observe_ping(ping)
        result.rtla.add_ping(ping)

    def _ping_pairs(self, result: CampaignResult) -> Set[Tuple[str, int]]:
        """The (vp name, address) pairs the ping phase will probe."""
        pairs: Set[Tuple[str, int]] = set()
        for trace in result.traces:
            for address in trace.addresses:
                pairs.add((trace.source, address))
        return pairs

    def extract_pairs(self, result: CampaignResult) -> None:
        """Trace tails ``X, Y, D`` with X, Y in one suspicious AS."""
        seen: Set[Tuple[int, int]] = set()
        suspicious = (
            set(self.config.suspicious_asns)
            if self.config.suspicious_asns is not None
            else None
        )
        for trace in result.traces:
            pair = candidate_endpoints(trace)
            if pair is None:
                continue
            x, y = pair
            if (x, y) in seen:
                continue
            asn_x = self.asn_of(x)
            asn_y = self.asn_of(y)
            if asn_x is None or asn_x != asn_y:
                continue
            if suspicious is not None and asn_x not in suspicious:
                continue
            if self.config.hdn_addresses is not None and (
                x not in self.config.hdn_addresses
                or y not in self.config.hdn_addresses
            ):
                continue
            seen.add((x, y))
            result.pairs.append(
                CandidatePair(
                    vp=trace.source,
                    ingress=x,
                    egress=y,
                    asn=asn_x,
                    trace=trace,
                )
            )

    def revelation_phase(
        self, result: CampaignResult, checkpoint=None
    ) -> None:
        """Run the configured revelation strategy on every pair.

        The classic campaign (``revelation_technique=None``) runs the
        combined DPR/BRPR recursion unconditionally; a named registry
        technique gates each pair on its trigger first.
        """
        self._reveal_pairs(result, checkpoint)

    def _reveal_pairs(
        self, result: CampaignResult, checkpoint=None
    ) -> None:
        """The revelation loop proper (split out for accounting).

        Probe accounting is per pair (``revelation_probes`` grows as
        each pair finishes, with a ``finally`` catch-all for the pair
        a budget aborts) so a checkpoint record always reflects the
        completed pairs exactly.
        """
        restored = self._restored(checkpoint, "revelation")
        if restored:
            with self._quiet_replay(result):
                for index in range(
                    min(restored, len(result.pairs))
                ):
                    ingress, egress, revelation, pings = (
                        checkpoint.restored_revelation(index)
                    )
                    result.revelations[(ingress, egress)] = revelation
                    for address, ping in pings:
                        result.pings[address] = ping
                        result.inventory.observe_ping(ping)
                        result.rtla.add_ping(ping)
        technique_name = self.config.revelation_technique
        technique = (
            self.techniques.get(technique_name)
            if technique_name is not None
            else None
        )
        metrics = self.obs.metrics
        carried = frozenset(self.config.carried_pairs or ())
        before = self.prober.probes_sent
        try:
            for index, pair in enumerate(result.pairs):
                if index < restored:
                    continue
                if (pair.ingress, pair.egress) in carried:
                    # Carried forward from a prior snapshot by the
                    # monitor's staleness engine: record an empty,
                    # stamped revelation so checkpoint indices stay
                    # aligned; the caller merges the prior epoch's
                    # revelation into the result afterwards.
                    metrics.inc("campaign.pairs_carried")
                    revelation = Revelation(
                        ingress=pair.ingress,
                        egress=pair.egress,
                        technique="carried",
                    )
                    result.revelations[
                        (pair.ingress, pair.egress)
                    ] = revelation
                    if checkpoint is not None:
                        checkpoint.record_revelation(
                            index, revelation, []
                        )
                    continue
                vp = self._vp_by_name[pair.vp]
                if technique is not None and technique.trigger is not None:
                    context = TriggerContext(
                        pair=pair, result=result, config=self.config
                    )
                    if not technique.trigger(context):
                        # Untriggered: record an empty, stamped
                        # revelation so checkpoint indices stay
                        # aligned with the pair list.
                        metrics.inc(
                            f"technique.{technique_name}.skipped"
                        )
                        revelation = Revelation(
                            ingress=pair.ingress,
                            egress=pair.egress,
                            technique=technique_name,
                        )
                        result.revelations[
                            (pair.ingress, pair.egress)
                        ] = revelation
                        if checkpoint is not None:
                            checkpoint.record_revelation(
                                index, revelation, []
                            )
                        continue
                    metrics.inc(f"technique.{technique_name}.triggered")
                try:
                    if technique is not None:
                        revelation = technique.reveal(
                            self.prober,
                            vp,
                            ingress=pair.ingress,
                            egress=pair.egress,
                            max_steps=self.config.max_revelation_steps,
                            start_ttl=self.config.start_ttl,
                        )
                    else:
                        revelation = reveal_tunnel(
                            self.prober,
                            vp,
                            ingress=pair.ingress,
                            egress=pair.egress,
                            max_steps=self.config.max_revelation_steps,
                            start_ttl=self.config.start_ttl,
                        )
                except BudgetExceeded as exc:
                    # Keep what the aborted recursion did reveal,
                    # flagged incomplete.  The pair is deliberately
                    # *not* checkpointed: a resume re-runs it whole,
                    # replacing the partial revelation.
                    partial = getattr(exc, "partial_revelation", None)
                    if partial is not None:
                        result.revelations[
                            (pair.ingress, pair.egress)
                        ] = partial
                    raise
                result.revelations[(pair.ingress, pair.egress)] = (
                    revelation
                )
                follow_ups = []
                for trace_address in revelation.revealed:
                    # Fingerprint newly surfaced routers too.
                    if (
                        self.config.ping_discovered
                        and trace_address not in result.pings
                    ):
                        ping = self.prober.ping(vp, trace_address)
                        result.pings[trace_address] = ping
                        result.inventory.observe_ping(ping)
                        result.rtla.add_ping(ping)
                        follow_ups.append((trace_address, ping))
                result.revelation_probes += (
                    self.prober.probes_sent - before
                )
                before = self.prober.probes_sent
                if checkpoint is not None:
                    checkpoint.record_revelation(
                        index, revelation, follow_ups
                    )
        finally:
            result.revelation_probes += (
                self.prober.probes_sent - before
            )

    @contextmanager
    def _phase(self, result: CampaignResult, phase: str):
        """One pipeline phase: timing, events, cache attribution.

        Replaces the old ad-hoc ``_timed`` helper: wall-clock still
        accumulates into ``result.perf.phase_seconds``, but the phase
        now also runs under a tracer span, emits ``phase.start`` /
        ``phase.end`` events, and attributes the engine's trajectory
        hit/miss deltas to the phase (both in ``perf.phase_counters``
        and as ``phase.<name>.*`` registry counters).
        """
        metrics = self.obs.metrics
        events = self.obs.events
        hits0 = metrics.get("engine.trajectory_hits")
        misses0 = metrics.get("engine.trajectory_misses")
        if events.info:
            events.emit("phase.start", phase=phase)
        start = time.perf_counter()
        try:
            with self.obs.tracer.span("campaign.phase", phase=phase):
                if self.service is not None:
                    with self.service.scope(phase):
                        yield
                else:
                    yield
        finally:
            elapsed = time.perf_counter() - start
            seconds = result.perf.phase_seconds
            seconds[phase] = seconds.get(phase, 0.0) + elapsed
            hits = metrics.get("engine.trajectory_hits") - hits0
            misses = metrics.get("engine.trajectory_misses") - misses0
            metrics.inc(f"phase.{phase}.trajectory_hits", hits)
            metrics.inc(f"phase.{phase}.trajectory_misses", misses)
            metrics.set_gauge(f"phase.{phase}.seconds", round(elapsed, 6))
            counters = result.perf.phase_counters.setdefault(
                phase, {"trajectory_hits": 0, "trajectory_misses": 0}
            )
            counters["trajectory_hits"] += hits
            counters["trajectory_misses"] += misses
            if events.info:
                events.emit(
                    "phase.end", phase=phase, seconds=round(elapsed, 6),
                    trajectory_hits=hits, trajectory_misses=misses,
                )
            logger.debug(
                "phase %s: %.3fs, %d cache hits, %d misses",
                phase, elapsed, hits, misses,
            )

    def _engine_counters(self) -> Dict[str, int]:
        """Snapshot the engine's perf counters (0 when absent)."""
        engine = getattr(self.prober, "engine", None)
        return {
            name: getattr(engine, name, 0) for name in _ENGINE_COUNTERS
        }

    # ------------------------------------------------------------------

    def frpla(
        self,
        result: CampaignResult,
        classify: Optional[Callable[[int], str]] = None,
    ) -> FrplaAnalyzer:
        """Build an FRPLA analyzer over the campaign's traces.

        The factory comes from the technique registry when it carries
        an ``frpla`` entry, so a swapped-in analyzer implementation
        rides the same campaign plumbing.
        """
        if "frpla" in self.techniques:
            make = self.techniques.get("frpla").make_analyzer
            analyzer = make(self.asn_of, classify, obs=self.obs)
        else:
            analyzer = FrplaAnalyzer(self.asn_of, classify, obs=self.obs)
        analyzer.add_traces(result.traces)
        return analyzer

    def _team_assignment(
        self, destinations: Sequence[int]
    ) -> List[Tuple[Router, int]]:
        """Pair each destination with one VP, team-style (Sec. 4)."""
        teams = min(self.config.teams, len(self.vps))
        assignment = []
        ordered = sorted(destinations)
        for index, destination in enumerate(ordered):
            team = index % teams
            vp = self.vps[team % len(self.vps)]
            assignment.append((vp, destination))
        return assignment

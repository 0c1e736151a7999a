"""Shared infrastructure for the experiment (table/figure) modules.

Most experiments consume the same expensive artefact — a full
measurement campaign over the synthetic Internet — so it is built once
per parameter set and memoised.  Each experiment module exposes a
``run(...)`` returning a result object with structured data plus a
``text`` rendering that mirrors the paper's table/figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Sequence

from repro.campaign.orchestrator import CampaignConfig, CampaignResult
from repro.campaign.postprocess import Aggregator
from repro.campaign.stack import RunSpec, probe_backend, write_result
from repro.core.frpla import FrplaAnalyzer
from repro.measure import RecordingBackend, ReplayBackend
from repro.probing.prober import Prober
from repro.serve.registry import (
    default_registry,
    render_internet,
)

__all__ = [
    "ContextConfig",
    "CampaignContext",
    "campaign_context",
    "format_table",
]


@dataclass(frozen=True)
class ContextConfig(RunSpec):
    """Parameters for a reusable campaign context: the shared
    :class:`~repro.campaign.stack.RunSpec` fields plus the CLI's probe
    log and revelation technique."""

    #: Record every probe exchange to this JSONL probe log.
    record_path: Optional[str] = None
    #: Serve every probe from this probe log instead of the simulator.
    replay_path: Optional[str] = None
    #: Run revelation through this registry technique's trigger and
    #: strategy (e.g. ``"tnt"``) instead of the classic combined
    #: recursion; None keeps the paper's untriggered behaviour.  It
    #: changes what is measured, so it keys the snapshot too.
    revelation_technique: Optional[str] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.record_path is not None and self.resume:
            # A resumed run probes only the remainder, so its log could
            # never be replayed from the start.
            raise ValueError(
                "cannot record a resumed run: the probe log would hold "
                "only the exchanges after the checkpoint; record a "
                "fresh run instead"
            )

    def campaign_config(self, internet, **extra) -> CampaignConfig:
        """The spec's orchestrator config, revelation technique
        included."""
        return super().campaign_config(
            internet, revelation_technique=self.revelation_technique,
            **extra,
        )

    def checkpoint_topology(self) -> Dict[str, object]:
        """The spec's snapshot descriptor, stamped with the revelation
        technique when one is set."""
        descriptor = super().checkpoint_topology()
        if self.revelation_technique is not None:
            descriptor["revelation_technique"] = self.revelation_technique
        return descriptor


class CampaignContext:
    """A built Internet plus a completed campaign and its analyzers."""

    def __init__(self, config: ContextConfig) -> None:
        self.config = config
        mutating = False
        if config.fault_profile is not None:
            from repro.faults import fault_profile

            mutating = fault_profile(
                config.fault_profile
            ).mutates_network
        if mutating:
            # Flap-style profiles rewire links mid-run, so they get a
            # private, unfrozen build; everything else shares the
            # process-wide rendered snapshot below.
            self.internet = render_internet(config.topology)
        else:
            # Render-once, attach-many: two contexts in one process
            # that differ only in execution knobs (budget,
            # record/replay) share one rendered topology instead of
            # silently paying ``internet_build`` twice for the same
            # content key.
            self.internet = default_registry().attach(config.topology)
        prober, recording = self._build_prober(config)
        self.campaign = config.campaign_for(self.internet, prober)
        checkpoint = config.checkpoint_for()
        try:
            self.result: CampaignResult = self.campaign.run(
                self.internet.campaign_targets(),
                checkpoint=checkpoint,
            )
        finally:
            if recording is not None:
                recording.close()
        self.aggregator = Aggregator(
            self.result,
            self.internet.asn_of_address,
            alias_of=self._alias_of,
        )
        self.frpla: FrplaAnalyzer = self.campaign.frpla(
            self.result, classify=self.aggregator.role_of
        )
        write_result(
            checkpoint, self.internet, self.campaign, self.result,
            aggregator=self.aggregator, frpla=self.frpla,
        )

    # ------------------------------------------------------------------

    def _build_prober(self, config: ContextConfig):
        """The campaign's prober, honouring record/replay settings.

        Returns ``(prober, recording)`` where ``recording`` is the
        :class:`RecordingBackend` to close after the run (or None).
        The synthetic Internet is built either way — replay still
        needs its topology metadata (VPs, IP-to-AS, ground truth) —
        but under ``replay_path`` every probe is answered from the log
        instead of the simulator.
        """
        if config.replay_path is not None:
            return (
                Prober(
                    ReplayBackend(config.replay_path),
                    obs=self.internet.engine.obs,
                ),
                None,
            )
        if config.fault_profile is None and config.record_path is None:
            return self.internet.prober, None
        backend = probe_backend(self.internet.engine, config.fault_profile)
        if config.record_path is not None:
            recording = RecordingBackend(backend, config.record_path)
            return Prober(recording), recording
        return Prober(backend), None

    def _alias_of(self, address: int) -> Optional[str]:
        router = self.internet.router_of_address(address)
        return None if router is None else router.name

    @property
    def alias_of(self):
        """Ground-truth alias resolver (address → router name)."""
        return self._alias_of

    @property
    def asn_of(self):
        """Ground-truth IP-to-AS mapping."""
        return self.internet.asn_of_address


@lru_cache(maxsize=4)
def _cached_context(config: ContextConfig) -> CampaignContext:
    return CampaignContext(config)


def campaign_context(
    config: Optional[ContextConfig] = None,
) -> CampaignContext:
    """Build (or fetch the memoised) campaign context."""
    return _cached_context(config or ContextConfig())


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Minimal fixed-width text table for experiment output."""
    cells = [[str(h) for h in headers]]
    cells.extend([str(value) for value in row] for row in rows)
    widths = [
        max(len(row[col]) for row in cells)
        for col in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    for index, row in enumerate(cells):
        lines.append(
            "  ".join(value.ljust(width) for value, width in zip(row, widths))
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)

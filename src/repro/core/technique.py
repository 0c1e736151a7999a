"""Pluggable technique registry (analysis + trigger + revelation).

The paper's four techniques — FRPLA, RTLA, DPR, BRPR — were originally
hardwired through the orchestrator, the degrade grader, the
cross-validation harness, and the CLI.  This module turns each one
into a :class:`Technique` instance registered in an ordered
:class:`TechniqueRegistry`, so new tunnel classes (RSVP-TE) and new
revelation families (the successor paper's TNT pipeline) plug in
without touching the campaign plumbing.

A technique bundles up to five capabilities, all optional:

* ``make_analyzer`` — a passive analyzer factory (FRPLA, RTLA);
* ``trigger`` — a cheap predicate over a candidate pair deciding
  whether the expensive revelation is worth running (TNT's
  RTLA/FRPLA-style triggers);
* ``reveal`` — a full revelation strategy returning a
  :class:`~repro.core.revelation.Revelation` (the combined recursion,
  TNT);
* ``primitive`` — a single-shot revelation primitive used by the
  Table 3 cross-validation (DPR, BRPR);
* ``confidence`` — the per-technique data-quality score over a
  finished campaign result (see
  :func:`repro.campaign.degrade.assess_data_quality`).

``tunnel_classes`` declares which tunnel signalling families the
technique was designed for (``"ldp"``, ``"rsvp-te"``), so campaign
code can ask :meth:`Technique.applicable` instead of special-casing
names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional

from repro.core.brpr import backward_recursive_revelation
from repro.core.dpr import direct_path_revelation
from repro.core.frpla import FrplaAnalyzer, rfa_of_hop
from repro.core.revelation import (
    Revelation,
    RevelationMethod,
    reveal_tunnel,
)
from repro.core.rtla import RtlaAnalyzer

__all__ = [
    "DPR_METHODS",
    "BRPR_METHODS",
    "Technique",
    "TriggerContext",
    "TechniqueRegistry",
    "default_techniques",
]

#: Revelation methods that exercised the DPR side of the recursion.
DPR_METHODS = frozenset((
    RevelationMethod.DPR,
    RevelationMethod.DPR_OR_BRPR,
    RevelationMethod.HYBRID,
))

#: Revelation methods that exercised the BRPR side.
BRPR_METHODS = frozenset((
    RevelationMethod.BRPR,
    RevelationMethod.DPR_OR_BRPR,
    RevelationMethod.HYBRID,
))


@dataclass(frozen=True)
class TriggerContext:
    """What a technique trigger gets to look at.

    ``pair`` is the campaign's
    :class:`~repro.campaign.orchestrator.CandidatePair` (duck typed to
    keep this module below the campaign layer), ``result`` the
    in-progress campaign result whose analyzers — notably ``rtla`` —
    already ingested the trace and ping phases, and ``config`` the
    :class:`~repro.campaign.orchestrator.CampaignConfig`.
    """

    pair: object
    result: object
    config: object = None


@dataclass(frozen=True)
class Technique:
    """One registered measurement/revelation technique."""

    name: str
    #: ``"analysis"`` (passive, statistical) or ``"revelation"``
    #: (active probing that exposes hidden hops).
    kind: str
    description: str = ""
    #: Tunnel signalling families the technique targets.
    tunnel_classes: FrozenSet[str] = frozenset({"ldp"})
    #: Probe-budget scope its active probing charges (None = passive).
    scope: Optional[str] = None
    make_analyzer: Optional[Callable] = None
    trigger: Optional[Callable[[TriggerContext], bool]] = None
    reveal: Optional[Callable] = None
    primitive: Optional[Callable] = None
    confidence: Optional[Callable] = None

class TechniqueRegistry:
    """Ordered name -> :class:`Technique` registry.

    Registration order is meaningful: reports and the data-quality
    document enumerate techniques in it, so the classic
    frpla/rtla/dpr/brpr order (then newcomers) stays stable.
    """

    def __init__(self, techniques: Optional[List[Technique]] = None) -> None:
        self._techniques: Dict[str, Technique] = {}
        for technique in techniques or ():
            self.register(technique)

    def register(self, technique: Technique) -> Technique:
        """Add ``technique``; duplicate names are an error."""
        if technique.name in self._techniques:
            raise ValueError(
                f"technique {technique.name!r} is already registered"
            )
        self._techniques[technique.name] = technique
        return technique

    def get(self, name: str) -> Technique:
        """Lookup by name, with the known names in the error."""
        try:
            return self._techniques[name]
        except KeyError:
            known = ", ".join(sorted(self._techniques)) or "(none)"
            raise KeyError(
                f"unknown technique {name!r}; registered: {known}"
            ) from None

    def names(self) -> List[str]:
        """Registered names, in registration order."""
        return list(self._techniques)

    def scopes(self) -> List[str]:
        """Distinct budget scopes, in registration order."""
        seen: List[str] = []
        for technique in self._techniques.values():
            if technique.scope and technique.scope not in seen:
                seen.append(technique.scope)
        return seen

    def confidences(self, result) -> Dict[str, float]:
        """Per-technique data-quality confidence over ``result``.

        Techniques without a confidence scorer are skipped; the dict
        preserves registration order (reports iterate it directly).
        """
        scores: Dict[str, float] = {}
        for technique in self._techniques.values():
            if technique.confidence is not None:
                scores[technique.name] = float(
                    technique.confidence(result)
                )
        return scores

    def __iter__(self) -> Iterator[Technique]:
        return iter(self._techniques.values())

    def __len__(self) -> int:
        return len(self._techniques)

    def __contains__(self, name: str) -> bool:
        return name in self._techniques


# ---------------------------------------------------------------------------
# The shipped techniques


def _frpla_trigger(context: TriggerContext, threshold: int = 2) -> bool:
    """FRPLA-style trigger: RFA jump across the candidate pair.

    Mirrors :class:`~repro.core.revelation.TunnelAwareTraceroute`: the
    return/forward asymmetry rising by ``threshold`` or more between
    the X and Y hops of the original trace flags a likely invisible
    tunnel between them.
    """
    trace = getattr(context.pair, "trace", None)
    if trace is None:
        return False
    ingress_hop = trace.hop_of(context.pair.ingress)
    egress_hop = trace.hop_of(context.pair.egress)
    if ingress_hop is None or egress_hop is None:
        return False
    ingress_rfa = rfa_of_hop(ingress_hop)
    egress_rfa = rfa_of_hop(egress_hop)
    if ingress_rfa is None or egress_rfa is None:
        return False
    return egress_rfa.rfa - ingress_rfa.rfa >= threshold


def _rtla_trigger(context: TriggerContext) -> bool:
    """RTLA-style trigger: a positive return-tunnel-length estimate.

    Only fires for ``<255, 64>`` (Juniper-signature) endpoints the
    campaign's RTLA analyzer already holds paired observations for —
    exactly the per-router evidence TNT uses to gate revelation.
    """
    rtla = getattr(context.result, "rtla", None)
    if rtla is None:
        return False
    for address in (context.pair.egress, context.pair.ingress):
        estimate = rtla.estimate(address)
        if estimate is not None and estimate.tunnel_length >= 1:
            return True
    return False


def _tnt_trigger(context: TriggerContext) -> bool:
    """TNT gates revelation on either indicator firing."""
    return _frpla_trigger(context) or _rtla_trigger(context)


def _tnt_reveal(
    prober,
    vantage_point,
    ingress: int,
    egress: int,
    max_steps: int = 16,
    start_ttl: int = 1,
) -> Revelation:
    """TNT's revelation body: the DPR/BRPR recursion, tnt-scoped."""
    return reveal_tunnel(
        prober,
        vantage_point,
        ingress=ingress,
        egress=egress,
        max_steps=max_steps,
        start_ttl=start_ttl,
        technique="tnt",
        scope="tnt",
    )


def _trace_confidence(result) -> float:
    traces = result.traces
    if not traces:
        return 1.0
    reached = sum(1 for t in traces if t.destination_reached)
    return reached / len(traces)


def _ping_confidence(result) -> float:
    pings = list(result.pings.values())
    if not pings:
        return 1.0
    responsive = sum(1 for p in pings if p.responded)
    return responsive / len(pings)


def _method_confidence(result, methods) -> float:
    relevant = [
        r for r in result.revelations.values() if r.method in methods
    ]
    if not relevant:
        return 1.0
    complete = sum(
        1 for r in relevant if getattr(r, "complete", True)
    )
    return complete / len(relevant)


def _tnt_confidence(result) -> float:
    relevant = [
        r
        for r in result.revelations.values()
        if getattr(r, "technique", "combined") == "tnt"
    ]
    if not relevant:
        return 1.0
    complete = sum(
        1 for r in relevant if getattr(r, "complete", True)
    )
    return complete / len(relevant)


def default_techniques() -> TechniqueRegistry:
    """A fresh registry holding the shipped technique stack.

    The four paper techniques in their classic order, then TNT — the
    first post-paper entrant, covering RSVP-TE alongside LDP.
    """
    return TechniqueRegistry([
        Technique(
            name="frpla",
            kind="analysis",
            description=(
                "Forward/Return Path Length Analysis — AS-granularity "
                "RFA shift (Sec. 3.1)"
            ),
            make_analyzer=(
                lambda asn_of, classify=None, obs=None: FrplaAnalyzer(
                    asn_of, classify, obs=obs
                )
            ),
            trigger=_frpla_trigger,
            confidence=_trace_confidence,
        ),
        Technique(
            name="rtla",
            kind="analysis",
            description=(
                "Return Tunnel Length Analysis — per-router <255,64> "
                "gap (Sec. 3.1)"
            ),
            make_analyzer=(
                lambda inventory=None, obs=None: RtlaAnalyzer(
                    inventory, obs=obs
                )
            ),
            trigger=_rtla_trigger,
            confidence=_ping_confidence,
        ),
        Technique(
            name="dpr",
            kind="revelation",
            description=(
                "Direct Path Revelation — one trace reveals the whole "
                "LSP (Sec. 3.2)"
            ),
            scope="dpr",
            primitive=direct_path_revelation,
            confidence=lambda result: _method_confidence(
                result, DPR_METHODS
            ),
        ),
        Technique(
            name="brpr",
            kind="revelation",
            description=(
                "Backward Recursive Path Revelation — peel one LSR per "
                "trace (Sec. 3.2)"
            ),
            scope="brpr",
            primitive=backward_recursive_revelation,
            confidence=lambda result: _method_confidence(
                result, BRPR_METHODS
            ),
        ),
        Technique(
            name="tnt",
            kind="revelation",
            description=(
                "TNT trigger-driven pipeline — FRPLA/RTLA indicators "
                "gating the DPR/BRPR recursion ('TNT, Watch me "
                "Explode')"
            ),
            tunnel_classes=frozenset({"ldp", "rsvp-te"}),
            scope="tnt",
            trigger=_tnt_trigger,
            reveal=_tnt_reveal,
            confidence=_tnt_confidence,
        ),
    ])

"""TNT cross-validation — per-class recall/precision vs ground truth.

The TNT follow-up ("TNT, Watch Me Explode") gates DPR/BRPR-style
revelation behind FRPLA/RTLA-style triggers.  This experiment
validates the registry's ``tnt`` technique exactly as Table 3
validates the classic stack: render an internet where *both* tunnel
classes are explicit (LDP via ``ttl-propagate`` everywhere, RSVP-TE
via TE tunnels with TTL propagation), extract the fully revealed
LSPs, classify each against the installed-tunnel ground truth, and
re-run the TNT revelation against every one.

The headline asymmetry is structural, not statistical: revelation
traces target *internal* addresses, which ride the IGP/LDP — never an
RSVP-TE explicit path (Sec. 3.4) — so RSVP-TE recall collapses
wherever the pinned path detours off the IGP shortest path, while LDP
recall matches Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.campaign.crossval import extract_explicit_tunnels
from repro.core.revelation import RevelationMethod
from repro.core.technique import default_techniques
from repro.experiments.common import (
    ContextConfig,
    campaign_context,
    format_table,
)

__all__ = ["ClassValidation", "TntCrossvalResult", "run"]

#: Rendering order of the tunnel classes.
CLASS_ORDER = ("ldp", "rsvp-te")

#: TE tunnels per transit AS when the caller did not ask for any —
#: the experiment needs a mixed internet to say anything per-class.
DEFAULT_TE_TUNNELS = 2


@dataclass
class ClassValidation:
    """Cross-validation tallies for one tunnel class."""

    tunnels: int = 0  #: ground-truth tunnels of this class
    claimed: int = 0  #: TNT claimed a complete revelation
    correct: int = 0  #: claim matches the ground-truth LSR count

    @property
    def recall(self) -> float:
        """Ground-truth tunnels fully recovered (0.0 when none exist)."""
        return self.correct / self.tunnels if self.tunnels else 0.0

    @property
    def precision(self) -> float:
        """Correct claims over all claims (1.0 when nothing claimed)."""
        return self.correct / self.claimed if self.claimed else 1.0


@dataclass
class TntCrossvalResult:
    """Per-class TNT cross-validation against installed ground truth."""

    tunnels_found: int = 0
    per_class: Dict[str, ClassValidation] = field(default_factory=dict)

    @property
    def document(self) -> Dict[str, object]:
        """JSON-ready rendering (the CI crossval artifact)."""
        return {
            "experiment": "tnt-crossval",
            "tunnels_found": self.tunnels_found,
            "classes": {
                label: {
                    "tunnels": stats.tunnels,
                    "claimed": stats.claimed,
                    "correct": stats.correct,
                    "recall": round(stats.recall, 4),
                    "precision": round(stats.precision, 4),
                }
                for label, stats in self.per_class.items()
            },
        }

    @property
    def text(self) -> str:
        """Text rendering in the Table 3 layout, one row per class."""
        rows = []
        for label in CLASS_ORDER:
            stats = self.per_class.get(label, ClassValidation())
            rows.append(
                (
                    label,
                    stats.tunnels,
                    stats.claimed,
                    stats.correct,
                    f"{stats.recall:.0%}",
                    f"{stats.precision:.0%}",
                )
            )
        return format_table(
            ["Class", "Tunnels", "Claimed", "Correct",
             "Recall", "Precision"],
            rows,
            title=(
                "TNT cross-validation on "
                f"{self.tunnels_found} explicit tunnels"
            ),
        )


def run(config: Optional[ContextConfig] = None) -> TntCrossvalResult:
    """Cross-validate the TNT technique on a mixed LDP+TE internet."""
    base = (config or ContextConfig()).topology
    context = campaign_context(
        ContextConfig(
            topology=replace(
                base,
                ttl_propagate_everywhere=True,
                te_tunnels_per_transit=(
                    base.te_tunnels_per_transit or DEFAULT_TE_TUNNELS
                ),
                te_ttl_propagate=True,
            )
        )
    )
    internet = context.internet
    # UHP-null extraction: TE tails quote explicit null, so their runs
    # end inside the label stack instead of at a same-AS bare hop.
    tunnels = extract_explicit_tunnels(
        context.result.traces, context.asn_of, include_uhp_null=True
    )
    te_endpoints = {
        (tunnel.head, tunnel.tail) for tunnel in internet.te_tunnels
    }

    def router_name(address: int) -> Optional[str]:
        router = internet.router_of_address(address)
        return None if router is None else router.name

    tnt = default_techniques().get("tnt")
    vp_by_name = {vp.name: vp for vp in internet.vps}
    result = TntCrossvalResult(tunnels_found=len(tunnels))
    for label in CLASS_ORDER:
        result.per_class[label] = ClassValidation()
    for tunnel in tunnels:
        endpoints = (
            router_name(tunnel.ingress), router_name(tunnel.egress)
        )
        label = "rsvp-te" if endpoints in te_endpoints else "ldp"
        revelation = tnt.reveal(
            internet.prober,
            vp_by_name[tunnel.vp],
            ingress=tunnel.ingress,
            egress=tunnel.egress,
            max_steps=12,
            start_ttl=1,
        )
        claimed = (
            revelation.method is not RevelationMethod.NONE
            and revelation.complete
            and revelation.success
        )
        correct = claimed and (
            len(revelation.revealed) == len(tunnel.lsrs)
        )
        stats = result.per_class[label]
        stats.tunnels += 1
        stats.claimed += int(claimed)
        stats.correct += int(correct)
    return result

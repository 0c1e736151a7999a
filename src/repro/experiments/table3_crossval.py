"""Table 3 — cross-validation of DPR/BRPR on explicit tunnels.

Rebuilds the synthetic Internet with ``ttl-propagate`` everywhere (all
tunnels explicit), collects the campaign traces, extracts fully
revealed Ingress–Egress LSPs, and re-runs the revelation techniques
against them.  The paper's headline: the techniques recover the tunnel
in ~86–92% of re-discovered pairs, DPR far ahead of BRPR, with a large
single-LSR ambiguous class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.campaign.crossval import cross_validate, extract_explicit_tunnels
from repro.experiments.common import (
    ContextConfig,
    campaign_context,
    format_table,
)

__all__ = ["Table3Result", "run"]

#: Paper values for reference (Table 3).
PAPER_SHARES = {
    "fail": 0.08,
    "dpr-successful": 0.57,
    "brpr-successful": 0.03,
    "hybrid-dpr-brpr": 0.05,
    "dpr-or-brpr": 0.26,
}


@dataclass
class Table3Result:
    """Cross-validation shares over re-discovered LER pairs."""

    tunnels_found: int = 0
    shares: Dict[str, float] = field(default_factory=dict)

    @property
    def success_rate(self) -> float:
        """Share of pairs where the tunnel was fully recovered."""
        return 1.0 - self.shares.get("fail", 0.0)

    @property
    def text(self) -> str:
        """Text rendering in the paper's table/figure layout."""
        rows = []
        for label in (
            "fail",
            "dpr-successful",
            "brpr-successful",
            "hybrid-dpr-brpr",
            "dpr-or-brpr",
        ):
            rows.append(
                (
                    label,
                    f"{self.shares.get(label, 0.0):.0%}",
                    f"{PAPER_SHARES[label]:.0%}",
                )
            )
        return format_table(
            ["Outcome", "Measured", "Paper"],
            rows,
            title=(
                "Table 3: cross-validation on "
                f"{self.tunnels_found} explicit tunnels"
            ),
        )


def run(config: Optional[ContextConfig] = None) -> Table3Result:
    """Run the Table 3 cross-validation campaign."""
    base = (config or ContextConfig()).topology
    context = campaign_context(
        ContextConfig(
            topology=replace(base, ttl_propagate_everywhere=True)
        )
    )
    tunnels = extract_explicit_tunnels(
        context.result.traces, context.asn_of
    )
    vp_by_name = {vp.name: vp for vp in context.internet.vps}
    outcome = cross_validate(
        context.internet.prober, vp_by_name, tunnels
    )
    result = Table3Result(tunnels_found=len(tunnels))
    result.shares = outcome.table3_shares()
    return result

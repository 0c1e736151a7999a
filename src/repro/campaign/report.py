"""Campaign report generation.

Renders a complete, self-describing markdown report for one campaign:
probing volumes and duration estimate, per-AS revelation and
deployment tables, technique shares, tunnel-length statistics, and the
FRPLA/RTLA summaries — everything an operator or researcher would want
from a run, in one artefact.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.campaign.orchestrator import CampaignResult
from repro.campaign.postprocess import Aggregator
from repro.core.frpla import FrplaAnalyzer
from repro.core.revelation import RevelationMethod
from repro.experiments.common import format_table
from repro.stats.distributions import Distribution

__all__ = ["render_report", "render_perf_section"]


def render_perf_section(result: CampaignResult) -> str:
    """Render the performance/observability section for ``result``.

    Shows per-phase wall-clock *and* per-phase trajectory-cache
    deltas (hits/misses attributed to each phase by the metrics
    registry), plus the engine counters accumulated over the whole
    run.
    """
    perf = result.perf
    lines: List[str] = ["## Performance", ""]
    rows: List[tuple] = []
    for phase, seconds in perf.phase_seconds.items():
        cell = f"{seconds:.3f} s"
        counters = perf.phase_counters.get(phase)
        if counters is not None:
            cell += (
                f" ({counters.get('trajectory_hits', 0)} hits, "
                f"{counters.get('trajectory_misses', 0)} misses)"
            )
        rows.append((f"{phase} phase", cell))
    if perf.phase_seconds:
        rows.append(("total", f"{perf.total_seconds:.3f} s"))
    rows.extend(
        [
            ("trajectory cache hits", perf.trajectory_hits),
            ("trajectory cache misses", perf.trajectory_misses),
            ("cache hit rate", f"{perf.hit_rate:.1%}"),
            ("hops walked", perf.hops_walked),
            ("packets simulated", perf.packets_simulated),
            ("probe retries", perf.retries),
            ("retries exhausted", perf.retries_exhausted),
        ]
    )
    lines.append(format_table(["metric", "value"], rows))
    lines.append("")
    return "\n".join(lines)


def _method_counts(result: CampaignResult) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for revelation in result.revelations.values():
        label = revelation.method.value
        counts[label] = counts.get(label, 0) + 1
    return counts


def render_report(
    result: CampaignResult,
    aggregator: Aggregator,
    frpla: Optional[FrplaAnalyzer] = None,
    as_names: Optional[Dict[int, str]] = None,
    title: str = "Invisible MPLS tunnel campaign report",
) -> str:
    """Render the markdown report for ``result``."""
    names = as_names or {}
    lines: List[str] = [f"# {title}", ""]
    if result.partial:
        lines.append(
            f"> **Partial run** — {result.stop_summary()}. The "
            "tables below cover only what was measured before the "
            "stop."
        )
        lines.append("")

    # ------------------------------------------------------------------
    lines.append("## Campaign volume")
    lines.append("")
    revealed = result.successful_revelations()
    duration = result.duration_estimate_seconds()
    volume_rows = [
        ("traceroutes", len(result.traces)),
        ("addresses pinged", len(result.pings)),
        ("candidate I-E pairs", len(result.pairs)),
        ("tunnels revealed", len(revealed)),
        ("probes (trace+ping)", result.probes_sent),
        ("probes (revelation)", result.revelation_probes),
        (
            "est. duration @25pps x5 teams",
            f"{duration / 3600:.1f} h",
        ),
    ]
    lines.append(format_table(["metric", "value"], volume_rows))
    lines.append("")

    # ------------------------------------------------------------------
    quality = result.data_quality
    if quality:
        lines.append("## Data quality")
        lines.append("")
        counters = quality.get("counters", {})
        techniques = quality.get("techniques", {})
        quality_rows = [
            ("grade", quality.get("grade")),
            ("confidence", quality.get("confidence")),
            ("response rate", quality.get("response_rate")),
            ("quarantined replies", counters.get("quarantined", 0)),
            (
                "faults injected",
                counters.get("faults_injected", 0),
            ),
            ("retries exhausted", counters.get("retries_exhausted", 0)),
            ("pings parked", counters.get("pings_parked", 0)),
        ]
        # Whatever the technique registry graded, in its order —
        # nothing hardcoded, so new registry entrants show up here
        # (and in ``result.json``) automatically.
        for technique, score in techniques.items():
            quality_rows.append((f"{technique} confidence", score))
        lines.append(format_table(["metric", "value"], quality_rows))
        lines.append("")

    # ------------------------------------------------------------------
    lines.append("## Revelation methods")
    lines.append("")
    counts = _method_counts(result)
    method_rows = [
        (method.value, counts.get(method.value, 0))
        for method in RevelationMethod
    ]
    lines.append(format_table(["method", "pairs"], method_rows))
    lines.append("")

    if revealed:
        lengths = Distribution(r.tunnel_length for r in revealed)
        lines.append("## Revealed tunnel lengths")
        lines.append("")
        lines.append(
            format_table(
                ["stat", "value"],
                [
                    ("tunnels", len(lengths)),
                    ("median LSRs", f"{lengths.median:g}"),
                    ("mean LSRs", f"{lengths.mean:.2f}"),
                    ("max LSRs", f"{lengths.max:g}"),
                ],
            )
        )
        lines.append("")

    # ------------------------------------------------------------------
    lines.append("## Per-AS summary")
    lines.append("")
    as_rows = []
    for asn in aggregator.asns():
        summary = aggregator.revelation_summary(asn)
        row = aggregator.deployment_row(asn, frpla=frpla)
        label = (
            f"{names[asn]} ({asn})" if asn in names else f"AS{asn}"
        )
        as_rows.append(
            (
                label,
                summary.ie_pairs,
                f"{summary.pct_revealed:.0%}",
                summary.lsr_ips,
                f"{summary.density_before:.3f}",
                f"{summary.density_after:.3f}",
                "-" if row.frpla_median is None else f"{row.frpla_median:g}",
                "-" if row.rtla_median is None else f"{row.rtla_median:g}",
                "-" if row.ftl_median is None else f"{row.ftl_median:g}",
            )
        )
    lines.append(
        format_table(
            [
                "AS", "pairs", "%rev", "LSR IPs",
                "dens.before", "dens.after", "FRPLA", "RTLA", "FTL",
            ],
            as_rows,
        )
    )
    lines.append("")

    # ------------------------------------------------------------------
    lines.append(render_perf_section(result))
    return "\n".join(lines)

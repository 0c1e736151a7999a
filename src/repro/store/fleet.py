"""The fleet layer: fold many monitor chains into one document.

A monitoring fleet (:mod:`repro.fleet`) leaves N chains of epoch
snapshots in one warehouse.  This module folds them into the
cross-chain aggregate a deployment would actually watch — schema
``repro.fleet/1``:

* **per-chain rows** — each chain's completed-epoch prefix folded
  through :func:`repro.store.timeline.fold_timeline` (lifecycle
  summary, per-AS churn rates, per-transition event counts);
* **per-AS churn baselines** — each AS's churn rate across every
  chain that observed it (mean/min/max), the cross-chain norm an
  operator compares a single chain against;
* **alert records** — deterministic, seeded-reproducible records
  emitted when a chain's lifecycle-event count in one epoch
  transition jumps past ``alert_factor`` × its own trailing baseline
  (the churn-rate spike a deployment would page on);
* **data quality** — the fleet grade from
  :func:`repro.campaign.degrade.assess_fleet_quality`: a parked or
  drained chain (incomplete epoch coverage) *degrades* the fleet
  grade instead of failing the fleet.

The fold is a pure function of warehouse content — no paths, no
timestamps, no execution history (restarts, backoff, kills live in
the supervisor's :class:`~repro.fleet.FleetReport`, not here) — so a
fleet run that crashed and recovered folds to a document
byte-identical to an unfailed run's (pinned by test).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.campaign.degrade import assess_fleet_quality
from repro.store.layout import FLEET_SCHEMA
from repro.store.timeline import chain_snapshots, fold_timeline
from repro.store.warehouse import CampaignStore

__all__ = [
    "FLEET_SCHEMA",
    "fold_fleet",
    "render_fleet",
]

_EMPTY_SUMMARY = {
    "pairs_tracked": 0,
    "stable_pairs": 0,
    "born": 0,
    "died": 0,
    "resized": 0,
    "technique_changed": 0,
}


def _transition_events(timeline: dict) -> List[dict]:
    """Per-transition lifecycle-event totals and per-AS splits.

    Returns one row per epoch *transition* (every epoch after the
    first), in chain order: ``{"epoch", "events", "by_as"}``.
    """
    by_epoch: Dict[int, Dict[str, object]] = {}
    for pair in timeline.get("pairs") or []:
        asn = pair.get("asn")
        for event in pair.get("events") or []:
            epoch = int(event["epoch"])
            row = by_epoch.setdefault(
                epoch, {"events": 0, "by_as": {}}
            )
            row["events"] += 1
            if asn is not None:
                by_as = row["by_as"]
                by_as[int(asn)] = by_as.get(int(asn), 0) + 1
    transitions = [
        int(head["epoch"])
        for head in (timeline.get("epochs") or [])[1:]
    ]
    return [
        {
            "epoch": epoch,
            "events": by_epoch.get(epoch, {}).get("events", 0),
            "by_as": by_epoch.get(epoch, {}).get("by_as", {}),
        }
        for epoch in transitions
    ]


def _chain_alerts(
    chain: str,
    transitions: Sequence[dict],
    alert_factor: float,
    alert_min_events: int,
) -> List[dict]:
    """Deterministic churn-spike alerts for one chain.

    A transition alerts when its lifecycle-event count reaches
    ``alert_min_events`` *and* exceeds ``alert_factor`` times the mean
    of every earlier transition (the chain's own trailing baseline).
    The first transition has no baseline and never alerts — a fleet
    needs history before it can call something a spike.
    """
    alerts: List[dict] = []
    seen: List[int] = []
    for row in transitions:
        count = int(row["events"])
        if seen:
            baseline = sum(seen) / len(seen)
            if (
                count >= alert_min_events
                and count > alert_factor * baseline
            ):
                by_as = row.get("by_as") or {}
                top = sorted(
                    by_as.items(),
                    key=lambda item: (-item[1], item[0]),
                )[:3]
                alerts.append(
                    {
                        "kind": "churn-spike",
                        "chain": chain,
                        "epoch": int(row["epoch"]),
                        "events": count,
                        "baseline": round(baseline, 4),
                        "ratio": (
                            round(count / baseline, 4)
                            if baseline
                            else None
                        ),
                        "ases": [
                            {"asn": asn, "events": events}
                            for asn, events in top
                        ],
                    }
                )
        seen.append(count)
    return alerts


def fold_fleet(
    root: Union[str, Path, CampaignStore],
    chains: Optional[Sequence[str]] = None,
    expected_epochs: Optional[int] = None,
    alert_factor: float = 2.0,
    alert_min_events: int = 2,
) -> dict:
    """Fold a warehouse's monitor chains into a fleet document.

    ``chains`` restricts (and completes) the fold: ids not present in
    the warehouse still get a row with zero completed epochs, which
    is how a chain parked before its first epoch shows up — and drags
    the fleet grade down — instead of vanishing.  ``expected_epochs``
    sets per-chain coverage for the quality grade; when None each
    chain is graded only on having produced *something*.

    Only each chain's completed-epoch prefix is folded (a crashed
    epoch's partial snapshot holds no merged inventory yet), so the
    document is a pure function of completed warehouse content:
    crash-recovered and unfailed fleet runs fold byte-identically.
    """
    grouped = chain_snapshots(root)
    ids = sorted(set(chains) if chains is not None else grouped)
    chain_rows: List[dict] = []
    alerts: List[dict] = []
    rates: Dict[int, List[float]] = {}
    for chain in ids:
        members = [
            snapshot
            for snapshot in grouped.get(chain, [])
            if snapshot.completed()
        ]
        timeline = fold_timeline(members) if members else None
        transitions = (
            _transition_events(timeline) if timeline else []
        )
        alerts.extend(
            _chain_alerts(
                chain, transitions, alert_factor, alert_min_events
            )
        )
        per_as = list(timeline["per_as"]) if timeline else []
        for as_row in per_as:
            rates.setdefault(int(as_row["asn"]), []).append(
                float(as_row["churn_rate"])
            )
        completed = len(members)
        chain_rows.append(
            {
                "chain": chain,
                "churn_profile": (
                    timeline["chain"]["churn_profile"]
                    if timeline
                    else None
                ),
                "epochs_completed": completed,
                "epochs_expected": expected_epochs,
                "complete": (
                    completed >= expected_epochs
                    if expected_epochs is not None
                    else completed > 0
                ),
                "epoch_events": [
                    {
                        "epoch": row["epoch"],
                        "events": row["events"],
                    }
                    for row in transitions
                ],
                "summary": (
                    dict(timeline["summary"])
                    if timeline
                    else dict(_EMPTY_SUMMARY)
                ),
                "per_as": per_as,
            }
        )
    per_as_baseline = [
        {
            "asn": asn,
            "chains": len(observed),
            "mean_rate": round(
                sum(observed) / len(observed), 4
            ),
            "min_rate": round(min(observed), 4),
            "max_rate": round(max(observed), 4),
        }
        for asn, observed in sorted(rates.items())
    ]
    quality = assess_fleet_quality(
        chain_rows, expected_epochs=expected_epochs
    )
    return {
        "schema": FLEET_SCHEMA,
        "kind": "fleet",
        "chains": chain_rows,
        "per_as_baseline": per_as_baseline,
        "alerts": alerts,
        "data_quality": quality,
        "summary": {
            "chains": len(chain_rows),
            "complete_chains": sum(
                1 for row in chain_rows if row["complete"]
            ),
            "epochs_completed": sum(
                row["epochs_completed"] for row in chain_rows
            ),
            "pairs_tracked": sum(
                row["summary"]["pairs_tracked"]
                for row in chain_rows
            ),
            "lifecycle_events": sum(
                row["summary"]["born"]
                + row["summary"]["died"]
                + row["summary"]["resized"]
                + row["summary"]["technique_changed"]
                for row in chain_rows
            ),
            "alerts": len(alerts),
            "grade": quality["grade"],
        },
    }


def render_fleet(document: dict) -> str:
    """Human-readable rendering of a ``repro.fleet/1`` document."""
    summary = document.get("summary") or {}
    quality = document.get("data_quality") or {}
    lines = [
        f"fleet — {summary.get('chains', 0)} chains, "
        f"{summary.get('epochs_completed', 0)} epochs folded, "
        f"grade {summary.get('grade')!r} "
        f"(confidence {quality.get('confidence')})",
        "",
        "chain         epochs  pairs  events  profile      grade",
    ]
    per_chain = quality.get("chains") or {}
    for row in document.get("chains") or []:
        chain = str(row.get("chain"))
        chain_summary = row.get("summary") or {}
        events = (
            chain_summary.get("born", 0)
            + chain_summary.get("died", 0)
            + chain_summary.get("resized", 0)
            + chain_summary.get("technique_changed", 0)
        )
        expected = row.get("epochs_expected")
        epochs = (
            f"{row.get('epochs_completed', 0)}/{expected}"
            if expected is not None
            else str(row.get("epochs_completed", 0))
        )
        grade = (per_chain.get(chain) or {}).get("grade", "?")
        lines.append(
            f"{chain:<12}  {epochs:>6}"
            f"  {chain_summary.get('pairs_tracked', 0):>5}"
            f"  {events:>6}"
            f"  {str(row.get('churn_profile')):<11}"
            f"  {grade}"
        )
    incomplete = quality.get("incomplete") or []
    if incomplete:
        lines.append("")
        lines.append(
            "incomplete chains (degrading the fleet grade): "
            + ", ".join(incomplete)
        )
    alerts = document.get("alerts") or []
    lines.append("")
    if alerts:
        lines.append(f"alerts ({len(alerts)}):")
        for alert in alerts:
            ases = ", ".join(
                f"AS{entry['asn']}({entry['events']})"
                for entry in alert.get("ases") or []
            )
            ratio = alert.get("ratio")
            lines.append(
                f"  [churn-spike] chain {alert['chain']} epoch "
                f"{alert['epoch']}: {alert['events']} lifecycle "
                f"events vs baseline {alert['baseline']}"
                + (f" ({ratio}x)" if ratio is not None else "")
                + (f" — {ases}" if ases else "")
            )
    else:
        lines.append("alerts: none")
    baseline = document.get("per_as_baseline") or []
    if baseline:
        lines.append("")
        lines.append("per-AS churn baselines (events/transition):")
        for row in baseline:
            lines.append(
                f"  AS{row['asn']}: mean {row['mean_rate']:.2f} "
                f"(min {row['min_rate']:.2f}, max "
                f"{row['max_rate']:.2f}) over {row['chains']} "
                "chain(s)"
            )
    return "\n".join(lines)

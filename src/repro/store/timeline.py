"""The timeline layer: fold chained snapshots into tunnel lifecycles.

A monitoring chain leaves N content-keyed snapshots in one warehouse,
each stamped (in its manifest's topology fingerprint) with the chain
id and epoch number by :class:`repro.monitor.loop.MonitorLoop`.  This
module folds them into the longitudinal product the paper's repeated
campaigns exist for — per-pair tunnel *lifecycles*:

* **born** — the pair's tunnel is revealed in an epoch after being
  absent (pairs present in the chain's first epoch are the baseline,
  not births);
* **died** — present in the previous epoch, absent now;
* **resized** — revealed LSR count changed between epochs (the
  paper's LSP-content churn signal);
* **technique-changed** — the revelation method/technique changed
  (e.g. DPR-only to BRPR after an LDP policy flip).

The folded document (schema ``repro.monitor/1``) also carries per-AS
churn-rate rollups and each epoch's probe accounting, and is
deliberately free of absolute paths and wall-clock timestamps: the
same seed, churn profile and epoch count must fold to a byte-identical
document wherever and whenever it runs (pinned by test).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.store.layout import MONITOR_SCHEMA
from repro.store.warehouse import CampaignStore, Snapshot

__all__ = [
    "MONITOR_SCHEMA",
    "chain_snapshots",
    "fold_timeline",
    "render_timeline",
]


def _monitor_stamp(snapshot: Snapshot) -> Optional[dict]:
    """The manifest's ``monitor`` topology stamp (None when absent)."""
    manifest = snapshot.manifest() or {}
    fingerprint = manifest.get("fingerprint") or {}
    topology = fingerprint.get("topology") or {}
    stamp = topology.get("monitor")
    return stamp if isinstance(stamp, dict) else None


def chain_snapshots(
    root: Union[str, Path, CampaignStore],
    chain: Optional[str] = None,
) -> Dict[str, List[Snapshot]]:
    """Group a warehouse's monitor snapshots by chain id.

    Returns ``chain id -> snapshots sorted by epoch``; standalone
    (non-monitor) snapshots are ignored.  With ``chain`` given, only
    that chain is returned (ValueError when the warehouse has none).
    """
    store = (
        root if isinstance(root, CampaignStore) else CampaignStore(root)
    )
    chains: Dict[str, List[Tuple[int, Snapshot]]] = {}
    for snapshot in store.snapshots():
        stamp = _monitor_stamp(snapshot)
        if stamp is None:
            continue
        chain_id = str(stamp.get("chain"))
        epoch = int(stamp.get("epoch") or 0)
        chains.setdefault(chain_id, []).append((epoch, snapshot))
    ordered = {
        chain_id: [
            snapshot for _, snapshot in sorted(
                members, key=lambda item: item[0]
            )
        ]
        for chain_id, members in sorted(chains.items())
    }
    if chain is None:
        return ordered
    if chain not in ordered:
        known = ", ".join(sorted(ordered)) or "none"
        raise ValueError(
            f"no monitor chain {chain!r} in warehouse "
            f"(chains present: {known})"
        )
    return {chain: ordered[chain]}


def _epoch_head(snapshot: Snapshot) -> dict:
    """One epoch's summary row for the timeline document."""
    stamp = _monitor_stamp(snapshot) or {}
    status = snapshot.run_status() or {}
    result = snapshot.result() or {}
    sidecar = snapshot.sidecar() or {}
    return {
        "epoch": int(stamp.get("epoch") or 0),
        "key": (snapshot.manifest() or {}).get("key"),
        "snapshot_dir": snapshot.path.name,
        "partial": bool(status.get("partial")),
        "pairs": status.get("pairs"),
        "tunnels": len(result.get("tunnels") or []),
        # campaign spend incl. revelation probes (run.json splits the
        # two; the sidecar records the prober delta).
        "probes_sent": sidecar.get(
            "campaign_probes",
            (status.get("probes_sent") or 0)
            + (status.get("revelation_probes") or 0),
        ),
        "pairs_carried": sidecar.get("pairs_carried", 0),
        "pairs_stale": sidecar.get("pairs_stale", 0),
        "evidence_probes": sidecar.get("evidence_probes", 0),
        "churn_events": sidecar.get("churn_events") or [],
    }


def _tunnel_inventories(
    snapshots: Sequence[Snapshot],
) -> List[Dict[Tuple[int, int], dict]]:
    """Per-epoch tunnel maps keyed by ``(ingress, egress)``."""
    from repro.store.diff import snapshot_tunnels

    inventories = []
    for snapshot in snapshots:
        inventories.append(
            {
                (tunnel["ingress"], tunnel["egress"]): tunnel
                for tunnel in snapshot_tunnels(snapshot)
            }
        )
    return inventories


def fold_timeline(snapshots: Sequence[Snapshot]) -> dict:
    """Fold one chain's ordered snapshots into a timeline document.

    The input must be a single chain's snapshots in epoch order (as
    returned by :func:`chain_snapshots`).  The document is schema
    ``repro.monitor/1`` and deterministic for a deterministic chain
    (no paths, no timestamps).
    """
    if not snapshots:
        raise ValueError("cannot fold an empty snapshot chain")
    stamp = _monitor_stamp(snapshots[0]) or {}
    heads = [_epoch_head(snapshot) for snapshot in snapshots]
    epochs = [head["epoch"] for head in heads]
    inventories = _tunnel_inventories(snapshots)
    all_pairs = sorted(
        {pair for inventory in inventories for pair in inventory}
    )
    pairs: List[dict] = []
    events_by_as: Dict[int, Dict[str, int]] = {}
    totals = {
        "born": 0, "died": 0, "resized": 0, "technique_changed": 0
    }

    def _bump(asn: Optional[int], kind: str) -> None:
        if asn is None:
            return
        row = events_by_as.setdefault(
            int(asn),
            {"born": 0, "died": 0, "resized": 0,
             "technique_changed": 0},
        )
        row[kind] += 1
        totals[kind] += 1

    for pair in all_pairs:
        lifecycle: List[dict] = []
        present = [pair in inventory for inventory in inventories]
        asn = None
        for inventory in inventories:
            if pair in inventory:
                asn = inventory[pair].get("asn")
                break
        for position in range(1, len(inventories)):
            epoch = epochs[position]
            before = inventories[position - 1].get(pair)
            after = inventories[position].get(pair)
            if before is None and after is not None:
                lifecycle.append(
                    {
                        "epoch": epoch,
                        "event": "born",
                        "length": after.get("length"),
                    }
                )
                _bump(asn, "born")
            elif before is not None and after is None:
                lifecycle.append(
                    {
                        "epoch": epoch,
                        "event": "died",
                        "length": before.get("length"),
                    }
                )
                _bump(asn, "died")
            elif before is not None and after is not None:
                if before.get("length") != after.get("length"):
                    lifecycle.append(
                        {
                            "epoch": epoch,
                            "event": "resized",
                            "from": before.get("length"),
                            "to": after.get("length"),
                        }
                    )
                    _bump(asn, "resized")
                before_sig = (
                    before.get("method"),
                    before.get("technique"),
                )
                after_sig = (
                    after.get("method"),
                    after.get("technique"),
                )
                if before_sig != after_sig:
                    lifecycle.append(
                        {
                            "epoch": epoch,
                            "event": "technique-changed",
                            "from": list(before_sig),
                            "to": list(after_sig),
                        }
                    )
                    _bump(asn, "technique_changed")
        pairs.append(
            {
                "ingress": pair[0],
                "egress": pair[1],
                "asn": asn,
                "epochs_present": [
                    epochs[position]
                    for position, here in enumerate(present)
                    if here
                ],
                "events": lifecycle,
            }
        )

    spans = max(1, len(inventories) - 1)
    per_as = []
    pairs_by_as: Dict[int, int] = {}
    for entry in pairs:
        if entry["asn"] is not None:
            asn = int(entry["asn"])
            pairs_by_as[asn] = pairs_by_as.get(asn, 0) + 1
    for asn in sorted(set(events_by_as) | set(pairs_by_as)):
        row = events_by_as.get(
            asn,
            {"born": 0, "died": 0, "resized": 0,
             "technique_changed": 0},
        )
        events = sum(row.values())
        per_as.append(
            {
                "asn": asn,
                "pairs_seen": pairs_by_as.get(asn, 0),
                "born": row["born"],
                "died": row["died"],
                "resized": row["resized"],
                "technique_changed": row["technique_changed"],
                "lifecycle_events": events,
                #: lifecycle events per epoch transition — the
                #: chain's per-AS churn rate.
                "churn_rate": round(events / spans, 4),
            }
        )

    stable = sum(
        1
        for entry in pairs
        if not entry["events"]
        and len(entry["epochs_present"]) == len(inventories)
    )
    return {
        "schema": MONITOR_SCHEMA,
        "kind": "timeline",
        "chain": {
            "id": stamp.get("chain"),
            "churn_profile": stamp.get("churn_profile"),
            "epochs": len(snapshots),
        },
        "epochs": heads,
        "pairs": pairs,
        "per_as": per_as,
        "summary": {
            "pairs_tracked": len(pairs),
            "stable_pairs": stable,
            "born": totals["born"],
            "died": totals["died"],
            "resized": totals["resized"],
            "technique_changed": totals["technique_changed"],
        },
    }


def render_timeline(document: dict) -> str:
    """A ``repro.monitor/1`` timeline document as readable text: the
    epoch table with the chain's probe spend, the lifecycle summary,
    every eventful pair's history and the per-AS churn rates."""
    chain = document.get("chain") or {}
    summary = document.get("summary") or {}
    lines = ["# Monitor timeline", ""]
    lines.append(f"  chain          {chain.get('id')}")
    lines.append(f"  churn profile  {chain.get('churn_profile')}")
    lines.append(f"  epochs         {chain.get('epochs')}")
    lines.append("")

    lines.append("## Epochs")
    lines.append(
        "  epoch  tunnels  pairs  carried  stale  probes  churn"
    )
    total_probes = 0
    total_carried = 0
    for head in document.get("epochs") or []:
        probes = int(head.get("probes_sent") or 0)
        carried = int(head.get("pairs_carried") or 0)
        total_probes += probes
        total_carried += carried
        epoch = head.get("epoch")
        lines.append(
            f"  {epoch if epoch is not None else '?':>5}"
            f"  {head.get('tunnels') or 0:>7}"
            f"  {head.get('pairs') or 0:>5}"
            f"  {carried:>7}"
            f"  {head.get('pairs_stale') or 0:>5}"
            f"  {probes:>6}"
            f"  {len(head.get('churn_events') or []):>5}"
            + ("  [partial]" if head.get("partial") else "")
        )
    lines.append(
        f"  total campaign probes: {total_probes} "
        f"({total_carried} pair revelations carried forward)"
    )
    lines.append("")

    lines.append("## Lifecycle summary")
    lines.append(
        f"  pairs tracked  {summary.get('pairs_tracked', 0)} "
        f"(stable {summary.get('stable_pairs', 0)})"
    )
    for kind in ("born", "died", "resized", "technique_changed"):
        lines.append(f"  {kind:<18s} {summary.get(kind, 0)}")
    lines.append("")

    eventful = [
        entry
        for entry in document.get("pairs") or []
        if entry.get("events")
    ]
    if eventful:
        lines.append("## Lifecycles")
        for entry in eventful:
            history = "; ".join(
                _describe_event(event) for event in entry["events"]
            )
            lines.append(
                f"  {entry.get('ingress')}->{entry.get('egress')} "
                f"(AS{entry.get('asn')}): {history}"
            )
        lines.append("")

    per_as = document.get("per_as") or []
    if per_as:
        lines.append("## Per-AS churn rate (events / epoch)")
        for row in sorted(
            per_as,
            key=lambda row: (-row.get("churn_rate", 0), row["asn"]),
        ):
            lines.append(
                f"  AS{row['asn']:<6} rate "
                f"{row.get('churn_rate', 0):>6.2f}  "
                f"({row.get('lifecycle_events', 0)} events over "
                f"{row.get('pairs_seen', 0)} pairs)"
            )
        lines.append("")
    return "\n".join(lines)


def _describe_event(event: dict) -> str:
    """One lifecycle event as compact text (``e3 resized 4->6``)."""
    kind = event.get("event")
    text = f"e{event.get('epoch')} {kind}"
    if kind == "resized":
        text += f" {event.get('from')}->{event.get('to')}"
    elif kind == "technique-changed":
        before = "/".join(str(part) for part in event.get("from") or [])
        after = "/".join(str(part) for part in event.get("to") or [])
        text += f" {before}->{after}"
    return text

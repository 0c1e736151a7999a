"""Longitudinal diffing between two campaign snapshots.

The paper's motivation for repeated campaigns is *churn*: MPLS
tunnels appear, disappear, and change length as operators reconfigure
LSPs.  :func:`diff_snapshots` compares two warehouse snapshots —
typically the same config over topologies captured at two points in
time — and reports that churn as a schema'd document
(``repro.store.diff/1``) plus per-AS deployment deltas.

Tunnels are keyed by their ``(ingress, egress)`` candidate pair: the
pair endpoints are what a longitudinal vantage point actually
re-observes, while the revealed interior may legitimately differ probe
to probe.  The preferred source is each snapshot's ``result.json``
summary (a budget-stopped run writes a partial one); when a run
crashed before writing any, the diff falls back to reconstructing
tunnels from the raw ``revelation.jsonl`` + ``pairs.jsonl`` records,
so even two crashed campaigns can be compared.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.store.layout import DIFF_SCHEMA
from repro.store.warehouse import CampaignStore, Snapshot

__all__ = [
    "resolve_snapshot",
    "snapshot_tunnels",
    "diff_snapshots",
    "render_diff",
]


def resolve_snapshot(path: Union[str, Path]) -> Snapshot:
    """Interpret a CLI path argument as a snapshot.

    Accepts, in order of preference:

    * a snapshot directory itself;
    * ``<warehouse>/<key prefix>`` — any unambiguous prefix of a
      snapshot's directory name or full campaign key (so
      ``repro diff warehouse/7cc warehouse/94f`` works without
      typing the full 12-char dirnames);
    * a warehouse root holding exactly one snapshot (the common
      single-campaign checkpoint dir).

    Anything else raises ``ValueError`` with the candidates listed.
    """
    path = Path(path)
    snapshot = Snapshot(path)
    if snapshot.exists():
        return snapshot
    if not path.exists() and path.parent.exists():
        matched = _match_key_prefix(path.parent, path.name)
        if matched is not None:
            return matched
    snapshots = CampaignStore(path).snapshots()
    if len(snapshots) == 1:
        return snapshots[0]
    if not snapshots:
        raise ValueError(f"no campaign snapshot at {path}")
    names = ", ".join(
        snapshot.path.name for snapshot in snapshots
    )
    raise ValueError(
        f"{path} holds {len(snapshots)} snapshots ({names}); "
        "point at one of them directly or use a key prefix"
    )


def _match_key_prefix(
    root: Path, prefix: str
) -> Optional[Snapshot]:
    """The warehouse snapshot matching an unambiguous key prefix.

    A candidate matches when its directory name *or* its manifest's
    full campaign key starts with ``prefix``.  Returns None when
    nothing matches (the caller falls through to its own error);
    raises ``ValueError`` listing the candidates when the prefix is
    ambiguous.
    """
    if not prefix:
        return None
    matches = []
    for snapshot in CampaignStore(root).snapshots():
        key = str((snapshot.manifest() or {}).get("key") or "")
        if snapshot.path.name.startswith(prefix) or (
            key.startswith(prefix)
        ):
            matches.append(snapshot)
    if not matches:
        return None
    if len(matches) == 1:
        return matches[0]
    names = ", ".join(
        snapshot.path.name for snapshot in matches
    )
    raise ValueError(
        f"key prefix {prefix!r} is ambiguous in {root}: "
        f"matches {names}"
    )


def snapshot_tunnels(snapshot: Snapshot) -> List[dict]:
    """The snapshot's revealed tunnels (see module docstring for the
    result.json-with-records-fallback sourcing)."""
    result = snapshot.result()
    if result is not None and isinstance(result.get("tunnels"), list):
        return [
            tunnel
            for tunnel in result["tunnels"]
            if isinstance(tunnel, dict)
        ]
    asn_of_pair: Dict[Tuple[int, int], Optional[int]] = {}
    for record in snapshot.records("pairs"):
        asn_of_pair[(record["ingress"], record["egress"])] = (
            record.get("asn")
        )
    tunnels = []
    for record in snapshot.records("revelation"):
        revelation = record.get("revelation") or {}
        revealed = revelation.get("revealed") or []
        if not revealed:
            continue
        pair = (record["ingress"], record["egress"])
        tunnels.append(
            {
                "ingress": pair[0],
                "egress": pair[1],
                "asn": asn_of_pair.get(pair),
                "length": len(revealed),
                "method": revelation.get("method"),
                "revealed": list(revealed),
            }
        )
    return tunnels


def _snapshot_head(snapshot: Snapshot) -> dict:
    manifest = snapshot.manifest() or {}
    status = snapshot.run_status() or {}
    result = snapshot.result() or {}
    return {
        "path": str(snapshot.path),
        "key": manifest.get("key"),
        "partial": status.get("partial"),
        "from_result_summary": snapshot.result() is not None,
        #: The run's measurement trustworthiness (repro.quality/1) —
        #: a churn diff between a clean and a degraded campaign means
        #: something very different from one between two clean runs.
        "data_quality": result.get("data_quality"),
    }


def _per_as_rows(snapshot: Snapshot) -> Dict[int, dict]:
    result = snapshot.result() or {}
    rows = {}
    for row in result.get("per_as") or []:
        if isinstance(row, dict) and row.get("asn") is not None:
            rows[row["asn"]] = row
    return rows


def diff_snapshots(
    a: Union[str, Path, Snapshot],
    b: Union[str, Path, Snapshot],
) -> dict:
    """Compare two snapshots; returns a ``repro.store.diff/1`` doc."""
    snapshot_a = a if isinstance(a, Snapshot) else resolve_snapshot(a)
    snapshot_b = b if isinstance(b, Snapshot) else resolve_snapshot(b)
    tunnels_a = {
        (tunnel["ingress"], tunnel["egress"]): tunnel
        for tunnel in snapshot_tunnels(snapshot_a)
    }
    tunnels_b = {
        (tunnel["ingress"], tunnel["egress"]): tunnel
        for tunnel in snapshot_tunnels(snapshot_b)
    }
    appeared = [
        tunnels_b[pair]
        for pair in sorted(set(tunnels_b) - set(tunnels_a))
    ]
    disappeared = [
        tunnels_a[pair]
        for pair in sorted(set(tunnels_a) - set(tunnels_b))
    ]
    length_changed = []
    unchanged = 0
    for pair in sorted(set(tunnels_a) & set(tunnels_b)):
        before, after = tunnels_a[pair], tunnels_b[pair]
        if before.get("length") != after.get("length"):
            length_changed.append(
                {
                    "ingress": pair[0],
                    "egress": pair[1],
                    "asn": after.get("asn", before.get("asn")),
                    "length_a": before.get("length"),
                    "length_b": after.get("length"),
                }
            )
        else:
            unchanged += 1
    rows_a = _per_as_rows(snapshot_a)
    rows_b = _per_as_rows(snapshot_b)
    per_as = []
    for asn in sorted(set(rows_a) | set(rows_b)):
        row_a, row_b = rows_a.get(asn, {}), rows_b.get(asn, {})
        revealed_a = row_a.get("revealed_pairs") or 0
        revealed_b = row_b.get("revealed_pairs") or 0
        lsr_a = row_a.get("lsr_ips") or 0
        lsr_b = row_b.get("lsr_ips") or 0
        if not (revealed_a or revealed_b or lsr_a or lsr_b):
            continue
        per_as.append(
            {
                "asn": asn,
                "name": row_b.get("name") or row_a.get("name"),
                "revealed_pairs_a": revealed_a,
                "revealed_pairs_b": revealed_b,
                "revealed_pairs_delta": revealed_b - revealed_a,
                "lsr_ips_a": lsr_a,
                "lsr_ips_b": lsr_b,
                "lsr_ips_delta": lsr_b - lsr_a,
            }
        )
    return {
        "schema": DIFF_SCHEMA,
        "a": _snapshot_head(snapshot_a),
        "b": _snapshot_head(snapshot_b),
        "summary": {
            "appeared": len(appeared),
            "disappeared": len(disappeared),
            "length_changed": len(length_changed),
            "unchanged": unchanged,
        },
        "tunnels": {
            "appeared": appeared,
            "disappeared": disappeared,
            "length_changed": length_changed,
            "unchanged": unchanged,
        },
        "per_as": per_as,
    }


def render_diff(document: dict) -> str:
    """Human-readable rendering of a diff document (CLI output)."""
    summary = document["summary"]
    lines = [
        "Tunnel churn "
        f"({document['a']['path']} -> {document['b']['path']}):",
        f"  appeared:       {summary['appeared']}",
        f"  disappeared:    {summary['disappeared']}",
        f"  length changed: {summary['length_changed']}",
        f"  unchanged:      {summary['unchanged']}",
    ]
    qualities = []
    for side in ("a", "b"):
        quality = document[side].get("data_quality") or {}
        if quality.get("grade"):
            qualities.append(
                f"{side}={quality['grade']}"
                f" ({quality.get('confidence')})"
            )
    if qualities:
        lines.append("  data quality:   " + ", ".join(qualities))
    for label, key in (
        ("+", "appeared"), ("-", "disappeared"),
    ):
        for tunnel in document["tunnels"][key]:
            asn = tunnel.get("asn")
            lines.append(
                f"  {label} {tunnel['ingress']}->{tunnel['egress']}"
                f" (AS{asn if asn is not None else '?'},"
                f" len {tunnel.get('length')})"
            )
    for change in document["tunnels"]["length_changed"]:
        asn = change.get("asn")
        lines.append(
            f"  ~ {change['ingress']}->{change['egress']}"
            f" (AS{asn if asn is not None else '?'},"
            f" len {change['length_a']} -> {change['length_b']})"
        )
    if document["per_as"]:
        lines.append("Per-AS deltas (revealed pairs / LSR IPs):")
        for row in document["per_as"]:
            name = row.get("name") or "?"
            lines.append(
                f"  AS{row['asn']:<6} {name:<24}"
                f" revealed {row['revealed_pairs_a']} ->"
                f" {row['revealed_pairs_b']}"
                f" ({row['revealed_pairs_delta']:+d}),"
                f" lsr_ips {row['lsr_ips_a']} ->"
                f" {row['lsr_ips_b']}"
                f" ({row['lsr_ips_delta']:+d})"
            )
    return "\n".join(lines)

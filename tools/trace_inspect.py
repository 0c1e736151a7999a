#!/usr/bin/env python3
"""Summarise a campaign trace JSONL (``repro campaign --trace-out``).

Reads the structured event log produced by the observability subsystem
and prints an operator-oriented digest: probes per campaign phase, the
trajectory-cache hit ratio, revelation outcomes per technique, and the
slowest spans.  Self-contained on purpose — it only needs the JSONL
file, not the ``repro`` package, so it can run anywhere the artefact
lands (CI, a laptop, a jump host).

With ``--faults`` the digest is replaced by a JSONL filter: only the
chaos-related events (``fault.injected``, ``fault.flap``,
``measure.quarantine``) are re-emitted, one JSON object per line, for
piping into ``jq`` or a spreadsheet.

Usage::

    python tools/trace_inspect.py trace.jsonl
    python tools/trace_inspect.py --faults trace.jsonl
"""

import json
import sys
from collections import Counter, defaultdict
from typing import Dict, Iterable, List

#: Event kinds re-emitted verbatim by ``--faults``.
FAULT_EVENT_KINDS = (
    "fault.injected",
    "fault.flap",
    "measure.quarantine",
)


def load_records(path: str) -> List[dict]:
    """Parse one record per non-empty line, skipping corrupt lines.

    Truncated writes (a crash mid-line) and stray non-object lines are
    both tolerated: anything that is not a JSON object is dropped, so
    a damaged artefact still yields whatever records survived.
    """
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def summarize(records: Iterable[dict]) -> dict:
    """Digest the record stream into one summary dict.

    Probes are attributed to the campaign phase whose
    ``phase.start``/``phase.end`` bracket was open when they were sent
    (``(outside)`` otherwise).  The cache ratio prefers the per-lookup
    ``cache.hit``/``cache.miss`` events and falls back to the
    ``campaign.metrics`` counters when the trace was captured at a
    level that dropped them.
    """
    probes_per_phase: Dict[str, int] = Counter()
    phase_seconds: Dict[str, float] = {}
    cache = Counter()
    verdicts: Dict[str, Counter] = defaultdict(Counter)
    methods = Counter()
    span_totals: Dict[str, List[float]] = defaultdict(list)
    counters: Dict[str, int] = {}
    faults = Counter()
    flaps = Counter()
    quarantine = Counter()
    tenant_events: Dict[str, int] = Counter()
    tenant_probes: Dict[str, int] = Counter()
    serve_summary: dict = {}
    current_phase = "(outside)"

    for record in records:
        kind = record.get("kind")
        tenant = record.get("tenant")
        if tenant is not None:
            tenant_events[str(tenant)] += 1
            if kind == "probe.sent":
                tenant_probes[str(tenant)] += 1
        if kind == "phase.start":
            current_phase = str(record.get("phase"))
        elif kind == "phase.end":
            phase = str(record.get("phase"))
            phase_seconds[phase] = (
                phase_seconds.get(phase, 0.0)
                + float(record.get("seconds", 0.0))
            )
            current_phase = "(outside)"
        elif kind == "probe.sent":
            probes_per_phase[current_phase] += 1
        elif kind == "cache.hit":
            cache["hits"] += 1
        elif kind == "cache.miss":
            cache["misses"] += 1
        elif kind == "revelation.verdict":
            methods[str(record.get("method"))] += 1
        elif kind == "technique.verdict":
            technique = str(record.get("technique"))
            outcome = "success" if record.get("success") else "failure"
            verdicts[technique][outcome] += 1
        elif kind == "fault.injected":
            faults[str(record.get("fault"))] += 1
        elif kind == "fault.flap":
            flaps[str(record.get("action"))] += 1
        elif kind == "measure.quarantine":
            quarantine[str(record.get("reason"))] += 1
        elif kind == "span":
            span_totals[str(record.get("name"))].append(
                float(record.get("ms", 0.0))
            )
        elif kind == "campaign.metrics":
            counters = dict(record.get("counters") or {})
        elif kind == "serve.metrics":
            serve_summary = dict(record.get("summary") or {})

    hits, misses = cache["hits"], cache["misses"]
    if hits + misses == 0 and counters:
        hits = int(counters.get("engine.trajectory_hits", 0))
        misses = int(counters.get("engine.trajectory_misses", 0))
    lookups = hits + misses
    return {
        "probes_per_phase": dict(probes_per_phase),
        "phase_seconds": phase_seconds,
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_ratio": hits / lookups if lookups else 0.0,
        },
        "revelation_methods": dict(methods),
        "technique_verdicts": {
            technique: dict(outcomes)
            for technique, outcomes in verdicts.items()
        },
        "techniques": _technique_counters(counters),
        "spans": {
            name: {
                "count": len(values),
                "total_ms": round(sum(values), 3),
                "mean_ms": round(sum(values) / len(values), 3),
            }
            for name, values in span_totals.items()
        },
        "faults": dict(faults),
        "flaps": dict(flaps),
        "quarantine": dict(quarantine),
        "counters": counters,
        "tenant_events": dict(tenant_events),
        "tenant_probes": dict(tenant_probes),
        "serve": serve_summary,
    }


def _technique_counters(counters: Dict[str, int]) -> Dict[str, Dict[str, int]]:
    """Group the ``technique.*`` metrics family per technique.

    ``technique.<name>.<stat>`` counters come straight from the
    technique registry's instrumented analyzers and revelation
    strategies, so the digest enumerates whatever techniques actually
    ran — nothing hardcoded.
    """
    techniques: Dict[str, Dict[str, int]] = defaultdict(dict)
    for name, value in counters.items():
        if not name.startswith("technique."):
            continue
        parts = name.split(".", 2)
        if len(parts) != 3:
            continue
        techniques[parts[1]][parts[2]] = value
    return dict(techniques)


def render(summary: dict) -> str:
    """The summary as aligned, human-readable text."""
    lines = ["# Campaign trace summary", ""]

    lines.append("## Probes per phase")
    probes = summary["probes_per_phase"]
    if probes:
        for phase, count in sorted(probes.items()):
            seconds = summary["phase_seconds"].get(phase)
            timing = f"  ({seconds:.3f} s)" if seconds is not None else ""
            lines.append(f"  {phase:<12s} {count:>8d}{timing}")
    else:
        lines.append("  (no probe.sent events — trace not at debug level)")
    lines.append("")

    cache = summary["cache"]
    lines.append("## Trajectory cache")
    lines.append(
        f"  {cache['hits']} hits / {cache['misses']} misses "
        f"({cache['hit_ratio']:.1%} hit ratio)"
    )
    lines.append("")

    monitor = {
        name: value
        for name, value in summary["counters"].items()
        if name.startswith("monitor.")
    }
    if monitor:
        lines.append("## Monitor")
        for name, value in sorted(monitor.items()):
            label = name[len("monitor."):]
            lines.append(f"  {label:<22s} {value:>8d}")
        skipped = monitor.get("monitor.pairs_skipped", 0)
        reprobed = monitor.get("monitor.pairs_reprobed", 0)
        if skipped + reprobed:
            ratio = skipped / (skipped + reprobed)
            lines.append(
                f"  {'carried ratio':<22s} {ratio:>8.1%}"
            )
        lines.append("")

    lines.append("## Revelation outcomes")
    methods = summary["revelation_methods"]
    if methods:
        for method, count in sorted(methods.items()):
            lines.append(f"  {method:<12s} {count:>6d}")
    else:
        lines.append("  (no revelation.verdict events)")
    for technique, outcomes in sorted(
        summary["technique_verdicts"].items()
    ):
        successes = outcomes.get("success", 0)
        total = successes + outcomes.get("failure", 0)
        lines.append(
            f"  {technique:<12s} {successes}/{total} successful"
        )
    lines.append("")

    techniques = summary.get("techniques") or {}
    if techniques:
        lines.append("## Techniques")
        for technique, stats in sorted(techniques.items()):
            for stat, value in sorted(stats.items()):
                label = f"{technique}.{stat}"
                lines.append(f"  {label:<26s} {value:>8d}")
        lines.append("")

    faults = summary["faults"]
    flaps = summary["flaps"]
    quarantine = summary["quarantine"]
    counters = summary["counters"]
    chaos_counters = {
        name: value
        for name, value in counters.items()
        if name.startswith(("faults.", "measure.quarantined"))
        or name
        in ("measure.retries_exhausted", "campaign.pings_parked")
    }
    if faults or flaps or quarantine or chaos_counters:
        lines.append("## Faults and quarantine")
        for fault, count in sorted(faults.items()):
            lines.append(f"  injected {fault:<18s} {count:>6d}")
        for action, count in sorted(flaps.items()):
            lines.append(f"  flap     {action:<18s} {count:>6d}")
        for reason, count in sorted(quarantine.items()):
            lines.append(f"  quarantined {reason:<15s} {count:>6d}")
        if not (faults or flaps or quarantine):
            lines.append(
                "  (no per-event records — trace not at debug level; "
                "counters below)"
            )
        for name, value in sorted(chaos_counters.items()):
            lines.append(f"  {name:<28s} {value:>6d}")
        lines.append("")

    serve = summary["serve"]
    tenant_events = summary["tenant_events"]
    serve_counters = {
        name: value
        for name, value in summary["counters"].items()
        if name.startswith("serve.")
    }
    if serve or tenant_events or serve_counters:
        lines.append("## Serve")
        registry = serve.get("registry") or {}
        if registry:
            lines.append(
                f"  snapshots: {registry.get('renders', 0)} rendered, "
                f"{registry.get('builds_avoided', 0)} builds avoided "
                f"(~{registry.get('saved_ms', 0)} ms saved)"
            )
        if "completed" in serve or "cancelled" in serve:
            lines.append(
                f"  sessions: {serve.get('completed', 0)} completed, "
                f"{serve.get('cancelled', 0)} cancelled"
            )
        for name, value in sorted(serve_counters.items()):
            lines.append(f"  {name:<28s} {value:>8d}")
        scheduler = serve.get("scheduler") or {}
        for tenant in sorted(set(tenant_events) | set(scheduler)):
            lane = scheduler.get(tenant) or {}
            parts = [f"  tenant {tenant:<12s}"]
            if lane:
                parts.append(
                    f"weight {lane.get('weight', 1.0):<5g} "
                    f"{lane.get('granted_batches', 0):>6d} batches "
                    f"{lane.get('granted_probes', 0):>7d} probes granted"
                )
            events = tenant_events.get(tenant)
            if events:
                probes = summary["tenant_probes"].get(tenant, 0)
                parts.append(
                    f"  {events:>6d} events"
                    + (f" {probes:>6d} probes" if probes else "")
                )
            lines.append(" ".join(parts))
        lines.append("")

    spans = summary["spans"]
    if spans:
        lines.append("## Spans (by total time)")
        ranked = sorted(
            spans.items(),
            key=lambda item: item[1]["total_ms"],
            reverse=True,
        )
        for name, stats in ranked:
            lines.append(
                f"  {name:<24s} {stats['count']:>6d} x "
                f"{stats['mean_ms']:>8.3f} ms  "
                f"(total {stats['total_ms']:.3f} ms)"
            )
        lines.append("")
    return "\n".join(lines)


def filter_faults(records: Iterable[dict]) -> List[dict]:
    """The chaos-related events, original order preserved."""
    return [
        record
        for record in records
        if record.get("kind") in FAULT_EVENT_KINDS
    ]


def main(argv: List[str]) -> int:
    arguments = list(argv[1:])
    faults_only = "--faults" in arguments
    if faults_only:
        arguments.remove("--faults")
    if len(arguments) != 1 or arguments[0] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = arguments[0]
    try:
        records = load_records(path)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return 2
    try:
        if faults_only:
            for record in filter_faults(records):
                print(json.dumps(record, sort_keys=True))
        else:
            print(render(summarize(records)))
    except BrokenPipeError:  # e.g. piped into head
        return 0
    if not records:
        # Zero-record summary printed above; the status still flags
        # the empty artefact so CI pipelines notice.
        print(f"no records found in {path}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

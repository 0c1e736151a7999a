"""``repro inspect`` — one operator view over a run's artefacts.

Three views, one per artefact a run leaves behind:

* ``trace`` — an event stream (``--trace-out`` / ``--events-out``
  JSONL): probes per campaign phase, the trajectory-cache hit ratio,
  monitor counters, revelation and technique outcomes, faults and
  quarantine, per-tenant serve lines and the slowest spans.  With
  ``faults=True`` the digest is replaced by a JSONL filter that
  re-emits only the chaos events (``fault.injected``, ``fault.flap``,
  ``measure.quarantine``), for piping into ``jq``.
* ``store`` — a warehouse root (or one snapshot directory): per
  snapshot, its identity, per-phase record counts and sizes with
  damaged tails flagged, the checkpoint chain, checkpointed probe
  spend, run status and the per-AS result.  Monitor chains print in
  epoch order, and a fleet aggregate is summarised up front.
* ``timeline`` — a ``repro.monitor/1`` document (``repro monitor
  --json``) or a warehouse's monitor chains, with epochs that
  crashed or were parked mid-run flagged in-flight (resumable)
  rather than rendered as zero-tunnel rows.

The warehouse views read through :mod:`repro.store` — the readers
the resume path and the timeline fold use — so a damaged tail, a
crashed epoch or a parked chain looks the same to the operator as to
the code that resumes or folds it.

Each view prints and returns the process exit status: 0 on success;
1 for an artefact with nothing to show (an empty trace still prints
its zero-record digest first); 2 for an unreadable trace.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Optional

from repro.store.checkpoint import checkpoint_prefix, fold_state
from repro.store.layout import read_json
from repro.store.timeline import (
    _epoch_head,
    _monitor_stamp,
    chain_snapshots,
    render_timeline,
)
from repro.store.warehouse import CampaignStore, Snapshot

__all__ = [
    "FAULT_EVENT_KINDS",
    "load_records",
    "summarize",
    "render_trace",
    "filter_faults",
    "summarize_snapshot",
    "render_snapshot",
    "render_warehouse",
    "trace_view",
    "store_view",
    "timeline_view",
]

#: Event kinds re-emitted verbatim by the ``--faults`` filter.
FAULT_EVENT_KINDS = (
    "fault.injected",
    "fault.flap",
    "measure.quarantine",
)


def _chaos_counters(counters: Dict[str, int]) -> Dict[str, int]:
    """The fault, quarantine and retry counters of a registry."""
    return {
        name: value
        for name, value in counters.items()
        if name.startswith(("faults.", "measure.quarantined"))
        or name in ("measure.retries_exhausted", "campaign.pings_parked")
    }


# ---------------------------------------------------------------------------
# trace


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
    (``(outside)`` otherwise).  Counters are summed over every
    ``campaign.metrics`` record: each closes a distinct registry (one
    per traced command, one per served session).  The cache ratio
    prefers the per-lookup ``cache.hit``/``cache.miss`` events and
    falls back to those counters when the trace was captured at a
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
            for name, value in (record.get("counters") or {}).items():
                counters[name] = counters.get(name, 0) + value
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


def render_trace(summary: dict) -> str:
    """A trace summary as aligned, human-readable text."""
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

    counters = summary["counters"]
    monitor = {
        name: value
        for name, value in counters.items()
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
            lines.append(f"  {'carried ratio':<22s} {ratio:>8.1%}")
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
        lines.append(f"  {technique:<12s} {successes}/{total} successful")
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
    chaos_counters = _chaos_counters(counters)
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
        for name, value in counters.items()
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


def trace_view(path: str, faults: bool = False) -> int:
    """Print a trace's digest (or, with ``faults``, its chaos
    events as JSONL)."""
    try:
        records = load_records(path)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return 2
    if faults:
        for record in filter_faults(records):
            print(json.dumps(record, sort_keys=True))
    else:
        print(render_trace(summarize(records)))
    if not records:
        # Zero-record summary printed above; the status still flags
        # the empty artefact so CI pipelines notice.
        print(f"no records found in {path}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# store


def summarize_snapshot(snapshot: Snapshot) -> dict:
    """Digest one snapshot into a summary dict.

    Per phase, ``records`` is the file's valid record prefix and
    ``surviving`` the part a resume keeps (the seq-contiguous chain
    of :func:`~repro.store.checkpoint.checkpoint_prefix`); a phase is
    ``damaged`` when a resume would drop anything from it, corrupt
    trailing lines included.  ``last_state`` is what a resume
    restores: :func:`~repro.store.checkpoint.fold_state` over the
    surviving chain.
    """
    phases = {}
    chain = []
    quarantined = 0
    for phase, (records, kept) in checkpoint_prefix(snapshot).items():
        size, lines = snapshot.phase_stats(phase)
        for record in kept:
            state = record.get("state")
            if isinstance(state, dict):
                quarantined += len(state.get("quarantine_added") or [])
        chain.extend(kept)
        phases[phase] = {
            "records": len(records),
            "surviving": len(kept),
            "bytes": size,
            "damaged": lines > len(kept),
        }
    return {
        "path": str(snapshot.path),
        "manifest": snapshot.manifest() or {},
        "phases": phases,
        "chain_length": len(chain),
        "last_state": fold_state(chain),
        "quarantined": quarantined,
        "run": snapshot.run_status(),
        "result": snapshot.result(),
    }


def render_snapshot(summary: dict) -> str:
    """One snapshot's summary as aligned, human-readable text."""
    manifest = summary["manifest"]
    fingerprint = manifest.get("fingerprint") or {}
    topology = fingerprint.get("topology") or {}
    targets = fingerprint.get("targets") or {}
    lines = [f"# Snapshot {summary['path']}", ""]
    lines.append(f"  schema   {manifest.get('schema', '(missing manifest)')}")
    key = manifest.get("key") or "?"
    lines.append(f"  key      {key[:16]}…")
    if topology:
        described = ", ".join(
            f"{name}={value}" for name, value in sorted(topology.items())
        )
        lines.append(f"  topology {described}")
    if targets:
        lines.append(f"  targets  {targets.get('count')} destinations")
    lines.append("")

    lines.append("## Phase records")
    for phase, stats in summary["phases"].items():
        note = ""
        if stats["damaged"]:
            dropped = stats["records"] - stats["surviving"]
            detail = (
                f"{dropped} record(s) unusable"
                if dropped
                else "corrupt trailing bytes dropped on resume"
            )
            note = f"  [damaged tail: {detail}]"
        lines.append(
            f"  {phase:<12s} {stats['surviving']:>6d} records "
            f"{stats['bytes']:>10d} B{note}"
        )
    lines.append(f"  checkpoint chain: {summary['chain_length']} records")
    lines.append("")

    state = summary["last_state"]
    if state:
        result = state.get("result") or {}
        service = state.get("service") or {}
        lines.append("## Checkpointed progression")
        lines.append(f"  probes_sent        {result.get('probes_sent', '?')}")
        lines.append(
            f"  revelation_probes  {result.get('revelation_probes', '?')}"
        )
        lines.append(f"  service probes     {service.get('probes_sent', '?')}")
        scopes = service.get("scope_spent") or {}
        for scope, spent in sorted(scopes.items()):
            lines.append(f"  scope {scope:<12s} {spent}")
        chaos = _chaos_counters(state.get("counters") or {})
        if chaos or summary["quarantined"]:
            lines.append(f"  quarantined records  {summary['quarantined']}")
        for name, value in sorted(chaos.items()):
            lines.append(f"  {name:<28s} {value}")
        lines.append("")

    run = summary["run"]
    if run:
        status = "partial" if run.get("partial") else "complete"
        lines.append(f"## Last run: {status}")
        if run.get("stop_reason"):
            lines.append(f"  stop reason: {run['stop_reason']}")
        for name in (
            "traces", "pings", "pairs", "revelations",
            "probes_sent", "revelation_probes",
        ):
            if name in run:
                lines.append(f"  {name:<18s} {run[name]}")
        lines.append("")
    elif summary["chain_length"]:
        # Phase records but no run.json: the process died mid-epoch
        # before writing any status.  The checkpoint prefix is intact
        # and the run is resumable.
        lines.append("## Last run: crashed mid-epoch (no run.json)")
        lines.append(
            f"  {summary['chain_length']} checkpointed records "
            "survive; re-running the same campaign/monitor/fleet "
            "command resumes from them bit-identically"
        )
        lines.append("")

    result = summary["result"]
    if result:
        volumes = result.get("volumes") or {}
        tunnels = result.get("tunnels") or []
        lines.append("## Result summary")
        lines.append(
            f"  tunnels revealed   "
            f"{volumes.get('tunnels_revealed', len(tunnels))}"
        )
        for row in result.get("per_as") or []:
            if not isinstance(row, dict) or not row.get("revealed_pairs"):
                continue
            asn = row.get("asn")
            lines.append(
                f"  AS{asn if asn is not None else '?':<6} "
                f"{str(row.get('name') or '?'):<24s} "
                f"{row.get('revealed_pairs')}/{row.get('ie_pairs')} "
                f"pairs revealed, {row.get('lsr_ips')} LSR IPs"
            )
        lines.append("")
    return "\n".join(lines)


def _epoch(snapshot: Snapshot) -> int:
    """A chain member's epoch number, from its manifest stamp."""
    return int((_monitor_stamp(snapshot) or {}).get("epoch") or 0)


def store_view(path: str) -> int:
    """Print every snapshot under a warehouse root (or the one
    snapshot ``path`` is): fleet aggregate first, then monitor chains
    in epoch order, then standalone snapshots."""
    single = Snapshot(path)
    if single.exists():
        print(render_snapshot(summarize_snapshot(single)))
        return 0
    store = CampaignStore(path)
    snapshots = store.snapshots()
    if not snapshots:
        print(f"no campaign snapshots under {path}", file=sys.stderr)
        return 1
    fleet = store.fleet() or {}
    if fleet.get("kind") == "fleet":
        summary = fleet.get("summary") or {}
        print(
            f"# Fleet aggregate: {summary.get('chains', 0)} "
            f"chains, {summary.get('epochs_completed', 0)} epochs "
            f"folded, grade {summary.get('grade')}, "
            f"{summary.get('alerts', 0)} alert(s)"
        )
        print()
    for chain, members in chain_snapshots(store).items():
        stamp = _monitor_stamp(members[0]) or {}
        epochs = ", ".join(
            f"e{_epoch(member)}={member.path.name}" for member in members
        )
        print(
            f"# Monitor chain {chain} "
            f"({len(members)} epochs, churn profile "
            f"{stamp.get('churn_profile')!r})"
        )
        print(f"  epoch order: {epochs}")
        print()
        for member in members:
            print(render_snapshot(summarize_snapshot(member)))
    for snapshot in snapshots:
        if _monitor_stamp(snapshot) is None:
            print(render_snapshot(summarize_snapshot(snapshot)))
    return 0


# ---------------------------------------------------------------------------
# timeline


def _render_fleet_summary(store: CampaignStore) -> Optional[str]:
    """One-paragraph digest of the warehouse's fleet aggregate."""
    document = store.fleet()
    if document is None or document.get("kind") != "fleet":
        return None
    summary = document.get("summary") or {}
    quality = document.get("data_quality") or {}
    lines = [
        f"# Fleet aggregate ({document.get('schema')})",
        "",
        f"  chains           {summary.get('chains', 0)} "
        f"({summary.get('complete_chains', 0)} complete)",
        f"  epochs folded    {summary.get('epochs_completed', 0)}",
        f"  alerts           {summary.get('alerts', 0)}",
        f"  grade            {summary.get('grade')} "
        f"(confidence {quality.get('confidence')})",
    ]
    incomplete = quality.get("incomplete") or []
    if incomplete:
        lines.append(
            "  incomplete       "
            + ", ".join(str(chain) for chain in incomplete)
        )
    lines.append("")
    return "\n".join(lines)


def render_warehouse(root: str) -> Optional[str]:
    """Digest every monitor chain found under a warehouse root.

    Epoch rows are the timeline fold's own epoch heads; None when the
    directory holds no monitor chains at all.  Epochs that never
    completed (a chain crashed or was parked mid-epoch) are flagged
    as in-flight rather than rendered as zero-tunnel rows, and a
    chain with *no* completed epoch gets an explicit resume hint
    instead of an empty table pretending the chain measured nothing.
    """
    store = CampaignStore(root)
    chains = chain_snapshots(store)
    if not chains:
        return None
    lines = []
    fleet = _render_fleet_summary(store)
    if fleet is not None:
        lines.append(fleet)
    for chain, members in chains.items():
        stamp = _monitor_stamp(members[0]) or {}
        lines.append(
            f"# Monitor chain {chain} ({len(members)} epochs, "
            f"churn profile {stamp.get('churn_profile')!r})"
        )
        lines.append("")
        lines.append(
            "  epoch  tunnels  carried  stale  probes  churn  snapshot"
        )
        completed_epochs = 0
        for member in members:
            head = _epoch_head(member)
            if not member.completed():
                lines.append(
                    f"  {head['epoch']:>5}  [in-flight: crashed or "
                    "parked mid-epoch; checkpoint is resumable]  "
                    f"{head['snapshot_dir']}"
                )
                continue
            completed_epochs += 1
            lines.append(
                f"  {head['epoch']:>5}"
                f"  {head['tunnels']:>7}"
                f"  {head['pairs_carried']:>7}"
                f"  {head['pairs_stale']:>5}"
                f"  {head['probes_sent']:>6}"
                f"  {len(head['churn_events']):>5}"
                f"  {head['snapshot_dir']}"
                + ("  [partial]" if head["partial"] else "")
            )
        if completed_epochs == 0:
            lines.append(
                "  (no completed epochs yet — the chain crashed or "
                "was parked before finishing its first epoch; "
                "re-run the same monitor command, or resume the "
                "fleet, to continue from the checkpoints)"
            )
        lines.append("")
    return "\n".join(lines)


def timeline_view(path: str) -> int:
    """Print a timeline document, or a warehouse's monitor chains."""
    if os.path.isdir(path):
        digest = render_warehouse(path)
        if digest is None:
            print(f"no monitor chains under {path}", file=sys.stderr)
            return 1
        print(digest)
        return 0
    document = read_json(path)
    if document is None or "epochs" not in document:
        print(
            f"{path} is not a repro.monitor/1 timeline document",
            file=sys.stderr,
        )
        return 1
    print(render_timeline(document))
    return 0

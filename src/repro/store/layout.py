"""On-disk layout and keying for the campaign warehouse.

One *snapshot* is a directory holding everything one campaign
produced, laid out for both crash-safe incremental writes and
after-the-fact analytics (schema ``repro.store/2``)::

    <store root>/
      <key prefix>/            one snapshot per campaign key
        MANIFEST.json          {"schema": "repro.store/2", "key": ...,
                                "fingerprint": {...}}
        phases/
          trace.jsonl          one record per completed traceroute
          ping.jsonl           one record per completed fingerprint ping
          pairs.jsonl          one record per extracted candidate pair
          revelation.jsonl     one record per pair's revelation outcome
        run.json               status of the latest run (partial?, why)
        result.json            final summary: volumes, tunnels, per-AS
                               FRPLA/RTLA verdicts (for ``repro diff``)

Snapshots are *keyed by content*: the key is a SHA-256 over the
campaign's identity — topology descriptor (seed and friends), the
identity-relevant :class:`~repro.campaign.orchestrator.CampaignConfig`
fields, and the target set.  Execution knobs that cannot change what
is measured (``probe_budget``, ``scope_budgets``,
``retry_backoff_ms``) are excluded on purpose: interrupting a run with
a budget and resuming it without one must land in the same snapshot.

Phase records are an append-only log with *prefix semantics*: each
record carries its zero-based ``index``, and :func:`read_phase_records`
accepts the longest valid prefix, dropping a truncated or corrupt tail
(a crash mid-write loses at most the record being written).  Each
record's ``state`` block holds what changed since the previous record
in ``seq`` order — response-cache entries, label bindings, quarantine
records and measurement-counter deltas — next to the service and
result accounting as of the record (see
:func:`repro.store.checkpoint.fold_state`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

__all__ = [
    "STORE_SCHEMA",
    "DIFF_SCHEMA",
    "FLEET_SCHEMA",
    "MONITOR_SCHEMA",
    "PHASES",
    "IDENTITY_EXCLUDED_FIELDS",
    "IDENTITY_OMITTED_WHEN_NONE",
    "RESUME_EXEMPT_COUNTERS",
    "config_fingerprint",
    "campaign_key",
    "snapshot_dirname",
    "read_phase_records",
    "append_record",
    "rewrite_records",
    "write_json",
    "read_json",
]

#: Store layout schema identifier; bumped on incompatible changes.
STORE_SCHEMA = "repro.store/2"

#: Diff document schema identifier (see :mod:`repro.store.diff`).
DIFF_SCHEMA = "repro.store.diff/1"

#: Monitor timeline document schema identifier (see
#: :mod:`repro.store.timeline`); also stamped on the per-epoch
#: ``monitor.json`` sidecar the monitor loop writes into snapshots.
MONITOR_SCHEMA = "repro.monitor/1"

#: Fleet aggregate document schema identifier (see
#: :mod:`repro.store.fleet`); stamped on the cross-chain fold a
#: :class:`~repro.fleet.FleetSupervisor` writes as ``fleet.json``.
FLEET_SCHEMA = "repro.fleet/1"

#: Checkpointable phases, in pipeline order, with their record files.
PHASES = ("trace", "ping", "pairs", "revelation")

#: CampaignConfig fields excluded from the campaign key: they steer
#: *how* the run executes (stopping, wall-clock pacing),
#: not what it measures, and resuming legitimately changes them.
IDENTITY_EXCLUDED_FIELDS = (
    "probe_budget",
    "scope_budgets",
    "retry_backoff_ms",
)

#: Measurement counters a resumed run regenerates itself rather than
#: restoring: run-lifecycle counts that an *uninterrupted* run would
#: never have accumulated (the interruption and the resume are
#: execution events, not measurements).
RESUME_EXEMPT_COUNTERS = (
    "campaign.runs",
    "campaign.partial_runs",
    "measure.budget.denied",
    "measure.cache.flushes",
)

#: CampaignConfig fields dropped from the fingerprint entirely while
#: they hold their ``None`` default.  These are fields added *after*
#: snapshots already existed in the wild: omitting the default keeps
#: every pre-existing campaign key byte-identical, while a non-None
#: value (e.g. the monitor's carried-pair subset, which changes what
#: the revelation phase measures) still keys its own snapshot.
IDENTITY_OMITTED_WHEN_NONE = ("carried_pairs",)


def config_fingerprint(config) -> Dict[str, object]:
    """A CampaignConfig's identity-relevant fields, JSON-ready.

    Frozensets and tuples are canonicalised to sorted lists so the
    fingerprint is stable across processes.
    """
    fields = dataclasses.asdict(config)
    fingerprint: Dict[str, object] = {}
    for name, value in sorted(fields.items()):
        if name in IDENTITY_EXCLUDED_FIELDS:
            continue
        if name in IDENTITY_OMITTED_WHEN_NONE and value is None:
            continue
        if isinstance(value, frozenset):
            value = sorted(value)
        elif isinstance(value, tuple):
            value = [
                list(item) if isinstance(item, tuple) else item
                for item in value
            ]
        fingerprint[name] = value
    return fingerprint


def campaign_key(
    topology: Dict[str, object],
    config,
    targets: Sequence[int],
) -> Dict[str, object]:
    """Build the snapshot fingerprint and its content-hash key.

    Returns a dict with ``key`` (full SHA-256 hex) plus the
    human-readable fingerprint components stored in the manifest.
    ``topology`` is whatever the caller uses to rebuild the measured
    network (typically seed/scale/vantage-point counts); the target
    set is hashed rather than stored, with its size kept for
    inspection.
    """
    targets = sorted(targets)
    target_digest = hashlib.sha256(
        json.dumps(targets, separators=(",", ":")).encode("ascii")
    ).hexdigest()
    fingerprint = {
        "topology": dict(sorted(topology.items())),
        "config": config_fingerprint(config),
        "targets": {"count": len(targets), "sha256": target_digest},
    }
    key = hashlib.sha256(
        json.dumps(
            fingerprint, sort_keys=True, separators=(",", ":")
        ).encode("ascii")
    ).hexdigest()
    return {"key": key, "fingerprint": fingerprint}


def snapshot_dirname(key: str) -> str:
    """Directory name for a snapshot (shortened, collision-safe
    enough for one warehouse)."""
    return key[:12]


# ---------------------------------------------------------------------------
# Record I/O

#: Compact record encoder, built once: ``json.dumps`` with
#: ``separators`` constructs a new encoder on every call.  Records are
#: trees of plain JSON values, so the cycle check is skipped.
_encode_record = json.JSONEncoder(
    separators=(",", ":"), check_circular=False
).encode


def read_phase_records(
    path: Union[str, Path], limit: Optional[int] = None
) -> List[dict]:
    """Load the longest valid record prefix from a phase file.

    Tolerates a missing file, blank lines, a truncated final line,
    and arbitrary garbage after a crash: reading stops at the first
    line that is not a JSON object carrying the expected next
    ``index``, and everything before it is returned.  With ``limit``,
    reading also stops once that many records are loaded.
    """
    records: List[dict] = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError:
        return records
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break
            if (
                not isinstance(record, dict)
                or record.get("index") != len(records)
            ):
                break
            records.append(record)
            if len(records) == limit:
                break
    return records


def append_record(handle, record: dict) -> int:
    """Append one record line and flush; returns bytes written.

    Flushing per record is the crash-safety contract: a completed
    call means the record survives anything short of filesystem
    loss, and a crash mid-call costs only this record (the loader
    drops the truncated tail).
    """
    line = _encode_record(record) + "\n"
    handle.write(line)
    handle.flush()
    return len(line)


def rewrite_records(
    path: Union[str, Path], records: Iterable[dict]
) -> None:
    """Replace a phase file with exactly ``records``.

    Used on resume to truncate a corrupt tail before appending new
    records, so indexes stay contiguous on the next resume too.  The
    records go to a temp file renamed over the phase file, as in
    :func:`write_json`: a crash mid-rewrite leaves the old file whole.
    """
    path = Path(path)
    scratch = path.with_name(path.name + ".tmp")
    try:
        with open(scratch, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(_encode_record(record) + "\n")
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise
    scratch.replace(path)


def write_json(path: Union[str, Path], document: dict) -> None:
    """Write one JSON document (replacing atomically-enough via
    temp-and-rename, so readers never see a half-written file)."""
    path = Path(path)
    scratch = path.with_name(path.name + ".tmp")
    scratch.write_text(json.dumps(document, indent=1, sort_keys=True))
    scratch.replace(path)


def read_json(path: Union[str, Path]) -> Optional[dict]:
    """Load one JSON document; None when missing or unreadable."""
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return document if isinstance(document, dict) else None

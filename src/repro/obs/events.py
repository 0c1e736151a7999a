"""Structured event log: leveled, schema'd JSONL records.

The event log is the narrative half of the observability subsystem:
where the :mod:`metrics <repro.obs.metrics>` registry answers *how
many*, the event log answers *what happened, in order* — one record
per probe sent, reply observed, cache lookup, revelation step,
technique verdict, campaign phase, and span.

Records are plain dicts::

    {"t": 0.001234, "lvl": "info", "kind": "revelation.step",
     "ingress": ..., "egress": ..., "target": ..., "fresh": 2}

``t`` is seconds since the log was created (monotonic clock — safe to
subtract, never jumps).  Known kinds carry a schema (required field
names) enforced at emit time, so downstream tooling such as
``repro inspect trace`` can rely on the fields being present;
unknown kinds pass through unvalidated (the log is extensible).

Levels reuse the stdlib :mod:`logging` numeric values so one verbosity
setting (``repro -v``) can drive both systems — see
:func:`repro.obs.configure`.

Sinks receive finished records.  :class:`JsonlSink` streams them to a
``.jsonl`` file (the ``repro campaign --trace-out`` artefact);
:class:`RingBufferSink` keeps the last N in memory for tests and
post-mortem inspection.  With no sink attached, ``emit`` is a single
attribute check — cheap enough to leave instrumentation in hot paths.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Deque, Dict, FrozenSet, IO, List, Optional, Union

__all__ = [
    "DEBUG",
    "INFO",
    "WARNING",
    "SCHEMAS",
    "JsonlSink",
    "RingBufferSink",
    "EventLog",
]

#: Event levels — numerically identical to the stdlib logging levels.
DEBUG, INFO, WARNING = 10, 20, 30

_LEVEL_NAMES: Dict[int, str] = {DEBUG: "debug", INFO: "info", WARNING: "warning"}

#: Required fields per known event kind.  Extra fields are always
#: allowed; kinds not listed here are emitted unvalidated.
SCHEMAS: Dict[str, FrozenSet[str]] = {
    "probe.sent": frozenset({"vp", "dst", "ttl", "flow", "probe"}),
    "probe.reply": frozenset({"vp", "dst", "ttl", "reply"}),
    "probe.gap": frozenset({"vp", "dst", "ttl"}),
    "cache.hit": frozenset({"origin", "dst", "flow"}),
    "cache.miss": frozenset({"origin", "dst", "flow"}),
    "cache.flush": frozenset({"dropped"}),
    "phase.start": frozenset({"phase"}),
    "phase.end": frozenset({"phase", "seconds"}),
    "revelation.step": frozenset({"ingress", "egress", "target", "fresh"}),
    "revelation.verdict": frozenset({"ingress", "egress", "method", "revealed"}),
    "technique.verdict": frozenset({"technique", "success"}),
    "span": frozenset({"name", "span", "parent", "ms"}),
    "campaign.metrics": frozenset({"counters"}),
    "fault.injected": frozenset({"fault", "vp", "dst", "ttl"}),
    "fault.flap": frozenset({"action", "at_probe"}),
    "measure.quarantine": frozenset({"reason", "vp", "dst", "ttl"}),
}


class JsonlSink:
    """Streams records to a JSON-Lines file (one object per line)."""

    def __init__(self, destination: Union[str, IO[str]]) -> None:
        if isinstance(destination, str):
            self._handle: IO[str] = open(destination, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = destination
            self._owns_handle = False

    def write(self, record: Dict[str, object]) -> None:
        """Append one record as a compact JSON line."""
        self._handle.write(
            json.dumps(record, separators=(",", ":"), default=str)
        )
        self._handle.write("\n")

    def close(self) -> None:
        """Flush, and close the file when this sink opened it."""
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()


class RingBufferSink:
    """Keeps the most recent ``capacity`` records in memory."""

    def __init__(self, capacity: int = 10000) -> None:
        self._records: Deque[Dict[str, object]] = deque(maxlen=capacity)

    def write(self, record: Dict[str, object]) -> None:
        """Buffer one record (oldest records fall off the end)."""
        self._records.append(record)

    @property
    def records(self) -> List[Dict[str, object]]:
        """Buffered records, oldest first."""
        return list(self._records)

    def clear(self) -> None:
        """Drop every buffered record."""
        self._records.clear()


class EventLog:
    """Leveled, multi-sink event dispatcher.

    ``debug`` and ``info`` are precomputed booleans — instrumented code
    guards expensive field construction with ``if events.debug:`` so a
    disabled log costs one attribute read per potential event.
    """

    def __init__(self, level: int = INFO) -> None:
        self.sinks: List[object] = []
        self.level = level
        self._origin = time.perf_counter()
        #: True when a DEBUG-level emit would reach a sink.
        self.debug = False
        #: True when an INFO-level emit would reach a sink.
        self.info = False

    # ------------------------------------------------------------------
    # Configuration

    def _refresh(self) -> None:
        active = bool(self.sinks)
        self.debug = active and self.level <= DEBUG
        self.info = active and self.level <= INFO

    def set_level(self, level: int) -> None:
        """Change the minimum level a record needs to be sunk."""
        self.level = level
        self._refresh()

    def attach(self, sink: object) -> None:
        """Start delivering records to ``sink`` (needs ``.write``)."""
        self.sinks.append(sink)
        self._refresh()

    def detach(self, sink: object) -> None:
        """Stop delivering to ``sink`` (no error if absent)."""
        if sink in self.sinks:
            self.sinks.remove(sink)
        self._refresh()

    def detach_all(self) -> None:
        """Drop every sink — a finished served session's log writes
        nowhere after its stream closes."""
        self.sinks.clear()
        self._refresh()

    # ------------------------------------------------------------------
    # Emission

    def emit(
        self, kind: str, level: int = INFO, **fields: object
    ) -> Optional[Dict[str, object]]:
        """Dispatch one record; returns it (None when filtered).

        Known kinds are validated against :data:`SCHEMAS` — a missing
        required field raises ``ValueError`` rather than producing a
        record downstream tools cannot parse.
        """
        if not self.sinks or level < self.level:
            return None
        required = SCHEMAS.get(kind)
        if required is not None and not required <= fields.keys():
            missing = sorted(required - fields.keys())
            raise ValueError(
                f"event {kind!r} missing required fields: {missing}"
            )
        record: Dict[str, object] = {
            "t": round(time.perf_counter() - self._origin, 6),
            "lvl": _LEVEL_NAMES.get(level, str(level)),
            "kind": kind,
        }
        record.update(fields)
        for sink in self.sinks:
            sink.write(record)
        return record

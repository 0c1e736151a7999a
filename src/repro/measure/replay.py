"""Record/replay backends over JSONL probe logs.

A :class:`RecordingBackend` wraps any other backend and appends every
distinct (request, reply) exchange to a probe log — one JSON object
per line, preceded by a schema header.  A :class:`ReplayBackend`
serves probes straight from such a log, so a recorded campaign can be
re-run bit-identically without the simulator (or, one day, without
the network).

Probe-log format (``repro.probelog/1``)::

    {"schema": "repro.probelog/1", "backend": "sim"}
    {"source": "VP1", "dst": 167772161, "ttl": 2, "flow": 17,
     "kind": "echo-request",
     "reply": {"kind": "time-exceeded", "responder": 167772162,
               "router": "AS5_P3", "ttl": 253,
               "labels": [[300, 4]], "rtt": 6.0}}
    {"source": "VP1", "dst": 167772161, "ttl": 3, "flow": 17,
     "kind": "echo-request", "reply": null}

A ``null`` reply is a timeout (``*`` hop).  Requests are deduplicated
on ``(source, dst, ttl, flow, kind)`` at record time — retries of a
deterministic backend re-observe the same reply, so one entry serves
them all on replay.
"""

from __future__ import annotations

import json
from typing import IO, Dict, Optional, Union

from repro.measure.backend import (
    ECHO_REQUEST,
    ProbeBackend,
    ProbeReply,
    ProbeRequest,
    reply_from_wire,
    reply_to_wire,
)

__all__ = ["SCHEMA", "ReplayMiss", "RecordingBackend", "ReplayBackend"]

#: Probe-log schema identifier, written as the header line.
SCHEMA = "repro.probelog/1"


class ReplayMiss(RuntimeError):
    """A replayed probe was never recorded.

    Raised when a replay run diverges from the recorded one — a
    different seed, topology, or policy produced a request the log has
    no answer for.
    """

    def __init__(self, request: ProbeRequest, path: str) -> None:
        super().__init__(
            f"probe log {path!r} has no reply for "
            f"{request.source}->{request.dst} ttl={request.ttl} "
            f"flow={request.flow_id} kind={request.kind}"
        )
        self.request = request  #: the unanswerable request
        self.path = path  #: the probe log consulted


def _key(request: ProbeRequest) -> tuple:
    return (
        request.source,
        request.dst,
        request.ttl,
        request.flow_id,
        request.kind,
    )


class RecordingBackend(ProbeBackend):
    """Tees every exchange of an inner backend into a probe log."""

    name = "record"

    def __init__(
        self, inner: ProbeBackend, destination: Union[str, IO[str]]
    ) -> None:
        self.inner = inner
        #: Observability bundle delegated from the inner backend.
        self.obs = getattr(inner, "obs", None)
        #: The inner backend's engine, when it wraps one — keeps
        #: engine-level perf stats readable while recording.
        self.engine = getattr(inner, "engine", None)
        if isinstance(destination, str):
            self.path: str = destination
            self._handle: IO[str] = open(
                destination, "w", encoding="utf-8"
            )
            self._owns_handle = True
        else:
            self.path = getattr(destination, "name", "<stream>")
            self._handle = destination
            self._owns_handle = False
        self._seen: set = set()
        self._closed = False
        self._write(
            {"schema": SCHEMA, "backend": getattr(inner, "name", "?")}
        )

    def submit(self, request: ProbeRequest) -> ProbeReply:
        """Forward to the inner backend; log first-seen exchanges."""
        reply = self.inner.submit(request)
        key = _key(request)
        if key not in self._seen:
            self._seen.add(key)
            self._write(self._entry(request, reply))
        return reply

    def close(self) -> None:
        """Flush and close the log, then close the inner backend."""
        if self._closed:
            return
        self._closed = True
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()
        self.inner.close()

    # ------------------------------------------------------------------

    def _write(self, record: Dict[str, object]) -> None:
        self._handle.write(
            json.dumps(record, separators=(",", ":")) + "\n"
        )

    @staticmethod
    def _entry(
        request: ProbeRequest, reply: ProbeReply
    ) -> Dict[str, object]:
        wire = reply_to_wire(reply)
        return {
            "source": request.source,
            "dst": request.dst,
            "ttl": request.ttl,
            "flow": request.flow_id,
            "kind": request.kind,
            "reply": wire,
        }


class ReplayBackend(ProbeBackend):
    """Serves probes from a previously recorded probe log.

    Purely a lookup table: no simulator, no observability of its
    own — the service layered on top supplies policy and counters,
    exactly as it would over a live backend.
    """

    name = "replay"

    def __init__(self, path: str) -> None:
        self.path = path
        self._replies: Dict[tuple, Optional[dict]] = {}
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if "schema" in record:
                    if record["schema"] != SCHEMA:
                        raise ValueError(
                            f"unsupported probe-log schema "
                            f"{record['schema']!r} in {path!r}"
                        )
                    continue
                key = (
                    record["source"],
                    record["dst"],
                    record["ttl"],
                    record["flow"],
                    record.get("kind", ECHO_REQUEST),
                )
                self._replies[key] = record.get("reply")

    def __len__(self) -> int:
        """Number of recorded exchanges available."""
        return len(self._replies)

    def submit(self, request: ProbeRequest) -> ProbeReply:
        """Look the request up; :class:`ReplayMiss` when unrecorded."""
        try:
            wire = self._replies[_key(request)]
        except KeyError:
            raise ReplayMiss(request, self.path) from None
        return reply_from_wire(wire, request.ttl)

"""``repro.obs`` — unified observability: metrics, spans, events.

The subsystem has three legs, designed together so one verbosity/level
configuration drives all of them:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  fixed-bucket histograms, cheap enough for the forwarding engine's
  per-probe path (plain dict adds, no locks);
* :class:`~repro.obs.spans.Tracer` — context-manager spans over
  monotonic clocks with parent/child nesting, from ``campaign.run``
  down to individual engine walks and revelation attempts;
* :class:`~repro.obs.events.EventLog` — leveled, schema'd structured
  records (probe sent, reply kind, cache hit/miss, revelation step,
  technique verdict) with JSONL and in-memory ring-buffer sinks.

Wiring model
------------

Metrics are **per component stack**: every
:class:`~repro.dataplane.engine.ForwardingEngine` owns a registry, and
the prober, campaign, and technique code above it record into the same
one (so unrelated engines in one process never mix counters).  The
event log and tracer are **process-global** by default
(:func:`get_event_log` / :func:`get_tracer`): sinks can be attached
before a campaign stack even exists, which is how the CLI's
``--trace-out`` captures a run it has not built yet.  Both defaults
can be overridden by passing an explicit :class:`Obs` bundle.

With no sink attached and default levels, the whole subsystem costs a
dict add per counter and one boolean check per potential event — the
instrumentation stays in place permanently (< 10% on the cached
traceroute benchmark; see DESIGN.md for the budget).

:func:`configure` applies one verbosity to both stdlib :mod:`logging`
(the ``repro`` root logger) and the event-log level.
"""

from __future__ import annotations

import logging
import sys
from typing import IO, Optional, Tuple

from repro.obs.events import (
    DEBUG,
    INFO,
    WARNING,
    EventLog,
    JsonlSink,
    RingBufferSink,
)
from repro.obs.metrics import (
    EXECUTION_PREFIXES,
    Histogram,
    MetricsRegistry,
    measurement_counters,
)
from repro.obs.spans import NULL_SPAN, Span, Tracer

__all__ = [
    "DEBUG",
    "INFO",
    "WARNING",
    "EventLog",
    "JsonlSink",
    "RingBufferSink",
    "EXECUTION_PREFIXES",
    "Histogram",
    "MetricsRegistry",
    "measurement_counters",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "Obs",
    "get_event_log",
    "get_tracer",
    "configure",
]

#: Process-global event log — sinks attached here see every component
#: that did not get an explicit :class:`Obs` bundle.
_EVENT_LOG = EventLog()

#: Process-global tracer, bound to the global event log.
_TRACER = Tracer(_EVENT_LOG)


def get_event_log() -> EventLog:
    """The process-global event log."""
    return _EVENT_LOG


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _TRACER


class Obs:
    """One component stack's observability bundle.

    A fresh bundle gets its **own** metrics registry (per-engine
    counter isolation) but shares the **global** event log and tracer
    unless told otherwise.
    """

    __slots__ = ("metrics", "events", "tracer")

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events if events is not None else _EVENT_LOG
        self.tracer = tracer if tracer is not None else _TRACER


#: One stdlib handler managed by :func:`configure` (so repeated calls
#: never stack duplicate handlers).
_LOG_HANDLER: Optional[logging.Handler] = None


def configure(
    verbosity: int = 0, stream: Optional[IO[str]] = None
) -> Tuple[int, int]:
    """Apply one verbosity to stdlib logging *and* the event log.

    ``verbosity`` counts ``-v`` flags: 0 → logging WARNING / events
    INFO, 1 → logging INFO / events INFO, 2+ → DEBUG for both.
    Returns the ``(logging_level, event_level)`` pair applied.
    """
    global _LOG_HANDLER
    levels = (logging.WARNING, logging.INFO, logging.DEBUG)
    log_level = levels[min(verbosity, 2)]
    event_level = DEBUG if verbosity >= 2 else INFO
    root = logging.getLogger("repro")
    if _LOG_HANDLER is not None and (
        stream is not None and _LOG_HANDLER.stream is not stream
    ):
        root.removeHandler(_LOG_HANDLER)
        _LOG_HANDLER = None
    if _LOG_HANDLER is None:
        _LOG_HANDLER = logging.StreamHandler(stream or sys.stderr)
        _LOG_HANDLER.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        root.addHandler(_LOG_HANDLER)
    root.setLevel(log_level)
    _EVENT_LOG.set_level(event_level)
    return log_level, event_level

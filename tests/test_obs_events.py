"""Unit tests for the event log, sinks, spans, and level plumbing."""

import io
import json
import logging

import pytest

from repro.obs import (
    DEBUG,
    INFO,
    WARNING,
    EventLog,
    JsonlSink,
    NULL_SPAN,
    RingBufferSink,
    Tracer,
    configure,
    get_event_log,
)


def of_kind(sink, kind):
    """The sink's buffered records of one ``kind``, oldest first."""
    return [record for record in sink.records if record.get("kind") == kind]


class TestEventLog:
    def test_emit_without_sink_is_dropped(self):
        log = EventLog()
        assert log.emit("anything", note="x") is None
        assert not log.debug and not log.info

    def test_ring_buffer_captures_records(self):
        log = EventLog()
        sink = RingBufferSink()
        log.attach(sink)
        log.emit("phase.start", phase="trace")
        log.emit("phase.end", phase="trace", seconds=0.1)
        assert [r["kind"] for r in sink.records] == [
            "phase.start", "phase.end",
        ]
        assert of_kind(sink, "phase.start")[0]["phase"] == "trace"
        sink.clear()
        assert sink.records == []

    def test_level_filtering(self):
        log = EventLog(level=INFO)
        sink = RingBufferSink()
        log.attach(sink)
        assert log.emit("quiet", DEBUG) is None
        log.set_level(DEBUG)
        assert log.emit("loud", DEBUG) is not None
        log.set_level(WARNING)
        assert not log.info
        assert log.emit("filtered", INFO) is None

    def test_flags_track_sinks_and_level(self):
        log = EventLog(level=DEBUG)
        assert not log.debug  # no sink yet
        sink = RingBufferSink()
        log.attach(sink)
        assert log.debug and log.info
        log.detach(sink)
        assert not log.debug
        log.attach(sink)
        log.detach_all()
        assert not log.sinks and not log.info

    def test_schema_enforced_for_known_kinds(self):
        log = EventLog()
        log.attach(RingBufferSink())
        with pytest.raises(ValueError, match="missing required"):
            log.emit("probe.gap", vp="A", dst=1)  # ttl missing
        # Extra fields beyond the schema are fine.
        record = log.emit(
            "probe.gap", vp="A", dst=1, ttl=5, extra="ok"
        )
        assert record["extra"] == "ok"

    def test_unknown_kinds_pass_unvalidated(self):
        log = EventLog()
        log.attach(RingBufferSink())
        assert log.emit("custom.kind") is not None

    def test_records_carry_time_and_level_name(self):
        log = EventLog(level=DEBUG)
        sink = RingBufferSink()
        log.attach(sink)
        log.emit("tick", DEBUG)
        record = sink.records[0]
        assert record["lvl"] == "debug"
        assert record["t"] >= 0.0


class TestJsonlSink:
    def test_writes_compact_json_lines(self):
        buffer = io.StringIO()
        log = EventLog()
        log.attach(JsonlSink(buffer))
        log.emit("phase.start", phase="trace")
        log.emit("phase.end", phase="trace", seconds=0.5)
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["kind"] == "phase.end"

    def test_path_mode_owns_and_closes_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path))
        sink.write({"kind": "x"})
        sink.close()
        assert json.loads(path.read_text())["kind"] == "x"


class TestTracer:
    def _traced(self):
        log = EventLog()
        sink = RingBufferSink()
        log.attach(sink)
        return Tracer(log), sink

    def test_disabled_tracer_returns_shared_null_span(self):
        tracer = Tracer(EventLog())  # no sink
        span = tracer.span("anything")
        assert span is NULL_SPAN
        with span:
            span.annotate(ignored=True)

    def test_span_emits_record_with_duration(self):
        tracer, sink = self._traced()
        with tracer.span("probe.traceroute", vp="A"):
            pass
        (record,) = of_kind(sink, "span")
        assert record["name"] == "probe.traceroute"
        assert record["vp"] == "A"
        assert record["parent"] is None
        assert record["ms"] >= 0.0

    def test_nesting_links_parent_ids(self):
        tracer, sink = self._traced()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = of_kind(sink, "span")  # inner closes first
        assert inner["name"] == "inner"
        assert inner["parent"] == outer["span"]
        assert outer["parent"] is None

    def test_exception_marks_span_failed(self):
        tracer, sink = self._traced()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (record,) = of_kind(sink, "span")
        assert record["failed"] is True

    def test_annotate_adds_fields(self):
        tracer, sink = self._traced()
        with tracer.span("walk") as span:
            span.annotate(hops=7)
        assert of_kind(sink, "span")[0]["hops"] == 7


class TestConfigure:
    def teardown_method(self):
        # Restore defaults so other tests see a quiet global log.
        configure(0)
        get_event_log().set_level(INFO)

    def test_one_verbosity_drives_both_systems(self):
        assert configure(0) == (logging.WARNING, INFO)
        assert configure(1) == (logging.INFO, INFO)
        assert configure(2) == (logging.DEBUG, DEBUG)
        assert configure(5) == (logging.DEBUG, DEBUG)
        assert get_event_log().level == DEBUG

    def test_repeated_calls_keep_one_handler(self):
        configure(1)
        configure(2)
        root = logging.getLogger("repro")
        handlers = [
            h for h in root.handlers
            if isinstance(h, logging.StreamHandler)
        ]
        assert len(handlers) == 1
